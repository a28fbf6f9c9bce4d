"""Command-line front end: check, eq, eval, classify, laws.

Exit codes are script-friendly: 0 for success or "equal", 1 for a
semantic failure (type error, unknown name, "not equal", a law that
broke), and 2 for I/O or parse problems.  A type or name error says
where it happened: ``FILE:LINE:COL:`` for a ``name(...)`` or
``coname(...)`` read in, ``FILE: diagram 'NAME':`` for a type, name,
value, size or depth error in a named diagram being typed, fused,
evaluated or classified.
"""

from __future__ import annotations

import argparse
import itertools
import math
import sys
from contextlib import contextmanager

from .diagram.terms import ParseError, TypeMismatch, UnknownName

# every other catkit module, and json, is imported by the commands that use it, so check, eq
# and classify start without numpy, dataclasses or json, and laws without parser, graphs or tqft


class Workspace:
    """Everything one invocation works with."""

    def __init__(self, signature, diagrams, interpretation=None, path=""):
        self.signature, self.diagrams, self.interpretation, self.path = signature, diagrams, interpretation, path

    def diagram(self, name):
        term = self.diagrams.get(name)
        if term is None:
            raise UnknownName(f"no diagram named {name!r} in {self.path}")
        return term

    @contextmanager
    def about(self, name):
        """Put the file and diagram `name` in front of a type, name, value, size or depth error."""
        where = f"{self.path}: diagram {name!r}"
        try:
            yield
        except (TypeMismatch, UnknownName, ValueError) as exc:
            raise type(exc)(f"{where}: {exc}") from exc
        except (RecursionError, OverflowError, MemoryError) as exc:
            exc.where = where  # main prints it in place of the bare file
            raise


def _read_text(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise _IOFailure(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise _IOFailure(f"{path}: {exc}") from exc


class _IOFailure(Exception):
    pass


def _read_json(path):
    import json

    try:
        return json.loads(_read_text(path))
    except (json.JSONDecodeError, RecursionError) as exc:  # json.loads recurses on nesting
        raise _IOFailure(f"{path}: invalid JSON: {exc}") from exc


def _load_interpretation(path, data, signature=None, tolerance=None):
    """interpretation_from_data with the file's path in front of its errors."""
    from .presentations import interpretation_from_data

    try:
        return interpretation_from_data(data, signature, tolerance=tolerance)
    except (UnknownName, ValueError) as exc:  # a declared generator's atom may have no dimension
        raise type(exc)(f"{path}: {exc}") from exc


def _load_workspace(args):
    from .diagram.parser import parse

    try:
        result = parse(_read_text(args.file))
    except TypeMismatch as exc:  # from name(...) or coname(...), which parse positions
        raise TypeMismatch(f"{args.file}:{exc.line}:{exc.col}: {exc}") from exc
    ws = Workspace(signature=result.signature, diagrams=result.diagrams, path=args.file)
    interp_path = getattr(args, "interp", None)
    if interp_path:
        data = _read_json(interp_path)
        ws.interpretation = _load_interpretation(interp_path, data, ws.signature)
    return ws


def _format_matrix(m):
    text = m.tag.ops.text
    rows = m.data.tolist()  # plain Python bools, ints or complexes
    if m.rows == 1 and m.cols == 1:
        return text(rows[0][0])
    return "[" + ", ".join("[" + ", ".join(map(text, row)) + "]" for row in rows) + "]"


def _word_labels(factors, interp):
    """Basis-element labels for a word's factors, dotted across them."""
    pools = []
    for atom, _ in factors:
        d = interp.atom_dim(atom)
        names = interp.element_names.get(atom)
        pools.append(names if names and len(names) == d else [str(i) for i in range(d)])
    if not pools:
        return ["I"]
    return [".".join(parts) for parts in itertools.product(*pools)]


def _format_pairs(m, dom_labels, cod_labels):
    rows = m.data.tolist()
    pairs = [f"({dom_labels[j]}, {cod_labels[i]})" for j in range(m.cols) for i in range(m.rows) if rows[i][j]]
    return "{" + ", ".join(pairs) + "}"


def cmd_check(args):
    from .diagram.terms import typecheck

    ws = _load_workspace(args)
    for name, term in ws.diagrams.items():
        with ws.about(name):
            dom, cod = typecheck(term, ws.signature)
        print(f"{name} : {dom} -> {cod}")
    return 0


def cmd_eq(args):
    from .diagram.graphs import graph_eq, to_graph

    if args.frobenius or args.special:  # a plain comparison loads no fusion
        from .frobenius import fuse
    ws = _load_workspace(args)
    terms = ws.diagram(args.first), ws.diagram(args.second)
    graphs, frobenius = [], {atom for atom, decl in ws.signature.objects.items() if decl.frobenius}
    for name, term in zip((args.first, args.second), terms):
        with ws.about(name):
            graph = to_graph(term, ws.signature)
            graphs.append(fuse(graph, args.special, frobenius) if args.frobenius or args.special else graph)
    equal = graph_eq(*graphs)
    print("equal" if equal else "not equal")
    return 0 if equal else 1


def cmd_eval(args):
    from .tqft import _interpret

    ws = _load_workspace(args)
    if ws.interpretation is None:
        raise _IOFailure("eval needs --interp FILE")
    term = ws.diagram(args.diagram)
    with ws.about(args.diagram):
        m, dom, cod = _interpret(term, ws.interpretation)
    print(_format_matrix(m))
    if m.tag.kind == "bool":
        print(_format_pairs(m, _word_labels(dom, ws.interpretation), _word_labels(cod, ws.interpretation)))
    return 0


def cmd_classify(args):
    from .frobenius import classify_cob

    ws = _load_workspace(args)
    term = ws.diagram(args.diagram)
    with ws.about(args.diagram):
        lines = classify_cob(term, ws.signature).render_lines()
    for line in lines:
        print(line)
    return 0


def cmd_laws(args):
    import numpy as np

    from .lawcheck import (
        check_coherence,
        check_compact_structure,
        check_hopf_bialgebra,
        check_naturality_squares,
        check_scalar_laws,
        merge_reports,
        negative_suite,
    )
    from .scalars import COMPLEX, complex_tag
    from .presentations import Interpretation, basis_frobenius, hopf_group_z2, verify_frobenius

    # overflowing data would make numpy warn on stderr; law_report
    # already fails the nan deviations such data produces
    with np.errstate(over="ignore", invalid="ignore"):
        interp = None
        if args.interp:
            data = _read_json(args.interp)
            # the battery only needs the semiring, dimensions, and any
            # frobenius data; generator matrices would require a signature
            if isinstance(data, dict):
                data = {k: v for k, v in data.items() if k != "generators"}
            interp = _load_interpretation(args.interp, data, tolerance=args.tol)
        tag = interp.tag if interp else (COMPLEX if args.tol is None else complex_tag(args.tol))
        nat_interp = interp if interp else Interpretation(tag, {"A": 2, "B": 3})
        reports = [
            check_coherence(tag),
            check_naturality_squares(nat_interp, seed=args.seed),
            check_scalar_laws(tag, seed=args.seed),
            check_compact_structure(tag),
            check_hopf_bialgebra(*hopf_group_z2(COMPLEX)),
        ]
        presentations = (
            list(interp.frobenius_data.values())
            if interp and interp.frobenius_data
            else [basis_frobenius(2, tag)]
        )
        reports += [verify_frobenius(p) for p in presentations] + [negative_suite()]
        report = merge_reports(reports)
    print(report.render())
    if report.ok:
        print("all laws as expected")
        return 0
    print("%d law(s) came out wrong" % len(report.surprises()))
    return 1


def _tolerance(text):
    """The --tol argument: a finite float >= 0."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}")
    return value


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="catkit", description="diagram toolkit for monoidal categories"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="parse a file and print every diagram's type")
    p_check.add_argument("file")
    p_check.set_defaults(func=cmd_check)

    p_eq = sub.add_parser("eq", help="compare two named diagrams up to wire homeomorphism")
    p_eq.add_argument("file")
    p_eq.add_argument("first")
    p_eq.add_argument("second")
    p_eq.add_argument("--frobenius", action="store_true", help="fuse spiders before comparing")
    p_eq.add_argument("--special", action="store_true", help="fuse as --frobenius does, and discard handles")
    p_eq.set_defaults(func=cmd_eq)

    p_eval = sub.add_parser("eval", help="evaluate a diagram to a matrix")
    p_eval.add_argument("file")
    p_eval.add_argument("diagram")
    p_eval.add_argument("--interp", required=True, help="JSON interpretation data")
    p_eval.set_defaults(func=cmd_eval)

    p_cls = sub.add_parser("classify", help="normal-form classification of a surface diagram")
    p_cls.add_argument("file")
    p_cls.add_argument("diagram")
    p_cls.set_defaults(func=cmd_classify)

    p_laws = sub.add_parser("laws", help="run the equational law battery and print a report")
    p_laws.add_argument("--interp", default=None, help="JSON interpretation data")
    p_laws.add_argument("--seed", type=int, default=7)
    p_laws.add_argument("--tol", type=_tolerance, default=None, help="complex comparison tolerance")
    p_laws.set_defaults(func=cmd_laws)

    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    path = getattr(args, "file", "<input>")
    try:
        return args.func(args)
    except _IOFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ParseError as exc:
        print(f"{path}:{exc.line}:{exc.col}: {exc}", file=sys.stderr)
        return 2
    except (TypeMismatch, UnknownName, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RecursionError as exc:
        print(f"error: {getattr(exc, 'where', path)}: term nested too deeply for {args.command}", file=sys.stderr)
        return 1
    except (OverflowError, MemoryError) as exc:
        print(f"error: {getattr(exc, 'where', path)}: term too large for {args.command}", file=sys.stderr)
        return 1


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
