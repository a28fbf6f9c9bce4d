"""Workload `cli`: every catkit subcommand run as a subprocess, as a user runs it.

The files are written by the benchmark at set-up: a surfaces module (snake,
torus in two presentations, a seeded random cobordism), a seeded pair of box
diagrams equal by construction, a seeded relation pair, and interpretation
JSON.  Expected output is derived from the same oracles as the other
workloads: snake -> identity, the random cobordism -> its Euler
classification, the relation composite -> a clamped integer product, and
`laws` ending in "all laws as expected".  Peak memory is that of the catkit
child processes.

With tracing on, each operation also runs its subcommand in-process through
`catkit.cli.main`, after calling the layers that subcommand uses one by one,
and the `laws` operation also times a bare interpreter start and a fresh
`import catkit.cli`.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import subprocess
import sys
import time

import stages
import wl_equality
import wl_surfaces
from harness import OUT, Op, Workload
from oracles import bool_chain, format_matrix, format_pairs, surface_classes

from catkit import COMPLEX, Interpretation, basis_frobenius, interpretation_from_data, lawcheck, tqft

PEAK_OF_CHILDREN = True
START_REF_S = 0.05  # a bare interpreter start at reference speed
ALL_GOOD = "all laws as expected"


def piece_text(piece):
    kind = piece[0]
    if kind == "sp":
        return f"spider(Z, {piece[1]}, {piece[2]})"
    return {"id": "id(Z)", "swap": "swap(Z, Z)", "cup": "cup(Z)", "cap": "cap(Z)"}[kind]


def layers_text(layers):
    return " >> ".join("(" + " x ".join(piece_text(p) for p in layer) + ")" for layer in layers)


def render(classes):
    return [
        f"component(in=[{', '.join(map(str, i))}], out=[{', '.join(map(str, o))}], genus={g})"
        for i, o, g in classes
    ]


def interpreter_start():
    """Calibration unit for this workload: a bare `python -c pass`, the part
    of every subcommand that catkit has no say in."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    return time.perf_counter() - t0


def catkit_cli(argv, cwd):
    return subprocess.run([sys.executable, "-m", "catkit.cli", *argv], cwd=cwd,
                          capture_output=True, text=True, timeout=120)


def in_process(tr, layer, argv, inner):
    """Run catkit.cli.main(argv) in this process, output discarded."""
    from catkit.cli import main
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        tr.call(layer, main, argv, inner=inner)


def laws_stages(tr, interp, seed):
    """The law battery of `catkit laws`, one lawcheck function at a time."""
    tag = interp.tag if interp else COMPLEX
    nat = interp if interp else Interpretation(COMPLEX, {"A": 2, "B": 3})
    hopf, antipode = tqft.hopf_group_z2(COMPLEX)
    presentations = list(interp.frobenius_data.values()) if interp else [basis_frobenius(2, tag)]
    calls = [
        ("lawcheck.coherence_ms", lawcheck.check_coherence, (tag,), {}),
        ("lawcheck.naturality_ms", lawcheck.check_naturality_squares, (nat,), {"seed": seed}),
        ("lawcheck.scalars_ms", lawcheck.check_scalar_laws, (tag,), {"seed": seed}),
        ("lawcheck.compact_ms", lawcheck.check_compact_structure, (tag,), {}),
        ("lawcheck.hopf_ms", lawcheck.check_hopf_bialgebra, (hopf, antipode), {}),
        ("lawcheck.negative_ms", lawcheck.negative_suite, (), {}),
    ]
    inner = []
    for layer, fn, args, kwargs in calls:
        report = tr.call(layer, fn, *args, **kwargs)
        inner.append(tr.last)
        tr.count("lawcheck.entries", len(report.entries))
    for p in presentations:
        report = stages.verify_frobenius(tr, p)
        inner.append(tr.last)
        tr.count("lawcheck.entries", len(report.entries))
    return inner


def setup(seed, tr):
    rng = random.Random(seed)
    work = OUT / f"cli-seed{seed}"
    work.mkdir(parents=True, exist_ok=True)

    # Surfaces: snake, torus two ways, a seeded random cobordism.
    n_in, n_out = rng.randint(1, 3), rng.randint(1, 3)
    cob = wl_surfaces.random_cobordism(rng, n_in, n_out)
    surfaces = {
        "snake": ("(id(Z) x cup(Z)) >> (cap(Z) x id(Z))", "Z", "Z"),
        "torus": (layers_text(wl_surfaces.genus_layers(1)), "I", "I"),
        "torus_alt": (layers_text(wl_surfaces.genus_layers(1, handle=wl_surfaces.ALT_HANDLE)), "I", "I"),
        "cob": (layers_text(cob), " x ".join(["Z"] * n_in), " x ".join(["Z"] * n_out)),
    }
    surfaces_text = "object Z frobenius selfdual;\n" + "".join(
        f"diag {name} = {text};\n" for name, (text, _, _) in surfaces.items()
    )
    (work / "surfaces.cat").write_text(surfaces_text)
    check_lines = [f"{name} : {dom} -> {cod}" for name, (_, dom, cod) in surfaces.items()]
    cob_lines = render(surface_classes(n_in, cob))

    # Box diagrams, equal by construction.
    layers = wl_equality.random_layers(rng, 2, 6)
    boxes_text = (wl_equality.HEADER + f"diag p = {wl_equality.plain_text(layers)};\n"
                  f"diag q = {wl_equality.rewritten_text(rng, layers)};\n")
    (work / "boxes.cat").write_text(boxes_text)

    # Interpretations: basis structure in dimension d; a named relation pair.
    d = rng.randint(2, 4)
    dim_data = {"semiring": "complex", "objects": {"Z": d}, "frobenius": {"Z": "basis"}}
    (work / "dim.json").write_text(json.dumps(dim_data))
    names = {"A": ["a1", "a2", "a3"], "B": ["b1", "b2", "b3", "b4"], "C": ["c1", "c2", "c3"]}

    def relation(dom, cod):
        pairs = [[x, y] for x in names[dom] for y in names[cod] if rng.random() < 0.4]
        rows = [[int([x, y] in pairs) for x in names[dom]] for y in names[cod]]
        return pairs, rows

    r_pairs, r_rows = relation("A", "B")
    s_pairs, s_rows = relation("B", "C")
    rel_text = "gen R : A -> B;\ngen S : B -> C;\ndiag RS = R >> S;\n"
    (work / "rel.cat").write_text(rel_text)
    rel_data = {"semiring": "bool", "objects": names,
                "generators": {"R": {"rel": r_pairs}, "S": {"rel": s_pairs}}}
    (work / "rel.json").write_text(json.dumps(rel_data))
    rs = bool_chain([r_rows, s_rows]).tolist()
    identity = [[int(i == j) for j in range(d)] for i in range(d)]

    texts = {"surfaces.cat": surfaces_text, "boxes.cat": boxes_text, "rel.cat": rel_text}

    def traced_check(tr):
        module = stages.parse(tr, surfaces_text)
        inner = [tr.last]
        for term in module.diagrams.values():
            stages.typecheck(tr, term, module.signature)
            inner.append(tr.last)
        in_process(tr, "cli.check_ms", ["check", str(work / "surfaces.cat")], inner)

    def traced_eq(file, a, b, frobenius):
        def run(tr):
            module = stages.parse(tr, texts[file])
            inner = [tr.last]
            graphs = []
            for name in (a, b):
                g = stages.to_graph(tr, module.diagrams[name], module.signature)
                inner.append(tr.last)
                if frobenius:
                    g = stages.fuse(tr, g)
                    inner.append(tr.last)
                graphs.append(g)
            stages.graph_eq(tr, *graphs)
            inner.append(tr.last)
            argv = ["eq", str(work / file), a, b] + (["--frobenius"] if frobenius else [])
            in_process(tr, "cli.eq_ms", argv, inner)
        return run

    def traced_eval(file, diagram, data, data_file):
        def run(tr):
            module = stages.parse(tr, texts[file])
            inner = [tr.last]
            interp = interpretation_from_data(data, module.signature)
            stages.interpret(tr, module.diagrams[diagram], interp)
            inner.append(tr.last)
            argv = ["eval", str(work / file), diagram, "--interp", str(work / data_file)]
            in_process(tr, "cli.eval_ms", argv, inner)
        return run

    def traced_classify(tr):
        module = stages.parse(tr, surfaces_text)
        inner = [tr.last]
        stages.classify(tr, module.diagrams["cob"], module.signature)
        inner.append(tr.last)
        in_process(tr, "cli.classify_ms", ["classify", str(work / "surfaces.cat"), "cob"], inner)

    def traced_laws(argv, data, law_seed):
        def run(tr):
            interp = None
            if data is None:  # plain `laws` runs once per round: time start-up and import here
                tr.call("cli.interpreter_ms", subprocess.run, [sys.executable, "-c", "pass"], check=True)
                tr.call("cli.import_ms", subprocess.run, [sys.executable, "-c", "import catkit.cli"],
                        check=True, inner=(tr.last,))
            else:
                interp = interpretation_from_data({k: v for k, v in data.items() if k != "generators"})
            in_process(tr, "cli.laws_ms", argv, laws_stages(tr, interp, law_seed))
        return run

    def op(name, argv, want_lines, traced, last_only=False):
        def run(tr):
            result = catkit_cli(argv, work)
            if tr.on:
                traced(tr)
            return result

        def check(result):
            lines = result.stdout.splitlines()
            got = lines[-1:] if last_only else lines
            return result.returncode == 0 and got == want_lines

        return Op(name, run, check)

    small = op("check", ["check", "surfaces.cat"], check_lines, traced_check)
    laws = op("laws", ["laws"], [ALL_GOOD], traced_laws(["laws"], None, 7), last_only=True)
    laws_interp = op("laws-interp", ["laws", "--interp", "dim.json", "--seed", str(seed)], [ALL_GOOD],
                     traced_laws(["laws", "--interp", str(work / "dim.json"), "--seed", str(seed)],
                                 dim_data, seed), last_only=True)
    ops = [
        op("eq", ["eq", "boxes.cat", "p", "q"], ["equal"], traced_eq("boxes.cat", "p", "q", False)),
        op("eq-frobenius", ["eq", "surfaces.cat", "torus", "torus_alt", "--frobenius"], ["equal"],
           traced_eq("surfaces.cat", "torus", "torus_alt", True)),
        op("eval-complex", ["eval", "surfaces.cat", "snake", "--interp", "dim.json"],
           [format_matrix("complex", identity)], traced_eval("surfaces.cat", "snake", dim_data, "dim.json")),
        op("eval-bool", ["eval", "rel.cat", "RS", "--interp", "rel.json"],
           [format_matrix("bool", rs), format_pairs(rs, names["A"], names["C"])],
           traced_eval("rel.cat", "RS", rel_data, "rel.json")),
        op("classify", ["classify", "surfaces.cat", "cob"], cob_lines, traced_classify),
        laws,
        laws_interp,
    ]
    return Workload(ops, small=[small], large=[laws, laws_interp],
                    calibrate=interpreter_start, cal_units=1, cal_ref=START_REF_S,
                    # Scaled by the calibration unit, which is itself a bare
                    # interpreter start, this would always read START_REF_S.
                    unscaled=("cli.interpreter_ms",))
