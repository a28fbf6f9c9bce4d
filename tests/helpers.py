"""Shared random generators (seeded, reproducible), mutation helpers, a
recursive and a binary reference wiring walk, a reference port-graph builder, a reference spider
matrix, an emptied contraction plan cache, a memory-capped child process and
a counter of the work catkit does for the test suite."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

import catkit
from catkit import tqft
from catkit.diagram import Cap, Cup, Dagger, Gen, Id, Par, Seq, Spider, Swap
from catkit.diagram.graphs import BoxNode, OpenGraph, SpiderNode, Wiring
from catkit.diagram.terms import leaf_type, mismatch
from catkit.matcat import MatrixMorphism, compose, tensor
from catkit.scalars import BOOL, COMPLEX, NAT, SemiringTag, one

ALL_TAGS = (BOOL, NAT, COMPLEX)


def random_matrix(tag: SemiringTag, rows: int, cols: int, rng: random.Random) -> MatrixMorphism:
    m = MatrixMorphism.zeros(tag, rows, cols)
    for i in range(rows):
        for j in range(cols):
            if tag.kind == "bool":
                m.data[i, j] = rng.random() < 0.5
            elif tag.kind == "nat":
                m.data[i, j] = rng.randrange(4)
            else:
                m.data[i, j] = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
    return m


def flip_entry(m: MatrixMorphism, i: int, j: int) -> MatrixMorphism:
    """A copy of m with entry (i, j) toggled between zero and one."""
    data = m.data.copy()
    data[i, j] = 0 if data[i, j] else 1
    return MatrixMorphism._raw(m.tag, data)


def random_scalar(tag: SemiringTag, rng: random.Random):
    return random_matrix(tag, 1, 1, rng).entry(0, 0)


def swap_built_unitary(tag: SemiringTag, n: int, rng: random.Random) -> MatrixMorphism:
    """A permutation unitary: a product of random basis transpositions."""
    image = list(range(n))
    for _ in range(rng.randrange(1, 2 * n + 2)):
        i, j = rng.randrange(n), rng.randrange(n)
        image[i], image[j] = image[j], image[i]
    m = MatrixMorphism.zeros(tag, n, n)
    unit = one(tag).value
    for j, i in enumerate(image):
        m.data[i, j] = unit
    return m


def no_recursion(f, *args):
    """f(*args), or a test failure if it raises RecursionError.

    The failure is raised after the handler has finished, with no traceback:
    reporting the RecursionError itself makes pytest compare the locals of
    about a thousand frames, which hold the deep terms, and stall for minutes.
    """
    try:
        return f(*args)
    except RecursionError:
        pass
    pytest.fail(f"{getattr(f, '__name__', f)} raised RecursionError", pytrace=False)


@contextmanager
def fresh_plans():
    """An empty contraction plan cache on entry and on exit, so spies on the
    planner see every network planned inside, whatever ran before."""
    tqft._plan.cache_clear()
    try:
        yield
    finally:
        tqft._plan.cache_clear()


def run_capped(code, *args, gib=3):
    """Run Python code, with args as sys.argv[1:], in a child process whose
    address space is capped at gib GiB, so a runaway allocation fails there
    instead of exhausting the machine.  catkit and these helpers import as
    here; numpy keeps one BLAS thread.  Returns the CompletedProcess."""
    cap = gib << 30
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root / "tests")])}
    env["OPENBLAS_NUM_THREADS"] = "1"
    code = f"import resource\nresource.setrlimit(resource.RLIMIT_AS, ({cap}, {cap}))\n{code}"
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True, env=env, timeout=120)


def line_events(f, *args):
    """f(*args) and the number of line events in catkit's own frames while it
    ran, counted with sys.settrace: work that does not depend on how fast
    the machine is.  Python 3.10 and 3.11 have no sys.monitoring."""
    package, count = os.path.dirname(catkit.__file__) + os.sep, 0

    def in_frame(frame, event, arg):
        nonlocal count
        count += event == "line"
        return in_frame

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: in_frame if frame.f_code.co_filename.startswith(package) else None)
    try:
        result = f(*args)
    finally:
        sys.settrace(previous)
    return result, count


def kronecker_spider(p, k: int, l: int, genus: int = 0) -> MatrixMorphism:
    """The (k, l, genus) spider of p as a product of Kronecker products.

    A left comb of mu merges the k legs (mu . (merge x id)), genus handles
    mu . delta follow, and a left comb of delta branches into the l legs
    ((branch x id) . delta); unit_e and eps stand in for no legs.  This is
    the dense form ``spider_matrix`` once built, kept as a reference.
    """
    ident = MatrixMorphism.identity(p.tag, p.dim)
    merge = p.unit_e if k == 0 else ident
    for _ in range(k - 1):
        merge = compose(p.mu, tensor(merge, ident))
    branch = p.eps if l == 0 else ident
    for _ in range(l - 1):
        branch = compose(tensor(branch, ident), p.delta)
    for _ in range(genus):
        merge = compose(compose(p.mu, p.delta), merge)
    return compose(branch, merge)


def reference_walk(term, sig, leaf):
    """A recursive model of ``Wiring.walk``, for shallow terms only.

    leaf(t, flip, fresh) gives a Gen's or Spider's (input labels, output
    labels), fresh(values) making one new label per value; identities,
    symmetries and bends make labels valued by their atoms.  Returns
    walk_shape of the result and the term's dom and cod factor tuples
    (empty if sig is None).
    """
    values, parent, calls = [], [], []

    def fresh(new):
        labels = list(range(len(values), len(values) + len(new)))
        values.extend(new)
        parent.extend(labels)
        return labels

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    def go(t, flip):
        if isinstance(t, Seq):
            ins, mids, dom, produced = go(t.before, flip)
            mids2, outs, expected, cod = go(t.after, flip)
            if produced != expected:
                raise mismatch(produced, expected)
            for x, y in zip(mids, mids2):
                parent[find(x)] = find(y)
            return ins, outs, dom, cod
        if isinstance(t, Par):
            return tuple(a + b for a, b in zip(go(t.left, flip), go(t.right, flip)))
        if isinstance(t, Dagger):
            ins, outs, dom, cod = go(t.inner, not flip)
            return outs, ins, cod, dom
        dom, cod = leaf_type(t, sig) if sig is not None else ((), ())
        if isinstance(t, (Gen, Spider)):
            ins, outs = leaf(t, flip, fresh)
            calls.append((t, flip, ins, outs))
        elif isinstance(t, Id):
            ins = outs = fresh([atom for atom, _ in t.word.factors])
        elif isinstance(t, Swap):
            left, right = fresh([a for a, _ in t.left.factors]), fresh([a for a, _ in t.right.factors])
            ins, outs = left + right, right + left
        else:
            labels = fresh([t.atom]) * 2
            ins, outs = ([], labels) if isinstance(t, Cup) else (labels, [])
        return ins, outs, dom, cod

    ins, outs, dom, cod = go(term, False)
    return walk_shape(calls, ins, outs, values, find), dom, cod


def binary_walk(wiring, term, leaf, sig=None):
    """``Wiring.walk`` as it was before it folded each ``>>`` and ``x``
    spine in one pass: every Seq, Par and Dagger node is finished on its
    own, from a stack of (ins, outs, dom, cod) tuples, and each Par copies
    both operands' lists.  binary_walk(wiring, ...) is wiring.walk(...); the
    reference for labels, union-find parents, results and the first error.
    """
    done = []  # (ins, outs, dom, cod) of each finished subterm
    by_value = {}  # leaf types by value
    values, parent, find = wiring.values, wiring.parent, wiring.find
    todo = [(term, False)]  # (subterm, dagger parity) to visit, or (class, None) to finish a composite
    while todo:
        t, flip = todo.pop()
        if flip is None:  # finish a composite of class t
            if t is Seq:
                mids2, outs, expected, cod = done.pop()
                ins, mids, dom, produced = done[-1]
                if produced != expected:
                    raise mismatch(produced, expected)
                for x, y in zip(mids, mids2):
                    parent[x if parent[x] == x else find(x)] = y if parent[y] == y else find(y)
                done[-1] = ins, outs, dom, cod
            elif t is Par:
                ins2, outs2, dom2, cod2 = done.pop()
                ins, outs, dom, cod = done[-1]
                done[-1] = ins + ins2, outs + outs2, dom + dom2, cod + cod2
            else:
                ins, outs, dom, cod = done[-1]
                done[-1] = outs, ins, cod, dom
        elif (cls := t.__class__) is Seq:
            todo += ((Seq, None), (t.after, flip), (t.before, flip))
        elif cls is Par:
            todo += ((Par, None), (t.right, flip), (t.left, flip))
        elif cls is Dagger:
            todo += ((Dagger, None), (t.inner, not flip))
        else:
            if sig is None:
                dom = cod = ()
            elif cls is not Gen and cls not in (Spider, Id, Swap, Cup, Cap):
                dom, cod = leaf_type(t, sig)
            else:
                key = (t.name if cls is Gen else (t.atom, t.legs_in, t.legs_out) if cls is Spider
                       else t.word.factors if cls is Id else t)
                dom, cod = by_value.get(key) or by_value.setdefault(key, leaf_type(t, sig))
            if cls is Spider or cls is Gen:
                ins, outs = leaf(t, flip)
            elif cls is Id:
                x = len(parent)
                values += [atom for atom, _ in t.word.factors]
                ins = outs = [*range(x, len(values))]
                parent += ins
            elif cls is Cup or cls is Cap:
                x = wiring.label(t.atom)
                ins, outs = ([], [x, x]) if cls is Cup else ([x, x], [])
            elif cls is Swap:
                left, right = wiring.word(t.left), wiring.word(t.right)
                ins, outs = left + right, right + left
            else:
                raise TypeError(f"not a diagram term: {t!r}")
            done.append((ins, outs, dom, cod))
    return done.pop()


def walk_shape(calls, ins, outs, values, find):
    """A wiring walk's result up to renaming its labels.

    calls are the leaf calls in order, each (t, flip, input labels, output
    labels).  Each label becomes the place where its union-find class first
    appears among the leaves' labels and then the boundary's; the classes
    neither reaches are closed loops, given by their sorted values.
    """
    names = {}

    def name(labels):
        return [names.setdefault(find(x), len(names)) for x in labels]

    leaves = [(id(t), flip, name(i), name(o)) for t, flip, i, o in calls]
    boundary = name(ins), name(outs)
    loops = sorted(values[r] for r in {find(x) for x in range(len(values))} - names.keys())
    return leaves, boundary, loops


def reference_graph(term, sig):
    """``to_graph`` as it was written before it resolved each generator once
    per call: each occurrence looks its declaration up and makes its labels
    through ``Wiring.word``, and the wires are read off a list of
    (terminal, label) pairs.  The reference for nodes, wire order and loops.
    """
    wiring = Wiring()  # a label's value is its atom
    nodes, ports = [], []

    def leaf(t, flip):
        if t.__class__ is Gen:
            decl = sig.generators[t.name]
            # under a dagger the codomain wires are the domain ports
            nodes.append(BoxNode(t.name, flip, *((decl.cod, decl.dom) if flip else (decl.dom, decl.cod))))
            ins, outs = wiring.word(decl.dom), wiring.word(decl.cod)
            ports.append(outs + ins if flip else ins + outs)
            return ins, outs
        labels = wiring.fresh([t.atom] * (t.legs_in + t.legs_out))
        nodes.append(SpiderNode(t.atom, len(labels)))
        ins, outs = labels[:t.legs_in], labels[t.legs_in:]
        ports.append(outs + ins if flip else labels)
        return ins, outs

    ins, outs, dom, cod = wiring.walk(term, leaf, sig)
    labelled = [(("i", k), x) for k, x in enumerate(ins)]
    labelled += [(("n", nid, p), x) for nid, labels in enumerate(ports) for p, x in enumerate(labels)]
    labelled += [(("o", k), x) for k, x in enumerate(outs)]
    ends = {}  # union-find root -> the two terminals of its wire
    for end, x in labelled:
        ends.setdefault(wiring.find(x), []).append(end)
    roots = {x for x, root in enumerate(wiring.parent) if x == root}
    return OpenGraph(
        nodes=tuple(nodes),
        wires=tuple(tuple(pair) for pair in ends.values()),
        input_types=dom,
        output_types=cod,
        loops=tuple(sorted(wiring.values[r] for r in roots - ends.keys())),
    )
