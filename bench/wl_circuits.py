"""Workload `circuits`: matrix semantics through interpret and evaluate_graph.

Every input is evaluated both ways, over all three semirings:

- complex brickwork circuits of seeded random 2-qubit unitaries, widths 4-8,
  against a numpy reference contracted gate by gate, plus U^dagger U = I;
- networks of basis (copy) spiders, against the copy tensor read off the
  network's components;
- boolean relation chains, against an integer product clamped to {0, 1} at
  every step;
- natural-number path-counting chains, against Python integers.

Random bool chains stay short enough that no path count reaches 2^63; the
64-box all-ones chain is a fixed input that does (FAULT_OVERFLOW).
"""

from __future__ import annotations

import random

import numpy as np

import stages
from harness import Op, Workload
from oracles import bool_chain, circuit_unitary, copy_network, is_unitary, nat_chain, surface_classes
from wl_surfaces import ATOM, layers_term, random_cobordism

from catkit import BOOL, COMPLEX, NAT, Interpretation, MatrixMorphism, basis_frobenius, cob_signature
from catkit.diagram import Gen, Id, ObjectWord, Par, Seq, Signature, to_graph

WIDTHS = (4, 6, 8)  # brickwork widths; the last is the large case
DEPTH = 4
NETWORKS = (2, 2, 3, 3)  # basis dimension of each random copy network
BOOL_DIM, BOOL_CHAINS = 4, (8, 16, 28)  # counts stay below 4^27 < 2^63
NAT_DIM, NAT_CHAINS = 4, (8, 20)
ONES_CHAIN = 64
FAULT_OVERFLOW = "bool-overflow"


def construct(tr, tag, rows):
    if tr.on:
        tr.count("matcat.construct_entries", len(rows) * len(rows[0]))
    return tr.call("matcat.construct_ms", MatrixMorphism, tag, rows)


def chain(names):
    term = Gen(names[0])
    for name in names[1:]:
        term = Seq(Gen(name), term)
    return term


def random_unitary(nprng):
    z = nprng.normal(size=(4, 4)) + 1j * nprng.normal(size=(4, 4))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def brickwork(sig, nprng, width, depth, prefix):
    """Term and gate list of a brickwork circuit; gates are (wire, 4x4)."""
    q, qq = ObjectWord.of("Q"), ObjectWord.of("Q", "Q")
    term, gates = None, []
    for layer in range(depth):
        pieces, wire = [], layer % 2
        if wire:
            pieces.append(Id(q))
        while wire + 2 <= width:
            name = f"{prefix}{len(gates)}"
            sig.declare_generator(name, qq, qq)
            gates.append((wire, random_unitary(nprng)))
            pieces.append(Gen(name))
            wire += 2
        if wire < width:
            pieces.append(Id(q))
        row = pieces[0]
        for p in pieces[1:]:
            row = Par(row, p)
        term = row if term is None else Seq(row, term)
    return term, gates


def setup(seed, tr):
    rng = random.Random(seed)
    nprng = np.random.default_rng(seed)
    ops, small, large = [], [], []

    def both(name, term, graph, interp, check, fault=None, into=ops):
        a = Op(f"interpret-{name}", lambda tr: stages.interpret(tr, term, interp), check)
        b = Op(f"evaluate-graph-{name}", lambda tr: stages.evaluate_graph(tr, graph, interp), check, fault)
        into += [a, b]
        return a, b

    # Complex brickwork circuits.
    sig_q = Signature()
    sig_q.declare_object("Q")
    circuits = [("bw2", 2, 1, small)] + [(f"bw{w}", w, DEPTH, ops) for w in WIDTHS]
    matrices, built = {}, []
    for name, width, depth, into in circuits:
        term, gates = brickwork(sig_q, nprng, width, depth, f"{name}_u")
        for k, (_, u) in enumerate(gates):
            rows = [[[z.real, z.imag] for z in r] for r in u]
            matrices[f"{name}_u{k}"] = construct(tr, COMPLEX, rows)
        built.append((name, width, term, gates, into))
    interp_q = Interpretation(COMPLEX, {"Q": 2}, matrices, signature=sig_q)
    for name, width, term, gates, into in built:
        ref = {}

        def check(m, width=width, gates=gates, ref=ref):
            if "u" not in ref:
                ref["u"] = circuit_unitary(width, gates)
            return m.data.shape == ref["u"].shape and np.allclose(m.data, ref["u"], rtol=0, atol=1e-9) \
                and is_unitary(m.data)

        pair = both(name, term, to_graph(term, sig_q), interp_q, check, into=into)
        if width == WIDTHS[-1]:
            large += pair

    # Networks of copy spiders.
    sig_c = cob_signature(ATOM)
    for i, d in enumerate(NETWORKS):
        n_in, n_out = rng.randint(1, 3), rng.randint(1, 3)
        layers = random_cobordism(rng, n_in, n_out)
        term = layers_term(layers)
        interp = Interpretation(COMPLEX, {ATOM: d}, frobenius_data={ATOM: basis_frobenius(d)},
                                signature=sig_c)
        want = copy_network(surface_classes(n_in, layers), d, n_in, n_out)
        both(f"copy-{i}-d{d}", term, to_graph(term, sig_c), interp,
             lambda m, want=want: m.data.shape == want.shape and np.allclose(m.data, want, rtol=0, atol=1e-9))

    # Relations: seeded random chains, plus the fixed all-ones chain.
    sig_b = Signature()
    r, b = ObjectWord.of("R"), ObjectWord.of("B")
    bool_mats = {"one": construct(tr, BOOL, [[1, 1], [1, 1]])}
    sig_b.declare_generator("one", b, b)
    chains = []
    for n in BOOL_CHAINS:
        names, raw = [], []
        for k in range(n):
            name = f"r{n}_{k}"
            sig_b.declare_generator(name, r, r)
            raw.append([[int(rng.random() < 0.5) for _ in range(BOOL_DIM)] for _ in range(BOOL_DIM)])
            bool_mats[name] = construct(tr, BOOL, raw[-1])
            names.append(name)
        chains.append((f"rel-{n}", chain(names), bool_chain(raw).astype(bool), None))
    ones = chain(["one"] * ONES_CHAIN)
    chains.append((f"rel-ones-{ONES_CHAIN}", ones, np.ones((2, 2), dtype=bool), FAULT_OVERFLOW))
    interp_b = Interpretation(BOOL, {"R": BOOL_DIM, "B": 2}, bool_mats, signature=sig_b)
    for name, term, want, fault in chains:
        both(name, term, to_graph(term, sig_b), interp_b,
             lambda m, want=want: m.data.shape == want.shape and bool(np.all(m.data == want)), fault)

    # Path counts over the naturals.
    sig_n = Signature()
    nword = ObjectWord.of("N")
    nat_mats, nat_chains = {}, []
    for n in NAT_CHAINS:
        names, raw = [], []
        for k in range(n):
            name = f"n{n}_{k}"
            sig_n.declare_generator(name, nword, nword)
            raw.append([[int(rng.random() < 0.6) for _ in range(NAT_DIM)] for _ in range(NAT_DIM)])
            nat_mats[name] = construct(tr, NAT, raw[-1])
            names.append(name)
        nat_chains.append((f"paths-{n}", chain(names), nat_chain(raw)))
    interp_n = Interpretation(NAT, {"N": NAT_DIM}, nat_mats, signature=sig_n)
    for name, term, want in nat_chains:
        both(name, term, to_graph(term, sig_n), interp_n,
             lambda m, want=want: [[int(x) for x in row] for row in m.data.tolist()] == want)

    rng.shuffle(ops)
    return Workload(ops, small=small, large=large, small_reps=2)
