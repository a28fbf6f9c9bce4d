"""Workload `equality`: parse -> typecheck -> to_graph -> graph_eq on box diagrams.

Inputs are written as text and parsed, as a user writes them:

- seeded random layered diagrams paired with copies rewritten by axioms
  that keep the port graph (interchange, re-bracketing, identities, double
  swaps, snakes, double daggers, swap naturality): expected equal;
- the same copies with one box label changed: expected not equal;
- long `>>` chains, re-bracketed (equal) and with one label changed;
- refinement-regular cycle pairs of identical boxes, which colour
  refinement cannot tell apart, so graph_eq must search;
- modules with shared sub-diagrams d_k = d_{k-1} >> d_{k-1};
- one large module, holding every pair plus a corpus of random diagrams,
  parsed once per round.

Expected verdicts follow from how each pair was built; pairs of at most
MAX_BRUTE boxes are also decided by brute force (oracles.brute_force_iso).
"""

from __future__ import annotations

import random

import stages
from harness import Op, Workload
from oracles import brute_force_iso

from catkit.diagram import ObjectWord, parse, typecheck

# Box labels per (inputs, outputs) type; the second label is the mutation.
BOXES = {(1, 1): ("f1", "f2"), (2, 1): ("m1", "m2"), (1, 2): ("c1", "c2"), (2, 2): ("s1", "s2")}
HEADER = "".join(
    f"gen {name} : {' x '.join(['A'] * k)} -> {' x '.join(['A'] * l)};\n"
    for (k, l), names in BOXES.items()
    for name in names
)
MAX_WIDTH = 4
N_PAIRS = 12  # random pairs per round: each gives an equal and a mutated pair
MAX_BRUTE = 8
CHAINS = (100, 300)  # graph_eq recurses once per skeleton vertex (3n + 2)
CYCLES = (((3, 3), (6,)), ((3, 3), (3, 3)), ((4, 4), (8,)), ((8,), (8,)))
LARGE_CYCLES = ((4, 4), (8,))  # the large case
DAG_DEPTHS = (15, 18)  # typecheck walks d_k as a tree: 2^(k+1) - 1 nodes
N_CORPUS = 400  # random diagrams in the parsed module, each written two ways
DAG_EQ_DEPTH = 5


def pad(n):
    return f"id({' x '.join(['A'] * n)})" if n else ""


def row(*parts):
    return "(" + " x ".join(p for p in parts if p) + ")"


def random_layers(rng, w0, n_layers):
    layers, w = [], w0
    for _ in range(n_layers):
        while True:
            layer, p, width = [], 0, 0
            while p < w:
                r = w - p
                options = [("id", 1, 1)] * 2
                for (k, l), names in BOXES.items():
                    if k <= r and width + l + (r - k) <= MAX_WIDTH:
                        options.append((names[0], k, l))
                piece = rng.choice(options)
                layer.append(piece)
                p += piece[1]
                width += piece[2]
            if any(name != "id" for name, _, _ in layer):
                break
        layers.append(layer)
        w = width
    return layers


def plain_text(layers):
    return " >> ".join(row(*(pad(1) if n == "id" else n for n, _, _ in layer)) for layer in layers)


def bracket(rng, rows):
    """Random binary bracketing of a >> sequence."""
    if len(rows) == 1:
        return rows[0]
    cut = rng.randrange(1, len(rows))
    return f"({bracket(rng, rows[:cut])} >> {bracket(rng, rows[cut:])})"


def rewritten_text(rng, layers):
    """A different text for the same port graph."""
    rows = []
    for layer in layers:
        ins = [k for _, k, _ in layer]
        outs = [l for _, _, l in layer]
        j = 0
        while j < len(layer):
            name, k, l = layer[j]
            if name == "id":
                j += 1
                continue
            before, after = sum(outs[:j]), sum(ins[j + 1:])
            nxt = layer[j + 1] if j + 1 < len(layer) else None
            if (k, l) == (1, 1) and nxt and nxt[0] != "id" and nxt[1:] == (1, 1) and rng.random() < 0.5:
                # swap naturality: f x g = swap >> (g x f) >> swap
                after = sum(ins[j + 2:])
                sw = "swap(A, A)"
                rows += [row(pad(before), sw, pad(after)),
                         row(pad(before), nxt[0], name, pad(after)),
                         row(pad(before), sw, pad(after))]
                j += 2
                continue
            box = f"dg(dg({name}))" if rng.random() < 0.2 else name
            rows.append(row(pad(before), box, pad(after)))  # interchange
            j += 1
        width = sum(outs)
        roll = rng.random()
        if roll < 0.2:
            at = rng.randrange(width)
            snake = "((id(A) x cup(A)) >> (cap(A) x id(A)))"
            rows.append(row(pad(at), snake, pad(width - 1 - at)))
        elif roll < 0.35 and width >= 2:
            at = rng.randrange(width - 1)
            rows.append(row(pad(at), "(swap(A, A) >> swap(A, A))", pad(width - 2 - at)))
        elif roll < 0.45:
            rows.append(row(pad(width)))
    return bracket(rng, rows)


def mutated(rng, layers):
    spots = [(i, j) for i, layer in enumerate(layers) for j, p in enumerate(layer) if p[0] != "id"]
    i, j = rng.choice(spots)
    name, k, l = layers[i][j]
    out = [list(layer) for layer in layers]
    out[i][j] = (BOXES[(k, l)][1], k, l)
    return out


def cycles_text(lengths):
    """Closed diagram: one trace of a chain of f1 boxes per cycle length."""
    parts = [
        f"(cup(A) >> (id(A*) x ({' >> '.join(['f1'] * n)})) >> swap(A*, A) >> cap(A))"
        for n in lengths
    ]
    return " x ".join(parts)


def dag_text(k):
    lines = [f"gen f : A -> A;\ndiag d0 = f;\n"]
    lines += [f"diag d{i} = d{i - 1} >> d{i - 1};\n" for i in range(1, k + 1)]
    lines.append(f"diag flat = {' >> '.join(['f'] * 2 ** min(k, DAG_EQ_DEPTH))};\n")
    return "".join(lines)


def boundary(layers):
    """(inputs, outputs) of a layered diagram, as wire counts."""
    return sum(k for _, k, _ in layers[0]), sum(l for _, _, l in layers[-1])


def setup(seed, tr):
    rng = random.Random(seed)
    pairs = []  # (name, text1, text2, expected, brute-force?, boundary)
    for i in range(N_PAIRS):
        n_layers = rng.randint(2, 4) if i % 2 == 0 else rng.randint(6, 9)
        layers = random_layers(rng, rng.randint(1, 3), n_layers)
        boxes = sum(p[0] != "id" for layer in layers for p in layer)
        brute = boxes <= MAX_BRUTE
        ends = boundary(layers)
        pairs.append((f"random-{i}-equal", plain_text(layers), rewritten_text(rng, layers),
                      True, brute, ends))
        pairs.append((f"random-{i}-mutated", plain_text(layers),
                      rewritten_text(rng, mutated(rng, layers)), False, brute, ends))
    for n in CHAINS:
        labels = [rng.choice(BOXES[(1, 1)]) for _ in range(n)]
        chunks = [labels[i:i + 10] for i in range(0, n, 10)]
        rebracketed = " >> ".join("(" + " >> ".join(c) + ")" for c in chunks)
        pairs.append((f"chain-{n}-equal", " >> ".join(labels), rebracketed, True, False, (1, 1)))
        flip = rng.randrange(n)
        labels[flip] = "f2" if labels[flip] == "f1" else "f1"
        pairs.append((f"chain-{n}-mutated", rebracketed, " >> ".join(labels), False, False, (1, 1)))
    for a, b in CYCLES:
        pairs.append((f"cycles-{a}-{b}", cycles_text(a), cycles_text(b),
                      sorted(a) == sorted(b), False, (0, 0)))

    # Set-up parses the pairs; the timed parse adds the corpus.  Each
    # diagram's expected type is its boundary by construction.
    diags, corpus = {}, {}
    for i, (_, t1, t2, _, _, ends) in enumerate(pairs):
        diags[f"p{i}"] = (t1, ends)
        diags[f"q{i}"] = (t2, ends)
    for i in range(N_CORPUS):
        layers = random_layers(rng, rng.randint(1, 3), rng.randint(2, 9))
        corpus[f"u{i}"] = (plain_text(layers), boundary(layers))
        corpus[f"v{i}"] = (rewritten_text(rng, layers), boundary(layers))
    pairs_text = HEADER + "".join(f"diag {name} = {t};\n" for name, (t, _) in diags.items())
    text = pairs_text + "".join(f"diag {name} = {t};\n" for name, (t, _) in corpus.items())
    diags.update(corpus)
    module = parse(pairs_text)
    sig = module.signature
    words = {n: ObjectWord.of(*["A"] * n) for n in range(MAX_WIDTH + 1)}
    want_types = {name: (words[k], words[l]) for name, (_, (k, l)) in diags.items()}

    def parse_ok(result):
        return result.diagrams.keys() == want_types.keys() and all(
            typecheck(t, result.signature) == want_types[n] for n, t in result.diagrams.items()
        )

    ops = [Op("parse-module", lambda tr: stages.parse(tr, text), parse_ok)]

    def decide_op(name, t1, t2, want, sig, brute):
        verified = {}

        def check(got):
            verdict, g1, g2 = got
            if brute and "brute" not in verified:
                verified["brute"] = brute_force_iso(g1, g2)
            return verdict is want and verified.get("brute", want) is want

        def run(tr):
            g1 = stages.to_graph(tr, t1, sig)
            g2 = stages.to_graph(tr, t2, sig)
            return stages.graph_eq(tr, g1, g2), g1, g2

        return Op(name, run, check)

    large = []
    for i, (name, _, _, want, brute, _) in enumerate(pairs):
        op = decide_op(name, module.diagrams[f"p{i}"], module.diagrams[f"q{i}"], want, sig, brute)
        ops.append(op)
        if name == "cycles-{}-{}".format(*LARGE_CYCLES):
            large.append(op)

    for k in DAG_DEPTHS:
        dag = dag_text(k)

        def run(tr, dag=dag, k=k):
            result = stages.parse(tr, dag)
            return stages.typecheck(tr, result.diagrams[f"d{k}"], result.signature)

        ops.append(Op(f"dag-{k}-typecheck", run, lambda got: got == (words[1], words[1])))
    dag_module = parse(dag_text(DAG_EQ_DEPTH))
    ops.append(decide_op(f"dag-{DAG_EQ_DEPTH}-vs-flat", dag_module.diagrams[f"d{DAG_EQ_DEPTH}"],
                         dag_module.diagrams["flat"], True, dag_module.signature, False))

    small_module = parse(HEADER + "diag p = c1 >> m1;\ndiag q = c1 >> (id(A x A) >> m1);\n")
    small = decide_op("small-pair", small_module.diagrams["p"], small_module.diagrams["q"],
                      True, small_module.signature, True)
    rng.shuffle(ops)
    return Workload(ops, small=[small], large=large)
