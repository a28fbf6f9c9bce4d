"""Workload `surfaces`: the 2Cob pipeline typecheck -> to_graph -> fuse -> classify.

Inputs are layered cobordisms over one self-dual frobenius atom: genus-g
surfaces (closed and with boundary, in two presentations), seeded random
layered cobordisms, and a few small closed surfaces that also go through
evaluate_cob.  Every classification is checked against the Euler
characteristic of the benchmark's own cell description (oracles.py).
"""

from __future__ import annotations

import itertools
import random

import stages
from harness import Op, Workload
from oracles import arity, closed_value, surface_classes

from catkit import basis_frobenius, cob_signature, xor_frobenius
from catkit.diagram import Cap, Cup, Id, ObjectWord, Par, Seq, Spider, Swap

ATOM = "Z"
GENERA = (10, 40, 80, 160)  # closed genus-g classifications per round
LARGE_GENUS = 240  # the largest case; nesting depth 2g + 2 stays under the recursion limit
OPEN = ((20, 1), (60, 2), (100, 3))  # (genus, boundary circles on each side)
EQ_GENERA = (30, 90)  # std vs alt presentation of the same surface
N_RANDOM = 10
RANDOM_LAYERS = 20
MAX_WIDTH = 5
FAULT_LOOP = "bare-loop-genus"

# A handle in two presentations: merge after copy, or a cap closing two legs.
STD_HANDLE = [[("sp", 1, 2)], [("sp", 2, 1)]]
ALT_HANDLE = [[("sp", 1, 2)], [("id",), ("sp", 1, 2)], [("id",), ("cap",)]]
COUNIT = [[("sp", 1, 2)], [("id",), ("sp", 1, 0)]]  # a cylinder in disguise
LOOP = [[("cup",)], [("cap",)]]  # a bare closed wire loop: a torus
SPHERE = [[("sp", 0, 1)], [("sp", 1, 0)]]


def genus_layers(g, n=0, handle=STD_HANDLE):
    """Genus-g surface with n boundary circles on each side (closed if n = 0)."""
    return [[("sp", n, 1)]] + handle * g + [[("sp", 1, n)]]


def piece_term(piece):
    kind = piece[0]
    if kind == "id":
        return Id(ObjectWord.of(ATOM))
    if kind == "swap":
        return Swap(ObjectWord.of(ATOM), ObjectWord.of(ATOM))
    if kind == "cup":
        return Cup(ATOM)
    if kind == "cap":
        return Cap(ATOM)
    return Spider(ATOM, piece[1], piece[2])


def layers_term(layers):
    term = None
    for layer in layers:
        row = None
        for piece in layer:
            t = piece_term(piece)
            row = t if row is None else Par(row, t)
        term = row if term is None else Seq(row, term)
    return term


def _relabel(lists, old, new):
    for lst in lists:
        for i, x in enumerate(lst):
            if x == old:
                lst[i] = new


def _advance(layer, labels, fresh):
    """Wire labels after a layer.  A label names a bare wire path (no spider,
    no boundary) with both ends open; None marks any other wire end."""
    old, new, p = list(labels), [], 0
    for piece in layer:
        k, _ = arity(piece)
        kind = piece[0]
        rest = (old, new)
        if kind == "id":
            new.append(old[p])
        elif kind == "swap":
            new += [old[p + 1], old[p]]
        elif kind == "cup":
            q = next(fresh)
            new += [q, q]
        elif kind == "cap":
            a, b = old[p], old[p + 1]
            assert a is None or a != b, "cap would close a bare loop"
            if a is not None and b is not None:
                _relabel(rest, b, a)
            elif a is not None or b is not None:
                _relabel(rest, a if a is not None else b, None)
        else:
            for x in old[p:p + k]:
                if x is not None:
                    _relabel(rest, x, None)
            new += [None] * piece[2]
        for i in range(p, p + k):
            old[i] = "used"
        p += k
    return new


def _random_layer(rng, labels):
    w = len(labels)
    if w == 0:
        return [rng.choice([("cup",), ("sp", 0, 1), ("sp", 0, 2)])]
    layer, p, width = [], 0, 0
    while p < w:
        r = w - p
        room = MAX_WIDTH - (width + r)
        options = [(("id",), 5)]
        if r >= 2:
            options.append((("swap",), 1))
            options.append((("cap",), 1))
        if room >= 2:
            options.append((("cup",), 1))
        for k in range(min(2, r) + 1):
            for l in range(3):
                if k + l and l - k <= room:
                    options.append((("sp", k, l), 1))
        piece = rng.choices([o for o, _ in options], [wt for _, wt in options])[0]
        if piece == ("cap",) and labels[p] is not None and labels[p] == labels[p + 1]:
            piece = ("sp", 2, 0)  # a cap here would close a bare loop
        k, l = arity(piece)
        layer.append(piece)
        p += k
        width += l
    return layer


def _steer_layer(rng, w, target):
    """One layer moving the width one step towards `target`."""
    if w > target:
        piece = ("sp", 2, 1) if w >= 2 else ("sp", 1, 0)
    else:
        piece = ("sp", 1, 2) if w >= 1 else ("sp", 0, 1)
    k, _ = arity(piece)
    at = rng.randrange(w - k + 1)
    return [("id",)] * at + [piece] + [("id",)] * (w - k - at)


def random_cobordism(rng, n_in, n_out):
    """Seeded layered cobordism n_in -> n_out that never closes a bare loop.

    Bare closed loops are the subject of their own fixed operations (see
    FAULT_LOOP); here they would make the failure count depend on the seed.
    """
    labels, fresh, layers = [None] * n_in, itertools.count(), []
    for _ in range(RANDOM_LAYERS):
        layer = _random_layer(rng, labels)
        labels = _advance(layer, labels, fresh)
        layers.append(layer)
    while len(labels) != n_out:
        layer = _steer_layer(rng, len(labels), n_out)
        labels = _advance(layer, labels, fresh)
        layers.append(layer)
    return layers


def insert_on_wire(rng, n_in, layers, stack):
    """Splice a one-wire stack of layers onto a random wire between layers."""
    widths = [n_in]
    for layer in layers:
        widths.append(sum(arity(p)[1] for p in layer))
    spots = [i for i, w in enumerate(widths) if w >= 1]
    at = rng.choice(spots)
    w = widths[at]
    j = rng.randrange(w)
    pad = [[("id",)] * j + row + [("id",)] * (w - 1 - j) for row in stack]
    return layers[:at] + pad + layers[at:]


def setup(seed, tr):
    rng = random.Random(seed)
    sig = cob_signature(ATOM)

    def classify_op(name, n_in, layers, fault=None):
        term = layers_term(layers)
        want = surface_classes(n_in, layers)
        return Op(
            name,
            lambda tr: stages.classify(tr, term, sig),
            lambda got: [(c.inputs, c.outputs, c.genus) for c in got.components] == want,
            fault,
        )

    def eq_op(name, n_in, a, b, fault=None):
        t1, t2 = layers_term(a), layers_term(b)
        want = surface_classes(n_in, a) == surface_classes(n_in, b)
        return Op(name, lambda tr: stages.eq_cob(tr, t1, t2, sig), lambda got: got is want, fault)

    def eval_op(name, layers, frob, d=2):
        term = layers_term(layers)
        p = basis_frobenius(d) if frob == "basis" else xor_frobenius()
        want = closed_value(surface_classes(0, layers), frob, d)
        return Op(
            name,
            lambda tr: stages.evaluate_cob(tr, term, p),
            lambda m: (m.rows, m.cols) == (1, 1) and abs(complex(m.data[0, 0]) - want) < 1e-9,
        )

    ops = [classify_op(f"classify-closed-g{g}", 0, genus_layers(g)) for g in GENERA]
    large = classify_op(f"classify-closed-g{LARGE_GENUS}", 0, genus_layers(LARGE_GENUS))
    ops.append(large)
    ops += [classify_op(f"classify-open-g{g}-b{n}", n, genus_layers(g, n)) for g, n in OPEN]
    for g in EQ_GENERA:
        ops.append(eq_op(f"eq-std-alt-g{g}", 0, genus_layers(g), genus_layers(g, handle=ALT_HANDLE)))
    ops.append(eq_op("eq-g50-g51", 0, genus_layers(50), genus_layers(51)))

    for i in range(N_RANDOM):
        n_in, n_out = rng.randint(1, 3), rng.randint(0, 3)
        layers = random_cobordism(rng, n_in, n_out)
        ops.append(classify_op(f"classify-random-{i}", n_in, layers))
        if i % 3 == 0:
            variants = (
                ("counit", insert_on_wire(rng, n_in, layers, COUNIT)),
                ("handle", insert_on_wire(rng, n_in, layers, STD_HANDLE)),
                ("other", random_cobordism(rng, n_in, n_out)),
            )
            for kind, other in variants:
                ops.append(eq_op(f"eq-random-{i}-{kind}", n_in, layers, other))

    for g in range(4):
        ops.append(eval_op(f"evaluate-xor-g{g}", genus_layers(g), "xor"))
        ops.append(eval_op(f"evaluate-basis3-g{g}", genus_layers(g), "basis", 3))
    ops.append(eval_op("evaluate-xor-loop", LOOP, "xor"))

    # Fault: a bare closed loop is a torus, but catkit classifies it as genus 0.
    ops.append(classify_op("classify-loop", 0, LOOP, FAULT_LOOP))
    ops.append(eq_op("eq-loop-sphere", 0, LOOP, SPHERE, FAULT_LOOP))
    ops.append(eq_op("eq-loop-torus", 0, LOOP, genus_layers(1), FAULT_LOOP))

    small = classify_op("classify-handle", 1, STD_HANDLE)
    # Interleave: spread the costly genus operations through the round.
    rng.shuffle(ops)
    return Workload(ops, small=[small], large=[large], small_reps=4)
