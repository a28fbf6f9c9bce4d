"""Reference answers computed without catkit.

Every function here works from the benchmark's own description of an input
(a list of layers of pieces, a list of gates, a list of matrices), never from
catkit's output, so a wrong answer from catkit cannot agree with it by
construction.  The one exception is `brute_force_iso`, which reads two port
graphs that catkit built but decides their isomorphism by plain enumeration,
independently of catkit's matcher.
"""

from __future__ import annotations

import itertools
from collections import Counter

import numpy as np

# (inputs, outputs) of each layer piece; spiders carry their own leg counts.
ARITY = {"id": (1, 1), "swap": (2, 2), "cup": (0, 2), "cap": (2, 0)}


def arity(piece):
    if piece[0] == "sp":
        return piece[1], piece[2]
    return ARITY[piece[0]]


def surface_classes(n_in, layers):
    """Components of a layered cobordism as sorted (inputs, outputs, genus).

    Union-find over the cells glues pieces along their wires.  A (k, l)
    spider is a sphere with k + l holes, Euler characteristic 2 - k - l;
    identities, swaps, cups and caps are cylinders, characteristic 0.
    Gluing along circles adds characteristics, so a connected component with
    b boundary circles has genus (2 - chi - b) / 2.
    """
    parent = {}

    def find(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(a, b):
        parent[find(a)] = find(b)

    chi = {}

    def cell(euler):
        c = ("c", len(chi))
        parent[c] = c
        chi[c] = euler
        return c

    pos = []
    for k in range(n_in):
        parent[("i", k)] = ("i", k)
        pos.append(("i", k))
    for layer in layers:
        new, p = [], 0
        for piece in layer:
            k, l = arity(piece)
            if piece[0] == "swap":
                a, b = cell(0), cell(0)
                union(a, pos[p])
                union(b, pos[p + 1])
                new += [b, a]
            else:
                c = cell(2 - k - l if piece[0] == "sp" else 0)
                for q in range(p, p + k):
                    union(c, pos[q])
                new += [c] * l
            p += k
        if p != len(pos):
            raise ValueError(f"layer consumes {p} wires of {len(pos)}")
        pos = new
    for j, item in enumerate(pos):
        parent[("o", j)] = ("o", j)
        union(("o", j), item)

    groups = {}
    for item in parent:
        groups.setdefault(find(item), []).append(item)
    out = []
    for members in groups.values():
        ins = tuple(sorted(k for tag, k in members if tag == "i"))
        outs = tuple(sorted(k for tag, k in members if tag == "o"))
        twice = 2 - sum(chi.get(m, 0) for m in members) - len(ins) - len(outs)
        if twice < 0 or twice % 2:
            raise ValueError(f"not an orientable surface: 2g = {twice}")
        out.append((ins, outs, twice // 2))
    return sorted(out)


def closed_value(classes, frobenius, d=2):
    """Closed-form value of a closed surface: d per component for the basis
    (copy) structure, 2^g per genus-g component for the xor structure."""
    value = 1
    for ins, outs, genus in classes:
        assert not ins and not outs
        value *= d if frobenius == "basis" else 2 ** genus
    return value


def copy_network(classes, d, n_in, n_out):
    """Matrix of a spider network under the basis (copy) structure in dim d.

    An entry is d^(closed components) when every component's boundary legs
    carry one shared index, and 0 otherwise; genus is invisible because the
    basis structure is special.
    """
    closed = sum(1 for ins, outs, _ in classes if not ins and not outs)
    out = np.zeros((d ** n_out, d ** n_in), dtype=np.int64)
    for row in range(d ** n_out):
        o = np.unravel_index(row, (d,) * n_out) if n_out else ()
        for col in range(d ** n_in):
            i = np.unravel_index(col, (d,) * n_in) if n_in else ()
            if all(
                len({int(i[k]) for k in ins} | {int(o[k]) for k in outs}) <= 1
                for ins, outs, _ in classes
            ):
                out[row, col] = d ** closed
    return out


def circuit_unitary(width, gates):
    """Unitary of 2-qubit gates applied in order; gate = (wire, 4x4 matrix).

    Built by contracting each gate into the open legs of an identity tensor,
    wire 0 being the most significant bit, as in a row-major Kronecker
    product; no Kronecker product is formed.
    """
    n = 2 ** width
    state = np.eye(n, dtype=complex).reshape((2,) * width + (n,))
    for wire, g in gates:
        g4 = np.asarray(g, dtype=complex).reshape(2, 2, 2, 2)
        state = np.tensordot(g4, state, axes=([2, 3], [wire, wire + 1]))
        state = np.moveaxis(state, [0, 1], [wire, wire + 1])
    return state.reshape(n, n)


def is_unitary(u, tol=1e-9):
    return np.allclose(u.conj().T @ u, np.eye(u.shape[0]), rtol=0, atol=tol)


def bool_chain(mats):
    """Relational composite of 0/1 matrices applied first to last: integer
    product clamped to {0, 1} after every step, so counts never grow."""
    acc = np.asarray(mats[0], dtype=np.int64)
    for m in mats[1:]:
        acc = np.minimum(np.asarray(m, dtype=np.int64) @ acc, 1)
    return acc


def nat_chain(mats):
    """Path counts through a chain of 0/1 matrices, in Python integers."""
    acc = [list(map(int, row)) for row in mats[0]]
    for m in mats[1:]:
        acc = [
            [sum(int(m[i][k]) * acc[k][j] for k in range(len(acc))) for j in range(len(acc[0]))]
            for i in range(len(m))
        ]
    return acc


def _wire_key(a, b):
    return (a, b) if repr(a) <= repr(b) else (b, a)


def brute_force_iso(g1, g2):
    """Port-graph isomorphism by trying every label-preserving node bijection.

    For graphs of boxes only (box ports are ordered, so a node bijection fixes
    the port map).  Boundary terminals map to themselves.
    """
    if (g1.input_types, g1.output_types, sorted(g1.loops)) != (
        g2.input_types, g2.output_types, sorted(g2.loops)
    ):
        return False
    if len(g1.nodes) != len(g2.nodes) or Counter(g1.nodes) != Counter(g2.nodes):
        return False
    target = Counter(_wire_key(a, b) for a, b in g2.wires)
    by_label = {}
    for j, node in enumerate(g2.nodes):
        by_label.setdefault(node, []).append(j)
    classes = [(node, [i for i, n in enumerate(g1.nodes) if n == node]) for node in by_label]
    for choice in itertools.product(
        *[itertools.permutations(by_label[node]) for node, _ in classes]
    ):
        image = {}
        for (node, sources), targets in zip(classes, choice):
            image.update(zip(sources, targets))

        def move(t):
            return ("n", image[t[1]], t[2]) if t[0] == "n" else t

        if Counter(_wire_key(move(a), move(b)) for a, b in g1.wires) == target:
            return True
    return False


def format_entry(kind, value):
    """How `catkit eval` prints one matrix entry."""
    if kind == "complex":
        value = complex(value)
        if value.imag == 0:
            return "%g" % value.real
        return "%g%+gj" % (value.real, value.imag)
    if kind == "bool":
        return "1" if value else "0"
    return str(int(value))


def format_matrix(kind, rows):
    if len(rows) == 1 and len(rows[0]) == 1:
        return format_entry(kind, rows[0][0])
    return "[" + ", ".join(
        "[" + ", ".join(format_entry(kind, v) for v in row) + "]" for row in rows
    ) + "]"


def format_pairs(rows, dom_names, cod_names):
    """How `catkit eval` lists a relation: (x, y) pairs, domain-major."""
    pairs = [
        f"({dom_names[j]}, {cod_names[i]})"
        for j in range(len(dom_names))
        for i in range(len(cod_names))
        if rows[i][j]
    ]
    return "{" + ", ".join(pairs) + "}"
