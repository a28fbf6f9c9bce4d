"""Matrix interpretations of diagram terms.

interpret() types terms against an Interpretation's signature.  One
builder makes the tensor network, fed by interpret() and evaluate_cob()
from a term's wiring walk and by evaluate_graph() from a graph's nodes,
and one contraction engine evaluates it.  A spider, spider_matrix()'s
too, is left combs of its presentation's own mu and delta tensors.
evaluate_cob() is the case of one atom and one verified presentation.
"""

from __future__ import annotations

import heapq
import itertools
import math

import numpy as np

from .diagram.graphs import OpenGraph, SpiderNode, Wiring
from .diagram.terms import Gen, ObjectWord, UnknownName, typecheck
from .frobenius import COB_ATOMS, _single_atom, cob_atom
from .matcat import MatrixMorphism, dagger
from .presentations import (  # noqa: F401  (the names moved there stay reachable here)
    FrobeniusPresentation, Interpretation, _copy3, basis_frobenius, check_frobenius_morphism,
    conjugate_presentation, hopf_group_z2, interpretation_from_data, verify_frobenius, xor_frobenius,
)


def interpret(term, interp: Interpretation) -> MatrixMorphism:
    """Evaluate a term to its matrix, typing it against the signature.

    ``Wiring.walk``, the explicit-stack walk of ``to_graph``, feeds the
    term's leaves to the network builder: generators and spiders become
    tensors on wire labels; identities, symmetries, cups, caps, sequential
    composition and basis-copy spiders only create or join labels.  Under
    a dagger a generator takes its matrix's adjoint and a spider is the
    same spider reversed, as every other layer reads it.
    """
    return _interpret(term, interp)[0]


def _interpret(term, interp: Interpretation):
    """interpret's matrix, with the domain and codomain words its walk typed."""
    sig = interp.signature
    if sig is None:
        raise ValueError("interpret needs a signature to type the term against")
    try:
        net, ins, outs, dom, cod = _flatten(
            term, sig, interp.atom_dim, interp.gen_matrices, interp.frobenius_data.get
        )
    except UnknownName:
        typecheck(term, sig)  # a type error anywhere is reported before missing data
        raise
    return net.contract(interp.tag, outs, ins), ObjectWord(dom), ObjectWord(cod)


class _Network(Wiring):
    """A tensor network being built: wire labels valued by their dimension and
    merged by union-find, its tensors, and one label of each copy spider."""

    def __init__(self, atom_dim):
        super().__init__(atom_dim)
        self.tensors, self.joined = [], []

    def box(self, m, dom, cod, daggered):
        """m, or its adjoint, on axes cod then dom, the labels of the node's own sides."""
        labels = cod + dom
        self.tensors.append(((dagger(m) if daggered else m).data.reshape([self.values[x] for x in labels]), labels))

    def spider(self, p, dom, cod, genus=0):
        """The (len(dom), len(cod), genus) spider of p: a comb of mu over dom, then
        (mu . delta)^genus, then a comb of delta over cod.  A copy spider joins its
        legs (a special one ignores genus), and with none is a fresh label."""
        if not p.basis_copy:
            d = p.dim
            merge = self._comb(p.mu.data.reshape(d, d, d), p.unit_e.data.ravel(), dom)
            branch = self._comb(p.delta.data.reshape(d, d, d).transpose(2, 0, 1), p.eps.data.ravel(), cod)
            if genus:
                with np.errstate(all="ignore"):  # contract rejects an overflowed result
                    self.tensors.append((np.linalg.matrix_power(p.mu.data @ p.delta.data, genus), [branch, merge]))
            else:
                self.parent[self.find(merge)] = self.find(branch)
            return
        labels = dom + cod or self.fresh([p.dim])
        root = self.find(labels[0])
        for x in labels[1:]:
            self.parent[self.find(x)] = root
        self.joined.append(root)

    def _comb(self, node, leaf, labels, root=None):
        """Tie labels to one root label by a left comb of node, an order-3
        tensor on axes (root, left, right), the first two labels meeting
        first; with no labels, leaf, a vector, sits on the root.  The root
        is fresh unless given, or the one label itself; returns it."""
        if root is None:
            root = labels[0] if len(labels) == 1 else self.label(len(leaf))
        if not labels:
            self.tensors.append((leaf, [root]))
        ups = self.fresh([len(leaf)] * (len(labels) - 2)) + [root]
        self.tensors += [(node, [up, left, right]) for up, left, right in zip(ups, labels[:1] + ups, labels[1:])]
        return root

    def contract(self, tag, outputs, inputs):
        """The network's matrix inputs -> outputs, each label read as its root.

        A label is a wire with two ends, each a tensor axis or a boundary
        slot, so one no tensor holds is an identity between two slots or a
        closed loop.  A wire joined by copy spiders may have any number of
        ends: one gets the all-ones vector and more than two a comb of
        copy tensors rooted at the first.  Pairs of tensors sharing a label
        are contracted greedily, smallest result first, as in opt_einsum's
        greedy path, each by one matmul; tensordot only traces a label both
        of whose ends are on one tensor.  The engine writes the result in
        boundary order, outputs then inputs, C-contiguous, so the reshape
        to a matrix is a view and the result is the only full-size array it
        allocates.  numpy's boolean dot and matmul are the or-of-ands
        product, so booleans contract exactly with no case of their own.
        Floating-point contraction runs with numpy's warnings off, and a
        result with an inf or nan entry raises ValueError instead.
        """
        find, boundary = self.find, outputs + inputs
        if self.joined:  # rewrites the network's labels in place, so a network is contracted once
            ends = {find(x): [] for x in self.joined}
            for labels in [boundary] + [labels for _, labels in self.tensors]:
                labels[:] = map(find, labels)
                for i, x in enumerate(labels):
                    if x in ends:
                        ends[x].append((labels, i))
            for x, at in ends.items():
                if len(at) not in (0, 2):  # no ends is a loop, which _network makes d
                    d = self.values[x]
                    legs = self.fresh([d] * (len(at) - 1))
                    for (labels, i), y in zip(at[1:], legs):
                        labels[i] = y
                    self._comb(_copy3(d, tag.ops.dtype), np.ones(d, tag.ops.dtype), legs, x)
        parent, tensors = self.parent, self.tensors
        dims = {x: d for x, d in enumerate(self.values) if parent[x] == x}
        if len(dims) < len(parent) and not self.joined:  # a joined label not yet read as its root
            tensors = [(arr, [*map(find, labels)]) for arr, labels in tensors]
            boundary = [*map(find, boundary)]
        if len(tensors) == 1 and len(set(tensors[0][1])) == len(boundary) == len(dims):
            # one tensor holding each wire once, its other end on the boundary, is a
            # transpose with no arithmetic to guard; errstate and the engine's
            # bookkeeping would make a single-gate circuit about a fifth slower
            arr, labels = tensors[0]
            data = arr.transpose([labels.index(x) for x in boundary])
        else:
            with np.errstate(all="ignore"):  # exact semirings raise no numpy warnings
                data = _network(tag.ops.dtype, tensors, boundary, dims)
        values = self.values  # a label's value is its root's dimension
        data = data.reshape(math.prod(values[x] for x in outputs), math.prod(values[x] for x in inputs))
        # checked on the float halves of each entry, about twice as fast as on complex values
        if not tag.exact and not np.isfinite(data.ravel().view(np.float64)).all():
            raise ValueError(f"{tag.kind} contraction overflowed: the result has inf or nan entries")
        return MatrixMorphism._raw(tag, data)


def _flatten(term, sig, atom_dim, matrices, presentation):
    """The term's _Network, input and output labels, and domain and
    codomain factors, from each atom's dimension and Frobenius
    presentation (or None) and the matrices."""
    net = _Network(atom_dim)

    def leaf(t, flip):
        if t.__class__ is Gen:
            m = matrices.get(t.name)
            if m is None:
                raise UnknownName(f"no matrix assigned to generator {t.name!r}")
            decl = sig.generators[t.name]
            ins, outs = net.word(decl.dom), net.word(decl.cod)
            # under a dagger the outputs are the node's domain
            net.box(m, *((outs, ins) if flip else (ins, outs)), flip)
            return ins, outs
        p = presentation(t.atom)
        if p is None:
            raise UnknownName(f"no frobenius data for atom {t.atom!r}")
        labels = net.fresh([p.dim] * (t.legs_in + t.legs_out))
        ins, outs = labels[:t.legs_in], labels[t.legs_in:]
        net.spider(p, *((outs, ins) if flip else (ins, outs)))  # a daggered spider is the reversed spider
        return ins, outs

    return (net, *net.walk(term, leaf, sig))


def _network(dtype, tensors, boundary, dims):
    """contract's network as one array with an axis per boundary slot, in order.

    A live tensor keeps its labels as a list, one per axis, and as a set.
    A contraction whose free labels are all boundary slots is the last of
    its connected part: _last_step writes it in slot order, and _assemble
    multiplies the parts into the result's layout, with no full-size
    temporary.  Every other contraction is _pair's one matmul.
    """
    held = {x for _, labels in tensors for x in labels}
    ends, slot = set(boundary), {x: i for i, x in enumerate(boundary)}
    live, owners, heap, keys, parts = {}, {}, [], itertools.count(), []

    def add(arr, labels):
        mine = set(labels)
        if len(mine) < len(labels):  # both ends on one tensor: a trace, or the identity of a closed loop
            for x in [x for x in mine if labels.count(x) == 2 and x not in ends]:
                i, j = (k for k, z in enumerate(labels) if z == x)
                arr = np.tensordot(arr, np.eye(dims[x], dtype=dtype), axes=((i, j), (0, 1)))
                labels = labels[:i] + labels[i + 1 : j] + labels[j + 1 :]
                mine.remove(x)
        key, near = next(keys), set()
        live[key] = (arr, labels, mine)
        for x in mine:
            others = [k for k in owners.get(x, ()) if k in live]
            owners[x] = others + [key]
            near.update(others)
        for k in near:
            size = 1  # of the pair's result
            for x in mine ^ live[k][2]:
                size *= dims[x]
            heapq.heappush(heap, (size, k, key))

    for arr, labels in tensors:
        add(arr, labels)
    for x, d in dims.items():
        if x not in held:
            add(np.eye(d, dtype=dtype), [x, x])
    while heap:
        _, a, b = heapq.heappop(heap)
        if a in live and b in live:
            x, y = live.pop(a), live.pop(b)
            if ends.issuperset(x[2] ^ y[2]):
                parts.append((*_last_step(x[:2], y[:2], [z for z in x[1] if z in y[2]], slot, dims), True))
            else:
                add(*_pair(x, y))
    return _assemble(dtype, parts + [(arr, labels, False) for arr, labels, _ in live.values()], boundary)


def _pair(x, y):
    """x and y, each (array, labels, label set), contracted by one matmul:
    x as its free labels by the shared ones, times y as the shared ones by
    its free labels, transposing neither if already in that order."""
    (x_arr, x_labels, x_set), (y_arr, y_labels, y_set) = x, y
    shared = [z for z in x_labels if z in y_set]
    x_order = [z for z in x_labels if z not in y_set] + shared
    y_order = shared + [z for z in y_labels if z not in x_set]
    if x_order != x_labels:
        x_arr = x_arr.transpose([x_labels.index(z) for z in x_order])
    if y_order != y_labels:
        y_arr = y_arr.transpose([y_labels.index(z) for z in y_order])
    i, j = len(x_order) - len(shared), len(shared)
    m, k, n = math.prod(x_arr.shape[:i]), math.prod(x_arr.shape[i:]), math.prod(y_arr.shape[j:])
    product = x_arr.reshape(m, k) @ y_arr.reshape(k, n)
    return product.reshape(x_arr.shape[:i] + y_arr.shape[j:]), x_order[:i] + y_order[j:]


def _last_step(x, y, shared, slot, dims):
    """x and y, each (array, labels), contracted when their free labels are
    all boundary slots: one broadcast matmul into an array C-ordered by
    slot, and its labels in that order.

    In slot order the free labels fall into runs that alternate between
    the operands; x and y swap if the last slot is x's.  matmul writes
    through a transposed view of the result: n is the last run, m the
    widest of x's runs, k the shared labels, and each other run a batch
    axis, of size 1 on the operand without it.
    """
    order = sorted({*x[1], *y[1]}.difference(shared), key=slot.__getitem__)
    if order and order[-1] in x[1]:
        x, y = y, x
    (x_arr, x_labels), (y_arr, y_labels) = x, y
    runs = [[*run] for _, run in itertools.groupby(order, x_labels.__contains__)]
    runs[:0] = [[]] * (2 - len(runs))  # an empty run, of size 1, where x or y has no free label
    sizes = [math.prod(dims[z] for z in run) for run in runs]
    n = len(runs) - 1
    ours = range(n - 1, -1, -2)
    m = max(ours, key=sizes.__getitem__)
    batch = [i for i in range(n) if i != m]
    k = math.prod(dims[z] for z in shared)
    x_axes = [z for i in batch if i in ours for z in runs[i]] + runs[m] + shared
    y_axes = [z for i in batch if i not in ours for z in runs[i]] + shared + runs[n]
    x_arr = x_arr.transpose([x_labels.index(z) for z in x_axes])
    y_arr = y_arr.transpose([y_labels.index(z) for z in y_axes])
    x_arr = x_arr.reshape([sizes[i] if i in ours else 1 for i in batch] + [sizes[m], k])
    y_arr = y_arr.reshape([1 if i in ours else sizes[i] for i in batch] + [k, sizes[n]])
    result = np.empty([dims[z] for z in order], x_arr.dtype)
    np.matmul(x_arr, y_arr, out=result.reshape(sizes).transpose(batch + [m, n]))
    return result, order


def _assemble(dtype, parts, boundary):
    """parts, each (array, labels, fresh), multiplied into one array with an
    axis per boundary slot, in order.

    Each part is viewed in slot order with size-1 axes for the slots it
    lacks, and the parts multiply by broadcasting into C order, smallest
    first.  Scalar parts multiply in last, in place if the result is fresh,
    not a view of an input.  A label twice on the boundary is held by an
    identity, which is symmetric, so its axes take the slots in order.
    """
    slots = {}
    for i, x in enumerate(boundary):
        slots.setdefault(x, []).append(i)
    scale, factors = None, []
    for arr, labels, fresh in parts:
        if not labels:
            scale = arr if scale is None else scale * arr
            continue
        taken = {x: iter(slots[x]) for x in labels}
        at = [next(taken[x]) for x in labels]
        missing = sorted(set(range(len(boundary))).difference(at))
        view = np.expand_dims(arr.transpose(sorted(range(len(at)), key=at.__getitem__)), missing)
        factors.append((arr.size, view, fresh))
    if not factors:
        return np.asarray(1 if scale is None else scale, dtype)  # a product of 0-d object arrays is an int
    factors.sort(key=lambda f: f[0])
    _, result, fresh = factors[0]
    for _, view, _ in factors[1:]:
        result, fresh = np.multiply(result, view, order="C"), True
    if scale is not None:
        result = np.multiply(result, scale, out=result if fresh else None, order="C")
    return result


def spider_matrix(p: FrobeniusPresentation, k: int, l: int, genus: int = 0) -> MatrixMorphism:
    """Matrix of the (k, l, genus) spider of p, contracted from _Network.spider's
    combs; by associativity any tree shape gives it once p verifies."""
    if min(k, l, genus) < 0:
        raise ValueError("leg counts and genus must be nonnegative")
    net = _Network(None)
    labels = net.fresh([p.dim] * (k + l))
    net.spider(p, labels[:k], labels[k:], genus)
    return net.contract(p.tag, labels[k:], labels[:k])


def evaluate_cob(term, p: FrobeniusPresentation) -> MatrixMorphism:
    """Evaluate a single-atom cobordism term from one presentation.

    The presentation must verify before any evaluation happens; it is
    verified once, on its first evaluation.  A dagger turns the surface
    end for end: ``interpret`` reads a daggered spider as the reversed
    spider, so no dagger structure is needed.
    """
    report = p.verification
    if not report.ok:
        bad = ", ".join(e.name for e in report.surprises())
        raise ValueError(f"presentation failed verification: {bad}")
    atoms = set()  # every atom is p's object, and the walk collects them
    try:
        net, ins, outs, _, _ = _flatten(
            term, COB_ATOMS, lambda a: atoms.add(a) or p.dim, {}, lambda a: atoms.add(a) or p
        )
    except Exception:
        cob_atom([term])  # the walk's own faults and the atom check come before a type error
        raise
    _single_atom(atoms, COB_ATOMS)  # raises if the walk met a second atom
    return net.contract(p.tag, outs, ins)


def evaluate_graph(graph: OpenGraph, interp: Interpretation) -> MatrixMorphism:
    """Contract an open graph to its matrix.

    Graph wires are undirected, so a spider's legs carry no orientation;
    this is only sound when every spider tensor is invariant under leg
    permutation and the pairing eps . mu it induces is the plain identity
    pairing.  Both hold for commutative presentations whose pairing matches
    the Kronecker cup.  Each spider atom's presentation is checked up
    front on two measured facts: it is commutative, and its
    pairing_deviation is within tolerance.  Boxes keep their
    orientation from the stored domain/codomain split, so no condition is
    needed for them.  A basis-copy spider joins the wires on its ports.
    """
    for atom in sorted({n.atom for n in graph.nodes if isinstance(n, SpiderNode)}):
        p = interp.frobenius_data.get(atom)
        if p is None:
            raise UnknownName(f"no frobenius data for atom {atom!r}")
        if not p.commutative or p.pairing_deviation > interp.tag.tolerance:
            raise ValueError(
                f"presentation for {atom!r} is directional; "
                "graph contraction needs a commutative presentation with the identity pairing"
            )

    net = _Network(interp.atom_dim)  # one label per wire, then per loop
    net.fresh([None] * len(graph.wires) + [interp.atom_dim(atom) for atom in graph.loops])
    values = net.values
    wire_at = {end: wid for wid, ends in enumerate(graph.wires) for end in ends}
    outputs = [wire_at[("o", k)] for k in range(len(graph.output_types))]
    inputs = [wire_at[("i", k)] for k in range(len(graph.input_types))]
    for x, (atom, _) in zip(outputs + inputs, graph.output_types + graph.input_types):
        values[x] = interp.atom_dim(atom)
    for nid, node in enumerate(graph.nodes):
        labels = [wire_at[("n", nid, port)] for port in range(node.n_ports)]
        spider = isinstance(node, SpiderNode)
        ports = [(node.atom, False)] * node.degree if spider else node.dom.factors + node.cod.factors
        for x, (atom, _) in zip(labels, ports):
            values[x] = interp.atom_dim(atom)
        if spider:
            net.spider(interp.frobenius_data[node.atom], labels, [], node.genus)
        elif (m := interp.gen_matrices.get(node.name)) is None:
            raise UnknownName(f"no matrix assigned to generator {node.name!r}")
        else:
            n = len(node.dom)  # ports run dom then cod
            net.box(m, labels[:n], labels[n:], node.daggered)
    return net.contract(interp.tag, outputs, inputs)
