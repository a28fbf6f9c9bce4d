"""Matrix interpretations of diagram terms.

interpret() types terms against an Interpretation's signature.  One
builder reads a node list's data through the Interpretation's checked
readers into a tensor network, for interpret() and evaluate_cob() from
walk_nodes, to_graph's node walk, and for evaluate_graph() from a graph's
nodes; one contraction engine evaluates the network: a planner gives each wire two
ends and turns the shape into a flat list of matmuls, kept in a bounded cache, and a
short loop runs it on the arrays.  A spider, spider_matrix()'s too, is left combs of
mu and delta tensors.  evaluate_cob() is one verified presentation.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math

import numpy as np

from .diagram.graphs import BoxNode, OpenGraph, SpiderNode, Wiring, walk_nodes
from .frobenius import COB_ATOMS, _single_atom, cob_atom
from .matcat import MatrixMorphism
from .presentations import FrobeniusPresentation, Interpretation, _copy3, hopf_group_z2, verify_frobenius  # noqa: F401

PLANS = 256  # network shapes whose contraction plans are kept
BUDGET = 2**28  # entries in the largest array a contraction may allocate


def interpret(term, interp: Interpretation) -> MatrixMorphism:
    """Evaluate a term to its matrix, typing it against the signature.

    ``walk_nodes``, to_graph's node walk, types the term and lists its
    generators and spiders, each then a tensor on its port labels;
    identities, symmetries, cups, caps, composition and basis-copy spiders
    only create or join labels.  Data is read after the walk, as _network
    reads it: every type error comes first, then the least atom, in sorted
    order, with no dimension, then each distinct node's data in walk order.
    A daggered generator is its matrix's adjoint and a daggered spider the
    same spider reversed, as every layer reads it.
    """
    return _interpret(term, interp)[0]


def _interpret(term, interp: Interpretation):
    """interpret's matrix, with the domain and codomain factors its walk typed."""
    if interp.signature is None:
        raise ValueError("interpret needs a signature to type the term against")
    wiring, nodes, ports, inputs, ins, outs, dom, cod = walk_nodes(term, interp.signature)
    net = _network(interp, wiring.values, wiring.parent, nodes, ports, inputs)
    return net.contract(interp.tag, outs, ins), dom, cod


def _network(interp, atoms, parent, nodes, ports, inputs):
    """The network of nodes, node i on labels ports[i], the first inputs[i] its inputs,
    over labels valued by atoms and merged by parent, if given: every label's dimension
    is read first (the least atom with none raises), then each distinct node's data once, in node order."""
    dims, read = interp.object_dims, {}
    net = _Network([dims[a] if a in dims else interp.atom_dim(min({*atoms} - dims.keys())) for a in atoms], parent)
    for node, labels, k in zip(nodes, ports, inputs):
        if (data := read.get(id(node))) is None:  # walk_nodes shares one node per generator, parity and shape
            read[id(node)] = data = (interp.matrix(node.name, node, node.daggered) if node.__class__ is BoxNode
                                     else interp.presentation(node.atom))
        net.add(node, labels, k, data)
    return net


class _Network(Wiring):
    """A tensor network being built: wire labels valued by their dimension and
    merged by union-find, and its tensors."""

    def __init__(self, values, parent=None):
        self.values, self.parent = values, [*range(len(values))] if parent is None else parent
        self.tensors = []

    def add(self, node, labels, k, data):
        """A node's tensor on its port labels, the first k its inputs, from data
        checked for it: a box's entries, the adjoint's if daggered, on axes cod
        then dom.  A (k, l, genus) spider of presentation data p is a comb of
        mu over the inputs, then (mu . delta)^genus, then a comb of delta over
        the outputs; a copy spider joins its legs (a special one ignores
        genus), and with none is a fresh label."""
        if node.__class__ is BoxNode:
            axes = labels[k:] + labels[:k]
            self.tensors.append((data.reshape([self.values[x] for x in axes]), axes))
            return
        if not (p := data).basis_copy:
            d, genus = p.dim, node.genus
            merge = self._comb(p.mu.data.reshape(d, d, d), p.unit_e.data.ravel(), labels[:k])
            branch = self._comb(p.delta.data.reshape(d, d, d).transpose(2, 0, 1), p.eps.data.ravel(), labels[k:])
            if genus:
                with np.errstate(all="ignore"):  # contract rejects an overflowed result
                    self.tensors.append((np.linalg.matrix_power(p.mu.data @ p.delta.data, genus), [branch, merge]))
            else:
                self.parent[self.find(merge)] = self.find(branch)
            return
        root = self.find(labels[0]) if labels else self.label(p.dim)
        for x in labels[1:]:
            self.parent[self.find(x)] = root

    def _comb(self, node, leaf, labels):
        """Tie labels to one root label by a left comb of node, an order-3
        tensor on axes (root, left, right), the first two labels meeting
        first; with no labels, leaf, a vector, sits on the root.  The root
        is fresh, or the one label itself; returns it."""
        root = labels[0] if len(labels) == 1 else self.label(len(leaf))
        if not labels:
            self.tensors.append((leaf, [root]))
        ups = self.fresh([len(leaf)] * (len(labels) - 2)) + [root]
        self.tensors += [(node, [up, left, right]) for up, left, right in zip(ups, labels[:1] + ups, labels[1:])]
        return root

    def contract(self, tag, outputs, inputs):
        """The network's matrix inputs -> outputs, each label read as its root.

        A label's ends are its boundary slots and tensor axes; one joined by
        copy spiders may have any number, or both on one holder.  _plan ties
        every label into a wire with two ends, planning each network shape
        once, its bounded cache keeping plans only, and _run executes the
        plan on the arrays; the network itself is left as it was.  Booleans
        contract exactly, as numpy's boolean matmul is the or-of-ands
        product.  A floating-point result with an inf or nan entry raises
        ValueError.
        """
        parent, tensors, boundary = self.parent, self.tensors, outputs + inputs
        dims = {x: d for x, d in enumerate(self.values) if parent[x] == x}
        if len(dims) < len(parent):  # a merged label not yet read as its root
            find = self.find
            tensors = [(arr, [*map(find, labels)]) for arr, labels in tensors]
            boundary = [*map(find, boundary)]
        labels = tensors[0][1] if len(tensors) == 1 else None
        if labels is not None and len(boundary) == len(dims) == len(labels) == len(set(labels).intersection(boundary)):
            # one tensor holding each wire once, its other end in one boundary slot, is a transpose
            # with no arithmetic to guard, and planning would make a single gate slower
            data = tensors[0][0].transpose([labels.index(x) for x in boundary])
        else:
            plan = _plan((tuple([tuple(labels) for _, labels in tensors]), tuple(boundary), tuple(dims.items())))
            with np.errstate(all="ignore"):  # exact semirings raise no numpy warnings
                data = _run(plan, [arr for arr, _ in tensors], tag.ops.dtype)
        values = self.values  # a label's value is its root's dimension
        data = data.reshape(math.prod(map(values.__getitem__, outputs)), math.prod(map(values.__getitem__, inputs)))
        # checked on the float halves of each entry, about twice as fast as on complex values
        if not tag.exact and not np.isfinite(data.ravel().view(np.float64)).all():
            raise ValueError(f"{tag.kind} contraction overflowed: the result has inf or nan entries")
        return MatrixMorphism._raw(tag, data)


@functools.lru_cache(maxsize=PLANS)
def _plan(shape):
    """The plan, ints and tuples only, that contracts a network of this shape:
    each tensor's labels, the boundary, and each root label's dimension.

    Every wire has two ends on two holders, each a tensor or the boundary.
    A label with other ends, listed boundary slots first, keeps its first,
    its others move to fresh labels, and added copy tensors tie them: the
    scalar d for no end, the all-ones vector for one, an identity for two
    on one holder (a bare wire or a trace), for n > 2 a left comb of n - 2
    order-3 ones, as _Network._comb builds it.  Registers hold the tensors,
    then the added ones.  Pairs sharing a label are contracted greedily,
    smallest result first as in opt_einsum's greedy path, each by _step into
    its first operand's register.  Raises MemoryError, before any array
    exists, if one would pass BUDGET entries.
    """
    tensors, boundary, dims = [*map(list, shape[0])], [*shape[1]], dict(shape[2])
    ends, added, fresh = {x: [] for x in dims}, [], itertools.count(-1, -1)  # fresh labels are negative
    for labels in [boundary, *tensors]:
        for i, x in enumerate(labels):
            ends[x].append((labels, i))
    for x, at in ends.items():
        if len(at) != 2 or at[0][0] is at[1][0]:
            d, legs = dims[x], [next(fresh) for _ in at[1:]]
            for (labels, i), y in zip(at[1:], legs):
                labels[i] = y
            ups = [next(fresh) for _ in legs[2:]] + [x]
            dims.update(dict.fromkeys(legs + ups, d))
            if len(at) < 3:  # the scalar d, the all-ones vector or an identity
                added.append((d, len(at), [x, *legs][: len(at)]))
            else:
                added += [(d, 3, [up, left, right]) for up, left, right in zip(ups, legs[:1] + ups, legs[1:])]
    slot = {x: i for i, x in enumerate(boundary)}
    live, owners, heap, keys, steps, parts = {}, {}, [], itertools.count(), [], []

    def add(reg, labels, size):
        key, near, mine = next(keys), {}, set(labels)
        for x in mine:  # x has two ends, so at most one of its last two holders is live
            holders = owners.get(x)
            if holders is not None:
                k = holders[-1] if holders[-1] in live else holders[0]
                if k in live:
                    near[k], owners[x] = near.get(k, 1) * dims[x], (k, key)
                    continue
            owners[x] = (key,)
        live[key] = (reg, labels, mine, size)
        for k, shared in near.items():  # the pair's result size, its free labels' product
            size_k = size * live[k][3] // shared**2 if shared else math.prod(dims[x] for x in mine ^ live[k][2])
            heapq.heappush(heap, (size_k, k, key))

    for reg, labels in enumerate(tensors + [labels for _, _, labels in added]):
        add(reg, labels, math.prod(map(dims.__getitem__, labels)))
    largest = max([math.prod(map(dims.__getitem__, boundary))] + [d**order for d, order, _ in added])
    while heap:
        size, a, b = heapq.heappop(heap)
        if a in live and b in live:
            x, y = live.pop(a), live.pop(b)
            largest = max(largest, size)
            free, shared = x[2] ^ y[2], [z for z in x[1] if z in y[2]]
            last = slot.keys() >= free  # the connected part's last step, written in slot order
            step, labels = _step(x, y, shared, sorted(free, key=slot.__getitem__) if last else None, dims)
            steps.append(step)
            if last:
                parts.append((step[0], labels, True))
            else:
                add(x[0], labels, size)
    if largest > BUDGET:
        raise MemoryError(f"contraction plan needs a {largest}-entry array, over the {BUDGET}-entry budget")
    parts += [(reg, labels, False) for reg, labels, _, _ in live.values()]
    return tuple(steps), tuple((d, order) for d, order, _ in added), _assemble(parts, slot, dims)


def _axes(labels, order):
    """The transpose taking labels to order, or () if they agree."""
    return () if labels == order else tuple(map(labels.index, order))


def _step(x, y, shared, order, dims):
    """The matmul contracting x and y, each (register, labels, label set,
    size), and its result's labels: x's free ones then y's, or order, the
    free labels in slot order, for the last step of a connected part.  In
    order they fall into runs alternating between the operands, x and y
    swapping if the last slot is x's; matmul writes through a transposed
    view of the result: n is the last run, m the widest of x's runs, k the
    shared labels, each other run a batch axis, of size 1 on the operand
    without it.  An operand is transposed only if out of order."""
    (a, x_labels, x_set, _), (b, y_labels, y_set, _) = x, y
    if order is None:
        x_free, y_free = [z for z in x_labels if z not in y_set], [z for z in y_labels if z not in x_set]
        shape, i = tuple(map(dims.__getitem__, x_free + y_free)), len(x_free)
        m, k, n = math.prod(shape[:i]), math.prod(map(dims.__getitem__, shared)), math.prod(shape[i:])
        x_axes, y_axes = _axes(x_labels, x_free + shared), _axes(y_labels, shared + y_free)
        return (a, b, x_axes, (m, k), y_axes, (k, n), shape, ()), x_free + y_free
    if order and order[-1] in x_set:
        (a, x_labels, x_set, _), (b, y_labels, y_set, _) = y, x
    runs = [[*run] for _, run in itertools.groupby(order, x_set.__contains__)]
    runs[:0] = [[]] * (2 - len(runs))  # an empty run, of size 1, where x or y has no free label
    sizes = [math.prod(dims[z] for z in run) for run in runs]
    n = len(runs) - 1
    ours = range(n - 1, -1, -2)
    m = max(ours, key=sizes.__getitem__)
    batch = [i for i in range(n) if i != m]
    k = math.prod(dims[z] for z in shared)
    x_axes = [z for i in batch if i in ours for z in runs[i]] + runs[m] + shared
    y_axes = [z for i in batch if i not in ours for z in runs[i]] + shared + runs[n]
    x_shape = tuple([sizes[i] if i in ours else 1 for i in batch] + [sizes[m], k])
    y_shape = tuple([1 if i in ours else sizes[i] for i in batch] + [k, sizes[n]])
    view = tuple(sizes), tuple(batch + [m, n])
    shape = tuple(dims[z] for z in order)
    return (a, b, _axes(x_labels, x_axes), x_shape, _axes(y_labels, y_axes), y_shape, shape, view), order


def _assemble(parts, slot, dims):
    """How parts, each (register, labels, fresh), multiply by broadcasting
    into C order, one axis per boundary slot, slot[x] label x's: the scalar
    registers; each other register, smallest first, with the transpose and
    size-1 axes that view it in slot order; and whether the product is
    fresh, not a view of an input, so scalars multiply into it in place."""
    factors = []
    for reg, labels, fresh in parts:
        if labels:
            at = [*map(slot.__getitem__, labels)]  # no two parts share a label
            missing = tuple(sorted(set(range(len(slot))).difference(at)))
            axes = tuple(sorted(range(len(at)), key=at.__getitem__))
            factors.append((math.prod(dims[x] for x in labels), (reg, axes, missing), fresh))
    factors.sort(key=lambda f: f[0])
    fresh = len(factors) > 1 or bool(factors) and factors[0][2]
    return tuple(reg for reg, labels, _ in parts if not labels), tuple(f[1] for f in factors), fresh


def _run(plan, arrays, dtype):
    """plan run on arrays, a network's tensors in order: one array with an axis per boundary slot."""
    steps, added, (scalars, factors, fresh) = plan
    make = np.asarray, np.ones, np.identity, _copy3  # the copy tensor of order 0 (the scalar d), 1, 2 or 3
    regs = arrays + [make[order](d, dtype) for d, order in added]
    for a, b, x_axes, x_shape, y_axes, y_shape, shape, view in steps:
        x = regs[a].transpose(x_axes) if x_axes else regs[a]
        y = regs[b].transpose(y_axes) if y_axes else regs[b]
        if not view:  # a plain product, already in order
            regs[a] = (x.reshape(x_shape) @ y.reshape(y_shape)).reshape(shape)
        else:
            regs[a] = np.empty(shape, x.dtype)
            np.matmul(x.reshape(x_shape), y.reshape(y_shape), out=regs[a].reshape(view[0]).transpose(view[1]))
        regs[b] = None
    scale = functools.reduce(np.multiply, [regs[a] for a in scalars]) if scalars else None
    if not factors:
        return np.asarray(1 if scale is None else scale, dtype)  # a product of 0-d object arrays is an int
    views = [np.expand_dims(regs[a].transpose(axes), missing) for a, axes, missing in factors]
    result = functools.reduce(lambda product, view: np.multiply(product, view, order="C"), views)
    return result if scale is None else np.multiply(result, scale, out=result if fresh else None, order="C")


def spider_matrix(p: FrobeniusPresentation, k: int, l: int, genus: int = 0) -> MatrixMorphism:
    """Matrix of the (k, l, genus) spider of p, contracted from _Network.add's
    combs; by associativity any tree shape gives it once p verifies."""
    if min(k, l, genus) < 0:
        raise ValueError("leg counts and genus must be nonnegative")
    net = _Network([p.dim] * (k + l))
    labels = [*range(k + l)]
    net.add(SpiderNode(None, k + l, genus), labels, k, p)
    return net.contract(p.tag, labels[k:], labels[:k])


def evaluate_cob(term, p: FrobeniusPresentation) -> MatrixMorphism:
    """Evaluate a single-atom cobordism term from one presentation.

    The presentation must verify before any evaluation happens; it is
    verified once, on its first evaluation.  A dagger turns the surface
    end for end: ``interpret`` reads a daggered spider as the reversed
    spider, so no dagger structure is needed.
    """
    if p.failed_laws:
        raise ValueError(f"presentation failed verification: {p.failed_laws}")
    try:
        wiring, nodes, ports, inputs, ins, outs, _, _ = walk_nodes(term, COB_ATOMS)
    except Exception:
        cob_atom([term])  # the walk's own faults and the atom check come before a type error
        raise
    atom = _single_atom({*wiring.values, *(node.atom for node in nodes)}, COB_ATOMS)  # raises at a second atom
    interp = Interpretation(p.tag, {}, {}, {atom: p})
    return _network(interp, wiring.values, wiring.parent, nodes, ports, inputs).contract(p.tag, outs, ins)


def evaluate_graph(graph: OpenGraph, interp: Interpretation) -> MatrixMorphism:
    """Contract an open graph to its matrix.

    Graph wires are undirected, so a spider's legs carry no orientation;
    this is only sound when every spider tensor is invariant under leg
    permutation and the pairing eps . mu it induces is the plain identity
    pairing.  Both hold for commutative presentations whose pairing matches
    the Kronecker cup.  Once _network has read every dimension and node,
    each spider atom's presentation is checked on two measured facts: it is
    commutative, and its pairing_deviation is within tolerance.
    Boxes keep their orientation from the stored domain/codomain split;
    each one's matrix is checked against its ports, which the signature
    need not declare.  A basis-copy spider joins its wires.
    """
    nodes, types = graph.nodes, {"i": graph.input_types, "o": graph.output_types}
    sides = [n.dom.factors + n.cod.factors if n.__class__ is BoxNode else [(n.atom, False)] * n.degree for n in nodes]
    atoms = [(sides[a[1]][a[2]] if a[0] == "n" else types[a[0]][a[1]])[0] for a, _ in graph.wires]  # at its first end
    wire_at = {end: wid for wid, ends in enumerate(graph.wires) for end in ends}
    outs = [wire_at["o", k] for k in range(len(types["o"]))]
    ins = [wire_at["i", k] for k in range(len(types["i"]))]
    ports = [[wire_at["n", nid, port] for port in range(len(factors))] for nid, factors in enumerate(sides)]
    inputs = [len(n.dom) if n.__class__ is BoxNode else n.degree for n in nodes]
    net = _network(interp, atoms + [*graph.loops], None, nodes, ports, inputs)  # wires, then loops
    for atom in sorted({node.atom for node in nodes if node.__class__ is SpiderNode}):
        p = interp.presentation(atom)
        if not p.commutative or p.pairing_deviation > interp.tag.tolerance:
            raise ValueError(
                f"presentation for {atom!r} is directional; "
                "graph contraction needs a commutative presentation with the identity pairing"
            )
    return net.contract(interp.tag, outs, ins)
