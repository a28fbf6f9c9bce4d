"""Matrix interpretations of diagram terms.

An Interpretation assigns a dimension to every object atom, a matrix to
every generator, and a Frobenius presentation to every atom that carries
spiders; interpret() types terms against its signature.  One builder
makes the tensor network, fed by interpret() and evaluate_cob() from a
term's wiring walk and by evaluate_graph() from a graph's nodes, and one
contraction engine evaluates it.  evaluate_cob() is the case of a single
atom governed entirely by one verified Frobenius presentation.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .diagram import Gen, ObjectWord, OpenGraph, Signature, SpiderNode, UnknownName, typecheck
from .diagram.graphs import Wiring
from .frobenius import COB_ATOMS, cob_atom
from .lawcheck import LawReport, law_report
from .matcat import (
    MatrixMorphism,
    ShapeMismatch,
    compose,
    counit_eps,
    dagger,
    max_deviation,
    swap_matrix,
    tensor,
)
from . import scalars
from .scalars import COMPLEX, DEFAULT_TOLERANCE, SemiringTag, join_tags


@dataclass(frozen=True)
class FrobeniusPresentation:
    """Comonoid (delta, eps) and monoid (mu, unit_e) matrices on one object.

    The flags record which optional laws the presentation claims; they are
    promises checked by verify_frobenius, not facts enforced here.  Only the
    shapes are validated on construction.  basis_copy is measured: delta is
    exactly the basis copy map, mu its transpose, eps and unit_e all ones.
    So is pairing_deviation, the distance of the pairing eps . mu from the
    identity pairing, which evaluate_graph checks.  verification, the
    verify_frobenius report that evaluate_cob requires to pass, is measured
    on first use and kept; neither is compared or printed.
    """

    dim: int
    delta: MatrixMorphism
    eps: MatrixMorphism
    mu: MatrixMorphism
    unit_e: MatrixMorphism
    commutative: bool = False
    special: bool = False
    dagger: bool = False
    basis_copy: bool = field(init=False, repr=False, compare=False)
    pairing_deviation: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        d = self.dim
        if d < 0:
            raise ValueError("dimension must be nonnegative")
        for m, r, c, name in [
            (self.delta, d * d, d, "delta"),
            (self.eps, 1, d, "eps"),
            (self.mu, d, d * d, "mu"),
            (self.unit_e, d, 1, "unit_e"),
        ]:
            if m.rows != r or m.cols != c:
                raise ShapeMismatch(
                    f"{name} must be {r}x{c} for dimension {d}, got {m.rows}x{m.cols}"
                )
        join_tags(join_tags(self.delta.tag, self.eps.tag), join_tags(self.mu.tag, self.unit_e.tag))
        dtype = self.delta.data.dtype  # a comparison across dtypes costs numpy 0.25 MB
        copy = _copy3(d, dtype).ravel()  # delta and mu
        ones = np.ones(d, dtype)  # eps and unit_e
        pairs = ((self.delta, copy), (self.mu, copy), (self.eps, ones), (self.unit_e, ones))
        object.__setattr__(self, "basis_copy", all(np.array_equal(m.data.ravel(), c) for m, c in pairs))
        with np.errstate(all="ignore"):  # overflowing data fails the check, not construction
            deviation = max_deviation(compose(self.eps, self.mu), counit_eps(self.tag, d))
        object.__setattr__(self, "pairing_deviation", deviation)

    @property
    def tag(self) -> SemiringTag:
        return self.delta.tag

    @cached_property
    def verification(self) -> LawReport:
        """verify_frobenius(self), measured once; dataclasses.replace measures afresh."""
        return verify_frobenius(self)


def basis_frobenius(d: int, tag: SemiringTag = COMPLEX) -> FrobeniusPresentation:
    """The copy/delete presentation attached to the standard basis.

    delta copies basis vectors, eps deletes them, and the monoid half is the
    adjoint pair; every optional flag holds.
    """
    delta = MatrixMorphism.zeros(tag, d * d, d)
    one = scalars.one(tag).value
    for i in range(d):
        delta.data[i * d + i, i] = one
    eps = MatrixMorphism(tag, [[1] * d], shape=(1, d))
    return FrobeniusPresentation(
        dim=d,
        delta=delta,
        eps=eps,
        mu=dagger(delta),
        unit_e=dagger(eps),
        commutative=True,
        special=True,
        dagger=True,
    )


def xor_frobenius(tag: SemiringTag = COMPLEX) -> FrobeniusPresentation:
    """Frobenius structure of the two-element group algebra.

    Multiplication is exclusive-or on basis indices.  Commutative and
    dagger, but mu . delta = 2 id, so it is special only over booleans;
    this makes it the standard witness that genus is semantically visible.
    """
    delta = MatrixMorphism(tag, [[1, 0], [0, 1], [0, 1], [1, 0]])
    eps = MatrixMorphism(tag, [[1, 0]])
    mu = MatrixMorphism(tag, [[1, 0, 0, 1], [0, 1, 1, 0]])
    unit_e = MatrixMorphism(tag, [[1], [0]])
    return FrobeniusPresentation(
        dim=2,
        delta=delta,
        eps=eps,
        mu=mu,
        unit_e=unit_e,
        commutative=True,
        special=(tag.kind == "bool"),
        dagger=True,
    )


def hopf_group_z2(tag: SemiringTag = COMPLEX):
    """Bimonoid of the two-element group: basis copy with xor multiplication.

    Returns (presentation, antipode).  The pairing is deliberately mixed --
    comonoid from the basis, monoid from the group -- so it is a bialgebra
    and a Hopf algebra (the antipode is the identity since every element is
    its own inverse), but not a Frobenius pairing.
    """
    delta = MatrixMorphism(tag, [[1, 0], [0, 0], [0, 0], [0, 1]])
    eps = MatrixMorphism(tag, [[1, 1]])
    mu = MatrixMorphism(tag, [[1, 0, 0, 1], [0, 1, 1, 0]])
    unit_e = MatrixMorphism(tag, [[1], [0]])
    p = FrobeniusPresentation(2, delta, eps, mu, unit_e)
    return p, MatrixMorphism.identity(tag, 2)


def _flag_laws(p: FrobeniusPresentation) -> list:
    """The commutativity, speciality and dagger-structure equations, in flag order."""
    sigma = swap_matrix(p.tag, p.dim, p.dim)
    return [
        ("commutativity", [(None, compose(sigma, p.delta), p.delta), (None, compose(p.mu, sigma), p.mu)]),
        ("speciality", [(None, compose(p.mu, p.delta), MatrixMorphism.identity(p.tag, p.dim))]),
        ("dagger-structure", [(None, dagger(p.delta), p.mu), (None, dagger(p.eps), p.unit_e)]),
    ]


def verify_frobenius(p: FrobeniusPresentation) -> LawReport:
    """Check the (co)monoid, Frobenius, and flagged laws as matrix equations.

    Failures are report entries, never exceptions, so unverifiable data over
    restrictive semirings is reported rather than rejected.
    """
    tag = p.tag
    d = p.dim
    ident = MatrixMorphism.identity(tag, d)
    frob_mid = compose(p.delta, p.mu)

    checks = [
        ("coassociativity", compose(tensor(p.delta, ident), p.delta), compose(tensor(ident, p.delta), p.delta)),
        ("counit-left", compose(tensor(p.eps, ident), p.delta), ident),
        ("counit-right", compose(tensor(ident, p.eps), p.delta), ident),
        ("associativity", compose(p.mu, tensor(p.mu, ident)), compose(p.mu, tensor(ident, p.mu))),
        ("unit-left", compose(p.mu, tensor(p.unit_e, ident)), ident),
        ("unit-right", compose(p.mu, tensor(ident, p.unit_e)), ident),
        ("frobenius-left", compose(tensor(ident, p.mu), tensor(p.delta, ident)), frob_mid),
        ("frobenius-right", compose(tensor(p.mu, ident), tensor(ident, p.delta)), frob_mid),
    ]
    laws = [(name, [(None, lhs, rhs)]) for name, lhs, rhs in checks]
    laws += [law for law, claimed in zip(_flag_laws(p), (p.commutative, p.special, p.dagger)) if claimed]
    return law_report("frobenius", tag.tolerance, laws)


def spider_matrix(p: FrobeniusPresentation, k: int, l: int, genus: int = 0) -> MatrixMorphism:
    """Matrix of the (k, l, genus) spider: merge k legs, thread genus handles,
    then branch into l legs.

    Trees are left combs; by associativity any tree shape gives the same
    matrix once the presentation verifies.
    """
    if min(k, l, genus) < 0:
        raise ValueError("leg counts and genus must be nonnegative")
    tag = p.tag
    ident = MatrixMorphism.identity(tag, p.dim)
    merge = p.unit_e if k == 0 else ident
    for _ in range(k - 1):
        merge = compose(p.mu, tensor(merge, ident))
    branch = p.eps if l == 0 else ident
    for _ in range(l - 1):
        branch = compose(tensor(branch, ident), p.delta)
    handle = compose(p.mu, p.delta)
    out = merge
    for _ in range(genus):
        out = compose(handle, out)
    return compose(branch, out)


@dataclass
class Interpretation:
    """Assignment of matrix data to a diagram signature."""

    tag: SemiringTag
    object_dims: dict
    gen_matrices: dict = field(default_factory=dict)
    frobenius_data: dict = field(default_factory=dict)
    signature: Signature | None = None
    element_names: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        for atom, p in self.frobenius_data.items():
            if p.tag.kind != self.tag.kind:
                raise ValueError(f"frobenius data for {atom!r} uses {p.tag.kind}, not {self.tag.kind}")
            declared = self.object_dims.setdefault(atom, p.dim)
            if declared != p.dim:
                raise ValueError(
                    f"atom {atom!r} declared with dimension {declared} "
                    f"but its frobenius data has dimension {p.dim}"
                )
        for name, m in self.gen_matrices.items():
            if m.tag.kind != self.tag.kind:
                raise ValueError(f"generator {name!r} uses {m.tag.kind}, not {self.tag.kind}")
            if self.signature is None or name not in self.signature.generators:
                continue
            decl = self.signature.generators[name]
            rows, cols = self.word_dim(decl.cod), self.word_dim(decl.dom)
            if m.rows != rows or m.cols != cols:
                raise ValueError(
                    f"generator {name!r} needs a {rows}x{cols} matrix "
                    f"for {decl.dom} -> {decl.cod}, got {m.rows}x{m.cols}"
                )

    def atom_dim(self, atom: str) -> int:
        if atom not in self.object_dims:
            raise UnknownName(f"no dimension declared for atom {atom!r}")
        return self.object_dims[atom]

    def word_dim(self, word: ObjectWord) -> int:
        n = 1
        for atom, _ in word.factors:
            n *= self.atom_dim(atom)
        return n


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
        self.tensors = []
        self.joined = []

    def box(self, m, dom, cod, daggered):
        """m, or its adjoint, on axes cod then dom, the labels of the node's own sides."""
        labels = cod + dom
        values = self.values
        self.tensors.append(((dagger(m) if daggered else m).data.reshape([values[x] for x in labels]), labels))

    def spider(self, p, dom, cod, genus=0):
        """The (len(dom), len(cod), genus) spider of p.  A copy spider joins
        its legs (a special one ignores genus), and with none is a fresh label."""
        if not p.basis_copy:
            self.box(spider_matrix(p, len(dom), len(cod), genus), dom, cod, False)
            return
        labels = dom + cod or self.fresh([p.dim])
        root = self.find(labels[0])
        for x in labels[1:]:
            self.parent[self.find(x)] = root
        self.joined.append(root)

    def contract(self, tag, outputs, inputs):
        """The network's matrix inputs -> outputs, each label read as its root."""
        parent = self.parent
        dims = {x: d for x, d in enumerate(self.values) if parent[x] == x}
        tensors, joined = self.tensors, self.joined
        if len(dims) < len(parent):  # some label was joined to another
            find = self.find
            tensors = [(arr, [*map(find, labels)]) for arr, labels in tensors]
            outputs, inputs, joined = [*map(find, outputs)], [*map(find, inputs)], {*map(find, joined)}
        return _contract(tag, tensors, outputs, inputs, dims, joined)


def _flatten(term, sig, atom_dim, matrices, presentation):
    """The term's _Network, input and output labels, and domain and
    codomain factors, from each atom's dimension and Frobenius
    presentation (or None) and the matrices."""
    net = _Network(atom_dim)

    def leaf(t, flip):
        if isinstance(t, Gen):
            m = matrices.get(t.name)
            if m is None:
                raise UnknownName(f"no matrix assigned to generator {t.name!r}")
            decl = sig.generators[t.name]
            ins, outs = net.word(decl.dom), net.word(decl.cod)
        else:
            p = presentation(t.atom)
            if p is None:
                raise UnknownName(f"no frobenius data for atom {t.atom!r}")
            ins, outs = net.fresh([p.dim] * t.legs_in), net.fresh([p.dim] * t.legs_out)
        dom, cod = (outs, ins) if flip else (ins, outs)  # under a dagger the outputs are the node's domain
        if isinstance(t, Gen):
            net.box(m, dom, cod, flip)
        else:
            net.spider(p, dom, cod)  # a daggered spider is the reversed spider
        return ins, outs

    return (net, *net.walk(term, leaf, sig))


def _copy3(d, dtype):
    """The order-3 copy tensor of dimension d: 1 where all three indices agree."""
    eye = np.eye(d, dtype=dtype)
    return eye[:, :, None] * eye[:, None]


def _contract(tag, tensors, outputs, inputs, dims, joined) -> MatrixMorphism:
    """Contract a network of labelled tensors to the matrix inputs -> outputs.

    tensors is a list of (array, labels) with one label per axis, outputs
    and inputs are the boundary labels in order, and dims maps every label
    to its dimension.  A label is a wire with two ends, each a tensor axis
    or a boundary slot, so one no tensor holds is an identity between two
    slots or a closed loop.  The labels in joined, tied by copy spiders,
    may have any number of ends; _fan_out rewrites them.  Pairs of tensors
    sharing a label are contracted greedily, smallest result first, as in
    opt_einsum's greedy path.  The engine writes the result in boundary
    order, outputs then inputs, C-contiguous, so the reshape to a matrix
    is a view and the result is the only full-size array it allocates.
    numpy's boolean dot and matmul are the or-of-ands product, so booleans
    contract exactly with no case of their own.
    Floating-point contraction runs with numpy's warnings off, and a
    result with an inf or nan entry raises ValueError instead.
    """
    boundary = outputs + inputs
    if joined:
        tensors, boundary = _fan_out(tag.ops.dtype, tensors, boundary, dims, joined)
    if len(tensors) == 1 and len(set(tensors[0][1])) == len(boundary) == len(dims):
        # one tensor holding each wire once, its other end on the boundary, is a
        # transpose with no arithmetic to guard; errstate and the engine's
        # bookkeeping would make a single-gate circuit about a fifth slower
        arr, labels = tensors[0]
        data = arr.transpose([labels.index(x) for x in boundary])
    elif tag.exact:
        data = _network(tag.ops.dtype, tensors, boundary, dims)
    else:
        with np.errstate(all="ignore"):
            data = _network(tag.ops.dtype, tensors, boundary, dims)
    data = data.reshape(math.prod(dims[x] for x in outputs), math.prod(dims[x] for x in inputs))
    # checked on the float halves of each entry, about twice as fast as on complex values
    if not tag.exact and not np.isfinite(data.ravel().view(np.float64)).all():
        raise ValueError(f"{tag.kind} contraction overflowed: the result has inf or nan entries")
    return MatrixMorphism._raw(tag, data)


def _fan_out(dtype, tensors, boundary, dims, joined):
    """Rewrite the joined wires with m != 2 ends; return tensors and boundary.

    No ends is a closed loop, which _network makes d; one end gets the
    all-ones vector.  Past two, the ends but the first get fresh (label, j)
    wires tied by m - 2 order-3 copy tensors chained by more fresh wires
    (added to dims), so no copy tensor exceeds d^3 however wide a spider.
    """
    holders = [list(boundary)] + [list(labels) for _, labels in tensors]
    extra = []
    ends = {x: [] for x in joined}
    for h, labels in enumerate(holders):
        for i, x in enumerate(labels):
            if x in ends:
                ends[x].append((h, i))
    for x, at in ends.items():
        d, m = dims[x], len(at)
        if m == 1:
            extra.append((np.ones(d, dtype), [x]))
        elif m > 2:
            fresh = [(x, j) for j in range(2 * m - 4)]
            legs = [x] + fresh[: m - 1]
            links = [x] + fresh[m - 1 :] + [fresh[m - 2]]
            copy = _copy3(d, dtype)
            extra += [(copy, [links[j - 1], legs[j], links[j]]) for j in range(1, m - 1)]
            for (h, i), y in zip(at[1:], legs[1:]):
                holders[h][i] = y
            dims.update((y, d) for y in fresh)
    return [(arr, labels) for (arr, _), labels in zip(tensors, holders[1:])] + extra, holders[0]


def _network(dtype, tensors, boundary, dims):
    """_contract's network as one array with an axis per boundary slot, in order.

    A contraction whose free labels are all boundary slots is the last of
    its connected part: _last_step writes it in slot order, and _assemble
    multiplies the parts into the result's layout, with no full-size
    temporary.
    """
    held = {x for _, labels in tensors for x in labels}
    ends = set(boundary)
    live, owners, heap, keys, last = {}, {}, [], itertools.count(), []

    def add(arr, labels):
        for x in {x for x in labels if labels.count(x) == 2 and x not in ends}:
            # both ends on one tensor: a trace, or the identity of a closed loop
            i = labels.index(x)
            j = labels.index(x, i + 1)
            arr = np.tensordot(arr, np.eye(dims[x], dtype=dtype), axes=((i, j), (0, 1)))
            labels = labels[:i] + labels[i + 1 : j] + labels[j + 1 :]
        key, mine, near = next(keys), set(labels), set()
        live[key] = (arr, labels)
        for x in mine:
            others = [k for k in owners.get(x, ()) if k in live]
            owners[x] = others + [key]
            near.update(others)
        for k in near:
            size = math.prod(map(dims.__getitem__, mine.symmetric_difference(live[k][1])))
            heapq.heappush(heap, (size, k, key))

    for arr, labels in tensors:
        add(arr, labels)
    for x, d in dims.items():
        if x not in held:
            add(np.eye(d, dtype=dtype), [x, x])
    while heap:
        _, a, b = heapq.heappop(heap)
        if a in live and b in live:
            pair = live.pop(a), live.pop(b)
            (x_arr, x_labels), (y_arr, y_labels) = pair
            shared = [x for x in x_labels if x in y_labels]
            free = [x for x in x_labels + y_labels if x not in shared]
            if ends.issuperset(free):
                last.append((*pair, shared))
                continue
            axes = ([x_labels.index(x) for x in shared], [y_labels.index(x) for x in shared])
            add(np.tensordot(x_arr, y_arr, axes=axes), free)
    slot = {x: i for i, x in enumerate(boundary)}
    parts = [(*_last_step(x, y, shared, slot, dims), True) for x, y, shared in last]
    return _assemble(dtype, parts + [(arr, labels, False) for arr, labels in live.values()], boundary)


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


def evaluate_cob(term, p: FrobeniusPresentation) -> MatrixMorphism:
    """Evaluate a single-atom cobordism term from one presentation.

    The presentation must verify (including its claimed flags) before any
    evaluation happens; it is verified once, on its first evaluation.  A
    dagger turns the surface end for end: ``interpret`` reads a daggered
    spider as the reversed spider, so no dagger structure is needed.
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
    if len(atoms) > 1:
        raise ValueError(f"expected a single atom, found {sorted(atoms)}")
    return net.contract(p.tag, outs, ins)


def check_frobenius_morphism(
    theta: MatrixMorphism, p: FrobeniusPresentation, q: FrobeniusPresentation
) -> LawReport:
    """Does theta commute with both comonoid and monoid structure?"""
    if theta.cols != p.dim or theta.rows != q.dim:
        raise ShapeMismatch(
            f"morphism must be {q.dim}x{p.dim}, got {theta.rows}x{theta.cols}"
        )
    tag = join_tags(theta.tag, join_tags(p.tag, q.tag))
    pair = tensor(theta, theta)
    checks = [
        ("morphism-comultiplication", compose(q.delta, theta), compose(pair, p.delta)),
        ("morphism-counit", compose(q.eps, theta), p.eps),
        ("morphism-multiplication", compose(theta, p.mu), compose(q.mu, pair)),
        ("morphism-unit", compose(theta, p.unit_e), q.unit_e),
    ]
    return law_report("frobenius-morphism", tag.tolerance, [(n, [(None, lhs, rhs)]) for n, lhs, rhs in checks])


def conjugate_presentation(
    p: FrobeniusPresentation, f: MatrixMorphism, f_inv: MatrixMorphism
) -> FrobeniusPresentation:
    """Transport a presentation along an invertible change of basis.

    Commutativity and speciality survive conjugation; the dagger flag is
    dropped since it only survives unitary changes of basis.
    """
    tag = p.tag
    ident = MatrixMorphism.identity(tag, p.dim)
    if (
        max_deviation(compose(f, f_inv), ident) > tag.tolerance
        or max_deviation(compose(f_inv, f), ident) > tag.tolerance
    ):
        raise ValueError("change of basis is not mutually inverse")
    return replace(
        p,
        delta=compose(tensor(f, f), compose(p.delta, f_inv)),
        eps=compose(p.eps, f_inv),
        mu=compose(f, compose(p.mu, tensor(f_inv, f_inv))),
        unit_e=compose(f, p.unit_e),
        dagger=False,
    )


def interpretation_from_data(data: dict, sig: Signature | None = None, tolerance=None) -> Interpretation:
    """Build an Interpretation from plain JSON-style data.

    Expected keys: "semiring"; "objects" mapping atoms to a dimension or to
    a list of element names; "generators" mapping names to row-major entry
    lists (complex entries may be [re, im] pairs) or, over booleans, to
    {"rel": [[x, y], ...]} pair lists resolved against element names;
    "frobenius" mapping atoms to "basis" or to explicit delta/eps/mu/e
    matrices, whose optional flags are measured from the data.  A
    tolerance applies to complex data only; exact semirings reject one.
    """
    if not isinstance(data, dict):
        raise ValueError("interpretation: must be a JSON object")

    def section(key):
        value = data.get(key, {})
        if not isinstance(value, dict):
            raise ValueError(f"{key}: must be a JSON object")
        return value

    kind = data.get("semiring")
    try:
        tag = SemiringTag(kind)
    except ValueError:
        raise ValueError(f"unknown semiring {kind!r}; expected bool, complex, or nat") from None
    if not tag.exact:
        tag = replace(tag, tolerance=DEFAULT_TOLERANCE if tolerance is None else tolerance)
    elif tolerance is not None:
        raise ValueError(f"a tolerance applies only to the complex semiring, not {kind!r}")

    object_dims = {}
    element_names = {}
    for atom, value in section("objects").items():
        names = [str(x) for x in value] if isinstance(value, list) else []
        if isinstance(value, int) and not isinstance(value, bool) and value >= 0:
            object_dims[atom] = value
        elif isinstance(value, list) and len(set(names)) == len(names):
            object_dims[atom] = len(names)
            element_names[atom] = names
        else:
            raise ValueError(f"objects.{atom}: needs a dimension >= 0 or distinct element names, got {value!r}")

    def matrix(where, entries):
        try:
            m = MatrixMorphism(tag, entries)
        except (TypeError, ValueError) as exc:  # ShapeMismatch is a TypeError
            raise ValueError(f"{where}: {exc}") from None
        # json reads Infinity and NaN; such an entry is the data's fault, not the contraction's
        bad = [] if tag.exact else m.data[~np.isfinite(m.data)]
        if len(bad):
            raise ValueError(f"{where}: entries must be finite, got {bad[0]}")
        return m

    def element_index(where, atom, x):
        names = element_names.get(atom)
        if isinstance(x, str):
            if names is None:
                raise ValueError(f"{where}: atom {atom!r} has no named elements for {x!r}")
            if x not in names:
                raise ValueError(f"{where}: unknown element {x!r} of atom {atom!r}")
            return names.index(x)
        dim = object_dims[atom]
        if isinstance(x, bool) or not isinstance(x, int) or not 0 <= x < dim:
            raise ValueError(f"{where}: element {x!r} out of range for atom {atom!r} (dimension {dim})")
        return x

    gen_matrices = {}
    for name, value in section("generators").items():
        if isinstance(value, dict) and "rel" in value:
            if tag.kind != "bool":
                raise ValueError("pair-list generators are only meaningful over booleans")
            if sig is None or name not in sig.generators:
                raise ValueError(f"pair-list generator {name!r} needs a declared signature")
            decl = sig.generators[name]
            if len(decl.dom) != 1 or len(decl.cod) != 1:
                raise ValueError(f"pair-list generator {name!r} needs single-atom endpoints")
            where = f"generators.{name}"
            dom_atom = decl.dom.factors[0][0]
            cod_atom = decl.cod.factors[0][0]
            for atom in (dom_atom, cod_atom):
                if atom not in object_dims:
                    raise ValueError(f"{where}: atom {atom!r} has no declared dimension")
            m = MatrixMorphism.zeros(tag, object_dims[cod_atom], object_dims[dom_atom])
            if not isinstance(value["rel"], list):
                raise ValueError(f"{where}.rel: must be a list of [x, y] pairs")
            for pair in value["rel"]:
                if not isinstance(pair, list) or len(pair) != 2:
                    raise ValueError(f"{where}: {pair!r} is not an [x, y] pair")
                x, y = pair
                m.data[element_index(where, cod_atom, y), element_index(where, dom_atom, x)] = True
            gen_matrices[name] = m
        else:
            gen_matrices[name] = matrix(f"generators.{name}", value)

    frobenius_data = {}
    for atom, value in section("frobenius").items():
        if value == "basis":
            if atom not in object_dims:
                raise ValueError(f"frobenius atom {atom!r} has no declared dimension")
            frobenius_data[atom] = basis_frobenius(object_dims[atom], tag)
            continue
        keys = ("delta", "eps", "mu", "e")
        missing = [k for k in keys if not isinstance(value, dict) or k not in value]
        if missing:
            raise ValueError(f"frobenius.{atom}: missing {', '.join(missing)}")
        delta, eps, mu, unit_e = (matrix(f"frobenius.{atom}.{k}", value[k]) for k in keys)
        try:
            p = FrobeniusPresentation(delta.cols, delta, eps, mu, unit_e)
        except ShapeMismatch as exc:
            raise ValueError(f"frobenius.{atom}: {exc}") from None
        report = law_report("frobenius", tag.tolerance, _flag_laws(p))
        commutative, special, daggered = (e.passed for e in report.entries)
        frobenius_data[atom] = replace(p, commutative=commutative, special=special, dagger=daggered)

    return Interpretation(
        tag=tag,
        object_dims=object_dims,
        gen_matrices=gen_matrices,
        frobenius_data=frobenius_data,
        signature=sig,
        element_names=element_names,
    )


def evaluate_graph(graph: OpenGraph, interp: Interpretation) -> MatrixMorphism:
    """Contract an open graph to its matrix.

    Graph wires are undirected, so a spider's legs carry no orientation;
    this is only sound when every spider tensor is invariant under leg
    permutation and the pairing eps . mu it induces is the plain identity
    pairing.  Both hold for commutative presentations whose pairing matches
    the Kronecker cup, and that is checked up front.  Boxes keep their
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
            continue
        m = interp.gen_matrices.get(node.name)
        if m is None:
            raise UnknownName(f"no matrix assigned to generator {node.name!r}")
        n = len(node.dom)  # ports run dom then cod
        net.box(m, labels[:n], labels[n:], node.daggered)
    return net.contract(interp.tag, outputs, inputs)
