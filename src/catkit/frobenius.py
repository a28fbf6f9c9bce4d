"""Spider fusion and the two-dimensional cobordism skeleton.

A connected surface is fixed by its genus and boundary circles.  A
(k, l) spider of genus g has Euler characteristic 2 - k - l - 2g and a
wire 0, so ``classify_cob`` reads each piece off one ``Wiring.walk``
over the term, which types the term as it goes: a spider is one wire
label carrying its chi, each union-find class of labels is a piece, and
its genus is (2 - chi - b) / 2 for b boundary circles.  No port graph
is built.  ``fuse`` merges each cluster of adjacent same-atom spiders
in one union-find pass (its cycles become genus, or vanish when the
structure is special) and splices out degree-2 handle-free spiders;
``fuse_trace`` returns that pass's steps: each wire merged or closed
into a handle, then each spider spliced."""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass

from .diagram.graphs import OpenGraph, SpiderNode, Wiring
from .diagram.terms import Gen, ObjectDecl, ObjectWord, Signature, Spider, TypeMismatch


def cob_signature(atom="A"):
    """Signature with a single self-dual frobenius atom."""
    sig = Signature()
    sig.declare_object(atom, frobenius=True, self_dual=True)
    return sig


def delta(atom="A"):
    """Comultiplication spider, 1 leg in and 2 out."""
    return Spider(atom, 1, 2)


def eps(atom="A"):
    """Counit spider, 1 leg in and none out."""
    return Spider(atom, 1, 0)


def mu(atom="A"):
    """Multiplication spider, 2 legs in and 1 out."""
    return Spider(atom, 2, 1)


def unit(atom="A"):
    """Unit spider, no legs in and 1 out."""
    return Spider(atom, 0, 1)


def _fusion(graph, special, frobenius):
    """One union-find pass over the wires that join same-atom spiders.

    Returns each node's class root, each spider root's fused [degree,
    genus], the roots to splice out, the wires left over, and the steps,
    indexed into the input graph: ("loop", k) for each loop on an atom in
    frobenius, ("merge", wire) when a wire joins two classes, ("handle",
    wire) when it closes a cycle, then ("splice", node) for each class left
    with degree 2 and genus 0.  A merge keeps the class of the wire's first
    end, as a one-site rewriter would.
    """
    nodes = graph.nodes
    atom = [n.atom if isinstance(n, SpiderNode) else None for n in nodes]
    parent = list(range(len(nodes)))
    merged = {nid: [n.degree, n.genus] for nid, n in enumerate(nodes) if atom[nid] is not None}
    kept, steps = [], [("loop", k) for k, a in enumerate(graph.loops) if a in frobenius]

    def find(x):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    for wid, (a, b) in enumerate(graph.wires):
        if not (a[0] == b[0] == "n" and atom[a[1]] is not None and atom[a[1]] == atom[b[1]]):
            kept.append((a, b))
            continue
        x, y = find(a[1]), find(b[1])
        rec = merged[x]
        if x == y:  # each independent cycle of a cluster is a handle
            (d, g), kind = (0, int(not special)), "handle"
        else:
            parent[y] = x
            (d, g), kind = merged.pop(y), "merge"
        rec[0] += d - 2
        rec[1] += g
        steps.append((kind, wid))
    # no merged spider has a same-atom neighbour, so splicing one out makes no new site
    spliced = [r for r, dg in merged.items() if dg == [2, 0]]
    steps += [("splice", r) for r in spliced]
    return [find(x) for x in range(len(nodes))], merged, set(spliced), kept, steps


def fuse(graph, special=False, frobenius=()):
    """Rewrite a spider graph to its fused normal form.

    Each cluster of adjacent same-atom spiders becomes one spider whose
    genus counts the cluster's independent cycles; with special=True a
    handle is the identity and adds no genus.  A fused spider left with
    two legs and no genus is spliced out into a plain wire.  Boxes keep
    their ordered ports.  A loop of bare wire on an atom in frobenius is
    a torus, or a sphere when special: a legless spider.
    """
    roots, merged, spliced, kept, _ = _fusion(graph, special, frobenius)
    nodes = graph.nodes
    keep = [nid for nid, r in enumerate(roots) if r == nid and r not in spliced]
    new = {nid: k for k, nid in enumerate(keep)}
    legs = defaultdict(itertools.count)

    def end(t):
        if t[0] != "n":
            return t
        r = roots[t[1]]  # box ports are ordered and keep their numbers
        return ("n", new[r], next(legs[r]) if r in merged else t[2])

    wires, half = [], {}  # half: spliced class -> far end of its first wire
    for a, b in kept:
        if a[0] == "n" and roots[a[1]] in spliced:
            a, b = b, a
        if b[0] == "n" and roots[b[1]] in spliced:
            r = roots[b[1]]
            if r not in half:
                half[r] = a
                continue
            b = half.pop(r)
        wires.append((end(a), end(b)))
    fused = tuple(SpiderNode(nodes[nid].atom, *merged[nid]) if nid in merged else nodes[nid] for nid in keep)
    fused += tuple(SpiderNode(a, 0, int(not special)) for a in graph.loops if a in frobenius)
    loops = tuple(sorted(a for a in graph.loops if a not in frobenius))
    return OpenGraph(fused, tuple(wires), graph.input_types, graph.output_types, loops)


def fuse_trace(graph, special=False, frobenius=()):
    """The steps of fuse's one pass, in order (see _fusion).

    A loop names an entry of the input graph's loops, a merge or handle
    one of its wires, and a splice the node standing for a fused class.
    """
    return _fusion(graph, special, frobenius)[-1]


@dataclass(frozen=True)
class ComponentClass:
    """One connected piece: boundary attachments plus genus."""

    inputs: tuple
    outputs: tuple
    genus: int

    def render(self):
        ins = ", ".join(str(i) for i in self.inputs)
        outs = ", ".join(str(i) for i in self.outputs)
        return f"component(in=[{ins}], out=[{outs}], genus={self.genus})"


@dataclass(frozen=True)
class CobordismClass:
    """Multiset of component classes covering every boundary position."""

    atom: str
    components: tuple

    def render_lines(self):
        return [c.render() for c in self.components]


def _walk(term, sig):
    """Atoms, sorted components, first foreign generator and type of a
    term, from one wiring walk typed against sig (untyped if None).

    Each spider is one wire label, every leg of it, recording its Euler
    characteristic 2 - k - l.  So each union-find class is one piece,
    of genus (2 - chi - b) / 2 for its b boundary slots; a class with no
    spider and no slot is a closed circle of bare wire, a torus.  An
    untyped walk raises at a generator, a typed one names the first.
    """
    atoms, spiders, foreign = set(), [], []  # spiders: (label, chi) per spider
    wiring = Wiring(lambda atom: atoms.add(atom) or atom)

    def leaf(t, flip):
        if isinstance(t, Gen):
            if sig is None:
                raise _foreign(t.name)
            foreign.append(t.name)
            return [], []
        [x] = wiring.fresh([wiring.of_atom(t.atom)])
        spiders.append((x, 2 - t.legs_in - t.legs_out))
        return [x] * t.legs_in, [x] * t.legs_out

    ins, outs, dom, cod = wiring.walk(term, leaf, sig)
    find = wiring.find
    pieces = {find(x): [[], [], 0] for x in range(len(wiring.values))}  # inputs, outputs, chi
    for k, x in enumerate(ins):
        pieces[find(x)][0].append(k)
    for k, x in enumerate(outs):
        pieces[find(x)][1].append(k)
    for x, c in spiders:
        pieces[find(x)][2] += c
    comps = [ComponentClass(tuple(i), tuple(o), (2 - c - len(i) - len(o)) // 2) for i, o, c in pieces.values()]
    return atoms, tuple(sorted(comps, key=lambda c: (c.inputs, c.outputs, c.genus))), foreign[:1], (dom, cod)


class _EveryAtom(dict):
    def get(self, atom, default=None):  # every atom is self-dual and frobenius
        return ObjectDecl(atom, frobenius=True, self_dual=True)


# cob_signature(atom) for every atom at once: a term over one atom types
# against it as against the cobordism signature of that atom
COB_ATOMS = Signature()
COB_ATOMS.objects = _EveryAtom()


def _foreign(name):
    return ValueError(f"unsupported foreign generator {name!r} in a cobordism term")


def _single_atom(atoms, sig, foreign=()):
    """A walk's one atom, else sig's first frobenius atom, else "A"; a
    foreign generator the walk named is reported first."""
    if foreign:
        raise _foreign(foreign[0])
    if len(atoms) > 1:
        raise ValueError(f"expected a single atom, found {sorted(atoms)}")
    if atoms:
        return next(iter(atoms))
    return next((name for name, decl in sig.objects.items() if decl.frobenius), "A")


def cob_atom(terms, sig=None):
    """The one atom of generator-free terms, from an untyped walk of each.

    The typed callers rerun this when their walk fails: its faults come
    before a type error.
    """
    return _single_atom(set().union(*(_walk(t, None)[0] for t in terms)), sig or Signature())


def classify_cob(term, sig=None):
    """Classify a term over one frobenius atom up to homeomorphism.

    The term may use spiders, identities, swaps, cups, caps, and
    daggers; generator boxes are unsupported.  Closed pieces appear as
    components with empty boundary lists.  One wiring walk, typed as it
    goes, gives the atoms and the components (see _walk); no port graph
    is built.  Without a signature the term is typed against the
    cobordism signature of its own atom.
    """
    try:
        atoms, comps, foreign, _ = _walk(term, sig or COB_ATOMS)
    except Exception:
        cob_atom([term], sig)  # a generator, a non-term or a second atom is reported first
        raise
    return CobordismClass(_single_atom(atoms, sig or Signature(), foreign), comps)


def eq_cob(t1, t2, sig=None):
    """Homeomorphism equality for two terms with matching boundaries.

    Each term is walked once, typed as it goes; the boundaries are
    compared before either term's generators or atoms are checked.
    """
    try:
        walks = [_walk(t, sig or COB_ATOMS) for t in (t1, t2)]
    except Exception:
        if sig is None:  # as in classify_cob; with a signature, types come first
            cob_atom([t1, t2])
        raise
    sig = sig or cob_signature(_single_atom(walks[0][0] | walks[1][0], Signature()))
    if walks[0][3] != walks[1][3]:
        (dom1, cod1), (dom2, cod2) = (map(ObjectWord, w[3]) for w in walks)
        raise TypeMismatch(f"boundary mismatch: {dom1} -> {cod1} vs {dom2} -> {cod2}")
    # lazily, so the first term's generator and atom checks come before the second's
    first, second = (CobordismClass(_single_atom(atoms, sig, foreign), comps) for atoms, comps, foreign, _ in walks)
    return first == second
