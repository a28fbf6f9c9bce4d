"""Spider fusion and the two-dimensional cobordism skeleton.

A connected surface is fixed by its genus and boundary circles.  A
(k, l) spider of genus g has Euler characteristic 2 - k - l - 2g and a
wire 0, so ``classify_cob`` reads each piece off one ``Wiring.walk``
over the term, the walk ``to_graph`` and ``tqft.interpret`` use too:
a spider is one wire label carrying its chi, each union-find class of
labels is a piece, and its genus is (2 - chi - b) / 2 for b boundary
circles.  No port graph is built.  ``term_atoms`` reads the same walk.
``fuse`` merges each cluster of adjacent same-atom spiders in one
union-find pass (its cycles become genus, or vanish when the structure
is special) and splices out degree-2 handle-free spiders;
``fuse_trace`` returns that pass's steps: each wire merged or closed
into a handle, then each spider spliced.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass

from .diagram.graphs import OpenGraph, SpiderNode, Wiring
from .diagram.terms import Gen, Signature, Spider, TypeMismatch, typecheck


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


def spiderize(graph, sig):
    """Check a graph is ready for spider fusion and hand it back.

    Diagram flattening already renders frobenius nodes as spiders and
    duality bends as bare connectivity, so the content is unchanged;
    this validates that every spider sits on an atom flagged frobenius.
    Boxes are opaque bystanders and allowed.
    """
    for node in graph.nodes:
        if isinstance(node, SpiderNode):
            decl = sig.objects.get(node.atom)
            if decl is None or not decl.frobenius:
                raise ValueError(
                    f"spider node on non-frobenius atom {node.atom!r}"
                )
    return graph


def _fusion(graph, special):
    """One union-find pass over the wires that join same-atom spiders.

    Returns each node's class root, each spider root's fused [degree,
    genus], the roots to splice out, the wires left over, and the steps,
    indexed into the input graph: ("merge", wire) when a wire joins two
    classes, ("handle", wire) when it closes a cycle, then ("splice",
    node) for each class left with degree 2 and genus 0.  A merge keeps
    the class of the wire's first end, as a one-site rewriter would.
    """
    nodes = graph.nodes
    atom = [n.atom if isinstance(n, SpiderNode) else None for n in nodes]
    parent = list(range(len(nodes)))
    merged = {nid: [n.degree, n.genus] for nid, n in enumerate(nodes) if atom[nid] is not None}
    kept, steps = [], []

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
            rec[0] -= 2
            rec[1] += 0 if special else 1
            steps.append(("handle", wid))
        else:
            parent[y] = x
            d, g = merged.pop(y)
            rec[0] += d - 2
            rec[1] += g
            steps.append(("merge", wid))
    # no merged spider has a same-atom neighbour, so splicing one out makes no new site
    spliced = [r for r, dg in merged.items() if dg == [2, 0]]
    steps += [("splice", r) for r in spliced]
    return [find(x) for x in range(len(nodes))], merged, set(spliced), kept, steps


def fuse(graph, special=False):
    """Rewrite a spider graph to its fused normal form.

    Each cluster of adjacent same-atom spiders becomes one spider whose
    genus counts the cluster's independent cycles; with special=True a
    handle is the identity and adds no genus.  A fused spider left with
    two legs and no genus is spliced out into a plain wire.  Boxes keep
    their ordered ports.
    """
    roots, merged, spliced, kept, _ = _fusion(graph, special)
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
    return OpenGraph(fused, tuple(wires), graph.input_types, graph.output_types, tuple(sorted(graph.loops)))


def fuse_trace(graph, special=False):
    """The steps of fuse's one pass, in order (see _fusion).

    A merge or handle names a wire of the input graph, a splice names
    the input node that stands for its fused class.
    """
    return _fusion(graph, special)[-1]


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


def _walk(term):
    """Atoms and sorted components of a generator-free term, from one wiring walk.

    Each spider is one wire label, every leg of it, and records its
    Euler characteristic 2 - k - l against that label.  So each
    union-find class is one connected piece, and its genus is
    (2 - chi - b) / 2 for its b boundary slots; a class with neither a
    spider nor a slot is a closed circle of bare wire, which comes out
    as a torus.  The term's type is not checked.
    """
    atoms = set()

    def of_atom(atom):
        atoms.add(atom)
        return atom

    wiring = Wiring(of_atom)
    spiders = []  # (label, chi) per spider

    def leaf(t, flip):
        if isinstance(t, Gen):
            raise ValueError(f"unsupported foreign generator {t.name!r} in a cobordism term")
        [x] = wiring.fresh([of_atom(t.atom)])
        spiders.append((x, 2 - t.legs_in - t.legs_out))
        return [x] * t.legs_in, [x] * t.legs_out

    ins, outs = wiring.walk(term, leaf)
    find = wiring.find
    pieces = {find(x): [[], [], 0] for x in range(len(wiring.values))}  # inputs, outputs, chi
    for k, x in enumerate(ins):
        pieces[find(x)][0].append(k)
    for k, x in enumerate(outs):
        pieces[find(x)][1].append(k)
    for x, c in spiders:
        pieces[find(x)][2] += c
    comps = [ComponentClass(tuple(i), tuple(o), (2 - c - len(i) - len(o)) // 2) for i, o, c in pieces.values()]
    return atoms, tuple(sorted(comps, key=lambda c: (c.inputs, c.outputs, c.genus)))


def term_atoms(term):
    """Atom names appearing in a generator-free term."""
    return _walk(term)[0]


def _single_atom(terms_atoms, sig):
    atoms = set(terms_atoms)
    if len(atoms) > 1:
        raise ValueError(f"expected a single atom, found {sorted(atoms)}")
    if atoms:
        return atoms.pop()
    for name, decl in sig.objects.items():
        if decl.frobenius:
            return name
    return "A"


def classify_cob(term, sig=None):
    """Classify a term over one frobenius atom up to homeomorphism.

    The term may use spiders, identities, swaps, cups, caps, and
    daggers; generator boxes are unsupported.  Closed pieces appear as
    components with empty boundary lists.  One wiring walk gives the
    atoms and the components (see _walk) and no port graph is built;
    the term is then typed once.
    """
    atoms, comps = _walk(term)
    atom = _single_atom(atoms, sig or Signature())
    typecheck(term, sig or cob_signature(atom))
    return CobordismClass(atom, comps)


def eq_cob(t1, t2, sig=None):
    """Homeomorphism equality for two terms with matching boundaries.

    Each term is walked once and typed once.
    """
    walks = None
    if sig is None:
        walks = [_walk(t1), _walk(t2)]
        sig = cob_signature(_single_atom(walks[0][0] | walks[1][0], Signature()))
    type1 = typecheck(t1, sig)
    type2 = typecheck(t2, sig)
    if type1 != type2:
        raise TypeMismatch(
            f"boundary mismatch: {type1[0]} -> {type1[1]} "
            f"vs {type2[0]} -> {type2[1]}"
        )
    # lazily, so each term's walk and atom check come before the next term's
    first, second = (CobordismClass(_single_atom(atoms, sig), comps) for atoms, comps in walks or map(_walk, (t1, t2)))
    return first == second
