"""Port-graph normal form for diagram terms.

``Wiring.walk`` flattens a term to wire labels with one explicit stack,
typing it on the way: identities, symmetries and duality bends only make
labels, sequential composition checks and joins them by union-find,
daggers flip a parity handed to the leaves, and generators and spiders
are left to the caller.  It is the one pass over a term behind
``to_graph`` here, ``frobenius.classify_cob`` and the term side of
``tqft``'s tensor-network builder.

``to_graph`` turns the walk into an open graph whose wires record only
connectivity: each union-find class with two ends is one wire, and a
class with no ends is a closed circle of bare wire, kept as a labelled
loop.  ``graph_eq`` then decides equality of terms modulo the dagger
compact symmetric monoidal axioms by boundary-preserving labelled-graph
isomorphism.  Box ports are ordered, so once one end of a wire is
matched the node at its other end is too, and once a box is matched so
is the far end of each of its ports: one pass from the boundary decides
every box it reaches with no choice.  Only spider legs, which are
interchangeable, and closed pieces are searched, depth first on an
explicit stack.  What a choice opens up, a closed piece or the part
beyond a spider's leg, is kept as soon as one candidate matches it
whole: any isomorphic image of it may stand in for another, so the
search never backtracks into it.

Terminals are tuples: ('n', node_id, port) attaches to a node port,
('i', k) / ('o', k) to the k-th boundary input / output.  Box ports are
numbered with domain ports first, codomain ports after; spider legs are
interchangeable and their port numbers carry no meaning.
"""

from __future__ import annotations

from collections import Counter, defaultdict

from .terms import Cap, Cup, Dagger, Gen, Id, Par, Seq, Spider, Swap, Value, leaf_type, mismatch


class BoxNode(Value):
    """Generator occurrence with ordered ports: dom ports then cod ports."""

    __slots__ = ("name", "daggered", "dom", "cod")
    name: str
    daggered: bool
    dom: object
    cod: object

    @property
    def n_ports(self):
        return len(self.dom) + len(self.cod)


class SpiderNode(Value):
    """Undirected frobenius node; all legs are interchangeable."""

    __slots__, _defaults = ("atom", "degree", "genus"), (0,)
    atom: str
    degree: int
    genus: int

    @property
    def n_ports(self):
        return self.degree


class OpenGraph(Value):
    """Immutable open graph with ordered, typed boundaries.

    loops is a sorted tuple of atom labels, one entry per closed circle
    of bare wire.
    """

    __slots__, _defaults = ("nodes", "wires", "input_types", "output_types", "loops"), ((),)
    nodes: tuple
    wires: tuple
    input_types: tuple
    output_types: tuple
    loops: tuple


class Wiring:
    """Wire labels of a term being flattened, merged by union-find.

    Labels are integers.  Each carries a value: what ``of_atom`` gives for
    the atom of an identity, symmetry or bend wire, or what a leaf passes
    to ``fresh`` or ``label``.
    """

    def __init__(self, of_atom):
        self.of_atom = of_atom
        self.values = []
        self.parent = []

    def fresh(self, values):
        """New labels, one per value."""
        labels = list(range(len(self.values), len(self.values) + len(values)))
        self.values.extend(values)
        self.parent.extend(labels)
        return labels

    def label(self, value):
        """One new label."""
        x = len(self.parent)
        self.values.append(value)
        self.parent.append(x)
        return x

    def word(self, word):
        """New labels, one per factor of an object word."""
        return self.fresh([self.of_atom(atom) for atom, _ in word.factors])

    def find(self, x):
        parent = self.parent
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    def walk(self, term, leaf, sig=None):
        """Flatten a term; return its input labels, output labels, and
        domain and codomain factor tuples.

        leaf(t, flip) turns a Gen or Spider into (input labels, output
        labels) as the leaf itself is typed; flip is true under an odd
        number of daggers, and the daggers above exchange the two lists.
        Sequential composition joins the labels it glues pairwise.  Each
        subterm is typed against sig when finished, a leaf before leaf()
        sees it, so the first type error is the one ``typecheck`` raises.
        sig=None, for classification without one, leaves both tuples empty.
        """
        done = []  # (ins, outs, dom, cod) of each finished subterm
        by_value = {}  # leaf types by value
        values, parent, find, of_atom = self.values, self.parent, self.find, self.of_atom
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
            elif (cls := t.__class__) is Seq:  # the node classes are final
                todo += ((Seq, None), (t.after, flip), (t.before, flip))
            elif cls is Par:
                todo += ((Par, None), (t.right, flip), (t.left, flip))
            elif cls is Dagger:
                todo += ((Dagger, None), (t.inner, not flip))
            else:
                if sig is None:
                    dom = cod = ()
                elif cls is Gen or cls not in (Spider, Id, Swap, Cup, Cap):
                    dom, cod = leaf_type(t, sig)  # one signature lookup for a generator; a stray list is unhashable
                else:  # the commonest leaves' fields hash faster than the leaves; no two classes' keys are equal
                    key = (t.atom, t.legs_in, t.legs_out) if cls is Spider else t.word.factors if cls is Id else t
                    dom, cod = by_value.get(key) or by_value.setdefault(key, leaf_type(t, sig))
                if cls is Spider or cls is Gen:
                    ins, outs = leaf(t, flip)
                elif cls is Id:  # labels made here, saving word()'s and fresh()'s calls
                    x = len(parent)
                    values += [of_atom(atom) for atom, _ in t.word.factors]
                    ins = outs = [*range(x, len(values))]
                    parent += ins
                elif cls is Cup or cls is Cap:
                    x = self.label(of_atom(t.atom))
                    ins, outs = ([], [x, x]) if cls is Cup else ([x, x], [])
                elif cls is Swap:
                    left, right = self.word(t.left), self.word(t.right)
                    ins, outs = left + right, right + left
                else:
                    raise TypeError(f"not a diagram term: {t!r}")
                done.append((ins, outs, dom, cod))
        return done.pop()


def to_graph(term, sig):
    """Flatten a term into its open-graph normal form, typing it on the way.

    Each generator, per dagger parity, and each spider shape is resolved
    into its node and port atoms once per call; each wire is written as its
    ends are met, boundary inputs first, then node ports, then outputs."""
    wiring = Wiring(lambda atom: atom)  # a label's value is its atom
    values, parent, find = wiring.values, wiring.parent, wiring.find
    nodes, ports, resolved = [], [], ({}, {})  # per dagger parity, leaf key -> (node, port atoms, domain size)

    def leaf(t, flip):
        key = t.name if t.__class__ is Gen else (t.atom, t.legs_in, t.legs_out)
        node, atoms, k = resolved[flip].get(key) or resolved[flip].setdefault(key, resolve(t, flip))
        nodes.append(node)
        labels = [*range(len(parent), len(parent) + len(atoms))]
        values.extend(atoms)
        parent.extend(labels)
        ports.append(labels[k:] + labels[:k] if flip else labels)
        return labels[:k], labels[k:]

    def resolve(t, flip):
        if t.__class__ is Spider:
            return SpiderNode(t.atom, t.legs_in + t.legs_out), [t.atom] * (t.legs_in + t.legs_out), t.legs_in
        d = sig.generators[t.name]  # under a dagger the codomain wires are the domain ports
        box = BoxNode(t.name, flip, *((d.cod, d.dom) if flip else (d.dom, d.cod)))
        return box, [atom for atom, _ in d.dom.factors + d.cod.factors], len(d.dom)

    ins, outs, dom, cod = wiring.walk(term, leaf, sig)
    ends = [("i", k) for k in range(len(ins))]
    ends += [("n", nid, p) for nid, labels in enumerate(ports) for p in range(len(labels))]
    ends += [("o", k) for k in range(len(outs))]
    wires, at = [], {}  # wires in order of their first ends; union-find root -> its wire's index
    for end, x in zip(ends, [*ins, *(x for labels in ports for x in labels), *outs]):
        i = at.setdefault(x if parent[x] == x else find(x), len(wires))
        if i == len(wires):
            wires.append(end)
        else:
            wires[i] = wires[i], end
    loops = sorted(values[x] for x, root in enumerate(parent) if x == root and x not in at)
    return OpenGraph(nodes=tuple(nodes), wires=tuple(wires), input_types=dom, output_types=cod, loops=tuple(loops))


def _owner(end):
    """The node id of a port end, or the boundary slot itself."""
    return end[1] if end[0] == "n" else end


def _ends(graph):
    """Each end's partner across its wire, and each node's wire counts to
    its neighbours (node ids or boundary slots; a self-loop counts twice)."""
    partner, nbrs = {}, defaultdict(dict)
    for a, b in graph.wires:
        partner[a], partner[b] = b, a
        x, y = _owner(a), _owner(b)
        nbrs[x][y] = nbrs[x].get(y, 0) + 1
        nbrs[y][x] = nbrs[y].get(x, 0) + 1
    return partner, nbrs


def _match(g1, g2):
    """A node map carrying g1 onto g2 with the boundary fixed, or None.

    A matched end fixes the node at the far end of its wire, and a matched
    box fixes the far end of each port, so matching outward from the
    boundary meets a choice only at spider legs, which are
    interchangeable: an unmatched neighbour of a matched spider may go to
    any unused neighbour of the spider's image with the same label.  A
    closed piece, which nothing matched reaches, starts from its node of
    rarest label, which may go to any unused node with that label.  The
    unmatched nodes a choice reaches form one region, touching matched
    nodes only at spider legs; once some candidate matches the whole
    region it is kept, since any isomorphic image of a region may stand
    in for another.  So the depth-first search on the explicit stack
    backtracks only inside an open region.
    """
    partner1, nbrs1 = _ends(g1)
    partner2, nbrs2 = _ends(g2)
    nodes1, nodes2 = g1.nodes, g2.nodes
    slots = [("i", k) for k in range(len(g1.input_types))]
    slots += [("o", k) for k in range(len(g1.output_types))]
    image, used = {s: s for s in slots}, set(slots)  # g1 -> g2, and the image's values
    by_label = defaultdict(list)
    for y, node in enumerate(nodes2):
        by_label[node].append(y)
    rarest = sorted(range(len(nodes1)), key=lambda x: len(by_label[nodes1[x]]))
    trail = []  # matched g1 nodes in order
    frames = []  # open choices: (trail size, node, candidates left, region size, scan to resume)
    todo, start = [(partner1[s], partner2[s]) for s in slots], None
    scan = closed = 0  # the trail entry to search on from; the entry of rarest to start a closed piece
    while True:
        ok = True
        while ok and (start or todo):
            if start:
                (a, b), start = start, None
            else:
                e, f = todo.pop()
                a, b = _owner(e), _owner(f)
                if e[0] == f[0] == "n" and isinstance(nodes1[a], BoxNode) and e[2] != f[2]:
                    ok = False
                    continue
            if a in image or b in used or nodes1[a] != nodes2[b]:
                ok = image.get(a) == b
                continue
            image[a] = b
            used.add(b)
            trail.append(a)
            # wire counts to every matched node, a self-loop included, must agree
            ok = {image[u]: k for u, k in nbrs1[a].items() if u in image} == {
                w: k for w, k in nbrs2[b].items() if w in used
            }
            if ok and isinstance(nodes1[a], BoxNode):
                todo += [(partner1[("n", a, p)], partner2[("n", b, p)]) for p in range(nodes1[a].n_ports)]
        if ok:
            while frames and len(trail) - frames[-1][0] == frames[-1][3]:
                scan = frames.pop()[4]  # the open region is matched: keep it
            u = None
            while scan < len(trail) and u is None:
                a = trail[scan]
                if isinstance(nodes1[a], SpiderNode):
                    u = next((v for v in nbrs1[a] if v not in image), None)
                scan += u is None
            if u is not None:
                free = [w for w in nbrs2[image[a]] if w not in used and nodes2[w] == nodes1[u]]
            else:
                while closed < len(rarest) and rarest[closed] in image:
                    closed += 1
                if closed == len(rarest):
                    return image
                u = rarest[closed]
                free = [w for w in by_label[nodes1[u]] if w not in used]
            if len(free) == 1:
                start = (u, free[0])
                continue
            if free:
                region, stack = {u}, [u]
                while stack:
                    for v in nbrs1[stack.pop()]:
                        if v not in image and v not in region:
                            region.add(v)
                            stack.append(v)
                frames.append((len(trail), u, free, len(region), scan))
        # try the next candidate of the innermost open choice
        while frames and not frames[-1][2]:
            frames.pop()
        if not frames:
            return None
        size, u, free, _, _ = frames[-1]
        while len(trail) > size:
            used.discard(image.pop(trail.pop()))
        todo, start, scan = [], (u, free.pop()), size


def _wire_keys(graph, image):
    """The multiset of wires with nodes renamed by image and spider legs unnumbered."""
    def key(end):
        if end[0] != "n":
            return end
        if isinstance(graph.nodes[end[1]], SpiderNode):
            return ("n", image[end[1]])
        return ("n", image[end[1]], end[2])

    return Counter(tuple(sorted((key(a), key(b)))) for a, b in graph.wires)


def graph_eq(g1, g2):
    """Boundary-, label-, and box-port-order-preserving isomorphism."""

    def shape(g):
        return g.input_types, g.output_types, g.loops, len(g.wires), Counter(g.nodes)

    if shape(g1) != shape(g2):
        return False
    image = _match(g1, g2)
    # Safety check: the node map must carry g1's wire multiset onto g2's.
    return image is not None and _wire_keys(g1, image) == _wire_keys(g2, range(len(g2.nodes)))
