"""Port-graph normal form for diagram terms.

``Wiring.walk`` flattens a term to wire labels with one explicit stack:
identities, symmetries and duality bends only make labels, sequential
composition joins labels by union-find, daggers flip a parity handed to
the leaves, and generators and spiders are left to the caller.  It is
the one traversal behind ``to_graph`` here and ``tqft.interpret``.

``to_graph`` turns the walk into an open graph whose wires record only
connectivity: each union-find class with two ends is one wire, and a
class with no ends is a closed circle of bare wire, kept as a labelled
loop.  ``graph_eq`` then decides equality of terms modulo the dagger
compact symmetric monoidal axioms by boundary-preserving labelled-graph
isomorphism.

Terminals are tuples: ('n', node_id, port) attaches to a node port,
('i', k) / ('o', k) to the k-th boundary input / output.  Box ports are
numbered with domain ports first, codomain ports after; spider legs are
interchangeable and their port numbers carry no meaning.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass

from .terms import Cap, Cup, Dagger, Gen, Id, Par, Seq, Spider, Swap, typecheck


@dataclass(frozen=True)
class BoxNode:
    """Generator occurrence with ordered ports: dom ports then cod ports."""

    name: str
    daggered: bool
    dom: object
    cod: object

    @property
    def n_ports(self):
        return len(self.dom) + len(self.cod)

    def flipped(self):
        return BoxNode(self.name, not self.daggered, self.cod, self.dom)


@dataclass(frozen=True)
class SpiderNode:
    """Undirected frobenius node; all legs are interchangeable."""

    atom: str
    degree: int
    genus: int = 0

    @property
    def n_ports(self):
        return self.degree

    def flipped(self):
        return self


@dataclass(frozen=True)
class OpenGraph:
    """Immutable open graph with ordered, typed boundaries.

    loops is a sorted tuple of atom labels, one entry per closed circle
    of bare wire.
    """

    nodes: tuple
    wires: tuple
    input_types: tuple
    output_types: tuple
    loops: tuple = ()


class Wiring:
    """Wire labels of a term being flattened, merged by union-find.

    Labels are integers.  Each carries a value: what ``of_atom`` gives for
    the atom of an identity, symmetry or bend wire, or what a leaf passes
    to ``fresh``.
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

    def word(self, word):
        """New labels, one per factor of an object word."""
        return self.fresh([self.of_atom(atom) for atom, _ in word.factors])

    def find(self, x):
        parent = self.parent
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    def walk(self, term, leaf, regroup=None):
        """Flatten a term; return the labels of its inputs and outputs.

        leaf(t, flip) turns a Gen or Spider into (input labels, output
        labels) as the leaf itself is typed; flip is true under an odd
        number of daggers, and the daggers above exchange the two lists.
        Sequential composition joins the labels it glues pairwise; where
        their values differ, regroup(outputs, inputs) is called instead.
        """
        done = []  # (ins, outs) of each finished subterm
        todo = [(term, False, False)]
        while todo:
            t, flip, expanded = todo.pop()
            if isinstance(t, Seq) and not expanded:
                todo += [(t, flip, True), (t.after, flip, False), (t.before, flip, False)]
            elif isinstance(t, Par) and not expanded:
                todo += [(t, flip, True), (t.right, flip, False), (t.left, flip, False)]
            elif isinstance(t, Dagger) and not expanded:
                todo += [(t, flip, True), (t.inner, not flip, False)]
            elif isinstance(t, Seq):
                (ins, mids), (mids2, outs) = done.pop(-2), done.pop()
                values = self.values
                if regroup is not None and [values[x] for x in mids] != [values[y] for y in mids2]:
                    regroup(mids, mids2)
                else:
                    for x, y in zip(mids, mids2):
                        self.parent[self.find(x)] = self.find(y)
                done.append((ins, outs))
            elif isinstance(t, Par):
                (ins, outs), (ins2, outs2) = done.pop(-2), done.pop()
                done.append((ins + ins2, outs + outs2))
            elif isinstance(t, Dagger):
                done.append(done.pop()[::-1])
            elif isinstance(t, (Gen, Spider)):
                done.append(leaf(t, flip))
            elif isinstance(t, Id):
                labels = self.word(t.word)
                done.append((labels, labels))
            elif isinstance(t, Swap):
                left, right = self.word(t.left), self.word(t.right)
                done.append((left + right, right + left))
            elif isinstance(t, (Cup, Cap)):
                labels = self.fresh([self.of_atom(t.atom)]) * 2
                done.append(([], labels) if isinstance(t, Cup) else (labels, []))
            else:
                raise TypeError(f"not a diagram term: {t!r}")
        return done.pop()


def to_graph(term, sig):
    """Flatten a term into its open-graph normal form."""
    dom, cod = typecheck(term, sig)
    wiring = Wiring(lambda atom: atom)  # a label's value is its atom
    nodes, ports = [], []

    def leaf(t, flip):
        if isinstance(t, Gen):
            decl = sig.generators[t.name]
            node = BoxNode(t.name, False, decl.dom, decl.cod)
            ins, outs = wiring.word(decl.dom), wiring.word(decl.cod)
        else:
            node = SpiderNode(t.atom, t.legs_in + t.legs_out)
            ins, outs = wiring.fresh([t.atom] * t.legs_in), wiring.fresh([t.atom] * t.legs_out)
        # under a dagger the codomain wires are the domain ports
        nodes.append(node.flipped() if flip else node)
        ports.append(outs + ins if flip else ins + outs)
        return ins, outs

    ins, outs = wiring.walk(term, leaf)
    labelled = [(("i", k), x) for k, x in enumerate(ins)]
    labelled += [(("n", nid, p), x) for nid, labels in enumerate(ports) for p, x in enumerate(labels)]
    labelled += [(("o", k), x) for k, x in enumerate(outs)]
    ends = {}  # union-find root -> the two terminals of its wire
    for end, x in labelled:
        ends.setdefault(wiring.find(x), []).append(end)
    roots = {wiring.find(x) for x in range(len(wiring.values))}
    return OpenGraph(
        nodes=tuple(nodes),
        wires=tuple(tuple(pair) for pair in ends.values()),
        input_types=dom.factors,
        output_types=cod.factors,
        loops=tuple(sorted(wiring.values[r] for r in roots - ends.keys())),
    )


def _edge_key(u, v):
    return (u, v) if repr(u) <= repr(v) else (v, u)


def _skeleton(graph):
    """Vertex-coloured multigraph encoding used by the matcher.

    Boxes expand into a hub vertex plus one vertex per port (coloured by
    port index) so an isomorphism must respect box port order; spiders
    stay single vertices so their legs may permute freely; boundary
    vertices get singleton colours, pinning them pointwise.
    """
    verts = {}
    edges = Counter()
    for k, factor in enumerate(graph.input_types):
        verts[("i", k)] = ("in", k, factor)
    for k, factor in enumerate(graph.output_types):
        verts[("o", k)] = ("out", k, factor)
    for nid, node in enumerate(graph.nodes):
        if isinstance(node, SpiderNode):
            verts[("s", nid)] = ("spider", node.atom, node.degree, node.genus)
        else:
            verts[("b", nid)] = (
                "box",
                node.name,
                node.daggered,
                node.dom.factors,
                node.cod.factors,
            )
            for p in range(node.n_ports):
                verts[("p", nid, p)] = ("port", p)
                edges[_edge_key(("b", nid), ("p", nid, p))] += 1

    def vert_of(t):
        if t[0] in ("i", "o"):
            return t
        nid = t[1]
        if isinstance(graph.nodes[nid], SpiderNode):
            return ("s", nid)
        return ("p", nid, t[2])

    for a, b in graph.wires:
        edges[_edge_key(vert_of(a), vert_of(b))] += 1
    return verts, edges


def _adjacency(verts, edges):
    adj = {v: Counter() for v in verts}
    for (u, v), mult in edges.items():
        adj[u][v] += mult
        if u != v:
            adj[v][u] += mult
    return adj


def _refine(col1, adj1, col2, adj2):
    """Joint colour refinement; colours stay comparable across graphs."""
    def compress(*sig_maps):
        palette = {}
        for sigs in sig_maps:
            for s in sigs.values():
                palette.setdefault(repr(s), s)
        order = {key: i for i, key in enumerate(sorted(palette))}
        return [
            {v: order[repr(s)] for v, s in sigs.items()} for sigs in sig_maps
        ]

    col1, col2 = compress(col1, col2)
    while True:
        sig1 = {
            v: (c, tuple(sorted((col1[u], m) for u, m in adj1[v].items())))
            for v, c in col1.items()
        }
        sig2 = {
            v: (c, tuple(sorted((col2[u], m) for u, m in adj2[v].items())))
            for v, c in col2.items()
        }
        new1, new2 = compress(sig1, sig2)
        if len(set(new1.values())) == len(set(col1.values())) and len(
            set(new2.values())
        ) == len(set(col2.values())):
            return new1, new2
        col1, col2 = new1, new2


def graph_eq(g1, g2):
    """Boundary-, label-, and box-port-order-preserving isomorphism."""
    if g1.input_types != g2.input_types:
        return False
    if g1.output_types != g2.output_types:
        return False
    if g1.loops != g2.loops:
        return False
    verts1, edges1 = _skeleton(g1)
    verts2, edges2 = _skeleton(g2)
    if len(verts1) != len(verts2) or sum(edges1.values()) != sum(
        edges2.values()
    ):
        return False
    adj1 = _adjacency(verts1, edges1)
    adj2 = _adjacency(verts2, edges2)
    col1, col2 = _refine(verts1, adj1, verts2, adj2)
    if sorted(Counter(col1.values()).items()) != sorted(
        Counter(col2.values()).items()
    ):
        return False

    by_colour = defaultdict(list)
    for v, c in col2.items():
        by_colour[c].append(v)
    # Small candidate sets first keeps the search near-deterministic.
    order = sorted(col1, key=lambda v: (len(by_colour[col1[v]]), repr(v)))
    mapping = {}
    used = set()

    def extend(i):
        if i == len(order):
            return True
        v = order[i]
        for w in by_colour[col1[v]]:
            if w in used:
                continue
            if adj1[v].get(v, 0) != adj2[w].get(w, 0):
                continue
            ok = True
            for u, mult in adj1[v].items():
                if u in mapping and adj2[w].get(mapping[u], 0) != mult:
                    ok = False
                    break
            if not ok:
                continue
            mapping[v] = w
            used.add(w)
            if extend(i + 1):
                return True
            del mapping[v]
            used.discard(w)
        return False

    if not extend(0):
        return False
    # Full verification: the mapped edge multiset must match exactly.
    remapped = Counter()
    for (u, v), mult in edges1.items():
        remapped[_edge_key(mapping[u], mapping[v])] += mult
    return remapped == edges2
