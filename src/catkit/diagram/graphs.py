"""Port-graph normal form for diagram terms, and its equality decision.

``Wiring.walk`` types and flattens a term to wire labels, one ``>>`` or ``x`` spine
at a time; it serves ``frobenius``, and ``walk_nodes`` for ``to_graph`` and ``tqft``.

``certificate`` is a canonical form of an open graph; ``graph_eq`` compares
two.  A port walk from the boundary numbers every box it reaches, box ports
being ordered.  The rest (spiders, what lies beyond them, closed pieces) is
refined into cells from a worklist and split into pieces ordered apart and
sorted by code; a piece left whole tries each node of its smallest cell with
its twins, keeping the least code and skipping the orbits of automorphisms
found (McKay and Piperno, arXiv 1301.1493).

Terminals are tuples: ('n', node_id, port) attaches to a node port,
('i', k) / ('o', k) to the k-th boundary input / output.  Box ports are
numbered with domain ports first, codomain ports after; spider legs are
interchangeable and their port numbers carry no meaning.
"""

from __future__ import annotations

import itertools

from .terms import Cap, Cup, Dagger, DiagramTerm, Gen, Id, Par, Seq, Spider, Swap, Value, leaf_type, mismatch


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

    Labels are integers.  Each carries a value: the atom of an identity,
    symmetry or bend wire, or what a leaf passes to ``fresh`` or ``label``.
    """

    def __init__(self):
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
        return self.fresh([atom for atom, _ in word.factors])

    def find(self, x):
        parent = self.parent
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    def walk(self, term, leaf, sig=None):
        """Flatten a term; return its input and output labels and its domain and codomain factors.

        leaf(t, flip) turns a Gen or Spider into (input labels, output labels)
        as the leaf itself is typed; flip is true under an odd number of
        daggers, and the daggers above exchange the two lists.  Composition
        being strict, each maximal left-nested ``>>`` spine, and each ``x`` row
        however bracketed, is a list of stages folded in order: ``>>`` joins the
        labels it glues pairwise, ``x`` extends lists it owns.  A stage is typed
        as it is folded, a leaf before leaf() sees it, so the first type error
        is typecheck's; sig=None leaves both factor tuples empty."""
        by_value, values, parent, find = {}, self.values, self.parent, self.find  # by_value: leaf types by value
        spines, flip, kind, stages, ins = [], False, None, [term], None  # waiting spines; the open one, no result yet
        while True:
            t = stages.pop()  # stages are kept last first
            if (cls := t.__class__) is Seq or cls is Par or cls is Dagger:  # the node classes are final
                if cls is not Par or kind is not Par:  # a row that is a factor of a row is spliced into it
                    if kind is not None:  # the term itself is no stage
                        spines.append((kind, stages, ins, outs, dom, cod, flip))
                    kind, stages, ins, outs, dom, cod, flip = cls, [], None, None, None, None, flip ^ (cls is Dagger)
                while t.__class__ is cls is not Dagger:  # down the spine; a dagger's one stage is its inner term
                    stages.append(t.after if cls is Seq else t.right)
                    t = t.before if cls is Seq else t.left
                stages.append(t.inner if cls is Dagger else t)
                continue
            if sig is None or cls is not Gen and cls not in (Spider, Id, Swap, Cup, Cap):  # a non-term may not hash
                d, c = ((), ()) if sig is None and issubclass(cls, DiagramTerm) else leaf_type(t, sig)
            else:  # the commonest leaves' fields hash faster than the leaves; no two classes' keys are equal
                key = (t.name if cls is Gen else (t.atom, t.legs_in, t.legs_out) if cls is Spider
                       else t.word.factors if cls is Id else t)
                d, c = by_value.get(key) or by_value.setdefault(key, leaf_type(t, sig))
            if cls is Spider or cls is Gen:
                i, o = leaf(t, flip)
            elif cls is Id:  # labels made here, saving word()'s and fresh()'s calls
                values += [atom for atom, _ in t.word.factors]
                i = o = [*range(len(parent), len(values))]
                parent += i
            elif cls is Cup or cls is Cap:
                x = self.label(t.atom)
                i, o = ([], [x, x]) if cls is Cup else ([x, x], [])
            else:  # a Swap: leaf_type has raised at anything that is not a term
                left, right = self.word(t.left), self.word(t.right)
                i, o = left + right, right + left
            while True:  # fold the stage (i, o, d, c) into its spine, and each spine it finishes into the next
                if ins is None:
                    ins, outs, dom, cod = i, o, d, c
                elif kind is Seq:
                    if cod != d:
                        raise mismatch(cod, d)
                    for x, y in zip(outs, i):
                        parent[x if parent[x] == x else find(x)] = y if parent[y] == y else find(y)
                    outs, cod = o, c
                elif dom.__class__ is tuple:  # a row's second factor: from here on the row owns its lists
                    ins, outs, dom, cod = ins + i, outs + o, [*dom, *d], [*cod, *c]
                else:
                    ins += i
                    outs += o
                    dom += d
                    cod += c
                if stages:
                    break
                i, o, d, c = ((outs, ins, cod, dom) if kind is Dagger else
                              (ins, outs, tuple(dom), tuple(cod)) if kind is Par else (ins, outs, dom, cod))
                if not spines:
                    return i, o, d, c
                kind, stages, ins, outs, dom, cod, flip = spines.pop()


def walk_nodes(term, sig):
    """A term's typed walk: its Wiring, each label valued by its atom; its
    nodes in walk order, each one's port labels and how many are inputs;
    and the walk's input and output labels and domain and codomain factors.

    Each generator, per dagger parity, and each spider shape is resolved
    once per call.  A box's ports run its domain then its codomain; under a
    dagger a node's inputs are the leaf's outputs."""
    wiring = Wiring()
    values, parent = wiring.values, wiring.parent
    nodes, ports, inputs, resolved = [], [], [], ({}, {})  # per parity, leaf key -> (node, port atoms, leaf inputs)

    def leaf(t, flip):
        key = t.name if t.__class__ is Gen else (t.atom, t.legs_in, t.legs_out)
        if (known := resolved[flip].get(key)) is None:
            if t.__class__ is Spider:
                known = SpiderNode(t.atom, t.legs_in + t.legs_out), [t.atom] * (t.legs_in + t.legs_out), t.legs_in
            else:  # under a dagger the codomain wires are the domain ports
                d = sig.generators[t.name]
                box = BoxNode(t.name, flip, *((d.cod, d.dom) if flip else (d.dom, d.cod)))
                known = box, [atom for atom, _ in d.dom.factors + d.cod.factors], len(d.dom)
            resolved[flip][key] = known
        node, atoms, k = known
        nodes.append(node)
        labels = [*range(len(parent), len(parent) + len(atoms))]
        values.extend(atoms)
        parent.extend(labels)
        ports.append(labels[k:] + labels[:k] if flip else labels)
        inputs.append(len(atoms) - k if flip else k)
        return labels[:k], labels[k:]

    return (wiring, nodes, ports, inputs, *wiring.walk(term, leaf, sig))


def to_graph(term, sig):
    """Flatten a term into its open-graph normal form, typing it on the way:
    walk_nodes's nodes, and each wire written as its ends are met, boundary
    inputs first, then node ports, then outputs."""
    wiring, nodes, ports, _, ins, outs, dom, cod = walk_nodes(term, sig)
    values, parent, find = wiring.values, wiring.parent, wiring.find
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


def _walk(graph):
    """Boundary, loops and labels; wire and label counts; closed piece sizes; the code: each when asked for."""
    nodes, n, k = graph.nodes, len(graph.nodes), len(graph.input_types)
    keys = {id(node): node for node in nodes}  # a sort key per node object, which to_graph shares,
    keys = {i: (1, node.atom, node.degree, node.genus) if node.__class__ is SpiderNode  # equal for equal nodes
            else (0, node.name, node.daggered, node.dom.factors, node.cod.factors) for i, node in keys.items()}
    table = tuple(sorted(set(keys.values())))
    number = {key: j for j, key in enumerate(table)}
    lab = [number[keys[id(node)]] for node in nodes] + [-1] * (k + len(graph.output_types))  # slots come last
    yield graph.input_types, graph.output_types, graph.loops, table
    yield len(graph.wires), sorted(lab)
    free = [j >= 0 and table[j][0] for j in lab]  # a spider's legs are interchangeable
    adj, at = [[] for _ in lab], {"i": n, "o": n + k}  # per node: (port, far node, far port), a leg's port -1
    for a, b in graph.wires:
        x, p = (a[1], -1 if free[a[1]] else a[2]) if a[0] == "n" else (at[a[0]] + a[1], 0)
        y, q = (b[1], -1 if free[b[1]] else b[2]) if b[0] == "n" else (at[b[0]] + b[1], 0)
        adj[x].append((p, y, q))
        adj[y].append((q, x, p))
    adj = [sorted(ends) for ends in adj]  # a box's ports in order
    cell, order = [-1] * n + [*range(len(lab) - n)], [*range(n, len(lab))]  # a walked node's cell: its place
    for x in order:
        for _, y, _ in () if free[x] else adj[x]:
            if cell[y] < 0:
                cell[y] = len(order)
                order.append(y)
    pieces = _pieces(loose := {x for x in range(n) if cell[x] < 0}, adj)
    yield sorted(len(piece) for piece in pieces if all(y in loose for x in piece for _, y, _ in adj[x]))
    yield _code(order, loose, len(pieces) == 1, lab, adj, free, cell)


def _pieces(nodes, adj):  # the connected pieces of a set of nodes
    pieces, rest = [], set(nodes)
    while rest:
        pieces.append([rest.pop()])
        for u in pieces[-1]:
            new = {y for _, y, _ in adj[u]} & rest
            rest -= new
            pieces[-1] += new
    return pieces


def _code(order, loose, joined, lab, adj, free, cell):  # walked nodes in order, then loose ones in canonical order
    def describe(order):  # a node of order by its place, any other by its cell
        rank = {x: i for i, x in enumerate(order)}
        ends = [[(rank[y], q) if y in rank else (-1 - cell[y], q) for _, y, q in adj[x]] for x in order]
        return tuple((lab[x], *(sorted(far) if free[x] else far)) for x, far in zip(order, ends))

    if not loose:
        return describe(order)
    fresh, auts, far = itertools.count(len(lab)), [], {}  # auts: the automorphisms found, as the nodes each moves

    def split(members, d, group, queue):  # a queued new cell per run of equal keys in group, (key, node) of cell d
        runs = [[y for _, y in run] for _, run in itertools.groupby(sorted(group), key=lambda pair: pair[0])]
        keep = max(runs, key=len) if len(group) == len(members[d]) else None  # else the untouched rest keeps d
        for run in runs:
            if run is not keep:
                members[d].difference_update(run)
                members[e := next(fresh)] = set(run)
                queue.append(e)
                for y in run:
                    cell[y] = e

    def refine(members, queue):
        for c in queue:  # grows as cells split
            if len(members[c]) == 1 and not free[x := next(iter(members[c]))]:
                for _, y, _ in adj[x]:  # a settled box settles the node at each port's far end
                    if len(members.get(cell[y], ())) > 1:
                        members[cell[y]].discard(y)
                        members[e := next(fresh)] = {y}
                        cell[y] = e
                        queue.append(e)
                continue
            touched = {}  # by cell, each node's (port, far port) pairs into the splitter
            for x in members[c]:
                for p, y, q in adj[x]:
                    if len(members.get(cell[y], ())) > 1:
                        touched.setdefault(cell[y], {}).setdefault(y, []).append((q, p))
            for d in sorted(touched):
                split(members, d, [(sorted(pairs), y) for y, pairs in touched[d].items()], queue)

    def search(region, queue, joined=True):  # joined: region is one piece
        members = {}
        for x in region:
            members.setdefault(cell[x], set()).add(x)
        refine(members, queue)
        settled = [next(iter(m)) for _, m in sorted(members.items()) if len(m) == 1]
        loose = {x for m in members.values() if len(m) > 1 for x in m}
        pieces = _pieces(loose, adj) if settled or not joined else [loose]
        if settled or len(pieces) != 1:  # no wire joins two pieces, so each is ordered on its own
            orders = []
            for piece in pieces:
                orders.append((yield piece, []))
            return settled + [x for order in sorted(orders, key=describe) for x in order]
        c = min(members, key=lambda c: (len(members[c]), c))
        for x in members[c] - far.keys() if free[start := min(members[c])] else ():  # far[x]: nodes 3 legs from x
            far[x] = len({w for z in {z for _, y, _ in adj[x] for _, z, _ in adj[y]} for _, w, _ in adj[z]})
        split(members, c, [(far[x], x) for x in members[c] if free[x]], queue := [])
        if queue:  # spiders that refinement cannot tell apart may differ in the nodes three legs away
            return (yield loose, queue)
        swap = {x: y for m in members.values() if len(m) == 2 for x, y in itertools.permutations(m)}
        if swap and all(adj[swap.get(x, x)] == sorted((p, swap.get(y, y), q) for p, y, q in adj[x]) for x in swap):
            auts.append(swap)  # swapping the two nodes of each cell of two is an automorphism
        saved, best, seen, starts = cell[:], None, set(), [start]
        while starts:
            if (v := starts.pop()) in seen:
                continue
            twins = {x for x in members[c] if x == v or free[v] and adj[x] == sorted(  # v and the spiders whose
                (p, v if y == x else x if y == v else y, q) for p, y, q in adj[v])}  # exchange with v is an
            cell[:] = [next(fresh) if x in twins else d for x, d in enumerate(saved)]  # automorphism give one code
            order = yield loose, sorted(cell[x] for x in twins)  # in any order, so each goes alone in a new cell
            code = describe(order), order
            if best is None:  # the rest of the cell, those v settled first tried first (likely small automorphisms)
                starts = [x for x in order[:order.index(v)] + order[:order.index(v):-1] if x in members[c]]
            elif code[0] == best[0]:
                auts.append({x: y for x, y in zip(best[1], order) if x != y})
            best = min(best or code, code)
            usable, front = [a for a in auts if a.keys() <= loose], seen | twins  # those fixing all outside the piece
            while front:
                seen |= front
                front = {a[x] for a in usable for x in front if x in a} - seen
        return best[1]

    members, queue, c = {len(lab) - 1: set(loose)}, [], len(lab) - 1  # one cell, after every walked node's
    for x in loose:
        cell[x] = c
    split(members, c, [((lab[x], *sorted((-2 if y == x else cell[y], p, q) for p, y, q in adj[x])), x)
                       for x in loose], queue)  # label, far ends on walked nodes, and loops: like wires inward
    stack, result = [search(loose, queue, joined)], None
    while stack:
        try:
            stack.append(search(*stack[-1].send(result)))
            result = None
        except StopIteration as stop:
            stack.pop()
            result = stop.value
    return describe(order + result)


def certificate(graph):
    """A hashable canonical form, equal for two graphs exactly when graph_eq holds."""
    head, _, _, code = _walk(graph)
    return head + (code,)


def graph_eq(g1, g2):
    """Boundary-, label-, and box-port-order-preserving isomorphism."""
    return all(a == b for a, b in zip(_walk(g1), _walk(g2)))  # the cheaper parts first
