"""Step-by-step spider fusion: the reference the one-pass ``fuse`` is checked against.

``FuseState`` is a mutable copy of a port graph.  Its ``sites`` are
every rewrite that applies: a ("merge", wire) joining two same-atom
spiders, a ("handle", wire) that loops a spider to itself, and a
("splice", node) removing a two-legged genus-0 spider.  ``rewrite``
applies one site at a time, the first or one drawn by an rng, until
none is left; any order reaches the same normal form up to graph
equality.  ``check_trace`` replays ``fuse_trace`` through the rewriter.
"""

import itertools

from catkit.diagram import OpenGraph, SpiderNode, graph_eq
from catkit.frobenius import fuse, fuse_trace


class FuseState:
    """Mutable working copy of a graph during fusion."""

    def __init__(self, graph):
        self.boxes = {}
        self.spiders = {}  # nid -> [atom, degree, genus]
        for nid, node in enumerate(graph.nodes):
            if isinstance(node, SpiderNode):
                self.spiders[nid] = [node.atom, node.degree, node.genus]
            else:
                self.boxes[nid] = node
        self.wires = dict(enumerate(graph.wires))
        self.next_wid = len(graph.wires)
        self.fresh_port = itertools.count(10 ** 6)
        self.input_types = graph.input_types
        self.output_types = graph.output_types
        self.loops = list(graph.loops)

    def _on_spider(self, t):
        return t[0] == "n" and t[1] in self.spiders

    def _self_loop_wids(self, nid):
        return [
            wid
            for wid, (a, b) in self.wires.items()
            if a[0] == "n" and b[0] == "n" and a[1] == b[1] == nid
        ]

    def sites(self):
        """All applicable rewrite sites, in deterministic order."""
        out = []
        for wid in sorted(self.wires):
            a, b = self.wires[wid]
            if self._on_spider(a) and self._on_spider(b):
                if a[1] == b[1]:
                    out.append(("handle", wid))
                elif self.spiders[a[1]][0] == self.spiders[b[1]][0]:
                    out.append(("merge", wid))
        for nid in sorted(self.spiders):
            atom, degree, genus = self.spiders[nid]
            if degree == 2 and genus == 0 and not self._self_loop_wids(nid):
                out.append(("splice", nid))
        return out

    def apply(self, site, special):
        kind, key = site
        if kind == "handle":
            a, _ = self.wires.pop(key)
            rec = self.spiders[a[1]]
            rec[1] -= 2
            if not special:
                rec[2] += 1
        elif kind == "merge":
            a, b = self.wires.pop(key)
            keep, gone = a[1], b[1]
            for wid, (u, v) in list(self.wires.items()):
                changed = False
                if u[0] == "n" and u[1] == gone:
                    u = ("n", keep, next(self.fresh_port))
                    changed = True
                if v[0] == "n" and v[1] == gone:
                    v = ("n", keep, next(self.fresh_port))
                    changed = True
                if changed:
                    self.wires[wid] = (u, v)
            krec, grec = self.spiders[keep], self.spiders[gone]
            krec[1] = krec[1] + grec[1] - 2
            krec[2] += grec[2]
            del self.spiders[gone]
        else:  # splice out a degree-2 handle-free spider
            nid = key
            incident = [
                (wid, idx)
                for wid, ends in self.wires.items()
                for idx, t in enumerate(ends)
                if t[0] == "n" and t[1] == nid
            ]
            assert len(incident) == 2
            (w1, i1), (w2, i2) = incident
            far1 = self.wires[w1][1 - i1]
            far2 = self.wires[w2][1 - i2]
            del self.wires[w1]
            del self.wires[w2]
            self.wires[self.next_wid] = (far1, far2)
            self.next_wid += 1
            del self.spiders[nid]

    def freeze(self):
        order = sorted(list(self.boxes) + list(self.spiders))
        renum = {old: new for new, old in enumerate(order)}
        nodes = []
        for old in order:
            if old in self.boxes:
                nodes.append(self.boxes[old])
            else:
                atom, degree, genus = self.spiders[old]
                nodes.append(SpiderNode(atom, degree, genus))
        counters = {new: itertools.count() for new in range(len(nodes))}

        def remap(t):
            if t[0] != "n":
                return t
            new = renum[t[1]]
            # box ports are ordered; only a spider's interchangeable legs are renumbered
            return ("n", new, t[2] if t[1] in self.boxes else next(counters[new]))

        wires = []
        for wid in sorted(self.wires):
            a, b = self.wires[wid]
            wires.append((remap(a), remap(b)))
        graph = OpenGraph(
            tuple(nodes),
            tuple(wires),
            self.input_types,
            self.output_types,
            tuple(sorted(self.loops)),
        )
        # degree bookkeeping must agree with actual wire attachments
        ends = {}
        for a, b in graph.wires:
            for t in (a, b):
                if t[0] == "n":
                    ends[t[1]] = ends.get(t[1], 0) + 1
        for nid, node in enumerate(graph.nodes):
            if isinstance(node, SpiderNode):
                assert ends.get(nid, 0) == node.degree
        return graph


def rewrite(graph, special=False, rng=None):
    """The normal form reached one site at a time: the first site, or one drawn by rng."""
    state = FuseState(graph)
    while sites := state.sites():
        state.apply(sites[0] if rng is None else rng.choice(sites), special)
    return state.freeze()


def check_trace(graph, special=False):
    """Replay fuse_trace through the rewriter; return the steps.

    Each step must be one of the rewriter's sites when its turn comes,
    and the end state must be graph-equal to fuse's normal form.
    """
    steps = fuse_trace(graph, special)
    state = FuseState(graph)
    for step in steps:
        assert step in state.sites(), step
        state.apply(step, special)
    assert graph_eq(state.freeze(), fuse(graph, special))
    return steps
