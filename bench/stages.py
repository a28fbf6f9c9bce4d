"""The benchmark's calls into catkit's layers, one function per public entry.

With tracing off each function is the bare catkit call.  With tracing on it
records a span named after the per-layer metric and the layer's counts, and a
public function that calls another one internally is preceded by a separate
call of the inner stage on the same input, whose span is subtracted from the
outer span to give the outer layer's self time (see README.md, "Traced run").
"""

from __future__ import annotations

from catkit import diagram, frobenius, tqft
from catkit.diagram import BoxNode, Dagger, Par, Seq


def term_size(term):
    """(tree nodes, distinct nodes) of a term, walking shared subterms once."""
    sizes = {}
    stack = [term]
    while stack:
        t = stack[-1]
        if id(t) in sizes:
            stack.pop()
            continue
        if isinstance(t, Seq):
            kids = (t.after, t.before)
        elif isinstance(t, Par):
            kids = (t.left, t.right)
        elif isinstance(t, Dagger):
            kids = (t.inner,)
        else:
            kids = ()
        todo = [k for k in kids if id(k) not in sizes]
        if todo:
            stack.extend(todo)
            continue
        stack.pop()
        sizes[id(t)] = 1 + sum(sizes[id(k)] for k in kids)
    return sizes[id(term)], len(sizes)


def skeleton_vertices(graph):
    """Vertices of graph_eq's matcher skeleton: boundary points, one per
    spider, and a hub plus one vertex per port for each box."""
    n = len(graph.input_types) + len(graph.output_types)
    for node in graph.nodes:
        n += 1 + node.n_ports if isinstance(node, BoxNode) else 1
    return n


def parse(tr, text):
    if tr.on:
        tr.count("parser.tokens", len(diagram.tokenize(text)))
    return tr.call("parser.parse_ms", diagram.parse, text)


def typecheck(tr, term, sig):
    if tr.on:
        tree, dag = term_size(term)
        tr.count("terms.tree_nodes", tree)
        tr.count("terms.dag_nodes", dag)
    return tr.call("terms.typecheck_ms", diagram.typecheck, term, sig)


def to_graph(tr, term, sig):
    if not tr.on:
        return diagram.to_graph(term, sig)
    typecheck(tr, term, sig)
    g = tr.call("graphs.to_graph_ms", diagram.to_graph, term, sig, inner=(tr.last,))
    tr.count("graphs.nodes", len(g.nodes))
    tr.count("graphs.wires", len(g.wires))
    tr.count("graphs.loops", len(g.loops))
    return g


def graph_eq(tr, g1, g2):
    if tr.on:
        tr.count("graphs.eq_vertices", skeleton_vertices(g1) + skeleton_vertices(g2))
    return tr.call("graphs.graph_eq_ms", diagram.graph_eq, g1, g2)


def fuse(tr, graph):
    out = tr.call("frobenius.fuse_ms", frobenius.fuse, graph)
    if tr.on:
        tr.count("frobenius.fuse_steps", len(graph.wires) - len(out.wires))
    return out


def classify(tr, term, sig):
    if not tr.on:
        return frobenius.classify_cob(term, sig)
    graph = to_graph(tr, term, sig)
    built = tr.last
    fuse(tr, graph)
    return tr.call("frobenius.classify_ms", frobenius.classify_cob, term, sig,
                   inner=(built, tr.last))


def eq_cob(tr, t1, t2, sig):
    if not tr.on:
        return frobenius.eq_cob(t1, t2, sig)
    inner = []
    for t in (t1, t2):
        typecheck(tr, t, sig)
        inner.append(tr.last)
    for t in (t1, t2):
        classify(tr, t, sig)
        inner.append(tr.last)
    return tr.call("frobenius.eq_cob_ms", frobenius.eq_cob, t1, t2, sig, inner=inner)


def _entries(tr, m):
    if tr.on:
        tr.count("tqft.result_entries", m.rows * m.cols)
    return m


def interpret(tr, term, interp):
    inner = ()
    if tr.on and interp.signature is not None:
        typecheck(tr, term, interp.signature)
        inner = (tr.last,)
    return _entries(tr, tr.call("tqft.interpret_ms", tqft.interpret, term, interp, inner=inner))


def evaluate_graph(tr, graph, interp):
    return _entries(tr, tr.call("tqft.evaluate_graph_ms", tqft.evaluate_graph, graph, interp))


def verify_frobenius(tr, p):
    return tr.call("tqft.verify_frobenius_ms", tqft.verify_frobenius, p)


def evaluate_cob(tr, term, p):
    inner = ()
    if tr.on:
        verify_frobenius(tr, p)
        inner = (tr.last,)
    return _entries(tr, tr.call("tqft.evaluate_cob_ms", tqft.evaluate_cob, term, p, inner=inner))
