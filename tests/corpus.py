"""Shared random-term corpus and axiom-level rewriters.

``random_term`` draws a well-typed term over the standard test
signature.  ``rewrite_randomly`` applies graph-class-preserving
rewrites (associativity, units, interchange, symmetry naturality,
double-swap and snake insertion, dagger distribution) at random
subterm positions; the port-graph of the result must stay equal to the
original's.  ``random_cob_term`` draws layered terms over a single
frobenius atom for the cobordism and functoriality tests.
"""

import random

from catkit.diagram import (
    UNIT,
    Cap,
    Cup,
    Dagger,
    Gen,
    Id,
    ObjectWord,
    OpenGraph,
    Par,
    Seq,
    Signature,
    Spider,
    SpiderNode,
    Swap,
    typecheck,
)


def standard_signature():
    sig = Signature()
    sig.declare_object("A", self_dual=True)
    sig.declare_object("B", self_dual=True)
    sig.declare_object("P")
    a, b, p = ObjectWord.of("A"), ObjectWord.of("B"), ObjectWord.of("P")
    sig.declare_generator("f", a, b)
    sig.declare_generator("g", b, a)
    sig.declare_generator("h", a.tensor(b), a)
    sig.declare_generator("psi", UNIT, a)
    sig.declare_generator("s", UNIT, UNIT)
    sig.declare_generator("t", UNIT, UNIT)
    sig.declare_generator("u", p, p)
    return sig


def _seed_words():
    a, b, p = ObjectWord.of("A"), ObjectWord.of("B"), ObjectWord.of("P")
    return [UNIT, a, b, a.tensor(b), b.tensor(a), a.tensor(a), p]


def _base_candidates(sig, dom):
    out = [Id(dom)]
    for decl in sig.generators.values():
        if decl.dom == dom:
            out.append(Gen(decl.name))
        if decl.cod == dom:
            out.append(Dagger(Gen(decl.name)))
    if len(dom) == 2 and dom.factors[0][0] == dom.factors[1][0]:
        atom = dom.factors[0][0]
        cap_dom = sig.normalize(ObjectWord(((atom, False), (atom, True))))
        if cap_dom == dom:
            out.append(Cap(atom))
    if dom == UNIT:
        for atom in ("A", "B", "P"):
            if atom in sig.objects:
                out.append(Cup(atom))
    return out


def random_term(sig, rng, dom=None, depth=3):
    """Well-typed random term with the given (or random) domain."""
    if dom is None:
        dom = rng.choice(_seed_words())
    return _grow(sig, rng, sig.normalize(dom), depth)


def _grow(sig, rng, dom, depth):
    if depth <= 0:
        return rng.choice(_base_candidates(sig, dom))
    roll = rng.random()
    if roll < 0.25:
        return rng.choice(_base_candidates(sig, dom))
    if roll < 0.55:
        first = _grow(sig, rng, dom, depth - 1)
        _, mid = typecheck(first, sig)
        second = _grow(sig, rng, mid, depth - 1)
        return Seq(second, first)
    if roll < 0.8:
        cut = rng.randrange(len(dom) + 1)
        left = ObjectWord(dom.factors[:cut])
        right = ObjectWord(dom.factors[cut:])
        return Par(
            _grow(sig, rng, left, depth - 1),
            _grow(sig, rng, right, depth - 1),
        )
    if len(dom) >= 2:
        cut = rng.randrange(1, len(dom))
        left = ObjectWord(dom.factors[:cut])
        right = ObjectWord(dom.factors[cut:])
        rest = _grow(sig, rng, right.tensor(left), depth - 1)
        return Seq(rest, Swap(left, right))
    return rng.choice(_base_candidates(sig, dom))


# Subterm navigation

_CHILDREN = {
    Seq: ("after", "before"),
    Par: ("left", "right"),
    Dagger: ("inner",),
}


def subterm_paths(term):
    paths = [()]
    for attr in _CHILDREN.get(type(term), ()):
        child = getattr(term, attr)
        paths.extend((attr,) + p for p in subterm_paths(child))
    return paths


def get_at(term, path):
    for attr in path:
        term = getattr(term, attr)
    return term


def replace_at(term, path, new):
    if not path:
        return new
    attr = path[0]
    child = replace_at(getattr(term, attr), path[1:], new)
    if isinstance(term, Seq):
        if attr == "after":
            return Seq(child, term.before)
        return Seq(term.after, child)
    if isinstance(term, Par):
        if attr == "left":
            return Par(child, term.right)
        return Par(term.left, child)
    return Dagger(child)


# Rewriters: each returns an equivalent term or None when the local
# pattern does not apply.

def rw_seq_assoc(node, sig, rng):
    if isinstance(node, Seq) and isinstance(node.before, Seq):
        return Seq(Seq(node.after, node.before.after), node.before.before)
    if isinstance(node, Seq) and isinstance(node.after, Seq):
        return Seq(node.after.after, Seq(node.after.before, node.before))
    return None


def rw_par_assoc(node, sig, rng):
    if isinstance(node, Par) and isinstance(node.right, Par):
        return Par(Par(node.left, node.right.left), node.right.right)
    if isinstance(node, Par) and isinstance(node.left, Par):
        return Par(node.left.left, Par(node.left.right, node.right))
    return None


def rw_seq_unit(node, sig, rng):
    if isinstance(node, Seq):
        if isinstance(node.before, Id):
            return node.after
        if isinstance(node.after, Id):
            return node.before
    dom, cod = typecheck(node, sig)
    if rng.random() < 0.5:
        return Seq(node, Id(dom))
    return Seq(Id(cod), node)


def rw_par_unit(node, sig, rng):
    if isinstance(node, Par):
        if isinstance(node.left, Id) and len(node.left.word) == 0:
            return node.right
        if isinstance(node.right, Id) and len(node.right.word) == 0:
            return node.left
    if rng.random() < 0.5:
        return Par(node, Id(UNIT))
    return Par(Id(UNIT), node)


def rw_interchange(node, sig, rng):
    if (
        isinstance(node, Seq)
        and isinstance(node.after, Par)
        and isinstance(node.before, Par)
    ):
        a, b = node.after.left, node.after.right
        c, d = node.before.left, node.before.right
        if (
            typecheck(c, sig)[1] == typecheck(a, sig)[0]
            and typecheck(d, sig)[1] == typecheck(b, sig)[0]
        ):
            return Par(Seq(a, c), Seq(b, d))
    if (
        isinstance(node, Par)
        and isinstance(node.left, Seq)
        and isinstance(node.right, Seq)
    ):
        return Seq(
            Par(node.left.after, node.right.after),
            Par(node.left.before, node.right.before),
        )
    return None


def rw_dagger(node, sig, rng):
    if isinstance(node, Dagger):
        inner = node.inner
        if isinstance(inner, Dagger):
            return inner.inner
        if isinstance(inner, Seq):
            return Seq(Dagger(inner.before), Dagger(inner.after))
        if isinstance(inner, Par):
            return Par(Dagger(inner.left), Dagger(inner.right))
        if isinstance(inner, Id):
            return inner
        if isinstance(inner, Swap):
            return Swap(inner.right, inner.left)
        if isinstance(inner, Spider):
            return Spider(inner.atom, inner.legs_out, inner.legs_in)
        if isinstance(inner, Cup):
            plain = sig.normalize(ObjectWord.atom(inner.atom))
            starred = sig.normalize(ObjectWord.atom(inner.atom, True))
            return Seq(Cap(inner.atom), Swap(starred, plain))
        if isinstance(inner, Cap):
            plain = sig.normalize(ObjectWord.atom(inner.atom))
            starred = sig.normalize(ObjectWord.atom(inner.atom, True))
            return Seq(Swap(starred, plain), Cup(inner.atom))
    if rng.random() < 0.3:
        return Dagger(Dagger(node))
    return None


def rw_sym_nat(node, sig, rng):
    if not isinstance(node, Seq):
        return None
    if isinstance(node.after, Swap) and isinstance(node.before, Par):
        f, g = node.before.left, node.before.right
        fdom, fcod = typecheck(f, sig)
        gdom, gcod = typecheck(g, sig)
        if fcod == sig.normalize(node.after.left) and gcod == sig.normalize(
            node.after.right
        ):
            return Seq(Par(g, f), Swap(fdom, gdom))
    if isinstance(node.before, Swap) and isinstance(node.after, Par):
        p, q = node.after.left, node.after.right
        pdom, pcod = typecheck(p, sig)
        qdom, qcod = typecheck(q, sig)
        if pdom == sig.normalize(node.before.right) and qdom == sig.normalize(
            node.before.left
        ):
            return Seq(Swap(qcod, pcod), Par(q, p))
    return None


def rw_double_swap(node, sig, rng):
    if (
        isinstance(node, Seq)
        and isinstance(node.after, Swap)
        and isinstance(node.before, Swap)
    ):
        al = sig.normalize(node.after.left)
        ar = sig.normalize(node.after.right)
        bl = sig.normalize(node.before.left)
        br = sig.normalize(node.before.right)
        if al == br and ar == bl:
            return Id(bl.tensor(br))
    dom, _ = typecheck(node, sig)
    if len(dom) >= 1:
        cut = rng.randrange(len(dom) + 1)
        left = ObjectWord(dom.factors[:cut])
        right = ObjectWord(dom.factors[cut:])
        return Seq(node, Seq(Swap(right, left), Swap(left, right)))
    return None


def rw_snake(node, sig, rng):
    dom, _ = typecheck(node, sig)
    spots = [i for i, (_, dual) in enumerate(dom.factors) if not dual]
    if not spots:
        return None
    i = rng.choice(spots)
    atom = dom.factors[i][0]
    aw = sig.normalize(ObjectWord.atom(atom))
    snake = Seq(Par(Cap(atom), Id(aw)), Par(Id(aw), Cup(atom)))
    pre = ObjectWord(dom.factors[:i])
    post = ObjectWord(dom.factors[i + 1 :])
    return Seq(node, Par(Par(Id(pre), snake), Id(post)))


REWRITERS = [
    rw_seq_assoc,
    rw_par_assoc,
    rw_seq_unit,
    rw_par_unit,
    rw_interchange,
    rw_dagger,
    rw_sym_nat,
    rw_double_swap,
    rw_snake,
]


def rewrite_randomly(term, sig, rng, steps=4):
    """Apply up to `steps` random rewrites; returns (term, applied)."""
    applied = 0
    for _ in range(steps * 4):
        if applied >= steps:
            break
        path = rng.choice(subterm_paths(term))
        node = get_at(term, path)
        new = rng.choice(REWRITERS)(node, sig, rng)
        if new is None:
            continue
        term = replace_at(term, path, new)
        applied += 1
    return term, applied


# Layered random terms over one frobenius atom.

def cob_test_signature(atom="Z"):
    sig = Signature()
    sig.declare_object(atom, frobenius=True, self_dual=True)
    return sig


def random_cob_term(rng, n_in, n_layers=3, atom="Z"):
    """Random layered term typed atom^n_in -> atom^k."""
    aw = ObjectWord.of(atom)
    width = n_in
    term = None
    for _ in range(n_layers):
        cells = []
        rem = width
        out_width = 0
        while rem > 0:
            roll = rng.random()
            if rem >= 2 and roll < 0.15:
                cells.append(Swap(aw, aw))
                rem -= 2
                out_width += 2
            elif rem >= 2 and roll < 0.25:
                cells.append(Cap(atom))
                rem -= 2
            elif rem >= 2 and roll < 0.45:
                legs_out = rng.randrange(3)
                cells.append(Spider(atom, 2, legs_out))
                rem -= 2
                out_width += legs_out
            elif roll < 0.8:
                legs_out = rng.randrange(3)
                cells.append(Spider(atom, 1, legs_out))
                rem -= 1
                out_width += legs_out
            else:
                cells.append(Id(aw))
                rem -= 1
                out_width += 1
        if rng.random() < 0.3:
            extra = rng.choice(
                [Spider(atom, 0, 1), Spider(atom, 0, 2), Cup(atom)]
            )
            cells.insert(rng.randrange(len(cells) + 1), extra)
            out_width += extra.legs_out if isinstance(extra, Spider) else 2
        layer = cells[0] if cells else Id(UNIT)
        for cell in cells[1:]:
            layer = Par(layer, cell)
        term = layer if term is None else Seq(layer, term)
        width = out_width
    if term is None:
        term = Id(ObjectWord(((atom, False),) * n_in))
    if rng.random() < 0.2:
        term = Dagger(term)
    return term


def closed_surface(genus, atom="Z"):
    """unit >> (delta >> mu)^genus >> eps, nested as the parser nests a flat chain."""
    term = Spider(atom, 0, 1)
    for _ in range(genus):
        term = Seq(Spider(atom, 2, 1), Seq(Spider(atom, 1, 2), term))
    return Seq(Spider(atom, 1, 0), term)


def doubling_file(k):
    """d0 is a handle and each d{i+1} = d{i} >> d{i}, so s, capped at both
    ends, is a closed surface of genus 2^k written in k + 3 declarations:
    parsed, a DAG whose shared subterms are one object."""
    lines = ["object Z frobenius selfdual;", "diag d0 = spider(Z, 1, 2) >> spider(Z, 2, 1);"]
    lines += [f"diag d{i + 1} = d{i} >> d{i};" for i in range(k)]
    return "\n".join(lines + [f"diag s = spider(Z, 0, 1) >> d{k} >> spider(Z, 1, 0);"])


def rings(lengths, cell=Gen("u"), atom="P"):
    """Closed rings side by side, a ring of n copies of cell per n in lengths.

    cell must go from atom to atom; the atom need not be self-dual.
    """
    plain, starred = ObjectWord.atom(atom), ObjectWord.atom(atom, dual=True)
    term = None
    for n in lengths:
        chain = cell
        for _ in range(n - 1):
            chain = Seq(cell, chain)
        ring = Seq(Cap(atom), Seq(Swap(starred, plain), Seq(Par(Id(starred), chain), Cup(atom))))
        term = ring if term is None else Par(term, ring)
    return term


def binary_tree(depth, leftmost=None):
    """Shape of a full binary tree: None is a leaf, a pair a fork.

    leftmost, when given, stands in for the leftmost subtree two levels
    above the leaves.
    """
    four = ((None, None), (None, None))
    shape, other = leftmost or four, four
    for _ in range(depth - 2):
        shape, other = (shape, other), (other, other)
    return shape


def spider_tree(shape, atom="Z"):
    """A closed tree of spiders: a unit, a delta at each fork, a counit at each leaf."""

    def below(s):  # atom -> I
        if s is None:
            return Spider(atom, 1, 0)
        return Seq(Par(below(s[0]), below(s[1])), Spider(atom, 1, 2))

    return Seq(below(shape), Spider(atom, 0, 1))


def random_regular(n, seed, atom="Z", degree=3):
    """n spiders of three legs each (or degree), the legs paired at random: a
    closed 3-regular multigraph, self-loops and double wires allowed."""
    legs = [("n", x, leg) for x in range(n) for leg in range(degree)]
    random.Random(seed).shuffle(legs)
    return OpenGraph((SpiderNode(atom, degree),) * n, tuple(zip(legs[::2], legs[1::2])), (), ())


def spider_graph(n, pairs, atoms=None):
    """n spiders joined by one wire per pair (x, y) of spider numbers, a
    pair (x, x) being a self-loop; atoms[x] is spider x's atom, Z if none."""
    degree, wires = [0] * n, []
    for x, y in pairs:
        wires.append((("n", x, degree[x]), ("n", y, degree[y] + (x == y))))
        degree[x] += 1
        degree[y] += 1
    return OpenGraph(tuple(SpiderNode(atoms[x] if atoms else "Z", degree[x]) for x in range(n)), tuple(wires), (), ())


def make_rng(seed):
    return random.Random(seed)
