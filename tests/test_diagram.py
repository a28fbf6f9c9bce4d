"""Terms, parser, port graphs, and the free-category equality decision."""

import copy
import dataclasses
import itertools
import pickle
import random
import re
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import corpus
from helpers import line_events, no_recursion, reference_graph, reference_walk, walk_shape
from catkit.diagram import (
    UNIT,
    BoxNode,
    Cap,
    Cup,
    Dagger,
    Gen,
    GenDecl,
    Id,
    ObjectDecl,
    ObjectWord,
    OpenGraph,
    Par,
    ParseError,
    Seq,
    Signature,
    Spider,
    SpiderNode,
    Swap,
    TypeMismatch,
    UnknownName,
    coname,
    graph_eq,
    name,
    parse,
    tokenize,
    to_graph,
    transpose,
    typecheck,
)
from catkit.diagram import graphs as graphs_module
from catkit.diagram import parser as parser_module
from catkit.diagram import terms as terms_module
from catkit.diagram.graphs import Wiring, certificate
from catkit.frobenius import CobordismClass, ComponentClass, fuse, fuse_trace

A = ObjectWord.of("A")
B = ObjectWord.of("B")
P = ObjectWord.of("P")
P_STAR = ObjectWord.atom("P", dual=True)
Z = ObjectWord.of("Z")


def base_sig():
    sig = corpus.standard_signature()
    sig.declare_object("Z", frobenius=True, self_dual=True)
    sig.declare_object("Q")
    sig.declare_generator("v", P, ObjectWord.of("Q"))
    return sig


@pytest.fixture()
def sig():
    return base_sig()


def eq_terms(t1, t2, sig):
    return graph_eq(to_graph(t1, sig), to_graph(t2, sig))


def signature_text(sig):
    """Declarations that rebuild sig's objects and generators."""
    objects = [
        f"object {d.name}{' frobenius' * d.frobenius}{' selfdual' * d.self_dual};\n"
        for d in sig.objects.values()
    ]
    gens = [f"gen {d.name} : {d.dom} -> {d.cod};\n" for d in sig.generators.values()]
    return "".join(objects + gens)


def term_text(t):
    """Source text that parses back to t; every composite is bracketed."""
    if isinstance(t, Seq):
        return f"({term_text(t.before)} >> {term_text(t.after)})"
    if isinstance(t, Par):
        return f"({term_text(t.left)} x {term_text(t.right)})"
    if isinstance(t, Dagger):
        return f"dg({term_text(t.inner)})"
    if isinstance(t, Gen):
        return t.name
    if isinstance(t, Id):
        return f"id({t.word})"
    if isinstance(t, Swap):
        return f"swap({t.left}, {t.right})"
    if isinstance(t, Spider):
        return f"spider({t.atom}, {t.legs_in}, {t.legs_out})"
    return f"{type(t).__name__.lower()}({t.atom})"


def nodes(t):
    """Every node occurrence of t, composites included."""
    kids = {Seq: ("before", "after"), Par: ("left", "right"), Dagger: ("inner",)}.get(type(t), ())
    return [t] + [x for k in kids for x in nodes(getattr(t, k))]


def leaves(t):
    """Every leaf occurrence of t: first stage first, left factor first."""
    if isinstance(t, Seq):
        return leaves(t.before) + leaves(t.after)
    if isinstance(t, Par):
        return leaves(t.left) + leaves(t.right)
    if isinstance(t, Dagger):
        return leaves(t.inner)
    return [t]


def printed_corpus():
    """600 random box terms and cobordisms, as drawn and randomly rewritten,
    over base_sig(); returns the terms by name and their text."""
    sig = base_sig()
    originals = {}
    for seed in range(150):
        rng = corpus.make_rng(seed)
        term = corpus.random_term(sig, rng, depth=rng.choice([2, 3, 4]))
        cob = corpus.random_cob_term(rng, rng.randrange(4), rng.randrange(1, 6))
        for i, t in enumerate((term, cob)):
            originals[f"t{seed}_{i}"] = t
            originals[f"r{seed}_{i}"] = corpus.rewrite_randomly(t, sig, rng)[0]
    text = signature_text(sig) + "".join(f"diag {name_} = {term_text(t)};\n" for name_, t in originals.items())
    return originals, text


def walk_words(term, sig):
    """The domain and codomain words a typed wiring walk reads off a term."""
    wiring = Wiring(lambda atom: atom)

    def leaf(t, flip):
        if isinstance(t, Gen):
            decl = sig.generators[t.name]
            return wiring.word(decl.dom), wiring.word(decl.cod)
        return wiring.fresh([t.atom] * t.legs_in), wiring.fresh([t.atom] * t.legs_out)

    ins, outs, dom, cod = wiring.walk(term, leaf, sig)
    assert [wiring.values[x] for x in ins + outs] == [atom for atom, _ in dom + cod]
    return ObjectWord(dom), ObjectWord(cod)


def brute_force_eq(g1, g2):
    """Graph equality by trying every label-preserving node bijection.

    Boundary slots stay fixed, box ports keep their numbers and spider
    legs, being interchangeable, are compared without theirs.
    """
    if (g1.input_types, g1.output_types, g1.loops) != (g2.input_types, g2.output_types, g2.loops):
        return False
    if Counter(g1.nodes) != Counter(g2.nodes):
        return False

    def wires(g, image):
        def key(end):
            if end[0] != "n":
                return end
            if isinstance(g.nodes[end[1]], SpiderNode):
                return ("n", image[end[1]])
            return ("n", image[end[1]], end[2])

        return Counter(frozenset((key(a), key(b))) for a, b in g.wires)

    target = wires(g2, range(len(g2.nodes)))
    labels = list(set(g1.nodes))
    sources = [[x for x, n in enumerate(g1.nodes) if n == label] for label in labels]
    targets = [[y for y, n in enumerate(g2.nodes) if n == label] for label in labels]
    for choice in itertools.product(*map(itertools.permutations, targets)):
        image = {}
        for xs, ys in zip(sources, choice):
            image.update(zip(xs, ys))
        if wires(g1, image) == target:
            return True
    return False


def renumbered(g, rng):
    """g with its nodes, spider legs and wires shuffled and its wires turned at random."""
    order = list(range(len(g.nodes)))
    rng.shuffle(order)
    new = {old: k for k, old in enumerate(order)}
    legs = {}
    for end in itertools.chain.from_iterable(g.wires):
        if end[0] == "n" and isinstance(g.nodes[end[1]], SpiderNode):
            legs.setdefault(end[1], []).append(end[2])
    leg = {}
    for nid, ports in legs.items():
        shuffled = rng.sample(ports, len(ports))
        leg.update(((nid, p), q) for p, q in zip(ports, shuffled))

    def end(e):
        return ("n", new[e[1]], leg.get(e[1:], e[2])) if e[0] == "n" else e

    wires = [(end(a), end(b)) if rng.random() < 0.5 else (end(b), end(a)) for a, b in g.wires]
    rng.shuffle(wires)
    return OpenGraph(tuple(g.nodes[old] for old in order), tuple(wires), g.input_types, g.output_types, g.loops)


def rewired(g, i, j):
    """g with the second ends of wires i and j exchanged."""
    wires = list(g.wires)
    (a, b), (c, d) = wires[i], wires[j]
    wires[i], wires[j] = (a, d), (c, b)
    return OpenGraph(g.nodes, tuple(wires), g.input_types, g.output_types, g.loops)


def corpus_graphs(seeds):
    """Port graphs of random box terms and of random cobordisms, unfused and fused both ways."""
    sig, cob_sig = corpus.standard_signature(), corpus.cob_test_signature()
    for seed in seeds:
        rng = corpus.make_rng(seed)
        yield to_graph(corpus.random_term(sig, rng, depth=rng.choice([2, 3, 4])), sig)
        g = to_graph(corpus.random_cob_term(rng, rng.randrange(4), rng.randrange(1, 6)), cob_sig)
        yield from (g, fuse(g), fuse(g, special=True))


# Statement pieces and the characters a tokenizer must treat exactly as
# the token pattern does: Unicode whitespace, numerals that are and are
# not letters or decimal digits, runs of ">" and "-", CRLF and comments.
TOKENIZER_FRAGMENTS = [
    "object A frobenius selfdual;", "gen f : A -> B;", "diag d = f >> dg(f);", "e = id(A x B*) x f;",
    "s = spider(A, 1, 2) >> cap(A);", "c = name(f) >> coname(f);", "f", "x", "(", ")", ";", ":",
    "=", ",", "*", ">>", "->", "12", "_a", "a1", "1a", "# note", "# a >> b\n", "#", "\n", " ",
    "\t", "\r\n", "\x0b", "\x0c", "\x1c", "\x85", "\xa0", "\u3000", "\u2028", "½", "²", "a²",
    "²a", "٣", "一", "Ⅻ", ">>>", "-->", "->>", ">->", "-", ">", "$", "é",
]
TOKENIZER_TEXTS = st.one_of(
    st.lists(st.sampled_from(TOKENIZER_FRAGMENTS), max_size=12).map("".join),
    st.lists(st.sampled_from(TOKENIZER_FRAGMENTS), max_size=12).map(" ".join),
    st.text(st.sampled_from("->#;(*f1x_ \t\r\n\x85\x1c\u3000½²٣一Ⅻ$"), max_size=16),
)


def pattern_tokens(text):
    """tokenize as one scan of the token pattern over the whole text: its
    findall list plus "", or the ParseError at a character starting no token."""
    start = parser_module._SKIP_RE.match(text).end()
    tokens = parser_module._scanner(text).findall(text, start)
    last = tokens[-1] if tokens else ";"
    if not (last in (";", ":", "=", ",", "(", ")", "*", "->", ">>") or last[0].isalpha()
            or last[0] == "_" or last[0].isdigit()):
        offset = len(text) - len(last)
        line, col = text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)
        raise ParseError(f"unexpected character {last[0]!r}", line, col)
    return tokens + [""]


def corpus_text_with_comments():
    """The printed corpus with a comment and odd whitespace after every statement."""
    text = printed_corpus()[1]
    return text.replace(";\n", "; # a -> b >> c;\x85\t").replace(" >> ", "\u3000>>\r\n")


def alternating_chain(n, right_nested=False, flip=None):
    """n boxes u, w, u, ... on P, box flip (if any) with the other label."""
    boxes = [Gen("uw"[(k % 2) ^ (k == flip)]) for k in range(n)]
    if right_nested:
        term = boxes[-1]
        for box in reversed(boxes[:-1]):
            term = Seq(term, box)
    else:
        term = boxes[0]
        for box in boxes[1:]:
            term = Seq(box, term)
    return term


class TestTypecheck:
    def test_seq_types(self, sig):
        dom, cod = typecheck(Seq(Gen("g"), Gen("f")), sig)
        assert (dom, cod) == (A, A)

    def test_seq_mismatch_names_both_words(self, sig):
        with pytest.raises(TypeMismatch, match=r"produces B but .* expects A x B"):
            typecheck(Seq(Gen("h"), Gen("f")), sig)

    def test_par_of_states(self, sig):
        dom, cod = typecheck(Par(Gen("psi"), Gen("psi")), sig)
        assert dom == UNIT
        assert cod == A.tensor(A)

    def test_swap_types(self, sig):
        dom, cod = typecheck(Swap(A, B), sig)
        assert dom == A.tensor(B)
        assert cod == B.tensor(A)

    def test_cup_self_dual_normalizes(self, sig):
        _, cod = typecheck(Cup("A"), sig)
        assert cod == A.tensor(A)

    def test_cup_keeps_dual_mark(self, sig):
        _, cod = typecheck(Cup("P"), sig)
        assert cod == P_STAR.tensor(P)

    def test_cap_types(self, sig):
        dom, cod = typecheck(Cap("P"), sig)
        assert dom == P.tensor(P_STAR)
        assert cod == UNIT

    def test_dagger_swaps_endpoints(self, sig):
        dom, cod = typecheck(Dagger(Gen("f")), sig)
        assert (dom, cod) == (B, A)

    def test_double_dagger_type(self, sig):
        assert typecheck(Dagger(Dagger(Gen("h"))), sig) == typecheck(
            Gen("h"), sig
        )

    def test_spider_types(self, sig):
        dom, cod = typecheck(Spider("Z", 2, 3), sig)
        assert dom == Z.tensor(Z)
        assert cod == Z.tensor(Z).tensor(Z)

    def test_spider_needs_frobenius_atom(self, sig):
        with pytest.raises(TypeMismatch, match="frobenius"):
            typecheck(Spider("A", 1, 1), sig)

    def test_unknown_generator(self, sig):
        with pytest.raises(UnknownName):
            typecheck(Gen("nope"), sig)

    def test_id_normalizes_self_dual_word(self, sig):
        dom, _ = typecheck(Id(ObjectWord.atom("A", dual=True)), sig)
        assert dom == A

    def test_shared_subterms_are_typed_once(self, sig):
        # d_k = d_(k-1) >> d_(k-1): 2^65 leaves as a tree, 67 distinct nodes
        d = Seq(Gen("g"), Gen("f"))
        for _ in range(64):
            d = Seq(d, d)
        assert typecheck(d, sig) == (A, A)

    def test_equal_fields_on_different_leaf_classes(self, sig):
        # typecheck shares one type among equal leaves; Cup("P") and Cap("P") are not equal
        assert typecheck(Par(Cup("P"), Cap("P")), sig) == (P.tensor(P_STAR), P_STAR.tensor(P))
        assert typecheck(Seq(Cap("A"), Cup("A")), sig) == (UNIT, UNIT)
        assert typecheck(Par(Cap("P"), Cup("P")), sig) == (P.tensor(P_STAR), P_STAR.tensor(P))
        assert typecheck(Par(Spider("Z", 1, 2), Spider("Z", 2, 1)), sig) == (Z.tensor(Z).tensor(Z),) * 2
        assert typecheck(Par(Id(A.tensor(B)), Swap(A, B)), sig) == (A.tensor(B).tensor(A).tensor(B), A.tensor(B).tensor(B).tensor(A))

    def test_equal_leaves_share_one_type(self, sig):
        assert typecheck(Seq(Par(Swap(A, A), Cup("A")), Cup("A")), sig) == (UNIT, A.tensor(A).tensor(A).tensor(A))
        assert typecheck(Seq(Spider("Z", 1, 1), Spider("Z", 1, 1)), sig) == (Z, Z)

    @pytest.mark.parametrize("term", [[1, 2], Seq(Gen("f"), [1, 2]), Par(Id(A), {"not": "a term"})])
    def test_unhashable_non_term(self, sig, term):
        with pytest.raises(TypeError, match="^not a diagram term: "):
            typecheck(term, sig)


class TestTermNodes:
    """Term nodes behave as frozen dataclasses: built by position or keyword,
    compared and hashed by value within one class, printed field by field."""

    LEAVES = [Gen("f"), Id(A.tensor(B)), Swap(A, B), Cup("A"), Cap("A"), Spider("Z", 1, 2)]

    def test_equal_fields_compare_and_hash_equal(self):
        for make in (
            lambda: Gen("f"), lambda: Id(A.tensor(B)), lambda: Swap(A, B), lambda: Cup("A"),
            lambda: Cap("A"), lambda: Spider("Z", 1, 2), lambda: Dagger(Gen("f")),
            lambda: Seq(Gen("g"), Gen("f")), lambda: Par(Cup("A"), Cap("A")),
        ):
            t1, t2 = make(), make()
            assert t1 is not t2 and t1 == t2 and not t1 != t2 and hash(t1) == hash(t2)
        assert Seq(after=Gen("g"), before=Gen("f")) == Seq(Gen("g"), Gen("f"))
        assert Spider("Z", 1, 2) != Spider("Z", 2, 1)
        assert Par(Cup("A"), Cap("A")) != Par(Cap("A"), Cup("A"))

    def test_equal_only_within_one_class(self):
        assert Cup("A") != Cap("A") and Cap("A") != Cup("A")
        assert Par(Gen("f"), Gen("g")) != Seq(Gen("f"), Gen("g"))
        assert Swap(A, B) != Par(Id(A), Id(B))
        assert Gen("f") != "f" and Gen("f") != ("f",)
        assert len({Cup("A"), Cap("A"), Cup("A"), Gen("A")}) == 3

    def test_repr(self):
        assert repr(Seq(Gen("f"), Spider("Z", 1, 2))) == (
            "Seq(after=Gen(name='f'), before=Spider(atom='Z', legs_in=1, legs_out=2))"
        )
        assert repr(Par(Dagger(Cup("A")), Cap("A"))) == "Par(left=Dagger(inner=Cup(atom='A')), right=Cap(atom='A'))"
        assert repr(Id(UNIT)) == "Id(word=ObjectWord(factors=()))"
        assert repr(Swap(A, B)) == (
            "Swap(left=ObjectWord(factors=(('A', False),)), right=ObjectWord(factors=(('B', False),)))"
        )

    def test_fields_cannot_be_assigned(self):
        for t in self.LEAVES + [Seq(Gen("g"), Gen("f")), Par(Gen("f"), Gen("g")), Dagger(Gen("f"))]:
            field_ = t.__match_args__[0]
            with pytest.raises(AttributeError):
                setattr(t, field_, None)
            with pytest.raises(AttributeError):
                delattr(t, field_)
            with pytest.raises(AttributeError):
                t.extra = 1

    @staticmethod
    def deep_chain(n, last="f"):
        """n nested Seq, Par and Dagger nodes over one generator."""
        t = Gen(last)
        for k in range(n):
            t = Seq(Gen("f"), t) if k % 3 else Par(Dagger(t), Id(A))
        return t

    def test_deep_terms_compare_and_hash_without_recursion(self):
        a, b = self.deep_chain(20_000), self.deep_chain(20_000)
        assert no_recursion(lambda: a == b and not a != b and hash(a) == hash(b))
        assert no_recursion(lambda: a != self.deep_chain(20_000, last="g") and a != self.deep_chain(19_999))

    def test_deep_terms_print_without_recursion(self):
        t = Dagger(Gen("f"))
        for _ in range(20_000):
            t = Seq(Par(Gen("f"), Id(UNIT)), t)
        head = "Seq(after=Par(left=Gen(name='f'), right=Id(word=ObjectWord(factors=()))), before="
        assert no_recursion(repr, t) == head * 20_000 + "Dagger(inner=Gen(name='f'))" + ")" * 20_000

    def test_deep_and_shared_terms_pickle_and_copy_without_recursion(self):
        shared = Dagger(Gen("f"))
        for _ in range(64):  # 2^64 leaves, 65 distinct composites
            shared = Seq(shared, shared)
        for t in (self.deep_chain(20_000), shared):
            for round_trip in (lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy):
                back = no_recursion(round_trip, t)
                assert back is not t and no_recursion(lambda: back == t and hash(back) == hash(t))
        back = copy.deepcopy(shared)
        assert back.after is back.before and back.after.after is back.after.before

    def test_shared_subterms_are_compared_and_hashed_once(self):
        calls = Counter()

        class Leaf:
            def __eq__(self, other):
                calls["eq"] += 1
                return isinstance(other, Leaf)

            def __hash__(self):
                calls["hash"] += 1
                return 0

        def doubled(n):  # diag d{k+1} = d{k} >> d{k}: 2^n leaves, n + 1 distinct subterms
            t = Leaf()
            for _ in range(n):
                t = Seq(t, t)
            return t

        a, b = doubled(64), doubled(64)
        assert a == b and hash(a) == hash(b)
        assert calls == {"eq": 2, "hash": 4}
        text = "gen f : A -> A;\nd0 = f;\n" + "".join(f"d{k + 1} = d{k} >> d{k};\n" for k in range(30))
        first, second = (parse(text).diagrams["d30"] for _ in range(2))
        assert first is not second and first == second and hash(first) == hash(second)

    def test_pickle_round_trip(self):
        t = Seq(Par(Cup("A"), Spider("Z", 1, 2)), Dagger(Swap(A, B)))
        assert pickle.loads(pickle.dumps(t)) == t

    def test_equal_leaves_are_typed_once(self, sig, monkeypatch):
        # typecheck and the wiring walk share one type across equal,
        # separately built leaves; a generator is one signature lookup anyway
        calls = Counter()
        leaf_type = terms_module.leaf_type

        def counted(t, sig_):
            calls[type(t).__name__] += 1
            return leaf_type(t, sig_)

        monkeypatch.setattr(terms_module, "leaf_type", counted)
        monkeypatch.setattr(graphs_module, "leaf_type", counted)
        make = [lambda: Id(A), lambda: Swap(A, A), lambda: Cup("A"), lambda: Cap("A"), lambda: Spider("Z", 1, 1)]
        for leaf in make:
            term = Par(Par(leaf(), leaf()), Dagger(leaf()))
            for typed in (lambda t: typecheck(t, sig), lambda t: walk_words(t, sig)):
                calls.clear()
                typed(term)
                assert calls == {type(leaf()).__name__: 1}, term


class TestValueClasses:
    """Words, declarations, graph nodes, graphs and cobordism classes behave
    as frozen dataclasses, as the term nodes do, but are not terms."""

    GRAPH = OpenGraph((SpiderNode("Z", 1, 2),), ((("i", 0), ("n", 0, 0)),), (("Z", False),), (), ("Z",))
    VALUES = [
        ObjectWord((("A", False), ("B", True))),
        ObjectDecl("A", True, False),
        GenDecl("f", A, B),
        BoxNode("f", True, A, B),
        SpiderNode("Z", 3, 1),
        GRAPH,
        ComponentClass((0,), (1, 2), 1),
        CobordismClass("Z", (ComponentClass((), (), 2),)),
    ]
    IDS = [type(v).__name__ for v in VALUES]

    @pytest.mark.parametrize("value", VALUES, ids=IDS)
    def test_built_by_position_or_keyword(self, value):
        cls, fields = type(value), [getattr(value, f) for f in value.__slots__]
        assert cls(*fields) == value == cls(**dict(zip(value.__slots__, fields)))
        assert cls.__match_args__ == value.__slots__
        assert not isinstance(value, terms_module.DiagramTerm)

    def test_defaults(self):
        assert ObjectWord() == UNIT and ObjectWord().factors == ()
        assert SpiderNode("Z", 3).genus == 0 and SpiderNode("Z", 3) == SpiderNode("Z", 3, 0)
        graph = OpenGraph((), (), (), ())
        assert graph.loops == () and graph == OpenGraph((), (), (), (), ())
        assert ObjectDecl("A") == ObjectDecl("A", False, False) == ObjectDecl("A", self_dual=False)

    @pytest.mark.parametrize("value", VALUES, ids=IDS)
    def test_equal_and_hashed_by_value_within_one_class(self, value):
        fields = [getattr(value, f) for f in value.__slots__]
        twin = type("Twin", (terms_module.Value,), {"__slots__": value.__slots__})(*fields)
        same = copy.copy(value)
        assert same == value and not same != value and hash(same) == hash(value)
        assert twin != value and value != twin and value != tuple(fields)
        assert len({value, same, twin}) == 2

    def test_repr(self):
        assert repr(BoxNode("f", True, A, B)) == (
            "BoxNode(name='f', daggered=True, dom=ObjectWord(factors=(('A', False),)), "
            "cod=ObjectWord(factors=(('B', False),)))"
        )
        assert repr(SpiderNode("Z", 3)) == "SpiderNode(atom='Z', degree=3, genus=0)"
        assert repr(self.GRAPH) == (
            "OpenGraph(nodes=(SpiderNode(atom='Z', degree=1, genus=2),), wires=((('i', 0), ('n', 0, 0)),), "
            "input_types=(('Z', False),), output_types=(), loops=('Z',))"
        )

    @pytest.mark.parametrize("value", VALUES, ids=IDS)
    def test_fields_cannot_be_assigned(self, value):
        for field_ in value.__slots__:
            with pytest.raises(AttributeError):
                setattr(value, field_, None)
            with pytest.raises(AttributeError):
                delattr(value, field_)
        with pytest.raises(AttributeError):
            value.extra = 1

    @pytest.mark.parametrize("value", VALUES, ids=IDS)
    def test_pickle_and_copy_round_trip(self, value):
        for round_trip in (lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy):
            back = round_trip(value)
            assert back is not value and type(back) is type(value) and back == value

    def test_a_value_is_not_a_term(self, sig):
        with pytest.raises(TypeError, match="not a diagram term"):
            typecheck(Seq(Gen("f"), SpiderNode("Z", 2)), sig)

    @pytest.mark.parametrize("value", VALUES, ids=IDS)
    def test_dataclasses_replace_and_fields_take_it(self, value):
        assert dataclasses.is_dataclass(value) and type(value).__dataclass_params__.frozen
        assert tuple(f.name for f in dataclasses.fields(value)) == value.__slots__
        assert dataclasses.replace(value) == value
        first = value.__slots__[0]
        changed = dataclasses.replace(value, **{first: "x"})
        assert type(changed) is type(value) and getattr(changed, first) == "x"
        assert [getattr(changed, f) for f in value.__slots__[1:]] == [getattr(value, f) for f in value.__slots__[1:]]

    def test_dataclasses_asdict_defaults_and_parse_result(self):
        assert dataclasses.asdict(BoxNode("f", True, A, B)) == {
            "name": "f", "daggered": True, "dom": {"factors": (("A", False),)}, "cod": {"factors": (("B", False),)}
        }
        cob = CobordismClass("Z", (ComponentClass((), (), 2),))
        assert dataclasses.asdict(cob) == {"atom": "Z", "components": ({"inputs": (), "outputs": (), "genus": 2},)}
        assert [f.default for f in dataclasses.fields(SpiderNode)][1:] == [dataclasses.MISSING, 0]
        result = parse("object A; gen f : A -> A; diag g = f;")
        emptied = dataclasses.replace(result, diagrams={})
        assert emptied.signature is result.signature and emptied.diagrams == {} and list(result.diagrams) == ["g"]
        assert not dataclasses.is_dataclass(Gen("f")) and not dataclasses.is_dataclass(Seq)


class TestTypedWalk:
    """Wiring.walk types a term as it flattens it, exactly as typecheck does."""

    def test_random_terms(self):
        sig, cob_sig = base_sig(), corpus.cob_test_signature()
        kinds = Counter()
        for seed in range(300):
            rng = corpus.make_rng(seed)
            term = corpus.random_term(sig, rng, depth=rng.choice([2, 3, 4]))
            cob = corpus.random_cob_term(rng, rng.randrange(4), rng.randrange(1, 6))
            for t, s in ((term, sig), (corpus.rewrite_randomly(term, sig, rng)[0], sig), (cob, cob_sig)):
                assert walk_words(t, s) == typecheck(t, s), seed
                g = to_graph(t, s)
                assert (ObjectWord(g.input_types), ObjectWord(g.output_types)) == typecheck(t, s), seed
                kinds.update(type(x).__name__ + getattr(x, "atom", "") for x in nodes(t))
        # daggers, swaps, and bends on an atom that is not self-dual are all exercised
        assert min(kinds["Dagger"], kinds["Swap"], kinds["CupP"], kinds["CapP"], kinds["SpiderZ"]) > 20, kinds

    @pytest.mark.parametrize("one_label_spiders", [False, True])
    def test_matches_the_recursive_reference(self, one_label_spiders):
        # leaf calls in order with their dagger parity, dom/cod, boundary labels
        # and the union-find partition, typed and untyped, as a recursive walk
        # gives them; a spider's legs get a label each (to_graph, tqft) or all
        # one label (classify_cob)
        sig, cob_sig = base_sig(), corpus.cob_test_signature()

        def leaf(t, flip, fresh):
            if isinstance(t, Gen):
                decl = sig.generators[t.name]
                return fresh([a for a, _ in decl.dom.factors]), fresh([a for a, _ in decl.cod.factors])
            if one_label_spiders:
                [x] = fresh([t.atom])
                return [x] * t.legs_in, [x] * t.legs_out
            return fresh([t.atom] * t.legs_in), fresh([t.atom] * t.legs_out)

        for seed in range(300):
            rng = corpus.make_rng(seed)
            term = corpus.random_term(sig, rng, depth=rng.choice([2, 3, 4]))
            cob = corpus.random_cob_term(rng, rng.randrange(4), rng.randrange(1, 6))
            for t, s in ((term, sig), (corpus.rewrite_randomly(term, sig, rng)[0], sig), (cob, cob_sig)):
                for typed in (s, None):
                    if typed is None and s is sig:
                        continue  # an untyped walk raises at a generator
                    wiring, calls = Wiring(lambda atom: atom), []

                    def walk_leaf(t, flip):
                        ins, outs = leaf(t, flip, wiring.fresh)
                        calls.append((t, flip, ins, outs))
                        return ins, outs

                    ins, outs, dom, cod = wiring.walk(t, walk_leaf, typed)
                    got = walk_shape(calls, ins, outs, wiring.values, wiring.find), dom, cod
                    assert got == reference_walk(t, typed, leaf), seed

    def test_to_graph_matches_the_reference_builder(self):
        # nodes, wire order and loops as the builder that resolved each
        # generator occurrence on its own gave them; fuse_trace indexes wires,
        # so its steps on the cobordisms are unchanged too
        sig, cob_sig = base_sig(), corpus.cob_test_signature()
        f, mu = Gen("f"), Spider("Z", 2, 1)
        both = [  # one generator or spider shape both plain and under a dagger
            Seq(Dagger(f), f),
            Par(Dagger(Seq(f, Gen("g"))), Par(f, Dagger(f))),
            Seq(Dagger(mu), mu),
            Par(Dagger(Dagger(mu)), Dagger(Par(mu, Spider("Z", 1, 2)))),
        ]
        for t in both:
            assert to_graph(t, sig) == reference_graph(t, sig), t
        boxes = {BoxNode("g", True, A, B), BoxNode("f", True, B, A), BoxNode("f", False, A, B)}
        assert set(to_graph(both[1], sig).nodes) == boxes
        steps = 0
        for seed in range(300):
            rng = corpus.make_rng(seed)
            term = corpus.random_term(sig, rng, depth=rng.choice([2, 3, 4]))
            cob = corpus.random_cob_term(rng, rng.randrange(4), rng.randrange(1, 6))
            for t, s in ((term, sig), (corpus.rewrite_randomly(term, sig, rng)[0], sig), (cob, cob_sig)):
                assert to_graph(t, s) == reference_graph(t, s), seed
            trace = fuse_trace(to_graph(cob, cob_sig), special=seed % 2 == 1)
            assert trace == fuse_trace(reference_graph(cob, cob_sig), special=seed % 2 == 1), seed
            steps += len(trace)
        assert steps > 300
        # parsed terms share each leaf object
        res = parse(printed_corpus()[1])
        for name_, t in res.diagrams.items():
            assert to_graph(t, res.signature) == reference_graph(t, res.signature), name_

    def test_printed_corpus(self):
        # parsed terms are DAGs whose equal leaves are one object
        originals, text = printed_corpus()
        res = parse(text)
        for name_, t in res.diagrams.items():
            assert walk_words(t, res.signature) == typecheck(t, res.signature), name_
            assert walk_words(originals[name_], res.signature) == typecheck(t, res.signature), name_

    @pytest.mark.parametrize(
        "term",
        [
            Seq(Gen("h"), Gen("f")),
            Dagger(Seq(Gen("f"), Gen("f"))),
            Par(Id(A), Seq(Cap("P"), Cup("P"))),
            Seq(Spider("Z", 2, 0), Seq(Par(Cup("P"), Id(Z)), Spider("Z", 0, 1))),
            Spider("A", 1, 1),
            Spider("Z", 1, -1),
            Id(ObjectWord.of("nope")),
            Gen("nope"),
            Par(Gen("f"), [1, 2]),
        ],
    )
    def test_errors(self, sig, term):
        with pytest.raises(Exception) as expected:
            typecheck(term, sig)
        with pytest.raises(type(expected.value), match=f"^{re.escape(str(expected.value))}$"):
            walk_words(term, sig)


class TestCountedWork:
    """Line events in catkit's frames, counted, grow linearly with a chain's length."""

    @staticmethod
    def chain(n):
        """A module whose diagram d is n boxes, every other one under a dagger,
        with identity leaves between them."""
        return "gen f : A -> B;\nd = " + " >> ".join(["f >> (dg(f) x id(I)) >> id(A)"] * (n // 2)) + ";\n"

    def test_parse_and_to_graph(self):
        counts = {"parse": [], "to_graph": []}
        for n in (250, 500, 1000):
            res, k = line_events(parse, self.chain(n))
            counts["parse"].append(k)
            g, k = line_events(to_graph, res.diagrams["d"], res.signature)
            counts["to_graph"].append(k)
            assert len(g.nodes) == n and len(g.wires) == n + 1
        for layer, (a, b, c) in counts.items():
            assert a > 250 and b <= 2.3 * a and c <= 2.3 * b, (layer, counts)

    @pytest.mark.parametrize("shape", ["chain", "ring"])
    def test_graph_eq_on_boxes(self, sig, shape):
        sig.declare_generator("w", P, P)
        counts = []
        for n in (250, 500, 1000):
            term = alternating_chain(n) if shape == "chain" else corpus.rings((n,))
            g = to_graph(term, sig)
            equal, k = line_events(graph_eq, g, renumbered(g, corpus.make_rng(n)))
            assert equal
            counts.append(k)
        a, b, c = counts
        assert b <= 2.3 * a and c <= 2.3 * b, counts

    def test_graph_eq_on_random_regular_graphs(self):
        # summed over four seeds, as one graph may need the short-cycle count and the next not;
        # each doubling at most triples the work, where the backtracking matcher grew fivefold or more
        counts = []
        for n in (20, 40, 80):
            graphs = [corpus.random_regular(n, seed) for seed in range(4)]
            events = [line_events(graph_eq, g, renumbered(g, corpus.make_rng(n))) for g in graphs]
            assert all(equal for equal, _ in events)
            counts.append(sum(k for _, k in events))
        a, b, c = counts
        assert b <= 3 * a and c <= 3 * b, counts

    def test_graph_eq_on_twins(self):
        # complete and complete bipartite spider graphs: their twins, spiders whose exchange is an automorphism,
        # are ordered together with no search; the count of nodes three legs away costs a spider its degree
        # squared, so each doubling, which quadruples the wires, may multiply the work by up to 8
        shapes = {"complete": lambda n: itertools.combinations(range(n), 2),
                  "bipartite": lambda n: itertools.product(range(n // 2), range(n // 2, n))}
        for shape, pairs in shapes.items():
            counts = []
            for n in (8, 16, 32):
                g = corpus.spider_graph(n, pairs(n))
                equal, k = line_events(graph_eq, g, renumbered(g, corpus.make_rng(n)))
                assert equal
                counts.append(k)
            a, b, c = counts
            assert b <= 8 * a and c <= 8 * b, (shape, counts)

    def test_graph_eq_on_a_long_chain_does_not_recurse(self, sig):
        sig.declare_generator("w", P, P)
        chain = to_graph(alternating_chain(20_000), sig)
        assert no_recursion(graph_eq, chain, to_graph(alternating_chain(20_000, right_nested=True), sig))


class TestParser:
    def test_gen_then_dagger_composition(self):
        res = parse("gen f : A -> B; d = f >> dg(f);")
        assert res.diagrams["d"] == Seq(Dagger(Gen("f")), Gen("f"))
        dom, cod = typecheck(res.diagrams["d"], res.signature)
        assert dom == A
        assert cod == A

    def test_identity_on_unit(self):
        res = parse("d = id(I);")
        assert res.diagrams["d"] == Id(UNIT)

    def test_missing_operand_is_positioned(self):
        text = "gen f : A -> B; d = f >>;"
        with pytest.raises(ParseError) as excinfo:
            parse(text)
        err = excinfo.value
        assert "';'" in str(err)
        assert err.line == 1
        assert err.col == text.index(">>;") + 3

    def test_unknown_identifier(self):
        with pytest.raises(ParseError, match="unknown identifier 'q'"):
            parse("gen f : A -> B; d = q;")

    def test_diag_keyword_optional(self):
        res = parse("gen f : A -> B; diag d1 = f; d2 = f;")
        assert res.diagrams["d1"] == res.diagrams["d2"] == Gen("f")

    def test_tensor_binds_tighter_than_composition(self):
        res = parse(
            "gen f : A -> B; gen g : C -> D; gen h : B x D -> A;"
            "d = f x g >> h;"
        )
        assert res.diagrams["d"] == Seq(Gen("h"), Par(Gen("f"), Gen("g")))

    def test_object_flags(self):
        res = parse("object Z frobenius selfdual; d = spider(Z, 2, 1);")
        decl = res.signature.objects["Z"]
        assert decl.frobenius and decl.self_dual
        assert res.diagrams["d"] == Spider("Z", 2, 1)

    def test_dual_marks_in_words(self):
        res = parse("gen w : P* x Q -> I;")
        decl = res.signature.generators["w"]
        assert decl.dom == ObjectWord((("P", True), ("Q", False)))
        assert decl.cod == UNIT

    def test_diagram_reference(self):
        res = parse("gen f : A -> A; d = f >> f; e = d >> d;")
        d = res.diagrams["d"]
        assert res.diagrams["e"] == Seq(d, d)

    def test_duplicate_diagram_rejected(self):
        with pytest.raises(ParseError, match="already in use"):
            parse("gen f : A -> A; d = f; d = f;")

    def test_duplicate_object_rejected(self):
        with pytest.raises(ParseError, match="declared twice"):
            parse("object A; object A;")

    def test_reserved_word_rejected(self):
        with pytest.raises(ParseError, match="reserved"):
            parse("gen id : A -> B;")

    def test_comments_skipped(self):
        res = parse("# heading\ngen f : A -> B; # trailing\nd = f;\n")
        assert res.diagrams["d"] == Gen("f")

    def test_swap_and_parens(self):
        res = parse("gen f : A -> B; d = (f x id(B)) >> swap(B, B);")
        assert res.diagrams["d"] == Seq(
            Swap(B, B), Par(Gen("f"), Id(B))
        )

    def test_type_error_from_derived_form_is_semantic(self):
        with pytest.raises(TypeMismatch):
            parse("gen p : I -> A x B; d = name(p);")

    def test_type_error_from_derived_form_is_positioned(self):
        with pytest.raises(TypeMismatch) as excinfo:
            parse("gen p : I -> A x B;\nd = dg(p) >>\n  coname(p);")
        assert (excinfo.value.line, excinfo.value.col) == (3, 3)

    def test_printed_corpus_parses_back(self):
        originals, text = printed_corpus()
        res = parse(text)
        assert len(originals) == 600
        assert res.diagrams == originals
        # equal leaf text is one object, across diagrams too
        shared = {}
        for term in res.diagrams.values():
            for leaf in leaves(term):
                assert shared.setdefault(term_text(leaf), leaf) is leaf
        assert len(shared) > 20

    def test_equal_leaf_text_is_one_object(self):
        res = parse(
            "object Z frobenius; gen f : A -> A;"
            "d = f >> id(A x A*) >> spider(Z, 1, 1) >> cup(A);"
            "e = cup(A) x f x id(A x A*) x spider(Z, 1, 1) x spider(Z, 01, 1);"
        )
        (d0, d1, d2, d3), (e0, e1, e2, e3, e4) = map(leaves, res.diagrams.values())
        assert (e0, e1, e2, e3) == (d3, d0, d1, d2)
        assert e0 is d3 and e1 is d0 and e2 is d1 and e3 is d2
        # equal values written differently are equal but not shared
        assert e4 == e3 and e4 is not e3

    def test_composition_and_tensor_associate_left(self):
        res = parse(
            "gen a : A -> A; gen b : A -> A; gen c : A -> A;"
            "s = a >> b >> c; t = a x b x c; u = a x (b >> c) x dg(a);"
        )
        a, b, c = Gen("a"), Gen("b"), Gen("c")
        assert res.diagrams["s"] == Seq(c, Seq(b, a))
        assert res.diagrams["t"] == Par(Par(a, b), c)
        assert res.diagrams["u"] == Par(Par(a, Seq(c, b)), Dagger(a))

    @pytest.mark.parametrize("opener", ["(", "dg("])
    def test_ten_thousand_nested_brackets(self, opener):
        n = 10**4
        res = parse(f"gen f : A -> B; d = {opener * n}f{')' * n};")
        term = res.diagrams["d"]
        assert typecheck(term, res.signature) == (A, B)
        depth = 0
        while isinstance(term, Dagger):
            term, depth = term.inner, depth + 1
        assert (term, depth) == (Gen("f"), n if opener == "dg(" else 0)

    def test_ten_thousand_nested_compositions(self):
        # f >> (f >> (... >> f)): every frame holds a pending stage
        n = 10**4
        res = parse(f"gen f : A -> A; d = {'(f >> ' * n}f{')' * n};")
        term = res.diagrams["d"]
        assert typecheck(term, res.signature) == (A, A)
        depth = 0
        while isinstance(term, Seq):
            assert term.before == Gen("f")
            term, depth = term.after, depth + 1
        assert (term, depth) == (Gen("f"), n)


class TestParseErrorPositions:
    @pytest.mark.parametrize(
        "text, message, line, col",
        [
            ("# heading\ngen f : A -> B; # note\n  d = q;", "unknown identifier 'q'", 3, 7),
            ("gen f : A -> B;\n\td = \tq;", "unknown identifier 'q'", 2, 7),
            ("gen f : A -> B;\r\n\r\nd = f >> q;\r\n", "unknown identifier 'q'", 3, 10),
            ("gen f : A -> B; d = f >>", "unexpected 'end of input'", 1, 25),
            ("gen f : A -> B; d = f >> # to do", "unexpected 'end of input'", 1, 26),
            ("gen f : A -> B;\nd = (f", "expected ')', found 'end of input'", 2, 7),
            ("object Z frobenius; d = spider(Z, 1", "expected ',', found 'end of input'", 1, 36),
            ("d = id(A x I);", "'I' is a reserved word", 1, 12),
            ("gen f : A -> B; d = f x;", "unexpected ';'", 1, 24),
            ("d = ½;", "unexpected character '½'", 1, 5),
            ("gen f : A -> B;\nd = f $ f;", "unexpected character '$'", 2, 7),
            ("gen f : A -> B; d = f - f;", "unexpected character '-'", 1, 23),
            # every character is checked before any statement is read
            ("object A; object A; $", "unexpected character '$'", 1, 21),
            # a malformed leaf after an identical well-formed prefix
            ("d = id(A) >> id(A x);", "expected an object name, found ')'", 1, 20),
            ("d = cup(A) >> cup(A", "expected ')', found 'end of input'", 1, 20),
            (
                "object Z frobenius; d = spider(Z,1,1) >> spider(Z,1,;",
                "expected a leg count, found ';'", 1, 53,
            ),
            # a malformed leaf whose tokens begin a well-formed leaf's; one
            # cut off at the end of input; a built-in keyword with no "("
            ("d = id(A x B) >> id(A x)", "expected an object name, found ')'", 1, 24),
            ("d = cup(A) x cup(", "expected an object name, found 'end of input'", 1, 18),
            ("gen f : A -> B; d = swap >> f;", "expected '(', found '>>'", 1, 26),
            (
                "object Z frobenius; d = spider(Z, 1, 2) >> spider(Z, 1);",
                "expected ',', found ')'", 1, 55,
            ),
            ("gen f : A -> B;\n;", "expected a declaration, found ';'", 2, 1),
            ("gen f : A -> A; d = f >> object;", "unexpected keyword 'object'", 1, 26),
            # a name goes to one object, generator or diagram
            ("d = id(A);\ngen d : A -> A;", "name 'd' already used by a diagram", 2, 5),
            ("gen f : A -> A;\ngen f : B -> B;", "generator 'f' declared twice", 2, 5),
            ("gen f : A -> A; object f;", "name 'f' already used by a generator", 1, 24),
            ("object A; gen A : B -> B;", "name 'A' already used by an object", 1, 15),
        ],
        ids=[
            "after-comment", "after-tab", "crlf", "end", "end-after-comment", "open-paren",
            "spider-args", "reserved", "missing-factor", "half", "dollar", "lone-minus",
            "scan-first", "id-after-id", "cup-after-cup", "spider-after-spider",
            "id-prefix-of-id", "cup-at-end", "swap-without-bracket", "short-spider-after-spider",
            "not-a-declaration", "keyword-leaf", "gen-over-diagram", "gen-twice",
            "object-over-gen", "gen-over-object",
        ],
    )
    def test_message_line_and_column(self, text, message, line, col):
        with pytest.raises(ParseError) as excinfo:
            parse(text)
        err = excinfo.value
        assert (str(err), err.line, err.col) == (message, line, col)

    def test_non_decimal_leg_count_is_a_parse_error(self):
        with pytest.raises(ParseError) as excinfo:
            parse("object Z frobenius;\nd = spider(Z, ², 1);")
        err = excinfo.value
        assert (str(err), err.line, err.col) == ("expected a leg count, found '²'", 2, 15)

    def test_unicode_names_and_decimal_digits(self):
        # identifiers start with a letter (CJK numerals are letters) and go
        # on with any letter or number; leg counts take any decimal digits
        res = parse("object Z frobenius; gen 一 : A -> B; gen a² : B -> A; d = 一 >> a²;"
                    "s = spider(Z, ٣, 1);")
        assert res.diagrams["d"] == Seq(Gen("a²"), Gen("一"))
        assert res.diagrams["s"] == Spider("Z", 3, 1)

    def test_token_count_is_pinned(self):
        text = (
            "object Z frobenius selfdual;\n"
            "gen f : A x B* -> I;   # comment\n"
            "d = dg(f) x spider(Z, 12, 0) >> id(I);\n"
        )
        tokens = tokenize(text)
        assert len(tokens) == 37
        assert tokens[-1] == ""

    def test_tokenize_matches_the_token_pattern(self):
        for text in (printed_corpus()[1], corpus_text_with_comments()):
            assert tokenize(text) == pattern_tokens(text)

    @settings(derandomize=True, max_examples=1000, deadline=None)
    @given(TOKENIZER_TEXTS)
    @example("->>>")  # "->" then ">>", never "-" then ">>" then ">"
    @example("# a\rf")  # a comment runs on to "\n" only
    def test_tokenize_agrees_with_the_pattern_on_random_text(self, text):
        try:
            expected = pattern_tokens(text)
        except ParseError as exc:
            with pytest.raises(ParseError) as excinfo:
                tokenize(text)
            got = excinfo.value
            assert (str(got), got.line, got.col) == (str(exc), exc.line, exc.col)
        else:
            assert tokenize(text) == expected

    def test_tokenize_agrees_with_the_pattern_on_seeded_text(self):
        # 20,000 texts of fragments and of single characters; about half hold
        # a character that starts no token, which must be reported where the
        # whole-text scan finds it
        rng, outcomes = random.Random(20), Counter()
        chars = list("->#;(*f1x_ \t\r\n\x85\x1c\u3000½²٣一Ⅻ$")
        for k in range(20_000):
            pool = TOKENIZER_FRAGMENTS if k % 2 else chars
            text = "".join(rng.choices(pool, k=rng.randrange(16)))
            try:
                expected = pattern_tokens(text)
            except ParseError as exc:
                with pytest.raises(ParseError) as excinfo:
                    tokenize(text)
                got = excinfo.value
                assert (str(got), got.line, got.col) == (str(exc), exc.line, exc.col), text
                outcomes["error"] += 1
            else:
                assert tokenize(text) == expected, text
                outcomes["tokens"] += 1
        assert min(outcomes.values()) > 5_000, outcomes

    def test_patterns_run_on_python_310(self):
        # re accepts possessive quantifiers and atomic groups only from
        # Python 3.11; the package supports 3.10
        from catkit.diagram import parser as parser_module

        for pattern in (parser_module._SKIP, parser_module._TOKEN):
            assert not re.search(r"[*+?}]\+|\(\?>", pattern)


class TestGraphEquality:
    def test_reflexive(self, sig):
        g = to_graph(Seq(Gen("g"), Gen("f")), sig)
        assert graph_eq(g, g)

    def test_interchange_example(self, sig):
        lhs = Par(Seq(Gen("g"), Gen("f")), Seq(Gen("f"), Gen("g")))
        rhs = Seq(Par(Gen("g"), Gen("f")), Par(Gen("f"), Gen("g")))
        assert eq_terms(lhs, rhs, sig)

    def test_snake_collapses_to_identity(self, sig):
        snake = Seq(Par(Cap("A"), Id(A)), Par(Id(A), Cup("A")))
        assert eq_terms(snake, Id(A), sig)

    def test_mirror_snake(self, sig):
        snake = Seq(Par(Id(A), Cap("A")), Par(Cup("A"), Id(A)))
        assert eq_terms(snake, Id(A), sig)

    def test_snake_non_self_dual(self, sig):
        snake = Seq(Par(Cap("P"), Id(P)), Par(Id(P), Cup("P")))
        assert eq_terms(snake, Id(P), sig)

    def test_symmetry_slides_boxes(self, sig):
        lhs = Seq(Swap(B, B), Par(Gen("f"), Gen("f")))
        rhs = Seq(Par(Gen("f"), Gen("f")), Swap(A, A))
        assert eq_terms(lhs, rhs, sig)

    def test_swap_is_not_identity(self, sig):
        assert not eq_terms(Swap(A, A), Id(A.tensor(A)), sig)

    def test_double_swap_is_identity(self, sig):
        doubled = Seq(Swap(B, A), Swap(A, B))
        assert eq_terms(doubled, Id(A.tensor(B)), sig)

    def test_identity_on_unit_is_empty(self, sig):
        g = to_graph(Id(UNIT), sig)
        assert g.nodes == ()
        assert g.wires == ()
        assert g.loops == ()

    def test_scalars_commute(self, sig):
        st = Seq(Gen("s"), Gen("t"))
        ts = Seq(Gen("t"), Gen("s"))
        assert eq_terms(st, ts, sig)

    def test_scalars_float_freely(self, sig):
        st = Seq(Gen("s"), Gen("t"))
        ts = Seq(Gen("t"), Gen("s"))
        d = Seq(Gen("g"), Gen("f"))
        assert eq_terms(Par(st, d), Par(ts, d), sig)

    def test_tensor_order_distinguished(self, sig):
        assert not eq_terms(
            Par(Gen("f"), Gen("g")), Par(Gen("g"), Gen("f")), sig
        )

    def test_circle_becomes_loop(self, sig):
        circle = Seq(Cap("A"), Cup("A"))
        g = to_graph(circle, sig)
        assert g.loops == ("A",)
        assert g.wires == ()
        assert g.nodes == ()

    def test_circle_non_self_dual(self, sig):
        star_plain = P_STAR
        circle = Seq(Cap("P"), Seq(Swap(star_plain, P), Cup("P")))
        g = to_graph(circle, sig)
        assert g.loops == ("P",)

    def test_loops_compared_as_multisets(self, sig):
        one = Seq(Cap("A"), Cup("A"))
        two = Par(one, one)
        assert to_graph(two, sig).loops == ("A", "A")
        assert not eq_terms(two, one, sig)

    def test_dagger_is_graph_flip(self, sig):
        term = Seq(Gen("g"), Gen("f"))
        flipped = to_graph(Dagger(term), sig)
        plain = to_graph(term, sig)
        assert flipped.input_types == plain.output_types
        assert flipped.output_types == plain.input_types
        assert sorted(n.name for n in flipped.nodes) == sorted(
            n.name for n in plain.nodes
        )
        assert all(n.daggered for n in flipped.nodes)

    def test_double_dagger_restores_term(self, sig):
        term = Seq(Par(Cap("A"), Id(A)), Par(Id(A), Cup("A")))
        term = Seq(Gen("f"), term)
        assert eq_terms(Dagger(Dagger(term)), term, sig)

    def test_dagger_antihomomorphism(self, sig):
        lhs = Dagger(Seq(Gen("g"), Gen("f")))
        rhs = Seq(Dagger(Gen("f")), Dagger(Gen("g")))
        assert eq_terms(lhs, rhs, sig)

    def test_dagger_compact_cup(self, sig):
        lhs = Dagger(Cup("P"))
        rhs = Seq(Cap("P"), Swap(P_STAR, P))
        assert eq_terms(lhs, rhs, sig)

    def test_spider_legs_unordered(self, sig):
        delta = Spider("Z", 1, 2)
        crossed = Seq(Swap(Z, Z), delta)
        assert eq_terms(crossed, delta, sig)

    def test_spider_dagger_flips_legs(self, sig):
        assert eq_terms(Spider("Z", 1, 2), Dagger(Spider("Z", 2, 1)), sig)

    def test_spider_boundary_still_counts(self, sig):
        assert not eq_terms(Spider("Z", 1, 2), Spider("Z", 2, 1), sig)

    def test_distinct_generators_not_identified(self, sig):
        assert not eq_terms(Gen("s"), Gen("t"), sig)

    @pytest.mark.parametrize(
        "left, right",
        [((3, 3, 3), (6, 3)), ((5, 5), (10,)), ((3, 3, 3, 3), (6, 3, 3)), ((3,) * 20, (3,) * 18 + (6,))],
        ids=["3+3+3-vs-6+3", "5+5-vs-10", "3+3+3+3-vs-6+3+3", "20-triangles-vs-18+hexagon"],
    )
    def test_cycles_of_identical_boxes(self, sig, left, right):
        # every box has the same label and the same neighbourhood; only the ring lengths differ
        assert not eq_terms(corpus.rings(left), corpus.rings(right), sig)

    @pytest.mark.parametrize("cell", [Gen("u"), Spider("Z", 1, 1)], ids=["boxes", "spiders"])
    def test_rings_in_either_order(self, sig, cell):
        # a ring may first be tried against a node of the other ring, and
        # must then be refused, whichever end the candidates are taken from
        atom = "P" if isinstance(cell, Gen) else "Z"
        g = to_graph(corpus.rings((3, 6), cell, atom), sig)
        assert graph_eq(g, to_graph(corpus.rings((3, 6), cell, atom), sig))
        assert graph_eq(g, to_graph(corpus.rings((6, 3), cell, atom), sig))
        assert not graph_eq(g, to_graph(corpus.rings((9,), cell, atom), sig))

    def test_twenty_triangles(self, sig):
        assert eq_terms(corpus.rings((3,) * 20), corpus.rings((3,) * 20), sig)

    def test_long_chain(self, sig):
        sig.declare_generator("w", P, P)
        chain = to_graph(alternating_chain(1000), sig)
        assert graph_eq(chain, to_graph(alternating_chain(1000, right_nested=True), sig))
        assert not graph_eq(chain, to_graph(alternating_chain(1000, flip=500), sig))

    def test_long_ring(self, sig):
        ring = to_graph(corpus.rings((1000,)), sig)
        assert graph_eq(ring, ring)

    def test_long_unfused_surface(self):
        g = to_graph(corpus.closed_surface(1000), corpus.cob_test_signature())
        assert graph_eq(g, g)

    def test_closed_spider_trees(self):
        # every choice is among interchangeable legs, and a wrong one shows only near the leaves
        sig = corpus.cob_test_signature()
        plain = corpus.binary_tree(6)
        bent = corpus.binary_tree(6, leftmost=(None, (None, (None, None))))
        g = to_graph(corpus.spider_tree((bent, plain)), sig)
        assert graph_eq(g, to_graph(corpus.spider_tree((plain, bent)), sig))
        assert not graph_eq(g, to_graph(corpus.spider_tree((plain, plain)), sig))

    def test_agrees_with_brute_force(self):
        rng = corpus.make_rng(7)
        compared = unequal = 0
        regular = [corpus.random_regular(n, seed) for n in (2, 4, 6, 8) for seed in range(6 if n < 8 else 1)]
        for g in [*(g for g in corpus_graphs(range(300)) if len(g.nodes) <= 7), *regular]:
            others = [renumbered(g, rng)]
            if len(g.wires) >= 2:
                others += [rewired(g, *rng.sample(range(len(g.wires)), 2)) for _ in range(2)]
            for other in others:
                expected = brute_force_eq(g, other)
                assert graph_eq(g, other) == expected, (g, other)
                assert (certificate(g) == certificate(other)) == expected, (g, other)
                compared += 1
                unequal += not expected
        assert compared > 2000 and unequal > 500, (compared, unequal)

    def test_renumbering_keeps_equality(self):
        rng = corpus.make_rng(11)
        sig, cob_sig = base_sig(), corpus.cob_test_signature()
        graphs = list(corpus_graphs(range(300)))
        graphs += [to_graph(corpus.rings(lengths), sig) for lengths in [(3, 3, 6), (1, 2, 5), (40,)]]
        graphs += [to_graph(corpus.closed_surface(genus), cob_sig) for genus in (0, 1, 30)]
        for g in graphs:
            other = renumbered(g, rng)
            assert graph_eq(g, other), g
            assert certificate(g) == certificate(other), g

    def test_symmetric_spider_graphs(self):
        # complete, complete bipartite (one atom, then two), a cycle, a prism, and twins with self-loops
        complete = [*itertools.combinations(range(4), 2)]
        graphs = [corpus.spider_graph(5, itertools.combinations(range(5), 2)), corpus.spider_graph(4, 2 * complete),
                  corpus.spider_graph(6, itertools.product(range(3), range(3, 6))),
                  corpus.spider_graph(6, itertools.product(range(2), range(2, 6)), "ZZXXXX"),
                  corpus.spider_graph(7, [(x, (x + 1) % 7) for x in range(7)]),
                  corpus.spider_graph(6, [(x, (x + 1) % 3 + x // 3 * 3) for x in range(6)] + [(x, x + 3) for x in range(3)]),
                  corpus.spider_graph(5, [(x, x) for x in range(4)] + [(x, 4) for x in range(4)] + complete[:3])]
        rng, unequal = corpus.make_rng(5), 0
        for g in graphs:
            assert certificate(g) == certificate(renumbered(g, rng)), g
            for _ in range(4):
                other = rewired(g, *rng.sample(range(len(g.wires)), 2))
                expected = brute_force_eq(g, other)
                assert (certificate(g) == certificate(other)) == graph_eq(g, other) == expected, (g, other)
                unequal += not expected
        assert unequal > 10
        for pairs in [itertools.combinations(range(40), 2), itertools.product(range(20), range(20, 40))]:
            g = corpus.spider_graph(40, pairs)
            assert graph_eq(g, renumbered(g, rng))

    def test_every_start_refinement_cannot_tell_apart_is_tried(self):
        # two hubs joined by a wire, one holding two triangles and the other a hexagon: refinement cannot tell
        # the hubs apart and no automorphism exchanges them, so the search must start from each
        pairs = [(0, 1)] + [(0, x) for x in range(2, 8)] + [(1, x) for x in range(8, 14)]
        pairs += [(2, 3), (3, 4), (4, 2), (5, 6), (6, 7), (7, 5)] + [(x, 8 + (x - 7) % 6) for x in range(8, 14)]
        g, rng = corpus.spider_graph(14, pairs), corpus.make_rng(3)
        for _ in range(8):
            other = renumbered(g, rng)
            assert graph_eq(g, other) and certificate(g) == certificate(other), other

    def test_small_regular_graphs_ignore_numbering(self):
        # eight spiders of three or four legs each: refinement often stalls on cells whose nodes no
        # automorphism exchanges, so every start must be tried and only true automorphisms prune
        rng = corpus.make_rng(13)
        for degree in (3, 4):
            for seed in range(40):
                g = corpus.random_regular(8, seed, degree=degree)
                assert all(certificate(renumbered(g, rng)) == certificate(g) for _ in range(4)), (degree, seed)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_eighty_spiders(self, seed):
        g = corpus.random_regular(80, seed)
        assert graph_eq(g, renumbered(g, corpus.make_rng(seed)))
        assert hash(certificate(g)) == hash(certificate(renumbered(g, corpus.make_rng(seed + 3))))

        def shape(graph):  # how many self-loops and double wires
            pairs = Counter(tuple(sorted((a[1], b[1]))) for a, b in graph.wires)
            return sum(x == y for x, y in pairs), sum(k == 2 for (x, y), k in pairs.items() if x != y)

        rng, changed = corpus.make_rng(seed), 0
        for _ in range(40):
            other = rewired(g, *rng.sample(range(len(g.wires)), 2))
            if shape(other) != shape(g):
                assert not graph_eq(g, other)
                changed += 1
        assert changed > 0


class TestDerivedForms:
    def test_name_of_identity_is_cup(self, sig):
        assert eq_terms(name(Id(A), sig), Cup("A"), sig)

    def test_coname_of_identity_is_cap(self, sig):
        assert eq_terms(coname(Id(A), sig), Cap("A"), sig)

    def test_transpose_of_identity(self, sig):
        assert eq_terms(transpose(Id(P), sig), Id(P_STAR), sig)

    def test_transpose_involution_self_dual(self, sig):
        term = Gen("f")
        assert eq_terms(transpose(transpose(term, sig), sig), term, sig)

    def test_transpose_involution_non_self_dual(self, sig):
        term = Gen("u")
        assert eq_terms(transpose(transpose(term, sig), sig), term, sig)

    def test_name_coname_composition_identity(self, sig):
        # (coname(f) x 1) . (1 x name(g)) equals g . f as graphs
        lhs = Seq(
            Par(coname(Gen("f"), sig), Id(A)),
            Par(Id(A), name(Gen("g"), sig)),
        )
        assert eq_terms(lhs, Seq(Gen("g"), Gen("f")), sig)

    def test_name_requires_single_atoms(self, sig):
        with pytest.raises(TypeMismatch, match="single atoms"):
            name(Gen("h"), sig)

    def test_transpose_type(self, sig):
        dom, cod = typecheck(transpose(Gen("v"), sig), sig)
        assert dom == ObjectWord.atom("Q", dual=True)
        assert cod == P_STAR


class TestRewriteSoundness:
    def test_random_rewrites_preserve_graphs(self):
        sig = corpus.standard_signature()
        applied_total = 0
        for seed in range(60):
            rng = corpus.make_rng(seed)
            term = corpus.random_term(sig, rng, depth=3)
            rewritten, applied = corpus.rewrite_randomly(
                term, sig, rng, steps=4
            )
            applied_total += applied
            assert graph_eq(to_graph(term, sig), to_graph(rewritten, sig)), (
                f"seed {seed} produced a non-equal rewrite"
            )
        # the rewriters must actually fire, not all fall through
        assert applied_total > 120

    def test_each_rewriter_hits_somewhere(self):
        sig = corpus.standard_signature()
        hits = {rw.__name__: 0 for rw in corpus.REWRITERS}
        for seed in range(200):
            rng = corpus.make_rng(1000 + seed)
            term = corpus.random_term(sig, rng, depth=3)
            for rw in corpus.REWRITERS:
                for path in corpus.subterm_paths(term):
                    node = corpus.get_at(term, path)
                    if rw(node, sig, rng) is not None:
                        hits[rw.__name__] += 1
                        break
        missing = [name_ for name_, count in hits.items() if count == 0]
        assert not missing, f"rewriters never applicable: {missing}"
