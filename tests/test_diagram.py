"""Terms, parser, port graphs, and the free-category equality decision."""

import pytest

import corpus
from catkit.diagram import (
    UNIT,
    Cap,
    Cup,
    Dagger,
    Gen,
    Id,
    ObjectWord,
    Par,
    ParseError,
    Seq,
    Signature,
    Spider,
    Swap,
    TypeMismatch,
    UnknownName,
    coname,
    graph_eq,
    name,
    parse,
    to_graph,
    transpose,
    typecheck,
)

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
