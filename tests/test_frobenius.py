"""Spider fusion, confluence, and surface classification."""

import itertools
import re
from collections import defaultdict

import pytest

from catkit.diagram import (
    BoxNode,
    Cap,
    Cup,
    Dagger,
    Gen,
    Id,
    ObjectWord,
    Par,
    Seq,
    Signature,
    Spider,
    SpiderNode,
    Swap,
    TypeMismatch,
    UnknownName,
    graph_eq,
    to_graph,
    typecheck,
)
from catkit.frobenius import (
    CobordismClass,
    ComponentClass,
    classify_cob,
    cob_signature,
    delta,
    eps,
    eq_cob,
    fuse,
    fuse_trace,
    mu,
    unit,
)
from catkit.matcat import MatrixMorphism
from catkit.scalars import COMPLEX
from catkit.tqft import Interpretation, basis_frobenius, evaluate_cob, evaluate_graph, interpret, xor_frobenius

from corpus import closed_surface, make_rng, random_cob_term, standard_signature
from fuse_reference import check_trace, rewrite

Z = ObjectWord((("Z", False),))
ZSIG = cob_signature("Z")

CYLINDER = Id(Z)
HANDLE = Seq(mu("Z"), delta("Z"))
TORUS = Seq(eps("Z"), Seq(HANDLE, unit("Z")))
SPHERE = Seq(eps("Z"), unit("Z"))
PANTS = mu("Z")


def fused(term, special=False):
    return fuse(to_graph(term, ZSIG), special=special)


class TestTermBuilders:
    def test_spider_types(self):
        zz = ObjectWord((("Z", False), ("Z", False)))
        empty = ObjectWord(())
        assert typecheck(delta("Z"), ZSIG) == (Z, zz)
        assert typecheck(mu("Z"), ZSIG) == (zz, Z)
        assert typecheck(eps("Z"), ZSIG) == (Z, empty)
        assert typecheck(unit("Z"), ZSIG) == (empty, Z)


class TestFuse:
    def test_handle_fuses_to_genus_one_spider(self):
        g = fused(HANDLE)
        spiders = [n for n in g.nodes]
        assert len(spiders) == 1
        node = spiders[0]
        assert (node.degree, node.genus) == (2, 1)

    def test_special_structure_collapses_handles(self):
        g = fused(HANDLE, special=True)
        assert graph_eq(g, to_graph(CYLINDER, ZSIG))

    def test_frobenius_law_sides_share_a_normal_form(self):
        lhs = Seq(Par(Id(Z), mu("Z")), Par(delta("Z"), Id(Z)))
        mid = Seq(delta("Z"), mu("Z"))
        rhs = Seq(Par(mu("Z"), Id(Z)), Par(Id(Z), delta("Z")))
        assert graph_eq(fused(lhs), fused(mid))
        assert graph_eq(fused(rhs), fused(mid))

    def test_counit_triangle_fuses_to_a_wire(self):
        empty_out = Seq(Par(eps("Z"), Id(Z)), delta("Z"))
        assert graph_eq(fused(empty_out), to_graph(CYLINDER, ZSIG))

    def test_unit_triangle_fuses_to_a_wire(self):
        t = Seq(mu("Z"), Par(unit("Z"), Id(Z)))
        assert graph_eq(fused(t), to_graph(CYLINDER, ZSIG))

    def test_fuse_is_idempotent(self):
        for seed in range(10):
            rng = make_rng(seed)
            g = fused(random_cob_term(rng, n_in=rng.randrange(3)))
            assert graph_eq(fuse(g), g)

    def test_boxes_survive_untouched(self):
        sig = standard_signature()
        g = to_graph(Seq(Gen("g"), Gen("f")), sig)
        out = fuse(g)
        assert graph_eq(out, g)


    def test_box_port_order_survives(self):
        sig = standard_signature()
        g = to_graph(Seq(Gen("h"), Swap(ObjectWord.of("B"), ObjectWord.of("A"))), sig)
        assert graph_eq(fuse(g), g)


class TestFuseWithBoxes:
    # spiders of two atoms meet at boxes; h's ports are typed X, Y -> Y, so a scrambled port shows
    X, Y = ObjectWord.of("X"), ObjectWord.of("Y")

    def signature(self):
        sig = Signature()
        sig.declare_object("X", frobenius=True, self_dual=True)
        sig.declare_object("Y", frobenius=True, self_dual=True)
        sig.declare_generator("f", self.X, self.Y)
        sig.declare_generator("g", self.Y, self.X)
        sig.declare_generator("h", self.X.tensor(self.Y), self.Y)
        return sig

    def graphs(self):
        X, Y = self.X, self.Y

        def chain(*stages):  # first stage applied first
            term = stages[0]
            for stage in stages[1:]:
                term = Seq(stage, term)
            return term

        front = chain(Spider("X", 1, 2), Par(Spider("X", 1, 1), Id(X)))  # fuses to one degree-3 X spider
        bend = chain(Par(Spider("Y", 1, 1), Id(X)), Par(Spider("Y", 1, 1), Id(X)))  # fuses to a plain wire
        handle = chain(Spider("Y", 1, 2), Spider("Y", 2, 1))  # a genus-1 Y spider between h and g
        term = chain(front, Par(Gen("f"), Id(X)), bend, Swap(Y, X), Gen("h"), handle, Gen("g"))
        plain = chain(Spider("X", 1, 2), Par(Gen("f"), Id(X)), Swap(Y, X), Gen("h"), Gen("g"))
        sig = self.signature()
        return to_graph(term, sig), to_graph(plain, sig)

    def test_one_pass_merges_per_atom_and_splices_between_box_ports(self):
        g, plain = self.graphs()
        out = fuse(g)
        boxes = [n for n in out.nodes if isinstance(n, BoxNode)]
        spiders = sorted((n for n in out.nodes if isinstance(n, SpiderNode)), key=repr)
        assert sorted(b.name for b in boxes) == ["f", "g", "h"]
        assert spiders == [SpiderNode("X", 3, 0), SpiderNode("Y", 2, 1)]
        # special: the handle goes and the Y spider between h's output and g's input is spliced out
        assert graph_eq(fuse(g, special=True), plain)

    def test_one_pass_agrees_with_the_rewriter(self):
        g, _ = self.graphs()
        for special in (False, True):
            for seed in range(5):
                assert graph_eq(fuse(g, special), rewrite(g, special, rng=make_rng(seed))), (special, seed)


class TestFuseConfluence:
    def test_random_orders_reach_one_normal_form(self):
        for seed in range(20):
            rng = make_rng(seed)
            term = random_cob_term(rng, n_in=rng.randrange(3), n_layers=4)
            g = to_graph(term, ZSIG)
            reference = fuse(g)
            for order in range(6):
                other = rewrite(g, rng=make_rng(1000 * seed + order))
                assert graph_eq(other, reference), (seed, order)

    def test_special_mode_is_confluent_too(self):
        for seed in range(10):
            rng = make_rng(seed)
            term = random_cob_term(rng, n_in=rng.randrange(3))
            g = to_graph(term, ZSIG)
            reference = fuse(g, special=True)
            for order in range(4):
                other = rewrite(g, special=True, rng=make_rng(7000 + 10 * seed + order))
                assert graph_eq(other, reference), (seed, order)


class TestFuseTrace:
    def test_endpoints_and_step_count(self):
        g = to_graph(Seq(HANDLE, HANDLE), ZSIG)
        steps = check_trace(g)
        # four spiders joined by five wires: three merges, two handles, and one genus-2 spider kept
        assert sorted(kind for kind, _ in steps) == ["handle"] * 2 + ["merge"] * 3
        assert [kind for kind, _ in check_trace(g, special=True)][-1] == "splice"

    def test_trivial_graph_has_no_steps(self):
        g = to_graph(CYLINDER, ZSIG)
        assert fuse_trace(g) == []

    def test_replay_reaches_fuse_on_random_terms(self):
        for seed in range(300):
            rng = make_rng(seed)
            g = to_graph(random_cob_term(rng, n_in=rng.randrange(4), n_layers=rng.randint(1, 5)), ZSIG)
            for special in (False, True):
                check_trace(g, special)

    def test_replay_reaches_fuse_across_atoms_and_boxes(self):
        g, _ = TestFuseWithBoxes().graphs()
        for special in (False, True):
            kinds = [kind for kind, _ in check_trace(g, special)]
            assert kinds.count("splice") == (2 if special else 1)

    def test_high_genus_step_count(self):
        n = 2000
        g = to_graph(closed_surface(n), ZSIG)
        steps = fuse_trace(g)
        assert sum(kind == "handle" for kind, _ in steps) == n
        assert len(steps) == 3 * n + 1
        assert fuse(g).nodes == (SpiderNode("Z", 0, n),)


LOOP = Seq(Cap("Z"), Cup("Z"))


class TestFuseLoops:
    """A loop of bare wire on a Frobenius atom fuses to the closed surface it is."""

    def test_loop_is_a_torus_or_when_special_a_sphere(self):
        g = to_graph(Par(LOOP, CYLINDER), ZSIG)
        assert fuse_trace(g, frobenius={"Z"}) == [("loop", 0)]
        for special, genus in ((False, 1), (True, 0)):
            out = fuse(g, special, frobenius={"Z"})
            assert (out.nodes, out.loops) == ((SpiderNode("Z", 0, genus),), ())
            assert graph_eq(out, fuse(to_graph(Par(TORUS, CYLINDER), ZSIG), special))
        assert fuse(g).loops == ("Z",)  # no atom named Frobenius: the loop stays

    def test_loop_on_another_atom_equals_only_a_loop(self):
        sig = cob_signature("Z")
        sig.declare_object("W", self_dual=True)
        w_loop = to_graph(Seq(Cap("W"), Cup("W")), sig)
        out = fuse(w_loop, frobenius={"Z"})
        assert (out.nodes, out.loops) == ((), ("W",))
        assert graph_eq(out, fuse(to_graph(Dagger(Seq(Cap("W"), Cup("W"))), sig), frobenius={"Z"}))
        for other in (LOOP, TORUS, SPHERE, Par(LOOP, Seq(Cap("W"), Cup("W")))):
            for special in (False, True):
                assert not graph_eq(out, fuse(to_graph(other, sig), special, frobenius={"Z"})), (other, special)

    def test_eq_cob_agrees_with_fused_graph_eq_on_random_terms(self):
        # the comparison `catkit eq --frobenius` makes, against homeomorphism
        by_type, loops = defaultdict(list), 0
        for seed in range(400):
            rng = make_rng(seed)
            term = random_cob_term(rng, n_in=rng.randrange(4), n_layers=rng.randint(1, 5))
            g = to_graph(term, ZSIG)
            loops += len(g.loops)
            by_type[typecheck(term, ZSIG)].append((term, fuse(g, frobenius={"Z"})))
        equal_pairs = 0
        for terms in by_type.values():
            for (t1, g1), (t2, g2) in itertools.combinations(terms, 2):
                same = eq_cob(t1, t2)
                equal_pairs += same
                assert graph_eq(g1, g2) == same, (t1, t2)
        assert loops > 0 and equal_pairs >= 1000  # bare loops occur, and equality is exercised


class TestFusePreservesMeaning:
    # fusing spiders must not change the matrix a graph denotes

    @pytest.mark.parametrize(
        "p",
        [basis_frobenius(2, COMPLEX), basis_frobenius(3, COMPLEX), xor_frobenius(COMPLEX)],
        ids=["basis2", "basis3", "xor"],
    )
    def test_fused_graph_evaluates_like_the_term(self, p):
        interp = Interpretation(p.tag, {"Z": p.dim}, frobenius_data={"Z": p}, signature=ZSIG)
        for seed in range(12):
            rng = make_rng(seed)
            term = random_cob_term(rng, n_in=rng.randrange(3))
            g = to_graph(term, ZSIG)
            expected = interpret(term, interp)
            assert evaluate_graph(fuse(g), interp) == expected, seed

    def test_special_fuse_sound_for_special_presentations(self):
        p = basis_frobenius(3, COMPLEX)
        assert p.special
        interp = Interpretation(p.tag, {"Z": p.dim}, frobenius_data={"Z": p}, signature=ZSIG)
        for seed in range(12):
            rng = make_rng(seed)
            term = random_cob_term(rng, n_in=rng.randrange(3))
            g = to_graph(term, ZSIG)
            assert evaluate_graph(fuse(g, special=True), interp) == interpret(term, interp)

    def test_special_fuse_changes_meaning_for_non_special(self):
        x = xor_frobenius(COMPLEX)
        interp = Interpretation(x.tag, {"Z": 2}, frobenius_data={"Z": x}, signature=ZSIG)
        g = to_graph(TORUS, ZSIG)
        assert evaluate_graph(fuse(g), interp) == MatrixMorphism(COMPLEX, [[2]])
        assert evaluate_graph(fuse(g, special=True), interp) == MatrixMorphism(COMPLEX, [[1]])


class TestClassify:
    def test_cylinder(self):
        c = classify_cob(CYLINDER)
        assert c.components == (ComponentClass((0,), (0,), 0),)

    def test_double_twist_is_two_cylinders(self):
        twist2 = Seq(Swap(Z, Z), Swap(Z, Z))
        c = classify_cob(twist2)
        assert c.components == (
            ComponentClass((0,), (0,), 0),
            ComponentClass((1,), (1,), 0),
        )

    def test_single_twist_crosses_boundaries(self):
        c = classify_cob(Swap(Z, Z))
        assert c.components == (
            ComponentClass((0,), (1,), 0),
            ComponentClass((1,), (0,), 0),
        )

    def test_closed_surfaces(self):
        assert classify_cob(SPHERE).components == (ComponentClass((), (), 0),)
        assert classify_cob(TORUS).components == (ComponentClass((), (), 1),)
        genus2 = Seq(eps("Z"), Seq(HANDLE, Seq(HANDLE, unit("Z"))))
        assert classify_cob(genus2).components == (ComponentClass((), (), 2),)

    def test_circle_from_bent_wire(self):
        loop = Seq(Cap("Z"), Cup("Z"))
        assert classify_cob(loop).components == (ComponentClass((), (), 1),)
        assert eq_cob(loop, TORUS)
        assert not eq_cob(loop, SPHERE)

    def test_pants_and_disjoint_pieces(self):
        assert classify_cob(PANTS).components == (ComponentClass((0, 1), (0,), 0),)
        mixed = Par(TORUS, CYLINDER)
        assert classify_cob(mixed).components == (
            ComponentClass((), (), 1),
            ComponentClass((0,), (0,), 0),
        )

    def test_render_strings(self):
        assert classify_cob(TORUS).render_lines() == ["component(in=[], out=[], genus=1)"]
        assert classify_cob(PANTS).render_lines() == ["component(in=[0, 1], out=[0], genus=0)"]
        mixed = Par(TORUS, CYLINDER)
        assert classify_cob(mixed).render_lines() == [
            "component(in=[], out=[], genus=1)",
            "component(in=[0], out=[0], genus=0)",
        ]

    def test_default_atom_for_empty_terms(self):
        c = classify_cob(Id(ObjectWord(())))
        assert c == CobordismClass("A", ())

    def test_foreign_generators_rejected(self):
        with pytest.raises(ValueError, match="foreign generator"):
            classify_cob(Gen("f"), standard_signature())

    def test_two_atoms_rejected(self):
        with pytest.raises(ValueError, match="single atom"):
            classify_cob(Par(Spider("Z", 1, 1), Spider("W", 1, 1)))


def classify_by_rewriting(term, seed):
    """Components read off the step-by-step rewriter's normal form, which has one spider per piece at most."""
    g = rewrite(to_graph(term, ZSIG), rng=make_rng(seed))
    n_in, n_slots = len(g.input_types), len(g.input_types) + len(g.output_types)
    parent = list(range(n_slots + len(g.nodes)))  # inputs, outputs, then nodes

    def find(x):
        return x if parent[x] == x else find(parent[x])

    at = {"i": 0, "o": n_in, "n": n_slots}
    for a, b in g.wires:
        parent[find(at[a[0]] + a[1])] = find(at[b[0]] + b[1])
    pieces = defaultdict(lambda: ([], [], []))  # inputs, outputs, nodes
    for x in range(len(parent)):
        part = 0 if x < n_in else 1 if x < n_slots else 2
        pieces[find(x)][part].append(x - (0, n_in, n_slots)[part])
    found = [ComponentClass(tuple(i), tuple(o), sum(g.nodes[k].genus for k in ks)) for i, o, ks in pieces.values()]
    found += [ComponentClass((), (), 1)] * len(g.loops)  # a loop of bare wire is a torus
    return tuple(sorted(found, key=lambda c: (c.inputs, c.outputs, c.genus)))


class TestClassifyCrossChecks:
    def test_euler_characteristic_matches_the_rewriter(self):
        for seed in range(320):
            rng = make_rng(seed)
            term = random_cob_term(rng, n_in=rng.randrange(4), n_layers=rng.randint(1, 6))
            assert classify_cob(term, ZSIG).components == classify_by_rewriting(term, seed), seed

    def test_homeomorphic_terms_have_equal_tqft_matrices(self):
        p = xor_frobenius(COMPLEX)
        by_type = defaultdict(list)
        for seed in range(120):
            rng = make_rng(seed)
            term = random_cob_term(rng, n_in=rng.randrange(3), n_layers=rng.randint(1, 3))
            by_type[typecheck(term, ZSIG)].append((term, evaluate_cob(term, p)))
        equal_pairs = 0
        for terms in by_type.values():
            for (t1, m1), (t2, m2) in itertools.combinations(terms, 2):
                if eq_cob(t1, t2):
                    equal_pairs += 1
                    assert m1 == m2
        assert equal_pairs >= 100  # the implication is exercised, not vacuous


class TestHighGenus:
    # results only: 10^4 handles must pass at the default recursion limit
    def test_genus_ten_thousand(self):
        term = closed_surface(10 ** 4)
        assert classify_cob(term, ZSIG).components == (ComponentClass((), (), 10 ** 4),)
        g = to_graph(term, ZSIG)
        assert (fuse(g).nodes, fuse(g).wires) == ((SpiderNode("Z", 0, 10 ** 4),), ())
        assert (fuse(g, special=True).nodes, fuse(g, special=True).wires) == ((SpiderNode("Z", 0, 0),), ())


class TestEqCob:
    def test_handle_differs_from_cylinder(self):
        assert not eq_cob(HANDLE, CYLINDER)

    def test_frobenius_sides_are_homeomorphic(self):
        lhs = Seq(Par(Id(Z), mu("Z")), Par(delta("Z"), Id(Z)))
        mid = Seq(delta("Z"), mu("Z"))
        rhs = Seq(Par(mu("Z"), Id(Z)), Par(Id(Z), delta("Z")))
        assert eq_cob(lhs, mid) and eq_cob(rhs, mid)

    def test_associativity_and_commutativity(self):
        ident = Id(Z)
        left = Seq(mu("Z"), Par(mu("Z"), ident))
        right = Seq(mu("Z"), Par(ident, mu("Z")))
        assert eq_cob(left, right)
        assert eq_cob(Seq(mu("Z"), Swap(Z, Z)), mu("Z"))

    def test_dagger_mirrors_a_spider(self):
        mirrored = [
            (delta("Z"), mu("Z")),
            (eps("Z"), unit("Z")),
            (Cup("Z"), Cap("Z")),
            (Cap("Z"), Cup("Z")),
            (TORUS, TORUS),
        ]
        for t, reversed_ in mirrored:
            assert eq_cob(Dagger(t), reversed_), t

    def test_sphere_is_not_torus(self):
        assert not eq_cob(SPHERE, TORUS)

    def test_boundary_mismatch_raises(self):
        with pytest.raises(TypeMismatch, match="boundary mismatch"):
            eq_cob(delta("Z"), mu("Z"))

    def test_snake_equals_cylinder(self):
        snake = Seq(Par(Cap("Z"), Id(Z)), Par(Id(Z), Cup("Z")))
        assert eq_cob(snake, CYLINDER)

    def test_spider_leg_order_is_irrelevant(self):
        bushy = Seq(Par(delta("Z"), delta("Z")), delta("Z"))
        for seed in range(6):
            rng = make_rng(seed)
            t1 = random_cob_term(rng, n_in=1)
            lhs = Seq(Spider("Z", 4, 0), bushy)
            # permuting the four intermediate wires does not change the class
            perm = Par(Par(Id(Z), Swap(Z, Z)), Id(Z))
            rhs = Seq(Spider("Z", 4, 0), Seq(perm, bushy))
            assert eq_cob(lhs, rhs)
            del t1

    def test_random_self_equality(self):
        for seed in range(15):
            rng = make_rng(seed)
            t = random_cob_term(rng, n_in=rng.randrange(3))
            assert eq_cob(t, t)


W = ObjectWord.of("W")


def generator_signature():
    """The cobordism signature of Z with a generator f : Z -> Z declared."""
    sig = cob_signature("Z")
    sig.declare_generator("f", Z, Z)
    return sig


def plain_w_signature():
    """Z frobenius and self-dual, W declared without frobenius structure."""
    sig = cob_signature("Z")
    sig.declare_object("W")
    return sig


def two_atom_signature():
    sig = Signature()
    sig.declare_object("Z", frobenius=True)
    sig.declare_object("W", frobenius=True)
    return sig


FOREIGN = "unsupported foreign generator 'f' in a cobordism term"
TWO_ATOMS = "expected a single atom, found ['W', 'Z']"
NEGATIVE = "spider leg counts must be nonnegative"
TWO_ATOM_TERM = Par(Spider("Z", 1, 1), Spider("W", 1, 1))


class TestClassifyErrors:
    """Which check of classify_cob and eq_cob fails first, and with what message."""

    @pytest.mark.parametrize(
        "term, sig, error, message",
        [
            (Gen("f"), None, ValueError, FOREIGN),
            (Gen("f"), generator_signature(), ValueError, FOREIGN),
            (TWO_ATOM_TERM, None, ValueError, TWO_ATOMS),
            (TWO_ATOM_TERM, two_atom_signature(), ValueError, TWO_ATOMS),
            (Seq(mu("Z"), Spider("Z", 1, 1)), None, TypeMismatch, "cannot compose: first stage produces Z but second expects Z x Z"),
            (Seq(mu("Z"), Spider("Z", 1, 1)), ZSIG, TypeMismatch, "cannot compose: first stage produces Z but second expects Z x Z"),
            (Spider("W", 1, 1), ZSIG, UnknownName, "unknown object 'W'"),
            (Spider("W", 1, 1), plain_w_signature(), TypeMismatch, "spider legs require a frobenius atom, got 'W'"),
            (Spider("Z", -1, 1), None, TypeMismatch, NEGATIVE),
            (Spider("Z", -1, 1), ZSIG, TypeMismatch, NEGATIVE),
            (42, None, TypeError, "not a diagram term: 42"),
            (42, ZSIG, TypeError, "not a diagram term: 42"),
            ([1, 2], ZSIG, TypeError, "not a diagram term: [1, 2]"),
        ],
    )
    def test_classify_cob(self, term, sig, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            classify_cob(term, sig)

    def test_spider_on_its_own_atom_needs_no_signature(self):
        assert classify_cob(Spider("W", 1, 1)) == CobordismClass("W", (ComponentClass((0,), (0,), 0),))
        assert eq_cob(Spider("W", 1, 1), Id(W))

    @pytest.mark.parametrize(
        "t1, t2, sig, error, message",
        [
            (Gen("f"), CYLINDER, None, ValueError, FOREIGN),
            (CYLINDER, Gen("f"), None, ValueError, FOREIGN),
            (Gen("f"), CYLINDER, ZSIG, UnknownName, "unknown generator 'f'"),
            (Gen("f"), CYLINDER, generator_signature(), ValueError, FOREIGN),
            (TWO_ATOM_TERM, CYLINDER, None, ValueError, TWO_ATOMS),
            (CYLINDER, Id(W), None, ValueError, TWO_ATOMS),
            (TWO_ATOM_TERM, Par(Id(Z), Id(W)), two_atom_signature(), ValueError, TWO_ATOMS),
            (delta("Z"), mu("Z"), None, TypeMismatch, "boundary mismatch: Z -> Z x Z vs Z x Z -> Z"),
            (delta("Z"), mu("Z"), ZSIG, TypeMismatch, "boundary mismatch: Z -> Z x Z vs Z x Z -> Z"),
            # the boundaries are compared before the generator is met
            (Gen("f"), mu("Z"), generator_signature(), TypeMismatch, "boundary mismatch: Z -> Z vs Z x Z -> Z"),
            (Spider("W", 1, 1), Id(W), ZSIG, UnknownName, "unknown object 'W'"),
            (Spider("W", 1, 1), Id(W), plain_w_signature(), TypeMismatch, "spider legs require a frobenius atom, got 'W'"),
            (Spider("Z", -1, 1), CYLINDER, None, TypeMismatch, NEGATIVE),
            (CYLINDER, Spider("Z", -1, 1), ZSIG, TypeMismatch, NEGATIVE),
            (42, CYLINDER, None, TypeError, "not a diagram term: 42"),
            (CYLINDER, 42, ZSIG, TypeError, "not a diagram term: 42"),
        ],
    )
    def test_eq_cob(self, t1, t2, sig, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            eq_cob(t1, t2, sig)

    def test_shared_dag_is_walked_whole(self):
        doubled = HANDLE
        for _ in range(12):
            doubled = Seq(doubled, doubled)  # 4096 handles from 13 distinct nodes
        term = Seq(eps("Z"), Seq(doubled, unit("Z")))
        assert classify_cob(term, ZSIG).components == (ComponentClass((), (), 4096),)
        assert eq_cob(term, closed_surface(4096))
        assert not eq_cob(term, closed_surface(4095), ZSIG)

    def test_classification_builds_no_port_graph(self, monkeypatch):
        import catkit.diagram.graphs as graphs
        import catkit.frobenius as frobenius

        def boom(*args, **kwargs):
            raise AssertionError("classification built a port graph")

        monkeypatch.setattr(graphs, "to_graph", boom)
        monkeypatch.setattr(frobenius, "to_graph", boom, raising=False)
        for name in ("_fusion", "OpenGraph"):
            monkeypatch.setattr(frobenius, name, boom)
        assert classify_cob(TORUS, ZSIG).components == (ComponentClass((), (), 1),)
        assert classify_cob(Seq(Cap("Z"), Cup("Z"))).components == (ComponentClass((), (), 1),)
        assert eq_cob(Seq(Par(Cap("Z"), Id(Z)), Par(Id(Z), Cup("Z"))), CYLINDER)
        assert not eq_cob(HANDLE, CYLINDER, ZSIG)


def deep_torus(n_stages, nest):
    """A torus whose two tubes pass through n_stages stages in one >> chain.

    nest="before" nests the chain as the parser does (a >> b >> c is
    Seq(c, Seq(b, a))); nest="after" nests it the other way round.
    """
    snake = Seq(Par(Cap("Z"), Id(Z)), Par(Id(Z), Cup("Z")))
    pieces = [Swap(Z, Z), Dagger(Swap(Z, Z)), Par(Id(Z), snake), Dagger(Par(snake, Id(Z)))]
    stages = [Spider("Z", 0, 2)] + [pieces[k % 4] for k in range(n_stages)] + [Spider("Z", 2, 0)]
    if nest == "before":
        term = stages[0]
        for stage in stages[1:]:
            term = Seq(stage, term)
    else:
        term = stages[-1]
        for stage in reversed(stages[:-1]):
            term = Seq(term, stage)
    return term


class TestDeepTerms:
    # no term layer may recurse on depth: 10^4 stages is ten times the default recursion limit

    @pytest.mark.parametrize("nest", ["before", "after"])
    def test_long_chain_runs_through_every_term_layer(self, nest):
        term = deep_torus(10 ** 4, nest)
        torus = CobordismClass("Z", (ComponentClass((), (), 1),))
        interp = Interpretation(COMPLEX, {"Z": 2}, frobenius_data={"Z": basis_frobenius(2)}, signature=ZSIG)
        assert typecheck(term, ZSIG) == (ObjectWord(), ObjectWord())
        g = to_graph(term, ZSIG)
        assert (len(g.nodes), len(g.wires), g.loops) == (2, 2, ())
        assert interpret(term, interp) == MatrixMorphism(COMPLEX, [[2]])
        assert classify_cob(term, ZSIG) == torus
        assert classify_cob(Dagger(term), ZSIG) == torus
        assert evaluate_cob(Dagger(term), basis_frobenius(2)) == MatrixMorphism(COMPLEX, [[2]])
