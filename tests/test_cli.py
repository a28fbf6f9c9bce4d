"""End-to-end command tests with golden output."""

import json
import os
import subprocess
import sys
import warnings

import pytest

import catkit
from catkit.cli import main
from helpers import run_capped

SURFACES = """
object Z frobenius selfdual;
diag straight = id(Z);
diag snake = (id(Z) x cup(Z)) >> (cap(Z) x id(Z));
diag loop = cup(Z) >> cap(Z);
diag torus = spider(Z, 0, 1) >> spider(Z, 1, 2) >> spider(Z, 2, 1) >> spider(Z, 1, 0);
diag handle = spider(Z, 1, 2) >> spider(Z, 2, 1);
diag double = dg(dg(snake));
"""

BOXES = """
gen f : A -> B;
gen g : B -> C;
gen h : P -> Q;
gen k : Q -> P;
diag stacked = (f x h) >> (g x k);
diag sliced = (f >> g) x (h >> k);
"""

RELATIONS = """
gen R : A -> B;
gen Rp : B -> C;
diag roundtrip = R >> Rp;
"""

REL_INTERP = {
    "semiring": "bool",
    "objects": {"A": ["a1", "a2"], "B": ["b1", "b2"], "C": ["c1", "c2", "c3"]},
    "generators": {
        "R": {"rel": [["a1", "b1"], ["a2", "b1"], ["a1", "b2"]]},
        "Rp": {"rel": [["b1", "c1"], ["b1", "c2"], ["b2", "c2"], ["b2", "c3"]]},
    },
}

# building R's matrix needs A's dimension, so a bad one must be rejected before it
ONE_PAIR_EACH = {"R": {"rel": [[0, 0]]}, "Rp": {"rel": [[0, 0]]}}

DIM3 = {"semiring": "complex", "objects": {"Z": 3}, "frobenius": {"Z": "basis"}}

# the presentation of TestLaws.test_nan_deviation_is_a_failure: delta . delta
# overflows to inf, and inf - inf makes a deviation nan
OVERFLOWING = {
    "semiring": "complex",
    "objects": {"Z": 2},
    "frobenius": {
        "Z": {
            "delta": [[1e200, 0], [0, 0], [0, 0], [0, 1]],
            "eps": [[1e-200, 1]],
            "mu": [[1e-200, 0, 0, 0], [0, 0, 0, 1]],
            "e": [[1e200], [1]],
        }
    },
}


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in [("surfaces.cat", SURFACES), ("boxes.cat", BOXES), ("rel.cat", RELATIONS)]:
        p = tmp_path / name
        p.write_text(text)
        paths[name] = str(p)
    for name, data in [("rel.json", REL_INTERP), ("dim3.json", DIM3)]:
        p = tmp_path / name
        p.write_text(json.dumps(data))
        paths[name] = str(p)
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_prints_each_type(self, files, capsys):
        code, out, _ = run(capsys, "check", files["surfaces.cat"])
        assert code == 0
        lines = out.splitlines()
        assert "straight : Z -> Z" in lines
        assert "snake : Z -> Z" in lines
        assert "loop : I -> I" in lines
        assert "torus : I -> I" in lines

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "check", "/nonexistent/thing.cat")
        assert code == 2
        assert err.startswith("error:")

    def test_parse_error_has_position(self, tmp_path, capsys):
        bad = tmp_path / "broken.cat"
        bad.write_text("diag broken = id(A >> ;\n")
        code, _, err = run(capsys, "check", str(bad))
        assert code == 2
        assert f"{bad}:1:" in err

    def test_non_decimal_leg_count_is_positioned(self, tmp_path, capsys):
        bad = tmp_path / "legs.cat"
        bad.write_text("object Z frobenius;\ndiag s = spider(Z, \u00b2, 1);\n")
        code, _, err = run(capsys, "check", str(bad))
        assert (code, err) == (2, f"{bad}:2:20: expected a leg count, found '\u00b2'\n")

    def test_type_error_names_both_words(self, tmp_path, capsys):
        bad = tmp_path / "bad.cat"
        bad.write_text("gen f : A -> B;\ndiag w = f >> f;\n")
        code, _, err = run(capsys, "check", str(bad))
        assert code == 1
        assert "B" in err and "A" in err

    def test_type_error_names_file_and_diagram(self, tmp_path, capsys):
        p = tmp_path / "e.cat"
        p.write_text("gen f : A -> B;\ndiag d = f;\ndiag e = d >> d;\n")
        code, out, err = run(capsys, "check", str(p))
        assert (code, out) == (1, "d : A -> B\n")
        assert err == f"error: {p}: diagram 'e': cannot compose: first stage produces B but second expects A\n"

    @pytest.mark.parametrize(
        "source, col", [("name(f x f)", 3), ("dg(f) >> coname(f x f)", 12)], ids=["name", "coname"]
    )
    def test_derived_form_type_error_is_positioned(self, tmp_path, capsys, source, col):
        p = tmp_path / "n.cat"
        p.write_text(f"gen f : A x A -> A;\ndiag d =\n  {source};\n")
        code, out, err = run(capsys, "check", str(p))
        assert (code, out) == (1, "")
        assert err == (
            f"error: {p}:3:{col}: transpose, name, and coname support terms typed between "
            "single atoms, got A x A x A x A -> A x A\n"
        )


class TestEq:
    def test_interchange_sides_are_equal(self, files, capsys):
        code, out, _ = run(capsys, "eq", files["boxes.cat"], "stacked", "sliced")
        assert (code, out.strip()) == (0, "equal")

    def test_double_dagger_collapses(self, files, capsys):
        code, out, _ = run(capsys, "eq", files["surfaces.cat"], "double", "snake")
        assert (code, out.strip()) == (0, "equal")

    def test_handle_vs_wire_needs_speciality(self, files, capsys):
        code, out, _ = run(
            capsys, "eq", files["surfaces.cat"], "handle", "straight", "--frobenius"
        )
        assert (code, out.strip()) == (1, "not equal")
        code, out, _ = run(
            capsys,
            "eq",
            files["surfaces.cat"],
            "handle",
            "straight",
            "--frobenius",
            "--special",
        )
        assert (code, out.strip()) == (0, "equal")

    def test_special_alone_fuses(self, files, capsys):
        code, out, _ = run(capsys, "eq", files["surfaces.cat"], "handle", "straight", "--special")
        assert (code, out) == (0, "equal\n")

    def test_unknown_name(self, files, capsys):
        code, _, err = run(capsys, "eq", files["surfaces.cat"], "snake", "nosuch")
        assert code == 1
        assert "nosuch" in err


    def test_fusion_keeps_box_port_order(self, tmp_path, capsys):
        p = tmp_path / "m.cat"
        p.write_text("gen m : A x A -> A;\ndiag plain = m;\ndiag swapped = swap(A, A) >> m;\n")
        code, out, _ = run(capsys, "eq", str(p), "plain", "swapped", "--frobenius")
        assert (code, out.strip()) == (1, "not equal")

    def test_spider_over_a_plain_object_is_one_error_line(self, tmp_path, capsys):
        p = tmp_path / "plain.cat"
        p.write_text("object W;\ndiag s = spider(W, 1, 1);\ndiag w = id(W);\n")
        code, out, err = run(capsys, "eq", str(p), "s", "w", "--frobenius")
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1
        assert "spider legs require a frobenius atom" in err

    def test_type_error_names_file_and_diagram(self, tmp_path, capsys):
        p = tmp_path / "plain.cat"
        p.write_text("object W;\ndiag w = id(W);\ndiag s = spider(W, 1, 1);\n")
        code, out, err = run(capsys, "eq", str(p), "w", "s")
        assert (code, out) == (1, "")
        assert err == f"error: {p}: diagram 's': spider legs require a frobenius atom, got 'W'\n"


LOOPS = """
object Z frobenius selfdual;
object W selfdual;
diag loop = cup(Z) >> cap(Z);
diag torus = spider(Z, 0, 1) >> spider(Z, 1, 2) >> spider(Z, 2, 1) >> spider(Z, 1, 0);
diag sphere = spider(Z, 0, 1) >> spider(Z, 1, 0);
diag wloop = cup(W) >> cap(W);
diag wloop2 = dg(cup(W) >> cap(W));
"""

BARE_LOOP_CASES = [
    (["eq", "loop", "torus", "--frobenius"], 0, "equal\n"),
    (["eq", "loop", "sphere", "--frobenius"], 1, "not equal\n"),
    (["eq", "loop", "sphere", "--frobenius", "--special"], 0, "equal\n"),
    (["eq", "torus", "sphere", "--frobenius", "--special"], 0, "equal\n"),
    (["classify", "loop"], 0, "component(in=[], out=[], genus=1)\n"),
    (["classify", "torus"], 0, "component(in=[], out=[], genus=1)\n"),
    (["eval", "loop", "--interp"], 0, "3\n"),
    (["eval", "torus", "--interp"], 0, "3\n"),
    # a loop on an atom without Frobenius structure stays a loop
    (["eq", "wloop", "wloop2", "--frobenius"], 0, "equal\n"),
    (["eq", "wloop", "loop", "--frobenius"], 1, "not equal\n"),
    (["eq", "wloop", "sphere", "--frobenius", "--special"], 1, "not equal\n"),
]


class TestBareLoop:
    """A closed loop of bare wire on a Frobenius atom is a torus to every command."""

    @pytest.mark.parametrize("argv, code, want", BARE_LOOP_CASES, ids=[" ".join(c[0]) for c in BARE_LOOP_CASES])
    def test_whole_stdout(self, tmp_path, capsys, files, argv, code, want):
        p = tmp_path / "loops.cat"
        p.write_text(LOOPS)
        argv = argv[:1] + [str(p)] + argv[1:] + ([files["dim3.json"]] if argv[-1] == "--interp" else [])
        assert run(capsys, *argv) == (code, want, "")


class TestEval:
    def test_snake_is_identity(self, files, capsys):
        code, out, _ = run(
            capsys, "eval", files["surfaces.cat"], "snake", "--interp", files["dim3.json"]
        )
        assert code == 0
        assert out.strip() == "[[1, 0, 0], [0, 1, 0], [0, 0, 1]]"

    def test_loop_prints_bare_dimension(self, files, capsys):
        code, out, _ = run(
            capsys, "eval", files["surfaces.cat"], "loop", "--interp", files["dim3.json"]
        )
        assert (code, out.strip()) == (0, "3")

    def test_relation_matrix_and_pairs(self, files, capsys):
        code, out, _ = run(
            capsys, "eval", files["rel.cat"], "roundtrip", "--interp", files["rel.json"]
        )
        assert code == 0
        matrix_line, pair_line = out.strip().splitlines()
        assert matrix_line == "[[1, 1], [1, 1], [1, 0]]"
        assert pair_line == "{(a1, c1), (a1, c2), (a1, c3), (a2, c1), (a2, c2)}"

    def test_pair_list_reads_the_words_interpret_typed(self, files, tmp_path, capsys, monkeypatch):
        # the pair list is labelled from interpret's own walk, with no second typecheck
        import catkit.diagram.terms

        def refuse(*args):
            raise AssertionError("eval typed the diagram twice")

        # the commands import typecheck from its home when they run
        monkeypatch.setattr(catkit.diagram.terms, "typecheck", refuse)
        (tmp_path / "rel.cat").write_text(RELATIONS + "diag back = dg(roundtrip);\n")
        code, out, _ = run(capsys, "eval", str(tmp_path / "rel.cat"), "back", "--interp", files["rel.json"])
        assert code == 0
        assert out.strip().splitlines()[1] == "{(c1, a1), (c1, a2), (c2, a1), (c2, a2), (c3, a1)}"

    def test_complex_entry_formats(self, tmp_path, capsys):
        (tmp_path / "s.cat").write_text("gen s : I -> I;\ndiag it = s;\n")
        (tmp_path / "s.json").write_text(
            json.dumps({"semiring": "complex", "objects": {}, "generators": {"s": [[[0, 1]]]}})
        )
        code, out, _ = run(
            capsys, "eval", str(tmp_path / "s.cat"), "it", "--interp", str(tmp_path / "s.json")
        )
        assert (code, out.strip()) == (0, "0+1j")

    def test_invalid_json_is_an_io_error(self, files, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run(capsys, "eval", files["surfaces.cat"], "snake", "--interp", str(bad))
        assert code == 2
        assert "invalid JSON" in err

    @pytest.mark.parametrize("semiring", ["complex", "nat"])
    def test_wide_basis_spider_pair_is_the_dimension(self, tmp_path, capsys, semiring):
        # one closed piece of 30 legs a side; as dense tensors it would need 3^30 entries
        (tmp_path / "p.cat").write_text("object Z frobenius selfdual;\ndiag p = spider(Z, 0, 30) >> spider(Z, 30, 0);\n")
        (tmp_path / "d.json").write_text(
            json.dumps({"semiring": semiring, "objects": {"Z": 3}, "frobenius": {"Z": "basis"}})
        )
        code, out, err = run(capsys, "eval", str(tmp_path / "p.cat"), "p", "--interp", str(tmp_path / "d.json"))
        assert (code, out.strip(), err) == (0, "3", "")

    def test_two_closed_loops_over_nat(self, tmp_path, capsys):
        (tmp_path / "l.cat").write_text("object Z frobenius selfdual;\ndiag two = (cup(Z) >> cap(Z)) x (cup(Z) >> cap(Z));\n")
        (tmp_path / "n.json").write_text(json.dumps({"semiring": "nat", "objects": {"Z": 3}, "frobenius": {"Z": "basis"}}))
        code, out, err = run(capsys, "eval", str(tmp_path / "l.cat"), "two", "--interp", str(tmp_path / "n.json"))
        assert (code, out.strip(), err) == (0, "9", "")

    def test_complex_overflow_is_one_error_line(self, tmp_path, capsys):
        # xor gives 2^1100 on this closed surface, past the float range
        handles = " >> ".join(["spider(Z, 1, 2) >> spider(Z, 2, 1)"] * 1100)
        (tmp_path / "g.cat").write_text(
            f"object Z frobenius selfdual;\ndiag g = spider(Z, 0, 1) >> {handles} >> spider(Z, 1, 0);\n"
        )
        xor = {"delta": [[1, 0], [0, 1], [0, 1], [1, 0]], "eps": [[1, 0]], "mu": [[1, 0, 0, 1], [0, 1, 1, 0]], "e": [[1], [0]]}
        (tmp_path / "xor.json").write_text(
            json.dumps({"semiring": "complex", "objects": {"Z": 2}, "frobenius": {"Z": xor}})
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, "eval", str(tmp_path / "g.cat"), "g", "--interp", str(tmp_path / "xor.json"))
        assert (code, out, caught) == (1, "", [])
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ") and "inf or nan" in err

    def test_an_oversized_result_is_one_error_line(self, tmp_path):
        # a 3^22-entry column, past the contraction budget; the child's 3 GiB cap makes a
        # regression fail there instead of exhausting the machine
        (tmp_path / "s.cat").write_text("object Z frobenius selfdual;\ndiag s = spider(Z, 0, 22);\n")
        (tmp_path / "d.json").write_text(json.dumps({"semiring": "complex", "objects": {"Z": 3}, "frobenius": {"Z": "basis"}}))
        argv = ["eval", str(tmp_path / "s.cat"), "s", "--interp", str(tmp_path / "d.json")]
        proc = run_capped("import sys\nfrom catkit.cli import main\nsys.exit(main(sys.argv[1:]))", *argv)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == f"error: {tmp_path / 's.cat'}: diagram 's': term too large for eval\n"

    def test_complex_overflow_names_file_and_diagram(self, tmp_path, capsys):
        handles = " >> ".join(["spider(Z, 1, 2) >> spider(Z, 2, 1)"] * 1100)
        p = tmp_path / "g.cat"
        p.write_text(f"object Z frobenius selfdual;\ndiag g = spider(Z, 0, 1) >> {handles} >> spider(Z, 1, 0);\n")
        xor = {"delta": [[1, 0], [0, 1], [0, 1], [1, 0]], "eps": [[1, 0]], "mu": [[1, 0, 0, 1], [0, 1, 1, 0]], "e": [[1], [0]]}
        (tmp_path / "xor.json").write_text(json.dumps({"semiring": "complex", "objects": {"Z": 2}, "frobenius": {"Z": xor}}))
        code, out, err = run(capsys, "eval", str(p), "g", "--interp", str(tmp_path / "xor.json"))
        assert (code, out) == (1, "")
        assert err == f"error: {p}: diagram 'g': complex contraction overflowed: the result has inf or nan entries\n"

    @pytest.mark.parametrize(
        "data, where",
        [
            ({"generators": {"s": [[1, 0], [0]]}}, "generators.s: ragged or mis-sized rows"),
            ({"frobenius": {"Z": {"delta": [[1]], "mu": [[1]], "e": [[1]]}}}, "frobenius.Z: missing eps"),
            (
                {"frobenius": {"Z": {"delta": [[1, 0]], "eps": [[1, 1]], "mu": [[1, 0]], "e": [[1], [1]]}}},
                "frobenius.Z: delta must be 4x2",
            ),
            (
                {"frobenius": {"Z": {"delta": [[1, 0], [0, 0], [0, 0], [0, 1]], "eps": [[1, 1]],
                                     "mu": [[1, 0, 0, 0], [0, 0, 0, 1]], "e": [[1, 1]]}}},
                "frobenius.Z: e must be 2x1 for dimension 2, got 1x2",
            ),
            # python's json writes and reads Infinity and NaN
            ({"generators": {"s": [[float("inf")]]}}, "generators.s: entries must be finite, got (inf+0j)"),
            ({"generators": {"s": [[float("nan")]]}}, "generators.s: entries must be finite, got (nan+0j)"),
            ({"generators": {"s": [[[0, float("-inf")]]]}}, "generators.s: entries must be finite, got -infj"),
        ],
        ids=["ragged-rows", "missing-key", "mis-sized-presentation", "mis-sized-unit", "infinity", "nan", "infinite-pair"],
    )
    def test_bad_interpretation_data_names_the_key(self, files, tmp_path, capsys, data, where):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"semiring": "complex", "objects": {"Z": 2}, **data}))
        code, _, err = run(capsys, "eval", files["surfaces.cat"], "snake", "--interp", str(bad))
        assert code == 1
        assert err.startswith(f"error: {bad}: {where}")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "objects, rel, where",
        [
            ({"A": 2, "C": 3}, [[0, 0]], "generators.R: atom 'B' has no declared dimension"),
            (
                {"A": 2, "B": 2, "C": 3},
                [[5, 0]],
                "generators.R: element 5 out of range for atom 'A' (dimension 2)",
            ),
            (
                {"A": 2, "B": 2, "C": 3},
                [[-1, 0]],
                "generators.R: element -1 out of range for atom 'A' (dimension 2)",
            ),
            ({"A": 2, "B": 2, "C": 3}, [[0]], "generators.R: [0] is not an [x, y] pair"),
        ],
        ids=["undeclared-atom", "index-past-end", "negative-index", "not-a-pair"],
    )
    def test_bad_pair_list_names_the_key(self, files, tmp_path, capsys, objects, rel, where):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps({"semiring": "bool", "objects": objects, "generators": {"R": {"rel": rel}}})
        )
        code, _, err = run(capsys, "eval", files["rel.cat"], "roundtrip", "--interp", str(bad))
        assert code == 1
        assert err.splitlines() == [f"error: {bad}: {where}"]

    @pytest.mark.parametrize(
        "data, where",
        [
            ([1, 2], "interpretation: must be a JSON object"),
            ({"semiring": "bool", "objects": "x"}, "objects: must be a JSON object"),
            ({"semiring": "bool", "generators": ["R"]}, "generators: must be a JSON object"),
            ({"semiring": "bool", "frobenius": ["A"]}, "frobenius: must be a JSON object"),
            (
                {"semiring": "bool", "objects": {"A": 2, "B": 2, "C": 3}, "generators": {"R": {"rel": 5}}},
                "generators.R.rel: must be a list of [x, y] pairs",
            ),
            (
                {"semiring": "bool", "objects": {"A": True, "B": 2, "C": 3}, "generators": ONE_PAIR_EACH},
                "objects.A: needs a dimension >= 0 or distinct element names, got True",
            ),
            (
                {"semiring": "bool", "objects": {"A": -1, "B": 2, "C": 3}, "generators": ONE_PAIR_EACH},
                "objects.A: needs a dimension >= 0 or distinct element names, got -1",
            ),
            (
                {"semiring": "bool", "objects": {"A": ["x", "x"], "B": 2, "C": 3}, "generators": ONE_PAIR_EACH},
                "objects.A: needs a dimension >= 0 or distinct element names, got ['x', 'x']",
            ),
        ],
        ids=[
            "top-level-list",
            "objects-string",
            "generators-list",
            "frobenius-list",
            "rel-number",
            "objects-bool",
            "objects-negative",
            "objects-repeated-name",
        ],
    )
    def test_bad_section_type_names_the_key(self, files, tmp_path, capsys, data, where):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        code, _, err = run(capsys, "eval", files["rel.cat"], "roundtrip", "--interp", str(bad))
        assert code == 1
        assert err.splitlines() == [f"error: {bad}: {where}"]

    def test_unassigned_generator_names_file_and_diagram(self, tmp_path, capsys):
        p = tmp_path / "f.cat"
        p.write_text("gen f : A -> A;\ndiag d = f >> f;\n")
        interp = tmp_path / "a.json"
        interp.write_text(json.dumps({"semiring": "complex", "objects": {"A": 2}}))
        code, out, err = run(capsys, "eval", str(p), "d", "--interp", str(interp))
        assert (code, out) == (1, "")
        assert err == f"error: {p}: diagram 'd': no matrix assigned to generator 'f'\n"

    def test_matrix_on_an_atom_with_no_dimension_names_the_json_file(self, tmp_path, capsys):
        # the interpretation fails as it is read, before any diagram, so its file is named
        p = tmp_path / "a.cat"
        p.write_text("gen f : A -> A;\ndiag d = f;\n")
        nodim = tmp_path / "nodim.json"
        nodim.write_text(json.dumps({"semiring": "complex", "objects": {}, "generators": {"f": [[1]]}}))
        code, out, err = run(capsys, "eval", str(p), "d", "--interp", str(nodim))
        assert (code, out) == (1, "")
        assert err == f"error: {nodim}: no dimension declared for atom 'A'\n"

    def test_missing_interp_flag_is_a_usage_error(self, files, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", files["surfaces.cat"], "snake"])
        assert exc.value.code == 2

    def test_tolerance_is_not_an_eval_option(self, files, capsys):
        # eval prints its matrix as it is; no tolerance changes that
        with pytest.raises(SystemExit) as exc:
            main(["eval", files["surfaces.cat"], "snake", "--interp", files["dim3.json"], "--tol", "0.5"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == "catkit: error: unrecognized arguments: --tol 0.5"

    def test_unit_domain_is_labelled_i(self, tmp_path, capsys):
        p = tmp_path / "state.cat"
        p.write_text("diag state = cup(A);\n")
        interp = tmp_path / "a.json"
        interp.write_text(json.dumps({"semiring": "bool", "objects": {"A": ["a1", "a2"]}}))
        code, out, _ = run(capsys, "eval", str(p), "state", "--interp", str(interp))
        assert (code, out) == (0, "[[1], [0], [0], [1]]\n{(I, a1.a1), (I, a2.a2)}\n")


class TestClassify:
    def test_torus(self, files, capsys):
        code, out, _ = run(capsys, "classify", files["surfaces.cat"], "torus")
        assert (code, out.strip()) == (0, "component(in=[], out=[], genus=1)")

    def test_double_twist(self, tmp_path, capsys):
        p = tmp_path / "twist.cat"
        p.write_text(
            "object Z frobenius selfdual;\n"
            "diag twist2 = swap(Z, Z) >> swap(Z, Z);\n"
        )
        code, out, _ = run(capsys, "classify", str(p), "twist2")
        assert code == 0
        assert out.splitlines() == [
            "component(in=[0], out=[0], genus=0)",
            "component(in=[1], out=[1], genus=0)",
        ]

    def test_foreign_generator_is_semantic_failure(self, files, capsys):
        code, _, err = run(capsys, "classify", files["boxes.cat"], "stacked")
        assert code == 1
        assert err == f"error: {files['boxes.cat']}: diagram 'stacked': unsupported foreign generator 'f' in a cobordism term\n"

    def test_foreign_generator_names_file_and_diagram(self, tmp_path, capsys):
        # f types as a box of the signature, so the walk meets it after typing it
        p = tmp_path / "boxed.cat"
        p.write_text("object Z frobenius selfdual;\ngen f : Z -> Z;\ndiag b = spider(Z, 0, 1) >> f >> spider(Z, 1, 0);\n")
        code, out, err = run(capsys, "classify", str(p), "b")
        assert (code, out) == (1, "")
        assert err == f"error: {p}: diagram 'b': unsupported foreign generator 'f' in a cobordism term\n"

    def test_spider_on_a_plain_atom_names_file_and_diagram(self, tmp_path, capsys):
        p = tmp_path / "plain.cat"
        p.write_text("object W;\ndiag s = spider(W, 1, 1);\n")
        code, out, err = run(capsys, "classify", str(p), "s")
        assert (code, out) == (1, "")
        assert err == f"error: {p}: diagram 's': spider legs require a frobenius atom, got 'W'\n"


# 600 handles in one flat chain: 1202 sequential stages
DEEP_SURFACE = (
    "object Z frobenius selfdual;\ndiag deep = spider(Z, 0, 1) >> "
    + " >> ".join(["spider(Z, 1, 2) >> spider(Z, 2, 1)"] * 600)
    + " >> spider(Z, 1, 0);\n"
)
# one 500-box chain written flat and in parenthesised pairs
DEEP_CHAINS = (
    "gen f : A -> B;\ngen g : B -> A;\n"
    f"diag flat = {' >> '.join(['f >> g'] * 250)};\n"
    f"diag paired = {' >> '.join(['(f >> g)'] * 250)};\n"
)


class TestDeepTerms:
    @pytest.mark.parametrize(
        "source, argv, expected",
        [
            (DEEP_SURFACE, ["check"], "deep : I -> I"),
            (DEEP_SURFACE, ["classify", "deep"], "component(in=[], out=[], genus=600)"),
            (DEEP_CHAINS, ["eq", "flat", "paired"], "equal"),
        ],
        ids=["check", "classify", "eq"],
    )
    def test_deep_chain_is_not_a_traceback(self, tmp_path, capsys, source, argv, expected):
        p = tmp_path / "deep.cat"
        p.write_text(source)
        code, out, err = run(capsys, argv[0], str(p), *argv[1:])
        assert (code, out.splitlines(), err) == (0, [expected], "")

    def test_ten_thousand_nested_brackets_check(self, tmp_path, capsys):
        n = 10**4
        p = tmp_path / "nested.cat"
        p.write_text(
            "gen f : A -> B;\n"
            f"diag parens = {'(' * n}f{')' * n};\n"
            f"diag daggers = {'dg(' * (n + 1)}f{')' * (n + 1)};\n"
        )
        code, out, err = run(capsys, "check", str(p))
        assert (code, out.splitlines(), err) == (0, ["parens : A -> B", "daggers : B -> A"], "")

    @pytest.mark.parametrize("argv", [["check"], ["classify", "big"], ["eq", "big", "big"]])
    def test_leg_count_past_an_index_is_not_a_traceback(self, tmp_path, capsys, argv):
        # past sys.maxsize, so the count is refused before anything is allocated
        p = tmp_path / "big.cat"
        p.write_text("object Z frobenius selfdual;\ndiag big = spider(Z, 99999999999999999999, 0);\n")
        code, out, err = run(capsys, argv[0], str(p), *argv[1:])
        assert (code, out, err) == (1, "", f"error: {p}: diagram 'big': term too large for {argv[0]}\n")

    @pytest.mark.parametrize(
        "error, where, what",
        [(RecursionError, "typecheck", "nested too deeply"), (MemoryError, "typecheck", "too large"),
         (RecursionError, "parse", "nested too deeply"), (OverflowError, "parse", "too large")],
    )
    def test_size_and_depth_failures_name_their_diagram(self, tmp_path, capsys, monkeypatch, error, where, what):
        # inside a named diagram the line names it; outside one it names the file only
        def fail(*args):
            raise error()

        p = tmp_path / "boxes.cat"
        p.write_text(BOXES)
        # the commands import each function from its home when they run
        home = {"typecheck": "catkit.diagram.terms", "parse": "catkit.diagram.parser"}[where]
        monkeypatch.setattr(f"{home}.{where}", fail)
        code, out, err = run(capsys, "check", str(p))
        place = f"{p}: diagram 'stacked'" if where == "typecheck" else f"{p}"
        assert (code, out, err) == (1, "", f"error: {place}: term {what} for check\n")


class TestLaws:
    def test_default_battery_passes(self, capsys):
        code, out, _ = run(capsys, "laws", "--seed", "3")
        assert code == 0
        assert "all laws as expected" in out
        assert "pentagon" in out
        assert "seed=3" in out
        assert "fail (expected)" in out  # negative suite is part of the battery

    def test_plain_battery_passes(self, capsys):
        code, out, _ = run(capsys, "laws")
        assert (code, out.splitlines()[-1]) == (0, "all laws as expected")

    def test_zero_tolerance_without_interpretation(self, capsys):
        # rounding leaves a few complex laws 1e-16 off, as with --interp at --tol 0
        code, out, _ = run(capsys, "laws", "--tol", "0")
        assert (code, out.splitlines()[-1]) == (1, "4 law(s) came out wrong")

    @pytest.mark.parametrize("command", ["laws"])
    @pytest.mark.parametrize("tol", ["-1", "nan", "inf", "x"])
    def test_bad_tolerance_is_a_usage_error(self, capsys, command, tol):
        with pytest.raises(SystemExit) as exc:
            main([command, f"--tol={tol}"])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert err.splitlines()[-1] == f"catkit {command}: error: argument --tol: must be a finite number >= 0, got {tol!r}"

    def test_interpretation_that_is_not_an_object(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2]")
        code, _, err = run(capsys, "laws", "--interp", str(bad))
        assert code == 1
        assert err.splitlines() == [f"error: {bad}: interpretation: must be a JSON object"]

    def test_battery_with_interpretation(self, files, capsys):
        code, out, _ = run(capsys, "laws", "--interp", files["rel.json"])
        assert code == 0
        assert "all laws as expected" in out

    def test_nan_deviation_is_a_failure(self, tmp_path, capsys):
        # delta . delta overflows: inf - inf and inf * 0 make the coassociativity
        # deviation nan, which must fail the law, not pass it
        data = {
            "semiring": "complex",
            "objects": {"Z": 2},
            "frobenius": {
                "Z": {
                    "delta": [[1e200, 0], [0, 0], [0, 0], [0, 1]],
                    "eps": [[1e-200, 1]],
                    "mu": [[1e-200, 0, 0, 0], [0, 0, 0, 1]],
                    "e": [[1e200], [1]],
                }
            },
        }
        huge = tmp_path / "huge.json"
        huge.write_text(json.dumps(data))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # numpy's overflow warnings go to stderr
            code, out, _ = run(capsys, "laws", "--interp", str(huge))
        assert code == 1
        failed = [line.split() for line in out.splitlines() if "FAIL" in line]
        assert failed == [["coassociativity", "FAIL", "deviation=nan"]]
        assert out.splitlines()[-1] == "1 law(s) came out wrong"

    def test_invalid_json_is_an_io_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, out, err = run(capsys, "laws", "--interp", str(bad))
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: {bad}: invalid JSON: ")

    def test_missing_interpretation_file(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        code, out, err = run(capsys, "laws", "--interp", str(missing))
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: cannot read {missing}: ")

    def test_overflowing_data_issues_no_warning(self, tmp_path, capsys):
        huge = tmp_path / "huge.json"
        huge.write_text(json.dumps(OVERFLOWING))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, "laws", "--interp", str(huge))
        assert (code, caught, err) == (1, [], "")
        assert out.splitlines()[-1] == "1 law(s) came out wrong"

    @pytest.mark.parametrize("semiring", ["bool", "nat"])
    @pytest.mark.parametrize("command", ["laws"])
    def test_tolerance_on_an_exact_semiring_is_one_error_line(self, tmp_path, capsys, command, semiring):
        exact = tmp_path / "exact.json"
        exact.write_text(json.dumps({"semiring": semiring, "objects": {"Z": 2}}))
        code, out, err = run(capsys, command, "--interp", str(exact), "--tol", "0.5")
        assert (code, out) == (1, "")
        assert err.splitlines() == [
            f"error: {exact}: a tolerance applies only to the complex semiring, not {semiring!r}"
        ]
        # without --tol the same data runs
        assert run(capsys, command, "--interp", str(exact))[0] == 0

    @pytest.mark.parametrize("command", ["laws", "eval"])
    def test_unknown_semiring_is_one_error_line(self, files, tmp_path, capsys, command):
        bad = tmp_path / "real.json"
        bad.write_text(json.dumps({"semiring": "real", "objects": {"Z": 2}}))
        argv = ["laws"] if command == "laws" else ["eval", files["surfaces.cat"], "snake"]
        code, out, err = run(capsys, *argv, "--interp", str(bad))
        assert (code, out) == (1, "")
        assert err.splitlines() == [
            f"error: {bad}: unknown semiring 'real'; expected bool, complex, or nat"
        ]


class TestUnreadableInput:
    """A file that is not UTF-8, or JSON nested past the parser's recursion
    limit, is an I/O error that names the file it came from."""

    @pytest.mark.parametrize(
        "argv, bad, content, reason",
        [
            (["check", "BAD"], "bad.cat", b"object Z;\xff\n", "'utf-8' codec can't decode byte 0xff in position 9"),
            (["eval", "CAT", "snake", "--interp", "BAD"], "bad.json", b"\xff", "'utf-8' codec can't decode byte 0xff"),
            (["eval", "CAT", "snake", "--interp", "BAD"], "bad.json", b"[" * 10**5, "invalid JSON: "),
            (["laws", "--interp", "BAD"], "bad.json", b"\xff", "'utf-8' codec can't decode byte 0xff"),
            (["laws", "--interp", "BAD"], "bad.json", b"[" * 10**5, "invalid JSON: "),
        ],
        ids=["check-cat", "eval-interp", "eval-deep-interp", "laws-interp", "laws-deep-interp"],
    )
    def test_is_one_io_error_line_naming_the_file(self, files, tmp_path, capsys, argv, bad, content, reason):
        path = tmp_path / bad
        path.write_bytes(content)
        argv = [{"BAD": str(path), "CAT": files["surfaces.cat"]}.get(arg, arg) for arg in argv]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: {path}: {reason}")


# the standard modules the symbolic commands do without; dataclasses imports inspect
NOT_SYMBOLIC = ("dataclasses", "inspect", "json")
LOADED = 'print(" ".join(m for m in %r if m in sys.modules))' % (NOT_SYMBOLIC,)

# runs catkit.cli.main in a fresh interpreter, then reports which of
# NOT_SYMBOLIC are loaded (one line), the catkit modules it loaded (one
# line) and whether numpy loaded (the last line)
NUMPY_PROBE = f"""
import sys
sys.path.insert(0, sys.argv[1])
from catkit.cli import main
code = main(sys.argv[2:])
{LOADED}
print(" ".join(sorted(m for m in sys.modules if m.startswith("catkit"))))
print(code, "numpy" in sys.modules)
"""

# what the law battery does not use: the parser, graph code, fusion and the tensor network
NOT_FOR_LAWS = ("catkit.diagram.parser", "catkit.diagram.graphs", "catkit.frobenius", "catkit.tqft")


class TestImports:
    @pytest.fixture(scope="class")
    def bare_loaded(self):
        """Which of NOT_SYMBOLIC a bare interpreter started the same way has, as a site hook may load some."""
        argv = [sys.executable, "-c", f"import sys\n{LOADED}"]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0 and proc.stderr == ""
        return set(proc.stdout.split())

    @pytest.mark.parametrize(
        "argv, loads_numpy",
        [
            (["check", "surfaces.cat"], False),
            (["eq", "boxes.cat", "stacked", "sliced"], False),
            (["eq", "surfaces.cat", "handle", "straight", "--frobenius", "--special"], False),
            (["classify", "surfaces.cat", "torus"], False),
            # control: the probe does see numpy when a command loads it
            (["eval", "surfaces.cat", "snake", "--interp", "dim3.json"], True),
        ],
        ids=["check", "eq", "eq-frobenius", "classify", "eval"],
    )
    def test_numpy_loads_only_for_matrix_commands(self, files, bare_loaded, argv, loads_numpy):
        lines = self.probe(files, argv)
        assert lines[-1] == f"0 {loads_numpy}"
        # nor dataclasses, inspect or json, unless a bare interpreter has them already
        new = set(lines[-3].split()) - bare_loaded
        assert new == (set(NOT_SYMBOLIC) - bare_loaded if loads_numpy else set())

    @pytest.mark.parametrize(
        "argv, unused",
        [
            (["laws"], NOT_FOR_LAWS),
            (["laws", "--interp", "dim3.json", "--seed", "2"], NOT_FOR_LAWS),
            (["check", "surfaces.cat"], ("catkit.diagram.graphs", "catkit.frobenius")),
            (["eq", "boxes.cat", "stacked", "sliced"], ("catkit.frobenius",)),
        ],
        ids=["laws", "laws-interp", "check", "eq"],
    )
    def test_commands_load_no_module_they_do_not_use(self, files, argv, unused):
        *_, modules, last = self.probe(files, argv)
        assert last.startswith("0 ")
        assert "catkit.cli" in modules.split()
        assert set(unused).isdisjoint(modules.split())

    @staticmethod
    def probe(files, argv):
        """NUMPY_PROBE's output lines for argv, file names resolved from files."""
        src = os.path.dirname(os.path.dirname(catkit.__file__))
        argv = [files.get(a, a) for a in argv]
        proc = subprocess.run(
            [sys.executable, "-c", NUMPY_PROBE, src, *argv],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.stderr == ""
        return proc.stdout.splitlines()
