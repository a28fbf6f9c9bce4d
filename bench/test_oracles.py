"""Each oracle of the benchmark accepts catkit's result and rejects a corrupted one.

    PYTHONPATH=src python3 -m pytest -q bench/test_oracles.py
"""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import oracles  # noqa: E402
import wl_circuits  # noqa: E402
import wl_cli  # noqa: E402
import wl_equality  # noqa: E402
import wl_surfaces  # noqa: E402
from harness import NullTracer  # noqa: E402

from catkit import cob_signature, to_graph  # noqa: E402

SEED = 3


def ops_of(module):
    wl = module.setup(SEED, NullTracer())
    return {op.name: op for op in wl.ops + wl.small}


def copy_matrix(m, change):
    out = m.__class__._raw(m.tag, m.data.copy())
    change(out.data)
    return out


def test_surface_classes_closed_forms():
    torus = wl_surfaces.genus_layers(1)
    assert oracles.surface_classes(0, torus) == [((), (), 1)]
    assert oracles.surface_classes(0, wl_surfaces.LOOP) == [((), (), 1)]
    assert oracles.surface_classes(0, wl_surfaces.SPHERE) == [((), (), 0)]
    snake = [[("id",), ("cup",)], [("cap",), ("id",)]]
    assert oracles.surface_classes(1, snake) == [((0,), (0,), 0)]
    two_cylinders = [[("swap",)]]
    assert oracles.surface_classes(2, two_cylinders) == [((0,), (1,), 0), ((1,), (0,), 0)]
    assert oracles.closed_value([((), (), 3)], "xor") == 8
    assert oracles.closed_value([((), (), 3)], "basis", 5) == 5


def test_surfaces_checks_reject_corruption():
    ops = ops_of(wl_surfaces)
    tr = NullTracer()
    for name, op in ops.items():
        if op.fault:
            continue
        got = op.run(tr)
        assert op.check(got), name
        if name.startswith("classify"):
            first = got.components[0]
            bad = dataclasses.replace(first, genus=first.genus + 1)
            corrupted = dataclasses.replace(got, components=(bad,) + got.components[1:])
        elif name.startswith("eq"):
            corrupted = not got
        else:
            corrupted = copy_matrix(got, lambda a: a.__setitem__((0, 0), a[0, 0] + 1))
        assert not op.check(corrupted), name


def test_random_cobordisms_never_close_a_bare_loop():
    import random

    rng = random.Random(SEED)
    for _ in range(200):
        layers = wl_surfaces.random_cobordism(rng, rng.randint(0, 3), rng.randint(0, 3))
        sig = cob_signature(wl_surfaces.ATOM)
        graph = to_graph(wl_surfaces.layers_term(layers), sig)
        assert graph.loops == ()


def test_equality_checks_reject_corruption():
    ops = ops_of(wl_equality)
    tr = NullTracer()
    for name, op in ops.items():
        if "(4, 4)" in name:
            continue  # about a second each; the smaller cycles cover the same check
        got = op.run(tr)
        assert op.check(got), name
        if name == "parse-module":
            corrupted = dataclasses.replace(got, diagrams=dict(list(got.diagrams.items())[1:]))
        elif name.startswith("dag") and name.endswith("typecheck"):
            corrupted = (got[0], got[1].tensor(got[1]))
        else:
            corrupted = (not got[0],) + got[1:]
        assert not op.check(corrupted), name


def test_brute_force_rejects_a_relabelled_graph():
    ops = ops_of(wl_equality)
    op = ops["small-pair"]
    verdict, g1, g2 = op.run(NullTracer())
    nodes = list(g2.nodes)
    nodes[0] = dataclasses.replace(nodes[0], name="c2")
    g2_bad = dataclasses.replace(g2, nodes=tuple(nodes))
    assert oracles.brute_force_iso(g1, g2)
    assert not oracles.brute_force_iso(g1, g2_bad)
    fresh = ops_of(wl_equality)["small-pair"]
    assert not fresh.check((True, g1, g2_bad))


def test_circuit_reference_matches_kronecker_product():
    rng = np.random.default_rng(0)
    u = [wl_circuits.random_unitary(rng) for _ in range(2)]
    gates = [(0, u[0]), (1, u[1])]
    want = np.kron(np.eye(2), u[1]) @ np.kron(u[0], np.eye(2))
    assert np.allclose(oracles.circuit_unitary(3, gates), want)
    assert oracles.is_unitary(want)
    assert not oracles.is_unitary(2 * want)


def test_chain_references_clamp_and_count():
    ones = [[[1, 1], [1, 1]]] * 70
    assert oracles.bool_chain(ones).tolist() == [[1, 1], [1, 1]]
    assert oracles.nat_chain(ones[:65]) == [[2 ** 64, 2 ** 64], [2 ** 64, 2 ** 64]]


def test_circuits_checks_reject_corruption():
    ops = ops_of(wl_circuits)
    tr = NullTracer()
    for name, op in ops.items():
        if op.fault or name.endswith("bw8"):
            continue
        got = op.run(tr)
        assert op.check(got), name
        if got.tag.kind == "bool":
            corrupted = copy_matrix(got, lambda a: a.__setitem__((0, 0), not a[0, 0]))
        elif got.tag.kind == "nat":
            corrupted = copy_matrix(got, lambda a: a.__setitem__((0, 0), a[0, 0] + 1))
        else:
            corrupted = copy_matrix(got, lambda a: a.__setitem__((0, 0), a[0, 0] + 1e-6))
        assert not op.check(corrupted), name


def test_overflow_fault_is_caught():
    op = ops_of(wl_circuits)[f"evaluate-graph-rel-ones-{wl_circuits.ONES_CHAIN}"]
    assert op.fault == wl_circuits.FAULT_OVERFLOW
    assert not op.check(op.run(NullTracer()))


def test_cli_checks_reject_corruption(monkeypatch):
    src = str(Path(__file__).resolve().parents[1] / "src")
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    ops = ops_of(wl_cli)
    tr = NullTracer()
    for name, op in ops.items():
        got = op.run(tr)
        assert op.check(got), (name, got.stdout, got.stderr)
        lines = got.stdout.splitlines()
        lines[-1] = lines[-1] + "x"
        wrong_text = subprocess.CompletedProcess(got.args, 0, "\n".join(lines) + "\n", "")
        wrong_code = subprocess.CompletedProcess(got.args, 1, got.stdout, "")
        assert not op.check(wrong_text), name
        assert not op.check(wrong_code), name


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
