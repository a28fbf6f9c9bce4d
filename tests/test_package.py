"""The package namespace: lazy exports that keep every name reachable."""

import json
import os
import subprocess
import sys

import catkit

# every name `import catkit` offered before its exports became lazy, under
# the module that defines it
HOMES = {
    "scalars": ["BOOL", "COMPLEX", "NAT", "ScalarValue", "SemiringTag", "complex_tag"],
    "matcat": ["MatrixMorphism"],
    "diagram": [
        "ObjectWord",
        "ParseError",
        "Signature",
        "TypeMismatch",
        "UnknownName",
        "graph_eq",
        "parse",
        "to_graph",
        "typecheck",
    ],
    "frobenius": ["classify_cob", "cob_signature", "eq_cob", "fuse"],
    "lawcheck": ["LAW_MANIFEST", "LawEntry", "LawReport", "assert_expected", "merge_reports"],
    "presentations": [
        "FrobeniusPresentation",
        "Interpretation",
        "basis_frobenius",
        "interpretation_from_data",
        "verify_frobenius",
        "xor_frobenius",
    ],
    "tqft": ["evaluate_cob", "evaluate_graph", "interpret"],
}

# inspects a bare `import catkit` in a fresh interpreter and prints what it saw
PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
homes = json.loads(sys.argv[2])
import catkit
seen = {"loaded_on_import": sorted(m for m in sys.modules if m.startswith("catkit."))}
seen["dir"] = sorted(dir(catkit))
seen["tqft"] = repr(catkit.tqft)
# the two presentations names the benchmark reaches through tqft stay reachable there
seen["moved"] = [n for n in ("hopf_group_z2", "verify_frobenius") if getattr(catkit.tqft, n) is not getattr(catkit.presentations, n)]
seen["modules"] = [m for m in homes if getattr(catkit, m) is not sys.modules["catkit." + m]]
seen["all"] = catkit.__all__
seen["mismatched"] = [
    n for m, names in homes.items() for n in names
    if getattr(catkit, n) is not getattr(sys.modules["catkit." + m], n)
]
star = {}
exec("from catkit import *", star)
seen["star"] = sorted(k for k in star if k != "__builtins__")
try:
    catkit.nope
except AttributeError as exc:
    seen["nope"] = str(exc)
print(json.dumps(seen))
"""


def test_every_export_resolves_lazily():
    src = os.path.dirname(os.path.dirname(catkit.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, src, json.dumps(HOMES)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.stderr == ""
    seen = json.loads(proc.stdout)
    exports = [n for names in HOMES.values() for n in names]
    assert seen["loaded_on_import"] == []
    assert seen["tqft"].startswith("<module 'catkit.tqft'")
    assert seen["moved"] == []
    assert seen["modules"] == []
    assert seen["all"] == exports
    assert seen["mismatched"] == []
    assert "__all__" in seen["dir"]
    assert set(exports) | set(HOMES) <= set(seen["dir"])
    assert seen["star"] == sorted(exports)
    assert seen["nope"] == "module 'catkit' has no attribute 'nope'"
