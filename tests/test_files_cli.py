"""JSON interchange round-trips, file validation, and the command-line
interface (exit codes, report documents, determinism)."""
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from torsite import cli, files
from torsite.algebra import BaseRing, FiniteAlgebra, constant_presheaf
from torsite.cli import main
from torsite.errors import InputError
from torsite.fixtures import (
    a2_category,
    c2_monoid_category,
    field_algebra,
    t2_algebra,
    terminal_category,
)
from torsite.modules import ModulePresheaf
from torsite.topology import subcategory_topology, trivial_topology

FIX = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def fx(name):
    return os.path.join(FIX, name)


def a2_module(r1, r2, amat):
    cat = a2_category()
    R = constant_presheaf(cat, field_algebra(2))
    maps = [
        np.eye(r1, dtype=np.int64),
        np.eye(r2, dtype=np.int64),
        np.asarray(amat, dtype=np.int64).reshape(r2, r1),
    ]
    actions = [
        np.eye(r1, dtype=np.int64).reshape(1, r1, r1),
        np.eye(r2, dtype=np.int64).reshape(1, r2, r2),
    ]
    return cat, R, ModulePresheaf(cat, R, [r1, r2], maps, actions)


# -- round trips --------------------------------------------------------------


def test_category_round_trip():
    for cat in (terminal_category(), a2_category(), c2_monoid_category()):
        doc = files.category_to_doc(cat)
        back = files.category_from_doc(doc)
        assert files.same_category(cat, back)


def test_category_doc_is_deterministic():
    a = files.dump_json(files.category_to_doc(a2_category()))
    b = files.dump_json(files.category_to_doc(a2_category()))
    assert a == b
    assert a.endswith("\n")


def test_category_doc_omits_identity_compositions():
    doc = files.category_to_doc(a2_category())
    names = {m["name"] for m in doc["morphisms"]}
    assert names == {"id1", "id2", "a"}
    for g, f, gf in doc["compose"]:
        assert not g.startswith("id") and not f.startswith("id")


def test_presheaf_round_trip():
    cat = a2_category()
    R = constant_presheaf(cat, t2_algebra(2))
    doc = files.presheaf_to_doc(cat, R)
    cat2, R2 = files.presheaf_from_doc(doc)
    assert files.same_category(cat, cat2)
    assert R2.base.modulus == 2
    for x in range(cat.n_objects):
        assert R2.algebra(x).basis_names == R.algebra(x).basis_names
        assert (R2.algebra(x).mul == R.algebra(x).mul).all()
    for f in range(cat.n_morphisms):
        assert (R2.map(f) == R.map(f)).all()


def test_topology_round_trip():
    cat = a2_category()
    for J in (trivial_topology(cat), subcategory_topology(cat, [0]), subcategory_topology(cat, [1])):
        doc = files.topology_to_doc(J)
        back = files.topology_from_doc(doc)
        assert files.same_category(cat, back.cat)
        for x in range(cat.n_objects):
            assert {S.members for S in back.covers_at(x)} == {
                S.members for S in J.covers_at(x)
            }


def test_module_round_trip():
    cat, R, M = a2_module(1, 2, [[1], [0]])
    doc = files.module_to_doc(M)
    back = files.module_from_doc(doc, cat, R)
    assert back.ranks == M.ranks
    for f in range(cat.n_morphisms):
        assert (back.maps[f] == M.maps[f]).all()
    for x in range(cat.n_objects):
        assert (back.actions[x] == M.actions[x]).all()


def test_module_doc_stores_maps_under_domain():
    cat, R, M = a2_module(1, 1, [[1]])
    doc = files.module_to_doc(M)
    assert set(doc["modules"]["1"]["maps"]) == {"id1", "a"}
    assert set(doc["modules"]["2"]["maps"]) == {"id2"}


def test_zero_rank_module_round_trip():
    cat, R, M = a2_module(0, 1, [])
    doc = files.module_to_doc(M)
    back = files.module_from_doc(doc, cat, R)
    assert back.ranks == (0, 1)
    assert back.maps[2].shape == (1, 0)


# -- loader errors ------------------------------------------------------------


def test_load_json_missing_file():
    with pytest.raises(InputError, match="file not found"):
        files.load_json(fx("does_not_exist.json"))


def test_load_json_bad_syntax(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{не json")
    with pytest.raises(InputError, match="line 1"):
        files.load_json(str(p))


def test_load_json_non_object(tmp_path):
    p = tmp_path / "arr.json"
    p.write_text("[1, 2]\n")
    with pytest.raises(InputError, match="object"):
        files.load_json(str(p))


def test_wrong_schema_rejected(tmp_path):
    with pytest.raises(InputError, match="schema"):
        files.load_category(fx("a2_f2.json"))
    with pytest.raises(InputError, match="schema"):
        files.load_presheaf(fx("a2.json"))


def test_category_missing_key_location():
    doc = files.category_to_doc(a2_category())
    del doc["identity"]
    with pytest.raises(InputError, match="missing key 'identity'"):
        files.category_from_doc(doc, "here")


def test_presheaf_unknown_morphism_in_maps():
    cat = a2_category()
    doc = files.presheaf_to_doc(cat, constant_presheaf(cat, field_algebra(2)))
    doc["maps"]["ghost"] = [[1]]
    with pytest.raises(InputError, match="unknown morphisms.*ghost"):
        files.presheaf_from_doc(doc)


def test_presheaf_missing_algebra_entry():
    cat = a2_category()
    doc = files.presheaf_to_doc(cat, constant_presheaf(cat, field_algebra(2)))
    del doc["algebras"]["2"]
    with pytest.raises(InputError, match="algebras: missing object '2'"):
        files.presheaf_from_doc(doc)


def test_topology_rejects_non_sieve():
    cat = a2_category()
    doc = files.topology_to_doc(trivial_topology(cat))
    # id2 alone is not closed under precomposition: id2 . a = a is missing
    doc["covers"]["2"].append(["id2"])
    with pytest.raises(InputError, match="not a sieve"):
        files.topology_from_doc(doc)


def test_topology_accepts_generated_sieve_cover():
    cat = a2_category()
    doc = files.topology_to_doc(trivial_topology(cat))
    doc["covers"]["2"].append(["a"])
    J = files.topology_from_doc(doc)
    assert len(J.covers_at(1)) == 2


def test_topology_rejects_non_topology():
    cat = a2_category()
    doc = files.topology_to_doc(trivial_topology(cat))
    # empty sieve on object "2" without also refining at "1": breaks stability/transitivity
    doc["covers"]["2"].append([])
    with pytest.raises(InputError, match="not a topology"):
        files.topology_from_doc(doc)


def test_topology_unknown_morphism_name():
    cat = a2_category()
    doc = files.topology_to_doc(trivial_topology(cat))
    doc["covers"]["1"] = [["id1", "mystery"]]
    with pytest.raises(InputError, match="unknown morphism 'mystery'"):
        files.topology_from_doc(doc)


def test_module_missing_map():
    cat, R, M = a2_module(1, 1, [[1]])
    doc = files.module_to_doc(M)
    del doc["modules"]["1"]["maps"]["a"]
    with pytest.raises(InputError, match="missing map for morphism 'a'"):
        files.module_from_doc(doc, cat, R)


def test_module_duplicate_map():
    cat, R, M = a2_module(1, 1, [[1]])
    doc = files.module_to_doc(M)
    doc["modules"]["2"]["maps"]["a"] = [[1]]
    with pytest.raises(InputError, match="given twice"):
        files.module_from_doc(doc, cat, R)


def test_validate_file_all_fixtures():
    kinds = {
        "terminal.json": "category",
        "a2.json": "category",
        "c2.json": "category",
        "idempotent_monoid.json": "category",
        "terminal_f2.json": "presheaf",
        "terminal_f2xf2.json": "presheaf",
        "a2_f2.json": "presheaf",
        "c2_f2.json": "presheaf",
        "terminal_trivial_topology.json": "topology",
        "a2_trivial_topology.json": "topology",
        "a2_obj1_topology.json": "topology",
        "a2_obj2_topology.json": "topology",
    }
    for name, kind in kinds.items():
        assert files.validate_file(fx(name))["kind"] == kind
    for name in ("a2_p2_module.json", "a2_s1_module.json", "a2_s2_module.json"):
        summary = files.validate_file(fx(name), context=fx("a2_f2.json"))
        assert summary["kind"] == "module"


def test_validate_module_requires_context():
    with pytest.raises(InputError, match="context"):
        files.validate_file(fx("a2_p2_module.json"))


# -- command line -------------------------------------------------------------


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    return code, doc, captured.err


def test_cli_validate(capsys):
    code, doc, err = run_cli(capsys, "validate", fx("a2.json"))
    assert code == 0
    assert doc["ok"] is True and doc["kind"] == "category"
    assert "valid category" in err


def test_cli_validate_module_with_context(capsys):
    code, doc, _ = run_cli(
        capsys, "validate", fx("a2_s1_module.json"), "--context", fx("a2_f2.json")
    )
    assert code == 0
    assert doc["kind"] == "module" and doc["ranks"] == [1, 0]


def test_cli_skew_dimension(capsys):
    code, doc, _ = run_cli(capsys, "skew", fx("a2_f2.json"))
    assert code == 0
    assert doc["dim"] == 3
    assert doc["basis"] == ["1*id1", "1*id2", "1*a"]


def test_cli_topologies_count(capsys):
    code, doc, _ = run_cli(capsys, "topologies", fx("terminal.json"))
    assert code == 0
    assert doc["count"] == 2
    code, doc, _ = run_cli(capsys, "topologies", fx("a2.json"))
    assert code == 0
    assert doc["count"] == 4


def test_cli_gr(capsys):
    code, doc, _ = run_cli(capsys, "gr", fx("a2_f2.json"))
    assert code == 0
    assert doc["hom_ranks"] == {"1->1": 1, "1->2": 1, "2->1": 0, "2->2": 1}


def test_cli_linearize(capsys):
    code, doc, _ = run_cli(
        capsys, "linearize", fx("a2_f2.json"), fx("a2_trivial_topology.json")
    )
    assert code == 0
    assert doc["counts"] == [1, 1]


def test_cli_check_sheaf_yes_no(capsys):
    code, doc, _ = run_cli(
        capsys,
        "check-sheaf",
        fx("a2_f2.json"),
        fx("a2_obj1_topology.json"),
        fx("a2_p2_module.json"),
    )
    assert code == 0 and doc["value"] is True
    code, doc, _ = run_cli(
        capsys,
        "check-sheaf",
        fx("a2_f2.json"),
        fx("a2_obj1_topology.json"),
        fx("a2_s1_module.json"),
    )
    assert code == 1 and doc["value"] is False
    assert doc["witness"] == {"object": "2", "reason": "not surjective", "unmatched-solutions": 1}


def test_cli_check_sheaf_over_z4(capsys, tmp_path):
    # rank 1 over Z/4 on the terminal site: the zero sieve covers under D = {},
    # so all 4 elements restrict to 0; the full topology asks nothing
    cat = terminal_category()
    R = constant_presheaf(cat, field_algebra(4))
    M = ModulePresheaf(cat, R, [1], [np.eye(1, dtype=np.int64)], [np.ones((1, 1, 1), dtype=np.int64)])
    paths = {}
    for name, doc in (
        ("presheaf", files.presheaf_to_doc(cat, R)),
        ("empty", files.topology_to_doc(subcategory_topology(cat, []))),
        ("full", files.topology_to_doc(trivial_topology(cat))),
        ("module", files.module_to_doc(M)),
    ):
        paths[name] = str(tmp_path / f"{name}.json")
        files.dump_json(doc, paths[name])
    code, doc, _ = run_cli(capsys, "check-sheaf", paths["presheaf"], paths["empty"], paths["module"])
    assert code == 1
    assert doc["witness"] == {"object": "*", "reason": "not injective", "kernel-size": 4}
    code, doc, _ = run_cli(capsys, "check-sheaf", paths["presheaf"], paths["full"], paths["module"])
    assert code == 0 and doc["value"] is True


def test_cli_check_torsion_yes_no(capsys):
    code, doc, _ = run_cli(
        capsys,
        "check-torsion",
        fx("a2_f2.json"),
        fx("a2_obj1_topology.json"),
        fx("a2_s2_module.json"),
    )
    assert code == 0 and doc["value"] is True
    code, doc, _ = run_cli(
        capsys,
        "check-torsion",
        fx("a2_f2.json"),
        fx("a2_obj1_topology.json"),
        fx("a2_p2_module.json"),
    )
    assert code == 1 and doc["value"] is False


def test_cli_classify_trivial_site(capsys):
    code, doc, _ = run_cli(
        capsys, "classify", fx("a2_f2.json"), fx("a2_trivial_topology.json")
    )
    assert code == 0 and doc["ok"] is True
    assert doc["counts"] == {
        "universe_members": 13,
        "linear_topologies": 4,
        "hereditary_torsion_pairs": 4,
        "idempotent_ideals": 4,
        "ttf_triples": 4,
        "central_idempotents": 2,
        "split_ttf_triples": 2,
    }
    assert doc["subcategory_objects"] == ["1", "2"]


def test_cli_classify_subcategory_site(capsys):
    code, doc, _ = run_cli(
        capsys, "classify", fx("a2_f2.json"), fx("a2_obj2_topology.json")
    )
    assert code == 0
    assert doc["subcategory_objects"] == ["2"]
    assert doc["counts"]["universe_members"] == 4
    assert doc["counts"]["hereditary_torsion_pairs"] == 2
    assert doc["counts"]["ttf_triples"] == 2
    assert doc["counts"]["split_ttf_triples"] == 2


def test_cli_recollement(capsys):
    code, doc, _ = run_cli(
        capsys, "recollement", fx("a2_f2.json"), "--idempotent", "0,1,0"
    )
    assert code == 0 and doc["ok"] is True
    assert doc["corner_rank"] == 1 and doc["quotient_rank"] == 1
    assert doc["universe_sizes"] == {"middle": 13, "corner": 4, "quotient": 4}
    assert all(doc["checks"].values()) and doc["failures"] == []


def test_cli_recollement_rejects_non_idempotent(capsys):
    code, doc, _ = run_cli(
        capsys, "recollement", fx("a2_f2.json"), "--idempotent", "0,0,1"
    )
    assert code == 2
    assert doc["kind"] == "input"


def test_cli_recollement_wrong_length(capsys):
    code, doc, _ = run_cli(
        capsys, "recollement", fx("a2_f2.json"), "--idempotent", "1,0"
    )
    assert code == 2 and "3 coordinates" in doc["error"]


def test_cli_recollement_reduces_huge_coordinates(capsys):
    # 10^20 - 1 is odd and lies outside int64; it is 1 over F2
    huge = main(["recollement", fx("a2_f2.json"), "--idempotent", "99999999999999999999,0,0"])
    huge_out = capsys.readouterr().out
    small = main(["recollement", fx("a2_f2.json"), "--idempotent", "1,0,0"])
    assert huge == small == 0
    assert huge_out == capsys.readouterr().out


def _set(*path_and_value):
    *path, key, value = path_and_value

    def edit(doc):
        for k in path:
            doc = doc[k]
        doc[key] = value

    return edit


MALFORMED_PRESHEAVES = {
    "modulus-string": (_set("base", "modulus", "two"), "modulus"),
    "modulus-past-int64": (_set("base", "modulus", 10**30), "modulus"),
    "modulus-float": (_set("base", "modulus", 2.5), "modulus"),
    "modulus-bool": (_set("base", "modulus", True), "modulus"),
    "modulus-past-exact": (_set("base", "modulus", 4294967311), "4294967311"),
    "modulus-empty": (_set("base", "modulus", []), "modulus"),
    "unit-null": (_set("algebras", "*", "unit", None), "unit"),
    "unit-too-short": (_set("algebras", "*", "unit", [1]), "unit"),
    "mul-ragged": (_set("algebras", "*", "mul", 1, [[0, 0]]), "mul"),
    "mul-float": (_set("algebras", "*", "mul", 0, [[1.5, 0], [0, 0]]), "mul"),
    "map-string": (_set("maps", "id", [["1", 0], [0, 1]]), "maps"),
    "basis-number": (_set("algebras", "*", "basis", 2), "basis"),
    "category-number": (_set("category", 5), "category"),
    "morphisms-number": (_set("category", "morphisms", 5), "morphisms"),
    "identity-list": (_set("category", "identity", ["*"]), "identity"),
    "compose-number": (_set("category", "compose", 1), "compose"),
    # scalars inside the category containers used to reach a dict lookup
    "morphism-name-list": (_set("category", "morphisms", 0, "name", ["id"]), "morphisms[0].name"),
    "morphism-dom-list": (_set("category", "morphisms", 0, "dom", ["*"]), "morphisms[0].dom"),
    "identity-value-list": (_set("category", "identity", "*", ["id"]), "identity.*"),
    "compose-entry-list": (_set("category", "compose", [[["id"], "id", "id"]]), "compose[0]"),
    "base-number": (_set("base", 2), "base"),
    "algebras-number": (_set("algebras", 5), "algebras"),
    "algebra-entry-number": (_set("algebras", "*", 3), "algebras[*]"),
    "maps-number": (_set("maps", 5), "maps"),
}


@pytest.mark.parametrize("command", ["skew", "validate"])
@pytest.mark.parametrize("case", sorted(MALFORMED_PRESHEAVES))
def test_cli_malformed_presheaf_is_input_error(capsys, tmp_path, command, case):
    edit, key = MALFORMED_PRESHEAVES[case]
    with open(fx("terminal_f2xf2.json")) as fh:
        doc = json.load(fh)
    edit(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, command, str(path))
    assert code == 2
    assert out["kind"] == "input" and key in out["error"]
    assert "input error" in err


def test_cli_refuses_rank_past_exact_products(capsys, tmp_path):
    # (F_65537)^182: rank**2 * (n - 1)**3 reaches 2**63.  b_i * b_j is b_i
    # when i == j, else 0; the 182**3 cube is spliced in as JSON text
    r = 182
    with open(fx("terminal_f2xf2.json")) as fh:
        doc = json.load(fh)
    doc["base"]["modulus"] = 65537
    doc["algebras"]["*"] = {"basis": [f"e{i}" for i in range(r)], "unit": [1] * r, "mul": "MUL"}
    doc["maps"]["id"] = np.eye(r, dtype=int).tolist()
    eye = [json.dumps(row) for row in np.eye(r, dtype=int).tolist()]
    zero = json.dumps([0] * r)
    mul = "[%s]" % ",".join(
        "[%s]" % ",".join(eye[i] if i == j else zero for j in range(r)) for i in range(r)
    )
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc).replace('"MUL"', mul))
    code, out, err = run_cli(capsys, "validate", str(path))
    assert code == 2
    assert out["kind"] == "input" and "rank 182" in out["error"] and "65537" in out["error"]


@pytest.mark.parametrize("mul", [[], [[["x"]]]], ids=["empty", "string"])
def test_cli_checks_rank_before_reading_mul(capsys, tmp_path, mul):
    # the rank is the length of basis, so a wide algebra is refused before
    # its mul cube is read: a malformed mul is never reached
    r = 182
    with open(fx("terminal_f2xf2.json")) as fh:
        doc = json.load(fh)
    doc["base"]["modulus"] = 65537
    doc["algebras"]["*"] = {"basis": [f"e{i}" for i in range(r)], "unit": [1] * r, "mul": mul}
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "validate", str(path))
    assert code == 2
    assert out["kind"] == "input" and "rank 182" in out["error"] and "65537" in out["error"]
    assert "mul" not in out["error"]


MALFORMED_MODULES = {
    "rank-string": (_set("modules", "1", "rank", "x"), "rank"),
    "rank-float": (_set("modules", "1", "rank", 1.5), "rank"),
    "rank-negative": (_set("modules", "1", "rank", -1), "rank"),
    "action-null": (_set("modules", "1", "action", None), "action"),
    "action-empty": (_set("modules", "1", "action", []), "action"),
    "map-empty": (_set("modules", "1", "maps", "id1", []), "id1"),
    "modules-number": (_set("modules", 5), "modules"),
    "entry-number": (_set("modules", "1", 7), "modules[1]"),
    "maps-list": (_set("modules", "1", "maps", [1]), "maps"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_MODULES))
def test_cli_malformed_module_is_input_error(capsys, tmp_path, case):
    # a2_s1_module also writes the empty action of its rank-0 object as [[]]
    edit, key = MALFORMED_MODULES[case]
    with open(fx("a2_s1_module.json")) as fh:
        doc = json.load(fh)
    edit(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "validate", str(path), "--context", fx("a2_f2.json"))
    assert code == 2
    assert out["kind"] == "input" and key in out["error"]
    assert "input error" in err


MALFORMED_TOPOLOGIES = {
    "morphisms-number": (_set("category", "morphisms", 5), "morphisms"),
    "covers-number": (_set("covers", 5), "covers"),
    "cover-list-number": (_set("covers", "1", 3), "covers[1]"),
    # a bare string used to be read character by character as a sieve
    "sieve-string": (_set("covers", "2", ["a", ["a", "id2"]]), "covers[2][0]"),
    "sieve-member-list": (_set("covers", "1", [[["id1"]]]), "covers[1][0]"),
}


@pytest.mark.parametrize("command", ["validate", "classify"])
@pytest.mark.parametrize("case", sorted(MALFORMED_TOPOLOGIES))
def test_cli_malformed_topology_is_input_error(capsys, tmp_path, command, case):
    edit, key = MALFORMED_TOPOLOGIES[case]
    with open(fx("a2_obj1_topology.json")) as fh:
        doc = json.load(fh)
    edit(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    argv = [command, str(path)] if command == "validate" else [command, fx("a2_f2.json"), str(path)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out["kind"] == "input" and key in out["error"]
    assert "input error" in err


def test_cli_missing_file_is_input_error(capsys):
    code, doc, _ = run_cli(capsys, "validate", fx("nope.json"))
    assert code == 2
    assert doc["kind"] == "input" and "file not found" in doc["error"]


def test_cli_mismatched_site_categories(capsys):
    code, doc, _ = run_cli(
        capsys,
        "linearize",
        fx("terminal_f2.json"),
        fx("a2_trivial_topology.json"),
    )
    assert code == 2 and "different category" in doc["error"]


def test_cli_budget_exit_code(capsys):
    code, doc, _ = run_cli(
        capsys, "classify", fx("a2_f2.json"), fx("a2_trivial_topology.json"), "--budget", "4"
    )
    assert code == 3 and doc["kind"] == "budget"


@pytest.mark.parametrize(
    "argv",
    [
        ["linearize", fx("a2_f2.json"), fx("a2_trivial_topology.json")],
        ["check-sheaf", fx("a2_f2.json"), fx("a2_obj1_topology.json"), fx("a2_s1_module.json")],
        ["check-torsion", fx("a2_f2.json"), fx("a2_obj1_topology.json"), fx("a2_s1_module.json")],
    ],
    ids=["linearize", "check-sheaf", "check-torsion"],
)
def test_cli_budget_reaches_linearization(capsys, argv):
    code, doc, _ = run_cli(capsys, *argv, "--budget", "1")
    assert code == 3 and doc["kind"] == "budget"
    assert "submodule enumeration" in doc["error"]


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["classify", fx("a2_f2.json"), fx("a2_trivial_topology.json"), "--budget", "-5"], "--budget"),
        (["linearize", fx("a2_f2.json"), fx("a2_trivial_topology.json"), "--budget", "0"], "--budget"),
        (["classify", fx("a2_f2.json"), fx("a2_trivial_topology.json"), "--dim-bound", "-1"], "--dim-bound"),
        (["recollement", fx("a2_f2.json"), "--idempotent", "1,0,0", "--dim-bound", "-1"], "--dim-bound"),
    ],
    ids=["budget-negative", "budget-zero", "classify-dim-bound", "recollement-dim-bound"],
)
def test_cli_refuses_out_of_range_flags(capsys, argv, flag):
    code, doc, err = run_cli(capsys, *argv)
    assert code == 2
    assert doc["kind"] == "input" and doc["error"].startswith(flag + ":")
    assert "input error" in err


def test_cli_output_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, doc, _ = run_cli(
        capsys, "skew", fx("a2_f2.json"), "--output", str(out)
    )
    assert code == 0
    assert json.loads(out.read_text()) == doc


def test_cli_deterministic_output(capsys):
    _, doc1, _ = run_cli(capsys, "classify", fx("a2_f2.json"), fx("a2_trivial_topology.json"))
    _, doc2, _ = run_cli(capsys, "classify", fx("a2_f2.json"), fx("a2_trivial_topology.json"))
    assert doc1 == doc2
    assert files.dump_json(doc1) == files.dump_json(doc2)


_JSON_LEAVES = st.none() | st.booleans() | st.integers() | st.text() | st.floats()
_JSON_DOCS = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(), inner, max_size=4)
    | st.dictionaries(st.integers(), inner, max_size=4),
    max_leaves=20,
)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(_JSON_DOCS)
def test_dump_json_matches_json_dumps(doc):
    assert files.dump_json(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"


def test_dump_json_escapes_and_refuses_as_json_does():
    doc = {"\u00e9\n\"": ["\u2603\x00", None, True, False, -0.0, float("inf")], "k": {2: {}, 10: [], -1: ()}}
    assert files.dump_json(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"
    for bad in ([np.int64(1)], {(1, 2): 0}, {1: 0, "a": 0}, {"a": object()}):
        with pytest.raises(TypeError):
            json.dumps(bad, sort_keys=True, indent=2)
        with pytest.raises(TypeError):
            files.dump_json(bad)


BENCH_SITES = os.path.join(os.path.dirname(__file__), "..", "perfbench", "sites")


@pytest.mark.parametrize(
    "presheaf", ["a2_f2", "a3_f2", "c2_f2", "idem_f2", "terminal_f2xf2", "a2_f2xf2", "c2_f3"]
)
def test_cli_classify_below_every_simple_is_an_input_error(capsys, presheaf):
    # the one-member universe at --dim-bound 0 cannot tell the triples
    # apart: refused with the least bound that holds every simple
    site = [os.path.join(BENCH_SITES, f"{presheaf}.json"),
            os.path.join(BENCH_SITES, f"{presheaf.split('_')[0]}_full_topology.json")]
    code, doc, err = run_cli(capsys, "classify", *site, "--dim-bound", "0")
    assert (code, doc["kind"]) == (2, "input")
    assert doc["error"] == (
        "dimension bound 0 leaves out a simple module of dimension 1; classify needs a bound of at least 1"
    )
    code, doc, _ = run_cli(capsys, "classify", *site, "--dim-bound", "1")
    assert code == 0 and doc["ok"] is True


@pytest.mark.parametrize("idempotent", ["1,0,0", "0,1,0"])
def test_cli_recollement_below_every_simple_is_an_input_error(capsys, idempotent):
    # at --dim-bound 0 the universe holds only the zero module, on which
    # every check passes without checking anything
    argv = ["recollement", fx("a2_f2.json"), "--idempotent", idempotent, "--dim-bound"]
    code, doc, _ = run_cli(capsys, *argv, "0")
    assert (code, doc["kind"]) == (2, "input")
    assert doc["error"] == (
        "dimension bound 0 leaves out a simple module of dimension 1; recollement needs a bound of at least 1"
    )
    code, doc, _ = run_cli(capsys, *argv, "1")
    assert code == 0 and doc["ok"] is True


def test_cli_classify_names_the_dimension_of_a_larger_simple(capsys, tmp_path):
    # F4 as an F2-algebra (basis 1, a with a^2 = a + 1) is its own simple
    # module, of dimension 2
    mul = np.zeros((2, 2, 2), dtype=np.int64)
    mul[0, 0, 0] = mul[0, 1, 1] = mul[1, 0, 1] = mul[1, 1, 0] = mul[1, 1, 1] = 1
    f4 = FiniteAlgebra(BaseRing(2), mul, [1, 0], ("1", "a"))
    cat = terminal_category()
    presheaf, topology = str(tmp_path / "f4.json"), str(tmp_path / "full.json")
    files.dump_json(files.presheaf_to_doc(cat, constant_presheaf(cat, f4)), presheaf)
    files.dump_json(files.topology_to_doc(trivial_topology(cat)), topology)
    code, doc, _ = run_cli(capsys, "classify", presheaf, topology, "--dim-bound", "1")
    assert code == 2 and doc["error"].endswith("of dimension 2; classify needs a bound of at least 2")
    code, doc, _ = run_cli(capsys, "classify", presheaf, topology, "--dim-bound", "2")
    assert code == 0 and doc["counts"]["universe_members"] == 2
    assert doc["counts"]["hereditary_torsion_pairs"] == 2


def test_classify_runs_on_numpy_alone():
    # pyproject.toml declares numpy as the only runtime dependency; sympy
    # and hypothesis are installed for the tests alone
    code = """
import sys
sys.modules["sympy"] = sys.modules["hypothesis"] = None
from torsite import cli
sys.exit(cli.main(sys.argv[1:]))
"""
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    argv = ["classify", fx("a2_f2.json"), fx("a2_trivial_topology.json"), "--dim-bound", "2"]
    out = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["ok"] is True



def _exit_outcome(capsys, parse, argv):
    """(stdout, stderr, exit code) of parse(argv), which must exit."""
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    out, err = capsys.readouterr()
    return out, err, exc.value.code


# arguments that every command accepts, so that a bad flag after them is
# reported by the top-level parser, with its usage line
_VALID_ARGS = {
    "validate": ["f"],
    "topologies": ["f"],
    "skew": ["f"],
    "gr": ["f"],
    "linearize": ["p", "t"],
    "check-sheaf": ["p", "t", "m"],
    "check-torsion": ["p", "t", "m"],
    "classify": ["p", "t"],
    "recollement": ["p", "--idempotent", "1"],
    "selftest": [],
}


def test_cli_command_table_names_every_command():
    assert [name for name, *_ in cli.COMMANDS] == list(_VALID_ARGS)


@pytest.mark.parametrize(
    "argv",
    [["--help"], [], ["bogus"], ["--output", "x"]]
    + [[name, "--help"] for name in _VALID_ARGS]
    + [[name, *args, "--no-such-flag"] for name, args in _VALID_ARGS.items()]
    + [[name] for name, args in _VALID_ARGS.items() if args],
    ids=lambda argv: " ".join(argv) or "empty",
)
def test_cli_one_subparser_parses_like_the_full_tree(capsys, monkeypatch, argv):
    # main builds only the subparser argv[0] names; usage, help and errors
    # must read as from the parser with every subcommand
    monkeypatch.setenv("COLUMNS", "100")
    full = _exit_outcome(capsys, cli.build_parser().parse_args, argv)
    assert _exit_outcome(capsys, cli.main, argv) == full
