"""Corner/quotient algebra construction and full recollement verification
for idempotents of the upper triangular 2x2 algebra and friends."""
import json
import os

import numpy as np
import pytest

from torsite import recollement
from torsite.cli import main
from torsite.errors import InputError, NotPrimeError
from torsite.fixtures import group_algebra_c2, product_field_algebra, t2_algebra
from torsite.modules import SkewModule, regular_module
from torsite.recollement import (
    Recollement,
    corner_algebra,
    quotient_algebra,
    verify_recollement,
)
from torsite.torsion import ideal_generated_by

E11 = [1, 0, 0]
E12 = [0, 1, 0]
E22 = [0, 0, 1]


def test_corner_algebra_of_t2():
    A = t2_algebra(2)
    C, rows = corner_algebra(A, E22)
    assert C.rank == 1
    assert rows.tolist() == [[0, 0, 1]]
    assert C.unit.tolist() == [1]
    assert C.mul[0, 0].tolist() == [1]
    C1, rows1 = corner_algebra(A, E11)
    assert C1.rank == 1 and rows1.tolist() == [[1, 0, 0]]
    Cfull, _ = corner_algebra(A, A.unit)
    assert Cfull.rank == 3


def test_quotient_algebra_of_t2():
    A = t2_algebra(2)
    I = ideal_generated_by(A, [E22])
    assert I.size == 4  # spans e12 and e22
    Q, proj, sec = quotient_algebra(A, I.matrix)
    assert Q.rank == 1
    assert ((sec @ proj) % 2 == np.eye(1, dtype=np.int64)).all()
    assert Q.unit.tolist() == [1]
    Z, _, _ = quotient_algebra(A, ideal_generated_by(A, [A.unit]).matrix)
    assert Z.rank == 0


def test_quotient_algebra_needs_prime():
    A = t2_algebra(4)
    I = ideal_generated_by(A, [E22])
    with pytest.raises(NotPrimeError):
        quotient_algebra(A, I.matrix)


def test_functor_dimensions_at_e22():
    A = t2_algebra(2)
    rec = Recollement(A, E22)
    M = regular_module(A)
    Me, rows = rec.j_star(M)
    assert Me.dim == 2 and rows.shape == (2, 3)
    QM, proj, sec = rec.i_upper(M)
    assert QM.dim == 1 and ((sec @ proj) % 2 == np.eye(1, dtype=np.int64)).all()
    SM, K = rec.i_shriek(M)
    assert SM.dim == 0  # no element of A is killed by all of Ae22A
    S1 = SkewModule(A, np.array([[[1]], [[0]], [[0]]]))
    SS, KS = rec.i_shriek(S1)
    assert SS.dim == 1 and KS.tolist() == [[1]]
    N = Me  # a corner module of dimension 2
    JN, projF, secF = rec.j_shriek(N)
    assert JN.dim == 2  # eA is one-dimensional and the relations vanish
    HN, basis = rec.j_lower(N)
    assert rec.Ae_rows.shape == (2, 3)
    assert HN.dim == len(basis) == 4  # every linear map Ae -> N is a corner map


def test_recollement_at_e22_passes():
    rep = verify_recollement(t2_algebra(2), E22, dim_bound=3)
    assert rep.ok
    assert rep.corner_rank == 1 and rep.quotient_rank == 1
    assert rep.universe_sizes == {"middle": 13, "corner": 4, "quotient": 4}
    assert set(rep.checks) == {
        "image_matches_kernel",
        "inflation_fully_faithful",
        "pullback_inflation_triangles",
        "inflation_socle_triangles",
        "extension_restriction_triangles",
        "restriction_coextension_triangles",
    }
    assert not rep.failures
    assert rep.summary().startswith("pass ")


def test_recollement_at_e11_passes():
    rep = verify_recollement(t2_algebra(2), E11, dim_bound=2)
    assert rep.ok


def test_degenerate_recollements():
    A = t2_algebra(2)
    one = verify_recollement(A, A.unit, dim_bound=2)
    assert one.ok and one.quotient_rank == 0
    assert one.universe_sizes["quotient"] == 1  # only the zero module
    zero = verify_recollement(A, [0, 0, 0], dim_bound=2)
    assert zero.ok and zero.corner_rank == 0
    assert zero.universe_sizes["corner"] == 1


def test_recollement_product_field():
    A = product_field_algebra(2, 2)
    rep = verify_recollement(A, [1, 0], dim_bound=3)
    assert rep.ok
    assert rep.corner_rank == 1 and rep.quotient_rank == 1
    assert rep.universe_sizes == {"middle": 10, "corner": 4, "quotient": 4}


def test_recollement_group_algebra_trivial_idempotents():
    A = group_algebra_c2(2)
    assert verify_recollement(A, A.unit, dim_bound=2).ok
    assert verify_recollement(A, [0, 0], dim_bound=2).ok


def test_recollement_rejects_bad_input():
    A = t2_algebra(2)
    with pytest.raises(InputError):
        verify_recollement(A, E12)  # nilpotent, not idempotent
    with pytest.raises(NotPrimeError):
        verify_recollement(t2_algebra(4), [0, 0, 1])


# -- each check can fail ---------------------------------------------------


def corrupt_after_init(monkeypatch, field):
    """Zero one field of every Recollement right after construction."""
    init = Recollement.__init__

    def broken(self, A, e):
        init(self, A, e)
        setattr(self, field, np.zeros_like(getattr(self, field)))

    monkeypatch.setattr(Recollement, "__init__", broken)


@pytest.mark.parametrize("e", [E22, E11], ids=["e22", "e11"])
@pytest.mark.parametrize(
    "field, check",
    [
        ("e_in_eA", "extension_restriction_triangles"),
        ("e_in_Ae", "restriction_coextension_triangles"),
    ],
)
def test_corrupted_unit_coordinates_fail_one_check(monkeypatch, e, field, check):
    corrupt_after_init(monkeypatch, field)
    rep = verify_recollement(t2_algebra(2), e, dim_bound=2)
    assert not rep.ok
    assert [k for k, v in rep.checks.items() if not v] == [check]
    assert rep.failures and {name for name, _ in rep.failures} == {check}
    assert rep.summary().startswith("FAIL ")


def test_zero_tensor_unit_breaks_the_first_identity(monkeypatch):
    corrupt_after_init(monkeypatch, "e_in_eA")
    rep = verify_recollement(t2_algebra(2), E22, dim_bound=2)
    name, (label, _key) = rep.failures[0]
    assert name == "extension_restriction_triangles" and label == "first identity"


def test_cli_recollement_failure_exits_1(monkeypatch, capsys):
    corrupt_after_init(monkeypatch, "e_in_Ae")
    site = os.path.join(os.path.dirname(__file__), "..", "fixtures", "a2_f2.json")
    code = main(["recollement", site, "--idempotent", "0,1,0", "--dim-bound", "2"])
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert code == 1 and doc["ok"] is False
    assert doc["checks"]["restriction_coextension_triangles"] is False
    assert doc["failures"] and all(
        name == "restriction_coextension_triangles" for name, _ in doc["failures"]
    )
    assert "restriction_coextension_triangles=FAIL" in captured.err


@pytest.mark.parametrize(
    "e, sizes, ranks_built",
    [
        ([0, 0, 0], {"middle": 13, "corner": 1, "quotient": 13}, [3, 0]),
        ([1, 0, 1], {"middle": 13, "corner": 13, "quotient": 1}, [3, 0]),
        (E11, {"middle": 13, "corner": 4, "quotient": 4}, [3, 1]),
        (E22, {"middle": 13, "corner": 4, "quotient": 4}, [3, 1]),
    ],
    ids=["zero", "unit", "e11", "e22"],
)
def test_verify_recollement_builds_one_universe_per_algebra(monkeypatch, e, sizes, ranks_built):
    # A/0 and 1A1 have A's structure constants; for e11 and e22 of T2(F2)
    # the corner and the quotient are both F2
    built = []
    universe = recollement.ModuleUniverse

    def counted(B, *args):
        built.append(B.rank)
        return universe(B, *args)

    monkeypatch.setattr(recollement, "ModuleUniverse", counted)
    rep = verify_recollement(t2_algebra(2), e, dim_bound=3)
    assert rep.ok and rep.universe_sizes == sizes
    assert built == ranks_built
