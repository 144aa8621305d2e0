"""Corner/quotient algebra construction and full recollement verification
for idempotents of the upper triangular 2x2 algebra and friends."""
import itertools
import json
import os
from collections import Counter

import numpy as np
import pytest

from torsite import acceptance, linalg, recollement
from torsite.algebra import constant_presheaf
from torsite.cli import main
from torsite.errors import InputError, NotPrimeError
from torsite.fixtures import (
    a2_category,
    a3_category,
    c2_monoid_category,
    field_algebra,
    group_algebra_c2,
    idempotent_monoid_category,
    product_field_algebra,
    t2_algebra,
    terminal_category,
)
from torsite.grskew import build_gr, build_skew_algebra, linearize_topology
from torsite.modules import SkewModule, regular_module, sheaf_check
from torsite.recollement import (
    Recollement,
    corner_algebra,
    quotient_algebra,
    verify_recollement,
    verify_recollements,
)
from torsite.topology import subcategory_topology
from torsite.torsion import ModuleUniverse, ideal_generated_by

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


# -- every unit, counit and map action matters ------------------------------

# the checks that fail when the method returns zero matrices
METHOD_CHECKS = {
    "pullback_unit": {"pullback_inflation_triangles"},
    "pullback_counit": {"pullback_inflation_triangles"},
    "i_upper_map": {"pullback_inflation_triangles"},
    "i_star_map": {"pullback_inflation_triangles", "inflation_socle_triangles"},
    "socle_unit": {"inflation_socle_triangles"},
    "socle_counit": {"inflation_socle_triangles"},
    "i_shriek_map": {"inflation_socle_triangles"},
    "tensor_unit": {"extension_restriction_triangles"},
    "tensor_counit": {"extension_restriction_triangles"},
    "j_shriek_map": {"extension_restriction_triangles"},
    "j_star_map": {"extension_restriction_triangles", "restriction_coextension_triangles"},
    "hom_unit": {"restriction_coextension_triangles"},
    "hom_counit": {"restriction_coextension_triangles"},
    "j_lower_map": {"restriction_coextension_triangles"},
}


@pytest.mark.parametrize("e", [E22, E11], ids=["e22", "e11"])
@pytest.mark.parametrize("name", sorted(METHOD_CHECKS))
def test_zeroed_method_fails_exactly_its_adjunctions(monkeypatch, e, name):
    method = getattr(Recollement, name)
    monkeypatch.setattr(Recollement, name, lambda self, *args: np.zeros_like(method(self, *args)))
    rep = verify_recollement(t2_algebra(2), e, dim_bound=2)
    assert {k for k, v in rep.checks.items() if not v} == METHOD_CHECKS[name]


# -- the per-instance functor table -------------------------------------------

FUNCTORS = ("j_star", "i_star", "i_upper", "i_shriek", "j_shriek", "j_lower")


def same_value(a, b):
    """Equal in type, and every array equal in dtype, shape and bytes."""
    if isinstance(a, np.ndarray):
        return (
            isinstance(b, np.ndarray)
            and a.dtype == b.dtype
            and a.shape == b.shape
            and a.tobytes() == b.tobytes()
        )
    if isinstance(a, SkewModule):
        return isinstance(b, SkewModule) and same_value(a.act, b.act)
    if isinstance(a, (tuple, list)):
        return (
            isinstance(b, (tuple, list))
            and len(a) == len(b)
            and all(same_value(x, y) for x, y in zip(a, b))
        )
    return False


def record_functor_calls(monkeypatch):
    """Record (instance, undecorated functor, argument, value) for every call."""
    calls = []
    for name in FUNCTORS:
        stored = getattr(Recollement, name)

        def recorded(self, N, stored=stored):
            value = stored(self, N)
            calls.append((self, stored.__wrapped__, N, value))
            return value

        monkeypatch.setattr(Recollement, name, recorded)
    return calls


ORACLE_CASES = [
    pytest.param(t2_algebra(2), e, 3, id=f"t2f2-{label}-d3")
    for label, e in (("0", [0, 0, 0]), ("1", [1, 0, 1]), ("e11", E11), ("e22", E22))
] + [
    pytest.param(t2_algebra(3), E22, 2, id="t2f3-e22-d2"),
    pytest.param(product_field_algebra(2, 2), [1, 0], 3, id="f2xf2-10-d3"),
    pytest.param(group_algebra_c2(2), [1, 0], 2, id="c2-1-d2"),
    pytest.param(group_algebra_c2(2), [0, 0], 2, id="c2-0-d2"),
]


@pytest.mark.parametrize("A, e, d", ORACLE_CASES)
def test_stored_functor_values_equal_fresh_computations(monkeypatch, A, e, d):
    calls = record_functor_calls(monkeypatch)
    assert verify_recollement(A, e, dim_bound=d).ok
    assert calls
    for rec, unstored, N, value in calls:
        assert same_value(value, unstored(rec, N)), (unstored.__name__, N.key())


def test_functor_table_counts_at_e22(monkeypatch):
    # calls of each functor during one verification -> values computed
    calls, computed = Counter(), Counter()
    for name in FUNCTORS:
        unstored = getattr(Recollement, name).__wrapped__

        def counted(self, N, name=name, unstored=unstored):
            computed[name] += 1
            return unstored(self, N)

        counted.__name__ = name
        stored = recollement._stored(counted)

        def called(self, N, name=name, stored=stored):
            calls[name] += 1
            return stored(self, N)

        monkeypatch.setattr(Recollement, name, called)
    assert verify_recollement(t2_algebra(2), E22, dim_bound=3).ok
    assert {name: (calls[name], computed[name]) for name in FUNCTORS} == {
        "j_star": (180, 16),
        "i_star": (80, 4),
        "i_upper": (90, 13),
        "i_shriek": (90, 13),
        "j_shriek": (63, 4),
        "j_lower": (63, 4),
    }


def test_functor_values_are_read_only():
    A = t2_algebra(2)
    rec = Recollement(A, E22)
    M = regular_module(A)
    Me, rows = rec.j_star(M)
    QM, proj, sec = rec.i_upper(M)
    SM, K = rec.i_shriek(M)
    JN, projJ, secJ = rec.j_shriek(Me)
    HN, basis = rec.j_lower(Me)
    iQM = rec.i_star(QM)
    arrays = [Me.act, rows, QM.act, proj, sec, SM.act, K, JN.act, projJ, secJ, HN.act, iQM.act, *basis]
    assert basis
    for a in arrays:
        with pytest.raises(ValueError):
            a[...] = 0
    assert isinstance(basis, tuple)  # the stored basis cannot grow either
    # a second call returns the stored value itself
    assert rec.j_star(M)[1] is rows and rec.j_lower(Me)[1] is basis


def test_functor_table_keys_on_the_action_shape():
    # Over the rank-0 quotient of e = 1 every action tensor has empty bytes.
    # These are not unital modules (the zero ring has only the zero module),
    # so verification never meets them, but the functors accept them.
    A = t2_algebra(2)
    rec = Recollement(A, A.unit)
    assert rec.quotient.rank == 0
    for d in (1, 2, 1):
        N = SkewModule(rec.quotient, np.zeros((0, d, d), dtype=np.int64))
        assert rec.i_star(N).act.shape == (3, d, d)


def test_functor_tables_are_per_instance():
    A = t2_algebra(2)
    M = regular_module(A)
    one, two = Recollement(A, E22), Recollement(A, E11)
    assert one.j_star(M)[0].dim == 2 and two.j_star(M)[0].dim == 1
    assert one.j_star(M)[0].dim == 2


# -- several idempotents share the universes ---------------------------------


def test_verify_recollements_matches_one_call_per_idempotent():
    A = t2_algebra(2)
    idempotents = [[0, 0, 0], list(A.unit), E11, E22]
    together = verify_recollements(A, idempotents, dim_bound=2)
    for e, rep in zip(idempotents, together):
        alone = verify_recollement(A, e, dim_bound=2)
        assert repr(rep) == repr(alone)
    assert verify_recollements(A, [], dim_bound=2) == []


def test_criterion_9_builds_each_universe_once(monkeypatch):
    built = []
    universe = recollement.ModuleUniverse

    def counted(B, *args):
        built.append(B.rank)
        return universe(B, *args)

    monkeypatch.setattr(recollement, "ModuleUniverse", counted)
    assert acceptance.criterion_9_recollement() == "all checks pass for e in {0, 1, e22}"
    assert built == [3, 0, 1]


# -- the presheaves of the benchmark sites ------------------------------------

# name -> (category, coefficient algebra, number of idempotents of the
# skew algebra), built as perfbench/make_sites.py builds them
BENCH_PRESHEAVES = {
    "terminal_f2": (terminal_category, lambda: field_algebra(2), 2),
    "terminal_f3": (terminal_category, lambda: field_algebra(3), 2),
    "terminal_f2xf2": (terminal_category, lambda: product_field_algebra(2, 2), 4),
    "a2_f2": (a2_category, lambda: field_algebra(2), 6),
    "a2_f2xf2": (a2_category, lambda: product_field_algebra(2, 2), 36),
    "a3_f2": (a3_category, lambda: field_algebra(2), 26),
    "c2_f2": (c2_monoid_category, lambda: field_algebra(2), 2),
    "c2_f3": (c2_monoid_category, lambda: field_algebra(3), 4),
    "c2_f2xf2": (c2_monoid_category, lambda: product_field_algebra(2, 2), 4),
    "idem_f2": (idempotent_monoid_category, lambda: field_algebra(2), 4),
    "idem_f2xf2": (idempotent_monoid_category, lambda: product_field_algebra(2, 2), 16),
}


def bench_presheaf(name: str) -> tuple:
    make_cat, make_alg, _ = BENCH_PRESHEAVES[name]
    cat = make_cat()
    return cat, constant_presheaf(cat, make_alg())


@pytest.mark.parametrize("name", BENCH_PRESHEAVES)
def test_every_idempotent_gives_a_recollement(name):
    A = build_skew_algebra(*bench_presheaf(name))
    idempotents = [v for v in linalg.all_vectors(A.rank, A.base.modulus) if A.is_idempotent(v)]
    assert len(idempotents) == BENCH_PRESHEAVES[name][2]
    reports = verify_recollements(A, idempotents, dim_bound=2)
    assert [rep.idempotent for rep in reports if not rep.ok] == []


@pytest.mark.parametrize("name", BENCH_PRESHEAVES)
def test_sheaves_are_the_modules_with_an_invertible_hom_unit(name):
    # the paper's Theorem A: for e = e_D the sheaves on (C, J_D, R) are the
    # modules M whose unit M -> j_* j^* M is an isomorphism
    cat, R = bench_presheaf(name)
    A, gr = build_skew_algebra(cat, R), build_gr(cat, R)
    n = A.base.modulus
    members = ModuleUniverse(A, 2).members
    for D in itertools.chain.from_iterable(
        itertools.combinations(range(cat.n_objects), r) for r in range(cat.n_objects + 1)
    ):
        e = sum((A.object_idempotent(x) for x in D), np.zeros(A.rank, dtype=np.int64)) % n
        rec = Recollement(A, e)
        Jp = linearize_topology(gr, subcategory_topology(cat, D))
        for V in members:
            H = rec.hom_unit(V)
            invertible = H.shape[0] == H.shape[1] and np.array_equal(
                linalg.howell_form(H, n, H.shape[1]), np.eye(len(H), dtype=np.int64)
            )
            assert bool(sheaf_check(V, Jp)) == invertible, (D, V.key())
