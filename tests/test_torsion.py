"""Ideal enumeration, module universes, torsion pair certification, and
the three classifications, pinned to hand-checked values for the upper
triangular 2x2 algebra, the product field, and the order-2 group algebra
over F2."""
import dataclasses
import functools
import itertools
import os
import tracemalloc

import numpy as np
import pytest

from torsite import files, grskew, linalg
from torsite import torsion as tn
from torsite.algebra import constant_presheaf, restrict_presheaf
from torsite.errors import BudgetExceededError, InputError, NotPrimeError
from torsite.fincat import full_subcategory
from torsite.fixtures import (
    a2_category,
    a2_mixed_presheaf,
    a3_category,
    c2_monoid_category,
    field_algebra,
    fixture_presheaves,
    group_algebra_c2,
    idempotent_monoid_category,
    product_field_algebra,
    t2_algebra,
    terminal_category,
    zero_algebra,
)
from torsite.modules import (
    SkewModule,
    direct_sum,
    enumerate_skew_module_structures,
    hom_skew,
    phi_from_gr,
    quotient_module,
    regular_module,
    submodule_module,
    torsion_check,
)
from torsite.report import ValidationReport
from torsite.topology import GrothendieckTopology, enumerate_topologies, matching_subcategories

from test_modules import hom_modules

E11 = [1, 0, 0]
E12 = [0, 1, 0]
E22 = [0, 0, 1]


@pytest.fixture(scope="module")
def t2():
    return t2_algebra(2)


@pytest.fixture(scope="module")
def t2_universe(t2):
    return tn.ModuleUniverse(t2, 3)


@pytest.fixture(scope="module")
def kxk_universe():
    return tn.ModuleUniverse(product_field_algebra(2, 2), 3)


def simple_classes(t2, universe):
    s1 = universe.index_of(SkewModule(t2, np.array([[[1]], [[0]], [[0]]])))
    s2 = universe.index_of(SkewModule(t2, np.array([[[0]], [[0]], [[1]]])))
    p1, _ = submodule_module(regular_module(t2), np.array([E11, E12]))
    return s1, s2, universe.index_of(p1)


# ---------------------------------------------------------------------------
# ideals and centers


def test_t2_ideal_lattice(t2):
    ideals = tn.enumerate_ideals(t2)
    assert [I.size for I in ideals] == [1, 2, 4, 4, 8]
    idem = tn.enumerate_idempotent_ideals(t2)
    assert len(idem) == 4
    rad = tn.ideal_generated_by(t2, [E12])
    assert rad.size == 2
    assert not tn.is_idempotent_ideal(rad)
    assert tn.product_ideal(rad, rad).size == 1


def test_ideal_containment_and_products(t2):
    full = tn.ideal_generated_by(t2, [t2.unit])
    assert full.size == 8
    left = tn.ideal_generated_by(t2, [E11])
    right = tn.ideal_generated_by(t2, [E22])
    assert left.size == 4 and right.size == 4
    assert left.contains(E12) and right.contains(E12)
    assert tn.product_ideal(left, right).size == 2  # the radical
    assert tn.product_ideal(right, left).size == 1


def test_product_field_ideals_all_idempotent():
    A = product_field_algebra(2, 2)
    ideals = tn.enumerate_ideals(A)
    assert len(ideals) == 4
    assert all(tn.is_idempotent_ideal(I) for I in ideals)


def test_group_algebra_ideals():
    A = group_algebra_c2(2)
    ideals = tn.enumerate_ideals(A)
    assert [I.size for I in ideals] == [1, 2, 4]
    assert len(tn.enumerate_idempotent_ideals(A)) == 2


def test_centers_and_central_idempotents(t2):
    assert tn.center(t2).shape[0] == 1
    assert [tuple(int(v) for v in e) for e in tn.central_idempotents(t2)] == [
        (0, 0, 0),
        (1, 0, 1),
    ]
    assert tn.center(group_algebra_c2(2)).shape[0] == 2
    assert len(tn.central_idempotents(product_field_algebra(2, 2))) == 4
    assert tn.is_central_idempotent(t2, [1, 0, 1])
    assert not tn.is_central_idempotent(t2, E11)  # idempotent, not central
    assert not tn.is_central_idempotent(t2, E12)  # central test fails earlier: not idempotent


def trace_ideal(A, modules) -> tn.TwoSidedIdeal:
    """Sum of the images of all module maps from the given modules into A."""
    R = regular_module(A)
    return tn.ideal_generated_by(A, tn.trace_in_module([H for S in modules for H in hom_skew(S, R)], R))


def test_trace_ideal_always_idempotent(t2, t2_universe):
    mods = t2_universe.members
    for picks in itertools.chain(
        itertools.combinations(range(len(mods)), 1),
        itertools.combinations(range(len(mods)), 2),
    ):
        I = trace_ideal(t2, [mods[p] for p in picks])
        assert tn.is_idempotent_ideal(I)


def test_trace_ideal_of_projective_is_corner(t2):
    P1, _ = submodule_module(regular_module(t2), np.array([E11, E12]))
    I = trace_ideal(t2, [P1])
    assert I.size == 4 and I.contains(E11) and I.contains(E12)


# ---------------------------------------------------------------------------
# the module universe


def test_t2_universe_members(t2_universe):
    dims = [V.dim for V in t2_universe.members]
    assert len(t2_universe) == 13
    assert dims == [0, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3]


def test_universe_index_is_isomorphism_invariant(t2, t2_universe):
    V = regular_module(t2)
    idx = t2_universe.index_of(V)
    G = np.array([[1, 1, 0], [0, 1, 1], [0, 0, 1]])
    Ginv = tn.linalg.matrix_inverse(G, 2)
    act = np.stack([(Ginv @ M @ G) % 2 for M in V.act])
    assert t2_universe.index_of(SkewModule(t2, act)) == idx


def test_universe_rejects_oversize_and_foreign(t2_universe, t2):
    big = SkewModule(t2, np.stack([np.eye(4, dtype=np.int64)] * 3) * 0)
    with pytest.raises(InputError):
        t2_universe.index_of(big)


def test_universe_needs_prime_modulus():
    from torsite.fixtures import t2_algebra

    with pytest.raises(NotPrimeError):
        tn.ModuleUniverse(t2_algebra(4), 1)


def test_universe_budget():
    with pytest.raises(BudgetExceededError):
        tn.ModuleUniverse(t2_algebra(2), 3, budget=100)


def test_universe_of_a_rank_zero_algebra_ignores_a_huge_bound():
    # no simples, so no level is built: nothing is allocated per level
    tracemalloc.start()
    try:
        U = tn.ModuleUniverse(zero_algebra(2), 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(U) == 1 and U.simple_indices == ()
    assert peak < 5 * 2**20


def test_universe_budget_on_extension_scan():
    # right ideals (2^4) and GL(2, 2) (2^4 candidates) fit; the cocycles
    # scanned while building dimension 2 do not
    A = tn.build_skew_algebra(a2_category(), a2_mixed_presheaf(2))
    with pytest.raises(BudgetExceededError) as err:
        tn.ModuleUniverse(A, 2, budget=16)
    assert err.value.what == "module universe extensions"
    assert len(tn.ModuleUniverse(A, 2, budget=20)) == 11


def test_universe_budget_on_right_ideals():
    with pytest.raises(BudgetExceededError) as err:
        tn.ModuleUniverse(t2_algebra(2), 1, budget=4)
    assert err.value.what == "module universe right ideals"


def _skew(cat, coefficients):
    return tn.build_skew_algebra(cat, constant_presheaf(cat, coefficients))


@functools.cache
def sub_classes(U: tn.ModuleUniverse, i: int) -> frozenset:
    """Classes of every submodule of member i, read off the full submodule
    lattice: the reference for the hereditary flag."""
    V = U.members[i]
    lattice = linalg.enumerate_submodules(V.dim, U.algebra.base.modulus, list(V.act), U.budget)
    return frozenset(U.index_of(submodule_module(V, H)[0]) for H in lattice)


@pytest.mark.parametrize(
    "make, dim_bound",
    [
        (lambda: t2_algebra(2), 3),
        (lambda: product_field_algebra(2, 2), 3),
        (lambda: group_algebra_c2(2), 3),
        (lambda: _skew(a2_category(), field_algebra(2)), 3),
        (lambda: _skew(c2_monoid_category(), field_algebra(3)), 2),
    ],
    ids=["t2_f2", "f2xf2", "f2c2", "a2_f2", "c2_f3"],
)
def test_universe_matches_structure_enumeration_oracle(make, dim_bound):
    A = make()
    U = tn.ModuleUniverse(A, dim_bound)
    keys = {
        U._canon_key(V)
        for m in range(dim_bound + 1)
        for V in enumerate_skew_module_structures(A, m)
    }
    want = [(m, act) for m, act in sorted(keys)]
    got = [(V.dim, V.act.tobytes()) for V in U.members]
    assert got == want
    assert all(V.act.shape == (A.rank, V.dim, V.dim) for V in U.members)


@pytest.mark.parametrize("n, m", [(2, 1), (2, 2), (2, 3), (3, 2), (5, 2)])
def test_invertible_matrices_match_matrix_inverse(n, m):
    G, Ginv = tn._invertible_matrices(n, m, 2**22)
    want_g, want_inv = [], []
    for k in range(n ** (m * m)):
        M = np.array([(k // n**c) % n for c in range(m * m)], dtype=np.int64).reshape(m, m)
        inv = tn.linalg.matrix_inverse(M, n)
        if inv is not None:
            want_g.append(M)
            want_inv.append(inv)
    assert G.dtype == Ginv.dtype == np.int64
    assert np.array_equal(G, np.stack(want_g))
    assert np.array_equal(Ginv, np.stack(want_inv))
    eye = np.eye(m, dtype=np.int64)
    assert (np.matmul(G, Ginv) % n == eye).all()
    assert (np.matmul(Ginv, G) % n == eye).all()


def test_invertible_matrices_refuse_inexact_modulus():
    # (n - 1)^2 overflows int64; refused before anything is allocated
    with pytest.raises(InputError):
        tn._invertible_matrices(4294967311, 1, 2**40)


def test_universe_counts_beyond_structure_enumeration():
    # T2 is the path algebra of A2: indecomposables S1, S2, P1 of dims
    # 1, 1, 2, so by Krull-Schmidt the classes of dim <= d number
    # #{(a, b, c) : a + b + 2c <= d} over any field
    assert len(tn.ModuleUniverse(t2_algebra(3), 3)) == 13
    assert len(tn.ModuleUniverse(t2_algebra(2), 4)) == 22


def test_product_field_universe(kxk_universe):
    assert len(kxk_universe) == 10


def test_hom_dims_between_projectives_and_simples(t2, t2_universe):
    s1, s2, p1 = simple_classes(t2, t2_universe)
    assert t2_universe.hom_dim(p1, s1) == 1
    assert t2_universe.hom_dim(p1, s2) == 0
    assert t2_universe.hom_dim(s2, p1) == 1
    assert t2_universe.hom_dim(s1, p1) == 0


def test_hom_basis_agrees_with_hom_skew_and_hom_modules():
    # two routes on every ordered member pair of the T2(F2) universe at dim 3:
    # the cached basis is hom_skew itself, and its size matches the natural
    # transformations between the module presheaves
    U = tn.ModuleUniverse(_skew(a2_category(), field_algebra(2)), 3)
    assert len(U) == 13
    presheaves = [phi_from_gr(V) for V in U.members]
    for i, Vi in enumerate(U.members):
        for j, Vj in enumerate(U.members):
            basis = U.hom_basis(i, j)
            direct = hom_skew(Vi, Vj)
            assert len(basis) == len(direct) == U.hom_dim(i, j)
            assert all(np.array_equal(a, b) for a, b in zip(basis, direct))
            assert len(basis) == len(hom_modules(presheaves[i], presheaves[j])), (i, j)


def _count_hom_skew(monkeypatch):
    """Count torsion.hom_skew calls, those made inside _splits separately."""
    calls = {"pairs": [], "splits": 0}
    inside = []

    def counted(V, W):
        if inside:
            calls["splits"] += 1
        else:
            calls["pairs"].append((id(V), id(W)))
        return hom_skew(V, W)

    splits = tn._splits

    def counted_splits(*args):
        inside.append(True)
        try:
            return splits(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(tn, "hom_skew", counted)
    monkeypatch.setattr(tn, "_splits", counted_splits)
    return calls


def test_torsion_sequences_are_computed_once_per_class(t2, monkeypatch):
    U = tn.ModuleUniverse(t2, 3)
    s1, s2, p1 = simple_classes(t2, U)
    ys = U.perp_of({s2})
    xs = U.pre_perp_of(ys)
    first = tn.torsion_pair_check(xs, ys, U)
    assert first.ok
    # the cached traces are the traces stacked from hom_skew in index order
    for seq, a in zip(first.sequences, U.members):
        maps = [H for i in sorted(xs) for H in hom_skew(U.members[i], a)]
        assert np.array_equal(seq.sub_rows, tn.trace_in_module(maps, a))
    calls = _count_hom_skew(monkeypatch)
    again = tn.torsion_pair_check(xs, ys, U)
    assert calls == {"pairs": [], "splits": 0}
    assert again.sequences is first.sequences
    assert (again.ok, again.hereditary, again.split, again.failures) == (True, True, False, [])
    # a wrong Y is judged on the same sequences, with no new Hom space
    zero = U.zero_index()
    wrong = tn.torsion_pair_check(xs, {zero}, U)
    assert calls == {"pairs": [], "splits": 0}
    assert not wrong.ok and wrong.sequences is first.sequences
    assert ("sequence-quot", p1, s1) in wrong.failures
    # witnesses share the sequences, so they cannot be changed
    seq = first.sequences[p1]
    with pytest.raises(dataclasses.FrozenInstanceError):
        seq.splits = True
    with pytest.raises(ValueError):
        seq.sub_rows[0, 0] = 1
    with pytest.raises(ValueError):
        U.hom_basis(s2, p1)[0][0, 0] = 0


def test_classify_computes_each_hom_space_once(monkeypatch):
    cat = a2_category()
    R = constant_presheaf(cat, field_algebra(2))
    J = next(
        J
        for J in enumerate_topologies(cat)
        if matching_subcategories(cat, J) == [(0, 1)]
    )
    calls = _count_hom_skew(monkeypatch)
    rep = tn.classify(cat, R, J, dim_bound=3)
    N = rep.counts["universe_members"]
    assert rep.ok and N == 13
    pairs = calls["pairs"]
    assert len(pairs) == len(set(pairs)) <= N * N
    classes = {w.x_indices for w in rep.hereditary_pairs}
    classes |= {t.x_indices for t in rep.ttf_triples + rep.split_ttf_triples}
    classes |= {t.y_indices for t in rep.ttf_triples + rep.split_ttf_triples}
    assert calls["splits"] <= len(classes) * N


@pytest.mark.parametrize(
    "make, dim_bound",
    [
        (lambda: t2_algebra(2), 3),
        (lambda: _skew(a3_category(), field_algebra(2)), 3),
        (lambda: _skew(c2_monoid_category(), field_algebra(2)), 3),
        (lambda: product_field_algebra(2, 2), 3),
        (lambda: _skew(c2_monoid_category(), field_algebra(3)), 2),
    ],
    ids=["t2_f2", "a3_f2", "c2_f2", "f2xf2", "c2_f3"],
)
def test_maximal_submodules_generate_the_submodule_lattice(make, dim_bound):
    # finite length: the submodules of a member are the member itself and
    # the submodules of its maximal submodules
    U = tn.ModuleUniverse(make(), dim_bound)
    zero = U.zero_index()
    assert U.maximal_sub_classes(zero) == frozenset()
    for i in range(len(U)):
        below = {j for k in U.maximal_sub_classes(i) for j in sub_classes(U, k)}
        assert sub_classes(U, i) == {i} | below, i
    simples = [i for i in range(len(U)) if sub_classes(U, i) == {zero, i} and i != zero]
    assert list(U.simple_indices) == simples
    assert all(U.maximal_sub_classes(s) == {zero} for s in simples)


def test_maximal_sub_classes_of_t2(t2, t2_universe):
    s1, s2, p1 = simple_classes(t2, t2_universe)
    assert t2_universe.maximal_sub_classes(p1) == {s2}
    both = t2_universe.index_of(direct_sum(t2_universe.members[s1], t2_universe.members[s2]))
    assert t2_universe.maximal_sub_classes(both) == {s1, s2}


def test_hereditary_flag_matches_full_submodule_lattice(t2_universe):
    pairs = tn.brute_force_torsion_pairs(t2_universe)
    assert len(pairs) == 5
    for w in pairs:
        closed = all(sub_classes(t2_universe, i) <= w.x_indices for i in w.x_indices)
        assert w.hereditary == closed


# ---------------------------------------------------------------------------
# torsion pairs


def test_t2_torsion_pairs(t2, t2_universe):
    pairs = tn.brute_force_torsion_pairs(t2_universe)
    assert len(pairs) == 5
    s1, s2, p1 = simple_classes(t2, t2_universe)
    by_x = {p.x_indices: p for p in pairs}
    all_idx = frozenset(range(len(t2_universe)))
    zero = frozenset([t2_universe.zero_index()])
    assert zero in by_x and all_idx in by_x
    add_s1 = frozenset(
        i for i, V in enumerate(t2_universe.members) if _is_add(t2_universe, i, {s1})
    )
    add_s2 = frozenset(
        i for i, V in enumerate(t2_universe.members) if _is_add(t2_universe, i, {s2})
    )
    add_s1_p1 = frozenset(
        i
        for i, V in enumerate(t2_universe.members)
        if _is_add(t2_universe, i, {s1, p1})
    )
    assert set(by_x) == {zero, all_idx, add_s1, add_s2, add_s1_p1}
    assert by_x[add_s1].hereditary and by_x[add_s2].hereditary
    assert not by_x[add_s1_p1].hereditary
    assert by_x[add_s1].split and by_x[add_s1_p1].split
    assert not by_x[add_s2].split  # the projective cover does not decompose


def _is_add(universe, i, gens):
    """Is member i a direct sum of copies of the given classes?"""
    V = universe.members[i]
    if V.dim == 0:
        return True
    parts = [universe.members[g] for g in gens if universe.members[g].dim]
    seen = set()
    for counts in itertools.product(range(V.dim + 1), repeat=len(parts)):
        if sum(c * p.dim for c, p in zip(counts, parts)) != V.dim or not any(counts):
            continue
        pieces = [p for c, p in zip(counts, parts) for _ in range(c)]
        S = pieces[0]
        for extra in pieces[1:]:
            S = direct_sum(S, extra)
        seen.add(universe.index_of(S))
    return i in seen


def _hereditary_universes():
    for name, cat, R in fixture_presheaves():
        skew = tn.build_skew_algebra(cat, R)
        for d in (1, 2, 3):
            yield f"{name}/d{d}", tn.ModuleUniverse(skew, d)
    yield "t2_f3/d2", tn.ModuleUniverse(t2_algebra(3), 2)
    yield "f2xf2/d3", tn.ModuleUniverse(product_field_algebra(2, 2), 3)


def test_hereditary_pairs_are_two_to_the_simples():
    # a hereditary class of a finite-dimensional algebra is fixed by the
    # simples it contains (Jans, 1965); the unfiltered search finds 5 pairs
    # on a2_f2 at d >= 2 and on T2(F3)
    for key, U in _hereditary_universes():
        assert len(tn.brute_force_hereditary_pairs(U)) == 2 ** len(U.simple_indices), key


def test_torsion_pair_check_sequences(t2, t2_universe):
    s1, s2, p1 = simple_classes(t2, t2_universe)
    pairs = tn.brute_force_torsion_pairs(t2_universe)
    w = next(p for p in pairs if s2 in p.x_indices and len(p.x_indices) == 4)
    assert w.y_indices == frozenset(
        i for i in range(len(t2_universe)) if _is_add(t2_universe, i, {s1})
    )
    seq = w.sequences[p1]
    assert seq.sub_class == s2 and seq.quot_class == s1 and not seq.splits
    # the witness sequence really sits inside the member
    assert seq.sub_rows.shape == (1, 2)
    assert seq.projection.shape == (2, 1)


def test_torsion_pair_check_rejects_non_pairs(t2_universe):
    s1 = t2_universe.members
    zero = t2_universe.zero_index()
    xs = frozenset([zero])
    ys = frozenset([zero])  # wrong: Y must be everything
    w = tn.torsion_pair_check(xs, ys, t2_universe)
    assert not w.ok and w.failures


def test_torsion_pair_check_accepts_predicates(t2, t2_universe):
    w = tn.torsion_pair_check(
        lambda V: V.dim == 0,
        lambda V: True,
        t2_universe,
    )
    assert w.ok and w.hereditary and w.split


def test_product_field_torsion_pairs(kxk_universe):
    pairs = tn.brute_force_torsion_pairs(kxk_universe)
    assert len(pairs) == 4
    assert all(p.hereditary and p.split for p in pairs)
    assert len(tn.brute_force_hereditary_pairs(kxk_universe)) == 4


def test_group_algebra_torsion_pairs():
    U = tn.ModuleUniverse(group_algebra_c2(2), 3)
    assert len(U) == 6
    pairs = tn.brute_force_torsion_pairs(U)
    assert len(pairs) == 2  # only the trivial pairs: every nonzero module maps to every other
    assert all(p.hereditary and p.split for p in pairs)


# ---------------------------------------------------------------------------
# TTF triples


def test_t2_ttf_triples(t2, t2_universe):
    triples = tn.brute_force_ttf_triples(t2_universe)
    assert len(triples) == 4
    assert sum(1 for t in triples if t.split) == 2
    s1, s2, p1 = simple_classes(t2, t2_universe)
    sizes = sorted((len(t.x_indices), len(t.y_indices), len(t.z_indices)) for t in triples)
    assert sizes == [(1, 13, 1), (4, 4, 6), (6, 4, 4), (13, 1, 13)]


def test_ttf_from_idempotent_ideal_matches_brute(t2, t2_universe):
    idem = tn.enumerate_idempotent_ideals(t2)
    triples = [tn.ttf_from_idempotent_ideal(I, t2_universe) for I in idem]
    assert all(t.ok for t in triples)
    keys = {t.key() for t in triples}
    assert len(keys) == len(idem)  # injective on ideals
    brute = {t.key() for t in tn.brute_force_ttf_triples(t2_universe)}
    assert keys == brute


def test_ttf_rejects_non_idempotent_ideal(t2, t2_universe):
    rad = tn.ideal_generated_by(t2, [E12])
    with pytest.raises(InputError):
        tn.ttf_from_idempotent_ideal(rad, t2_universe)


def test_ttf_triple_needs_one_middle_class(t2_universe):
    pairs = tn.brute_force_torsion_pairs(t2_universe)
    assert all(p.ok for p in pairs)
    oks = [tn.TTFTriple(p, q).ok for p, q in itertools.product(pairs, repeat=2)]
    want = [p.y_indices == q.x_indices for p, q in itertools.product(pairs, repeat=2)]
    assert oks == want and sum(oks) == 4


def assert_split_route(universe):
    """split_ttf_from_central_idempotent against the action of each central
    idempotent e: X = Z = {M : Me = M} and Y = {M : Me = 0}.  Returns the
    triples."""
    A = universe.algebra
    triples = []
    for e in tn.central_idempotents(A):
        t = tn.split_ttf_from_central_idempotent(e, universe)
        xs, ys = set(), set()
        for idx, V in enumerate(universe.members):
            E = V.act_of(e) % A.base.modulus
            # e idempotent, so Me = M iff e acts as the identity
            if (E == np.eye(V.dim, dtype=np.int64)).all():
                xs.add(idx)
            if not E.any():
                ys.add(idx)
        assert t.ok and t.split
        assert (t.x_indices, t.y_indices, t.z_indices) == (xs, ys, xs)
        triples.append(t)
    return triples


def test_split_ttf_from_central_idempotents(t2, t2_universe):
    triples = assert_split_route(t2_universe)
    assert len({t.key() for t in triples}) == 2


def test_split_ttf_rejects_non_central(t2, t2_universe):
    with pytest.raises(InputError):
        tn.split_ttf_from_central_idempotent(E11, t2_universe)
    with pytest.raises(InputError):
        tn.split_ttf_from_central_idempotent(E12, t2_universe)


def test_product_field_split_ttf(kxk_universe):
    A = kxk_universe.algebra
    assert len(tn.central_idempotents(A)) == 4
    triples = assert_split_route(kxk_universe)
    assert len({t.key() for t in triples}) == 4
    brute = tn.brute_force_ttf_triples(kxk_universe)
    assert {t.key() for t in triples} == {t.key() for t in brute}
    assert all(t.split for t in brute)


# ---------------------------------------------------------------------------
# classification


def test_classify_a2_full_site():
    cat = a2_category()
    R = constant_presheaf(cat, field_algebra(2))
    J = next(
        J
        for J in enumerate_topologies(cat)
        if matching_subcategories(cat, J) == [(0, 1)]
    )
    rep = tn.classify(cat, R, J, dim_bound=3)
    assert rep.ok
    assert rep.counts == {
        "universe_members": 13,
        "linear_topologies": 4,
        "hereditary_torsion_pairs": 4,
        "idempotent_ideals": 4,
        "ttf_triples": 4,
        "central_idempotents": 2,
        "split_ttf_triples": 2,
    }
    assert rep.summary().startswith("pass ")
    assert all(w.hereditary for w in rep.hereditary_pairs)
    assert sum(1 for t in rep.split_ttf_triples if t.split) == 2


def test_classify_counts_match_brute_oracles():
    cat = a2_category()
    R = constant_presheaf(cat, field_algebra(2))
    J = next(
        J
        for J in enumerate_topologies(cat)
        if matching_subcategories(cat, J) == [(0, 1)]
    )
    rep = tn.classify(cat, R, J, dim_bound=3)
    U = tn.ModuleUniverse(tn.build_skew_algebra(cat, R), 3)
    assert rep.counts["hereditary_torsion_pairs"] == len(
        tn.brute_force_hereditary_pairs(U)
    )
    brute_ttf = tn.brute_force_ttf_triples(U)
    assert rep.counts["ttf_triples"] == len(brute_ttf)
    assert rep.counts["split_ttf_triples"] == sum(1 for t in brute_ttf if t.split)


def test_classify_terminal_product_field():
    cat = terminal_category()
    R = constant_presheaf(cat, product_field_algebra(2, 2))
    J = next(
        J
        for J in enumerate_topologies(cat)
        if matching_subcategories(cat, J) == [(0,)]
    )
    rep = tn.classify(cat, R, J, dim_bound=3)
    assert rep.ok
    assert rep.counts["universe_members"] == 10
    assert rep.counts["hereditary_torsion_pairs"] == 4
    assert rep.counts["ttf_triples"] == 4
    assert rep.counts["split_ttf_triples"] == 4


def test_classify_restricts_to_subcategory():
    cat = a2_category()
    R = constant_presheaf(cat, field_algebra(2))
    J = next(
        J
        for J in enumerate_topologies(cat)
        if matching_subcategories(cat, J) == [(1,)]
    )
    rep = tn.classify(cat, R, J, dim_bound=3)
    assert rep.subcategory_objects == ("2",)
    assert rep.counts["universe_members"] == 4  # modules over the base field
    assert rep.counts["hereditary_torsion_pairs"] == 2


def test_classify_rejects_non_subcategory_topology():
    cat = idempotent_monoid_category()
    bad = next(
        J for J in enumerate_topologies(cat) if not matching_subcategories(cat, J)
    )
    R = constant_presheaf(cat, field_algebra(2))
    with pytest.raises(InputError):
        tn.classify(cat, R, bad)


def test_classify_is_deterministic():
    cat = terminal_category()
    R = constant_presheaf(cat, field_algebra(2))
    J = next(
        J
        for J in enumerate_topologies(cat)
        if matching_subcategories(cat, J) == [(0,)]
    )
    a = tn.classify(cat, R, J, dim_bound=2)
    b = tn.classify(cat, R, J, dim_bound=2)
    assert a.summary() == b.summary()
    assert [w.x_indices for w in a.hereditary_pairs] == [
        w.x_indices for w in b.hereditary_pairs
    ]


def test_classify_takes_topologies_from_idempotent_ideals(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("power-set search reached from classify")

    monkeypatch.setattr(grskew, "enumerate_linear_topologies", refuse)
    calls = []
    enumerate_idempotent_ideals = tn.enumerate_idempotent_ideals

    def counted(A, *args, **kwargs):
        calls.append(A)
        return enumerate_idempotent_ideals(A, *args, **kwargs)

    monkeypatch.setattr(tn, "enumerate_idempotent_ideals", counted)
    cat = a2_category()
    R = constant_presheaf(cat, field_algebra(2))
    J = next(J for J in enumerate_topologies(cat) if matching_subcategories(cat, J) == [(0, 1)])
    rep = tn.classify(cat, R, J, dim_bound=2)
    assert rep.ok and rep.counts["linear_topologies"] == 4
    assert len(calls) == 1


def test_classify_fails_on_a_bad_certificate(monkeypatch):
    def reject(gr, Jp, budget):
        rep = ValidationReport("linear topology")
        rep.add("stability", (0,))
        return rep

    monkeypatch.setattr(tn, "is_linear_topology", reject)
    cat = terminal_category()
    R = constant_presheaf(cat, field_algebra(2))
    J = next(J for J in enumerate_topologies(cat) if matching_subcategories(cat, J) == [(0,)])
    rep = tn.classify(cat, R, J, dim_bound=1)
    assert not rep.ok and rep.counts["linear_topologies"] == 2


SITES = os.path.join(os.path.dirname(__file__), "..", "perfbench", "sites")


def load_site(presheaf, topology="full"):
    """The presheaf of sites/<presheaf>.json with the topology of
    sites/<category>_<topology>_topology.json, on the presheaf's category."""
    cat, R = files.load_presheaf(os.path.join(SITES, f"{presheaf}.json"))
    J = files.load_topology(os.path.join(SITES, f"{presheaf.split('_')[0]}_{topology}_topology.json"))
    return cat, R, GrothendieckTopology(cat, [list(J.covers_at(x)) for x in range(cat.n_objects)])


def _reach_counts(members, topologies, central):
    return {
        "universe_members": members,
        "linear_topologies": topologies,
        "hereditary_torsion_pairs": topologies,
        "idempotent_ideals": topologies,
        "ttf_triples": topologies,
        "central_idempotents": central,
        "split_ttf_triples": central,
    }


@pytest.mark.parametrize(
    "presheaf, counts",
    [
        # c2_f2xf2 and a2_f2xf2 as frozen in perfbench/workloads.json under
        # "excluded"; idem_f2xf2 has four simples, so 2^4 of each
        ("c2_f2xf2", _reach_counts(8, 4, 4)),
        ("idem_f2xf2", _reach_counts(15, 16, 16)),
        ("a2_f2xf2", _reach_counts(17, 16, 4)),
    ],
)
def test_classify_reaches_the_f2xf2_sites_at_dim_2(presheaf, counts):
    cat, R, J = load_site(presheaf)
    rep = tn.classify(cat, R, J, dim_bound=2)
    assert rep.ok
    assert rep.counts == counts


def test_classify_passes_its_budget_to_every_stage(monkeypatch):
    # the idempotent ideals and every linear-sieve search, the certificate
    # of each J_I included, run under the caller's budget
    budgets = []
    ideals = tn.enumerate_idempotent_ideals
    sieves = grskew.GrCategory.linear_sieves_on

    def spy_ideals(A, budget=2**20):
        budgets.append(("ideals", budget))
        return ideals(A, budget)

    def spy_sieves(self, x, budget=grskew.DEFAULT_LINEAR_BUDGET):
        budgets.append(("sieves", budget))
        return sieves(self, x, budget)

    monkeypatch.setattr(tn, "enumerate_idempotent_ideals", spy_ideals)
    monkeypatch.setattr(grskew.GrCategory, "linear_sieves_on", spy_sieves)
    cat, R, J = load_site("a2_f2")
    rep = tn.classify(cat, R, J, dim_bound=2, budget=2**21)
    assert rep.ok
    assert {stage for stage, _ in budgets} == {"ideals", "sieves"}
    assert {budget for _, budget in budgets} == {2**21}


def test_classify_fails_when_the_topology_class_differs_from_y(monkeypatch):
    # the torsion class of each J_I must equal Y of the triple of I; deny
    # that one nonzero member is torsion
    real = tn.torsion_check
    denied = {}

    def deny_one(V, Jp):
        got = real(V, Jp)
        if got.value and V.dim and denied.setdefault("act", V.act.tobytes()) == V.act.tobytes():
            return dataclasses.replace(got, value=False)
        return got

    monkeypatch.setattr(tn, "torsion_check", deny_one)
    cat, R, J = load_site("a2_f2")
    rep = tn.classify(cat, R, J, dim_bound=2)
    assert denied and not rep.ok


# ---------------------------------------------------------------------------
# torsion sequences against the per-member loop


def oracle_torsion_sequences(universe, xs):
    """ModuleUniverse.torsion_sequences before its forced cases: every
    member pays for its trace, sub, quotient and splitting test."""
    sources = sorted(xs)
    sequences = []
    for a_idx, a in enumerate(universe.members):
        rows = tn.trace_in_module([H for i in sources for H in universe.hom_basis(i, a_idx)], a)
        S, incl = submodule_module(a, rows)
        Q, proj, _ = quotient_module(a, rows)
        incl.setflags(write=False)
        proj.setflags(write=False)
        sequences.append(
            tn.TorsionSequence(
                a_idx, incl, universe.index_of(S), universe.index_of(Q), proj, tn._splits(universe, a, S, incl)
            )
        )
    return tuple(sequences)


def assert_sequences_match_oracle(universe, xs):
    got = universe.torsion_sequences(xs)
    assert len(got) == len(universe)
    assert_same_sequences(got, oracle_torsion_sequences(universe, xs))


def assert_same_sequences(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g.member, g.sub_class, g.quot_class, g.splits) == (w.member, w.sub_class, w.quot_class, w.splits)
        for a, b in ((g.sub_rows, w.sub_rows), (g.projection, w.projection)):
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
            assert not a.flags.writeable


def _distinct_presheaf_files():
    by_bytes = {}
    for d in (SITES, os.path.join(os.path.dirname(__file__), "..", "fixtures")):
        for name in sorted(os.listdir(d)):
            with open(os.path.join(d, name), "rb") as fh:
                data = fh.read()
            if b'"algebras"' in data:
                by_bytes.setdefault(data, name)
    return sorted(by_bytes.values())


@pytest.mark.parametrize("presheaf", _distinct_presheaf_files())
def test_torsion_sequences_match_oracle_on_classify_classes(presheaf, monkeypatch):
    cat, R, J = load_site(presheaf.removesuffix(".json"))
    seen = []
    sequences = tn.ModuleUniverse.torsion_sequences

    def recording(universe, xs):
        seen.append((universe, xs))
        return sequences(universe, xs)

    monkeypatch.setattr(tn.ModuleUniverse, "torsion_sequences", recording)
    for dim in (2, 3):
        seen.clear()
        assert tn.classify(cat, R, J, dim_bound=dim).ok
        (universe,) = {u for u, _ in seen}
        for xs in {xs for _, xs in seen}:
            assert_sequences_match_oracle(universe, xs)
        if len(universe) <= 7:
            # every class, closed or not, with or without the zero member
            for size in range(len(universe) + 1):
                for xs in itertools.combinations(range(len(universe)), size):
                    assert_sequences_match_oracle(universe, frozenset(xs))



# ---------------------------------------------------------------------------
# hereditary pairs and split triples against their own routes


def oracle_hereditary_pairs(cat, R, J, dim_bound):
    """classify's hereditary pairs by the topology route: the torsion class
    T of each J_I from torsion_check, certified as the pair (T, T-perp), in
    report order."""
    RD = restrict_presheaf(R, full_subcategory(cat, matching_subcategories(cat, J)[0]))
    gr, skew = grskew.build_gr(RD.cat, RD), grskew.build_skew_algebra(RD.cat, RD)
    U = tn.ModuleUniverse(skew, dim_bound)
    tops = [grskew.ideal_topology(gr, skew, I.matrix) for I in tn.enumerate_idempotent_ideals(skew)]
    pairs = []
    for Jp in sorted(tops, key=grskew.topology_order):
        xs = frozenset(i for i, V in enumerate(U.members) if torsion_check(V, Jp).value)
        pairs.append(tn.torsion_pair_check(xs, U.perp_of(xs), U))
    return pairs


@pytest.mark.parametrize(
    "presheaf, topology, dim_bound",
    [(name.removesuffix(".json"), "full", 2) for name in _distinct_presheaf_files()]
    # the classify-d3 jobs of perfbench/workloads.json
    + [("a2_f2", "full", 3), ("a3_f2", "13", 3), ("c2_f2", "full", 3), ("terminal_f2xf2", "full", 3)],
)
def test_hereditary_pairs_match_the_topology_route(presheaf, topology, dim_bound):
    cat, R, J = load_site(presheaf, topology)
    rep = tn.classify(cat, R, J, dim_bound=dim_bound)
    want = oracle_hereditary_pairs(cat, R, J, dim_bound)
    assert rep.ok and len(rep.hereditary_pairs) == len(want)
    for g, w in zip(rep.hereditary_pairs, want):
        assert (g.ok, g.x_indices, g.y_indices, g.hereditary, g.split, g.failures) == (
            w.ok,
            w.x_indices,
            w.y_indices,
            w.hereditary,
            w.split,
            w.failures,
        )
        assert_same_sequences(g.sequences, w.sequences)


@pytest.mark.parametrize("presheaf", _distinct_presheaf_files())
def test_split_ttf_matches_the_action_of_e_on_shipped_presheaves(presheaf):
    cat, R = files.load_presheaf(os.path.join(SITES, presheaf))
    assert_split_route(tn.ModuleUniverse(tn.build_skew_algebra(cat, R), 2))
