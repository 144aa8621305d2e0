"""Module presheaves, skew modules, the stacking equivalence, and the
sheaf/torsion/perpendicular predicates."""
import functools
import glob
import itertools
import os
import tracemalloc
from collections import Counter
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from torsite import cli, files, linalg, modules
from torsite.acceptance import criterion_5_sheaf_perpendicular
from torsite.algebra import AlgebraPresheaf, BaseRing, FiniteAlgebra, constant_presheaf, validate_presheaf
from torsite.errors import BudgetExceededError, InputError, NotPrimeError
from torsite.fincat import FiniteCategory
from torsite.fixtures import (
    a2_category,
    fixture_presheaves,
    a2_mixed_presheaf,
    a3_category,
    c2_monoid_category,
    empty_category,
    field_algebra,
    group_algebra_c2,
    idempotent_monoid_category,
    product_field_algebra,
    standard_fixtures,
    t2_algebra,
    terminal_category,
    zero_algebra,
)
from torsite.grskew import (
    GrCategory,
    LinearSieve,
    LinearTopology,
    SkewAlgebra,
    build_gr,
    build_skew_algebra,
    enumerate_linear_topologies,
    ideal_topology,
    linearize_topology,
    maximal_linear_sieve,
    zero_linear_sieve,
)
from torsite.modules import (
    ModulePresheaf,
    PredicateResult,
    SkewModule,
    _all_matrices,
    _cocycle_constraints,
    _generating_words,
    _hom_constraints,
    _restricted_action,
    direct_sum,
    enumerate_module_presheaves,
    enumerate_skew_module_structures,
    ext1_dimension_by_enumeration,
    ext1_skew,
    hom_skew,
    is_sheaf,
    is_torsion,
    perpendicular_check,
    phi_from_gr,
    psi_to_gr,
    quotient_module,
    regular_module,
    representable_quotient,
    sheaf_check,
    submodule_module,
    torsion_check,
    validate_module_presheaf,
    validate_skew_module,
    zero_module_presheaf,
    zero_skew_module,
)
from torsite.topology import enumerate_topologies, subcategory_topology, trivial_topology
from torsite.torsion import ModuleUniverse, enumerate_idempotent_ideals

ROOT = os.path.join(os.path.dirname(__file__), "..")


def t2_simples():
    A = t2_algebra(2)
    S1 = SkewModule(A, [[[1]], [[0]], [[0]]])
    S2 = SkewModule(A, [[[0]], [[0]], [[1]]])
    return A, S1, S2


def test_regular_modules_valid():
    for alg in (t2_algebra(2), product_field_algebra(2, 2), field_algebra(3)):
        assert validate_skew_module(regular_module(alg)).ok
    for name, cat, alg in standard_fixtures():
        A = build_skew_algebra(cat, constant_presheaf(cat, alg))
        assert validate_skew_module(regular_module(A)).ok, name


def test_simples_valid_and_distinct():
    A, S1, S2 = t2_simples()
    assert validate_skew_module(S1).ok
    assert validate_skew_module(S2).ok
    assert S1.key() != S2.key()


def test_endomorphisms_of_regular_module():
    # End(A_A) is A itself acting by left multiplication
    for alg, want in ((t2_algebra(2), 3), (product_field_algebra(2, 2), 2)):
        reg = regular_module(alg)
        assert len(hom_skew(reg, reg)) == want


def test_hom_between_simples():
    A, S1, S2 = t2_simples()
    assert hom_skew(S1, S2) == []
    assert hom_skew(S2, S1) == []
    assert len(hom_skew(S1, S1)) == 1
    assert len(hom_skew(S2, S2)) == 1


def test_ext1_between_simples():
    A, S1, S2 = t2_simples()
    assert ext1_skew(S1, S2) == 1
    assert ext1_skew(S2, S1) == 0
    assert ext1_skew(S1, S1) == 0
    assert ext1_skew(S2, S2) == 0


def test_ext1_of_projective_vanishes():
    A, S1, S2 = t2_simples()
    reg = regular_module(A)
    for N in (S1, S2, reg):
        assert ext1_skew(reg, N) == 0


def test_ext1_additive_in_first_argument():
    A, S1, S2 = t2_simples()
    D = direct_sum(S1, S1)
    assert ext1_skew(D, S2) == 2


def test_ext1_routes_agree_dim_le_2():
    # presentation route vs extension-counting route, exhaustively
    for alg in (t2_algebra(2), product_field_algebra(2, 2)):
        mods = []
        for m in range(3):
            mods.extend(enumerate_skew_module_structures(alg, m))
        for V in mods:
            for W in mods:
                a = ext1_skew(V, W)
                b = ext1_dimension_by_enumeration(V, W)
                assert a == b, (alg.basis_names, V.act.tolist(), W.act.tolist(), a, b)


def test_structure_counts_small():
    assert len(enumerate_skew_module_structures(t2_algebra(2), 0)) == 1
    assert len(enumerate_skew_module_structures(t2_algebra(2), 1)) == 2
    assert len(enumerate_skew_module_structures(product_field_algebra(2, 2), 1)) == 2
    assert len(enumerate_skew_module_structures(field_algebra(2), 2)) == 1


def oracle_skew_module_structures(
    A, dim: int, budget: int = 2**22
) -> list:
    """Reference: every candidate tested against all relations at once."""
    n = A.base.modulus
    if dim == 0:
        return [zero_skew_module(A)]
    if A.rank == 0:
        return []  # only the zero space admits a unital structure
    gens, words, vecs = _generating_words(A)
    coeff = linalg.solve_left(vecs, np.eye(A.rank, dtype=np.int64), n)  # (rank, n_words)
    if coeff is None:
        raise InputError("basis not reachable from generating words")
    img_count = n ** (dim * dim)
    total = img_count ** len(gens)
    if total > budget:
        raise BudgetExceededError("module structure enumeration", total, budget)
    digits = np.arange(img_count)
    cells = [(digits // (n**c)) % n for c in range(dim * dim)]
    all_mats = np.stack(cells, axis=1).reshape(img_count, dim, dim).astype(np.int64)
    eye = np.eye(dim, dtype=np.int64)
    out = []
    chunk = 1 << 14
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total))
        k = len(idx)
        gmats = {}
        for t, g in enumerate(gens):
            sel = (idx // (img_count**t)) % img_count
            gmats[g] = all_mats[sel]  # (k, dim, dim)
        wstack = np.empty((len(words), k, dim, dim), dtype=np.int64)
        for wi, word in enumerate(words):
            Mw = np.broadcast_to(eye, (k, dim, dim)).copy()
            for g in word:
                Mw = np.matmul(Mw, gmats[g]) % n
            wstack[wi] = Mw
        act = np.einsum("iw,wkab->kiab", coeff, wstack) % n
        ok = ~(np.einsum("j,kjab->kab", A.unit, act) % n != eye).any(axis=(1, 2))
        if ok.any():
            sub = act[ok]
            lhs = np.einsum("ijm,kmab->kijab", A.mul, sub) % n
            rhs = np.einsum("kiam,kjmb->kijab", sub, sub) % n
            ok2 = (lhs == rhs).all(axis=(1, 2, 3, 4))
            for a in sub[ok2]:
                out.append(SkewModule(A, a))
    return out


def _skew_of_constant(cat, alg):
    return build_skew_algebra(cat, constant_presheaf(cat, alg))


def radical_square_zero_algebra(names):
    """F2[x, y]/(x, y)^2 with its basis 1, x, y in the order of names.  Each
    product of two of x, y is an associativity relation implied by no other,
    so a dropped pair (i, j) with b_i, b_j in {x, y} admits new structures
    by dimension 3."""
    one = names.index("1")
    mul = np.zeros((3, 3, 3), dtype=np.int64)
    for k in range(3):
        mul[one, k, k] = mul[k, one, k] = 1
    return FiniteAlgebra(BaseRing(2), mul, np.eye(3, dtype=np.int64)[one], tuple(names))


def dependent_words_algebra():
    """Z/4 with basis 1, x, z, y, where x*x = 2y, x*z = y and every other
    product of x, z and y is zero, rebased by P: new basis vector i is
    sum_j P[i, j] old_j.  Its generating words are dependent over Z/4, and
    the unit is not the empty word alone."""
    old = np.zeros((4, 4, 4), dtype=np.int64)
    for k in range(4):
        old[0, k, k] = old[k, 0, k] = 1
    old[1, 1, 3] = 2
    old[1, 2, 3] = 1
    P = np.array([[2, 2, 1, 1], [2, 2, 2, 1], [3, 1, 1, 3], [1, 0, 2, 2]], dtype=np.int64)
    P_inv = np.array([[2, 0, 0, 1], [3, 2, 3, 1], [3, 1, 0, 0], [0, 3, 2, 0]], dtype=np.int64)
    assert np.array_equal(P @ P_inv % 4, np.eye(4, dtype=np.int64))
    mul = np.einsum("ia,jb,abc,ck->ijk", P, P, old, P_inv) % 4
    return FiniteAlgebra(BaseRing(4), mul, P_inv[0])


@pytest.mark.parametrize(
    "make, dim_bound",
    [
        (lambda: t2_algebra(2), 3),
        (lambda: product_field_algebra(2, 2), 3),
        (lambda: group_algebra_c2(2), 3),
        (lambda: t2_algebra(3), 2),
        (lambda: _skew_of_constant(c2_monoid_category(), field_algebra(3)), 2),
        (lambda: build_skew_algebra(a2_category(), a2_mixed_presheaf(2)), 2),
        (lambda: t2_algebra(4), 1),
        (lambda: radical_square_zero_algebra(["x", "y", "1"]), 3),
        (lambda: radical_square_zero_algebra(["1", "x", "y"]), 3),
        (lambda: radical_square_zero_algebra(["x", "1", "y"]), 3),
        (dependent_words_algebra, 2),
    ],
    ids=["t2_f2", "f2xf2", "f2c2", "t2_f3", "c2_f3", "a2_mixed", "t2_z4", "rsz_xy1", "rsz_1xy", "rsz_x1y", "dep_z4"],
)
def test_structure_enumeration_matches_oracle(make, dim_bound):
    A = make()
    if make is dependent_words_algebra:
        # the unit check of the enumerator reads coefficients on more words
        # than the empty one
        _, words, vecs = _generating_words(A)
        coeff = linalg.solve_left(vecs, np.eye(A.rank, dtype=np.int64), 4)
        assert words == [(), (0,), (2,), (0, 0), (2, 0)]
        assert (A.unit @ coeff % 4).tolist() == [1, 2, 0, 1, 2]
        assert [len(enumerate_skew_module_structures(A, m)) for m in range(3)] == [1, 4, 376]
    n = A.base.modulus
    if linalg.is_prime(n):
        # over a field the words are a basis, so the unit is the empty word alone
        _, words, vecs = _generating_words(A)
        coeff = linalg.solve_left(vecs, np.eye(A.rank, dtype=np.int64), n)
        assert words[0] == () and (A.unit @ coeff % n).tolist() == [1] + [0] * (len(words) - 1)
    for m in range(dim_bound + 1):
        structures = enumerate_skew_module_structures(A, m)
        # enumerate_module_presheaves takes these as valid actions unchecked
        assert all(validate_skew_module(V).ok for V in structures), m
        got = [(V.dim, V.act.tobytes()) for V in structures]
        want = [(V.dim, V.act.tobytes()) for V in oracle_skew_module_structures(A, m)]
        assert got == want, m


def test_structure_stages_draw_from_cut_tables(monkeypatch):
    # T2(F2) has generators e1 = e11 (position 0) and a = e12 (position 1),
    # a fixed first; each of the 512 matrices of F2^3 is a candidate for each.
    A = t2_algebra(2)
    gens, words, _ = _generating_words(A)
    assert [A.basis_names[g] for g in gens] == ["e11", "e12"]
    assert all(word[:-1] in words for word in words[1:])  # _word_actions extends prefixes
    tested, real = [], modules._word_actions

    def spy(stacks, words, coeff, n):
        tested.append(stacks.shape[1])  # the candidates whose relations are tested
        return real(stacks, words, coeff, n)

    monkeypatch.setattr(modules, "_word_actions", spy)
    got = [V.act.tobytes() for V in enumerate_skew_module_structures(A, 3)]
    # the table of e1 cut to its 58 idempotents; stage 1, a's 512 matrices
    # cut to its 22 of square zero; stage 2, those 22 times the 58
    # idempotents, not times all 512.  Stage 0 has no relation to test.
    assert tested == [512, 512, 22 * 58]
    assert got == [V.act.tobytes() for V in oracle_skew_module_structures(A, 3)]
    assert len(got) == 226


def test_structure_enumeration_budget_and_edges():
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError) as err:
            enumerate_skew_module_structures(t2_algebra(2), 4)
        refused_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        # F2 is spanned by its unit: no generator, so no table of the
        # 2**16 candidate matrices; the one structure is the identity
        (V,) = enumerate_skew_module_structures(field_algebra(2), 4)
        unit_only_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (err.value.what, err.value.needed, err.value.budget) == (
        "module structure enumeration", 2**32, 2**22,
    )
    assert refused_peak < 1 << 20 and unit_only_peak < 1 << 20
    assert np.array_equal(V.act, np.eye(4, dtype=np.int64)[None])
    (Z,) = enumerate_skew_module_structures(t2_algebra(2), 0)
    assert Z.act.shape == (3, 0, 0)
    assert enumerate_skew_module_structures(zero_algebra(2), 2) == []


def test_presheaf_enumeration_refuses_before_building_map_tables(monkeypatch):
    built = []

    def recording(n, rows, cols):
        built.append((rows, cols))
        return _all_matrices(n, rows, cols)

    monkeypatch.setattr("torsite.modules._all_matrices", recording)
    cat = a2_category()
    with pytest.raises(BudgetExceededError) as err:
        enumerate_module_presheaves(cat, constant_presheaf(cat, field_algebra(2)), 2, budget=1)
    # ranks (1, 1) are the first with more than one candidate: 2 maps F2 -> F2
    assert (err.value.what, err.value.needed, err.value.budget) == ("module presheaf enumeration", 2, 1)
    assert (1, 1) not in built


@pytest.mark.parametrize("n, rows, cols", [(2, 3, 3), (3, 1, 2), (4, 2, 1), (2, 0, 3), (5, 2, 0)])
def test_all_matrices_numbering(n, rows, cols):
    mats = _all_matrices(n, rows, cols)
    assert mats.dtype == np.int64 and mats.shape == (n ** (rows * cols), rows, cols)
    for idx, M in enumerate(mats):
        want = [(idx // n**c) % n for c in range(rows * cols)]
        assert M.ravel().tolist() == want


# The enumerator before candidates were validated in stacks: one
# validate_module_presheaf call per candidate.
def oracle_module_presheaves(
    cat: FiniteCategory, R: AlgebraPresheaf, max_total: int, budget: int = 2**22
) -> list:
    """All valid module presheaves of total dimension <= max_total."""
    n = R.base.modulus
    out = []
    obj_structures = {}
    for x in range(cat.n_objects):
        obj_structures[x] = {
            m: enumerate_skew_module_structures(R.algebra(x), m, budget)
            for m in range(max_total + 1)
        }
    rank_tuples = [
        ranks
        for ranks in itertools.product(range(max_total + 1), repeat=cat.n_objects)
        if sum(ranks) <= max_total
    ]
    if cat.n_objects == 0:
        return [zero_module_presheaf(cat, R)]
    nonid = [
        f for f in range(cat.n_morphisms) if f not in cat.identity
    ]
    for ranks in rank_tuples:
        action_choices = [obj_structures[x][ranks[x]] for x in range(cat.n_objects)]
        shapes = [(ranks[cat.cod(f)], ranks[cat.dom(f)]) for f in nonid]
        combos = 1
        for ch in action_choices:
            combos *= max(len(ch), 1)
        for rows, cols in shapes:
            combos *= n ** (rows * cols)
        if combos > budget:
            raise BudgetExceededError("module presheaf enumeration", combos, budget)
        map_choices = [_all_matrices(n, rows, cols) for rows, cols in shapes]
        for actions in itertools.product(*action_choices):
            for mats in itertools.product(*map_choices):
                maps = []
                k = 0
                for f in range(cat.n_morphisms):
                    if f in cat.identity:
                        maps.append(np.eye(ranks[cat.dom(f)], dtype=np.int64))
                    else:
                        maps.append(mats[k])
                        k += 1
                M = ModulePresheaf(
                    cat, R, ranks, maps, [V.act for V in actions]
                )
                if validate_module_presheaf(M).ok:
                    out.append(M)
    return out


def _presheaf_entries(mods):
    return [
        (M.ranks, [(A.shape, A.tobytes()) for A in M.maps], [(A.shape, A.tobytes()) for A in M.actions])
        for M in mods
    ]


def _presheaf_site(name):
    if name == "a2_z4":
        return a2_category(), constant_presheaf(a2_category(), field_algebra(4))
    if name == "c2_z6":
        return c2_monoid_category(), constant_presheaf(c2_monoid_category(), field_algebra(6))
    if name == "a2_mixed":
        return a2_category(), a2_mixed_presheaf(2)
    if name == "a3_f2":  # three non-identity morphisms fix the candidate order
        return a3_category(), constant_presheaf(a3_category(), field_algebra(2))
    if name == "idem_f2":
        return idempotent_monoid_category(), constant_presheaf(idempotent_monoid_category(), field_algebra(2))
    if name == "a2_zero_f2":  # R(1) = 0: no structure on a nonzero M(1)
        cat = a2_category()
        return cat, AlgebraPresheaf(cat, [zero_algebra(2), field_algebra(2)], [np.zeros((0, 0)), [[1]], np.zeros((1, 0))])
    return {fixture: (cat, R) for fixture, cat, R in fixture_presheaves()}[name]


@pytest.mark.parametrize(
    "name, max_total",
    [
        ("terminal_f2", 3), ("a2_f2", 3), ("c2_f2", 3), ("terminal_f2xf2", 3),
        ("a2_z4", 2), ("c2_z6", 2), ("a2_mixed", 2), ("a3_f2", 3), ("idem_f2", 3), ("a2_zero_f2", 3),
    ],
)
def test_presheaf_enumeration_matches_oracle(name, max_total):
    cat, R = _presheaf_site(name)
    assert validate_presheaf(R).ok
    got = _presheaf_entries(enumerate_module_presheaves(cat, R, max_total))
    assert got == _presheaf_entries(oracle_module_presheaves(cat, R, max_total))
    assert len(got) > max_total
    if name == "a2_zero_f2":
        # rank tuples with M(1) nonzero have no action choice and are skipped
        assert [ranks for ranks, _, _ in got] == [(0, 0), (0, 1), (0, 2), (0, 3)]


def test_structure_enumeration_matches_brute_force_dim2():
    A = t2_algebra(2)
    fast = {V.key() for V in enumerate_skew_module_structures(A, 2)}
    brute = set()
    mats = [np.array([[a, b], [c, d]], dtype=np.int64)
            for a in range(2) for b in range(2) for c in range(2) for d in range(2)]
    for X1 in mats:
        for X2 in mats:
            X3 = (np.eye(2, dtype=np.int64) - X1) % 2
            V = SkewModule(A, np.stack([X1, X2, X3]))
            if validate_skew_module(V).ok:
                brute.add(V.key())
    assert fast == brute and len(fast) > 0


def test_submodule_and_quotient_of_regular():
    A = t2_algebra(2)
    reg = regular_module(A)
    rad = np.array([[0, 1, 0]], dtype=np.int64)  # span{e12}, right stable
    S, incl = submodule_module(reg, rad)
    assert S.dim == 1
    # radical of e11A is a copy of S2: e22 acts as identity on it
    assert S.act[2][0, 0] == 1 and S.act[0][0, 0] == 0
    Q, proj, sec = quotient_module(reg, rad)
    assert Q.dim == 2
    assert ((sec @ proj) % 2 == np.eye(2, dtype=np.int64)).all()
    assert validate_skew_module(Q).ok


def test_quotient_requires_prime_modulus():
    A = t2_algebra(4)
    reg = regular_module(A)
    with pytest.raises(NotPrimeError):
        quotient_module(reg, np.array([[0, 1, 0]], dtype=np.int64))


# The representable modules and their quotients in skew order, built from
# the regular module without gr.columns or gr.right_action: the oracles of
# uncached_perpendicular_check.


def oracle_representable_module(skew: SkewAlgebra, x: int) -> tuple:
    """The module hom(-, x), i.e. e_x * A, on its coordinate subset."""
    idx = [
        k for k, (f, _) in enumerate(skew.pairs) if skew.cat.cod(f) == x
    ]
    reg = regular_module(skew)
    act = reg.act[:, :, idx][:, idx, :]
    return SkewModule(skew, act), idx


def oracle_representable_quotient(skew: SkewAlgebra, T) -> SkewModule:
    """hom(-, x) / T for a linear sieve T on x (prime modulus); InputError unless T is stable."""
    P, idx = oracle_representable_module(skew, T.target)
    rows = T.skew_rows[:, idx]
    _restricted_action(rows, P.act, skew.base.modulus, "cover is not closed under precomposition")
    Q, _, _ = quotient_module(P, rows)
    return Q


def test_representable_modules_of_skew_algebra():
    cat = a2_category()
    R = constant_presheaf(cat, field_algebra(2))
    skew = build_skew_algebra(cat, R)
    P0, idx0 = oracle_representable_module(skew, 0)
    P1, idx1 = oracle_representable_module(skew, 1)
    assert P0.dim == 1  # only id1 ends at object 1
    assert P1.dim == 2  # id2 and a end at object 2
    assert validate_skew_module(P0).ok
    assert validate_skew_module(P1).ok


# ---------------------------------------------------------------------------
# the stacking equivalence


def test_psi_of_presheaf_is_valid_module():
    for name, cat, alg in standard_fixtures():
        R = constant_presheaf(cat, alg)
        skew = build_skew_algebra(cat, R)
        for M in enumerate_module_presheaves(cat, R, 2):
            V = psi_to_gr(M, skew)
            assert validate_skew_module(V).ok, name
            assert V.dim == sum(M.ranks)


def test_phi_after_psi_is_identity():
    for name, cat, alg in standard_fixtures():
        R = constant_presheaf(cat, alg)
        skew = build_skew_algebra(cat, R)
        for M in enumerate_module_presheaves(cat, R, 2):
            M2 = phi_from_gr(psi_to_gr(M, skew))
            assert M2.ranks == M.ranks, name
            for f in range(cat.n_morphisms):
                assert (M2.maps[f] % 2 == M.maps[f] % 2).all()
            for x in range(cat.n_objects):
                assert (M2.actions[x] % 2 == M.actions[x] % 2).all()


def test_psi_after_phi_is_base_change():
    for name, cat, alg in standard_fixtures():
        R = constant_presheaf(cat, alg)
        skew = build_skew_algebra(cat, R)
        n = 2
        for m in range(3):
            for V in enumerate_skew_module_structures(skew, m):
                M = phi_from_gr(V)
                W = psi_to_gr(M, skew)
                P = (
                    np.concatenate([B for B in M.block_bases if B.size], axis=0)
                    if V.dim
                    else np.zeros((0, 0), dtype=np.int64)
                )
                if V.dim:
                    assert P.shape == (V.dim, V.dim)
                    assert linalg.matrix_inverse(P, n) is not None
                    for j in range(skew.rank):
                        assert ((W.act[j] @ P) % n == (P @ V.act[j]) % n).all(), name


def test_phi_regular_module_ranks():
    cat = a2_category()
    R = constant_presheaf(cat, field_algebra(2))
    skew = build_skew_algebra(cat, R)
    M = phi_from_gr(regular_module(skew))
    # block at x collects the basis pairs whose morphism starts at x
    assert M.ranks == (2, 1)
    assert validate_module_presheaf(M).ok


def solve_phi_from_gr(V: SkewModule) -> ModulePresheaf:
    """phi_from_gr by one solve_left per morphism and per object block."""
    skew = V.algebra
    cat = skew.cat
    R = skew.R
    n = skew.base.modulus
    bases = []
    for x in range(cat.n_objects):
        E = V.act_of(skew.object_idempotent(x))
        B = linalg.howell_form(E, n, V.dim)
        if any(int(row[linalg._leading(row)]) != 1 for row in B):
            raise NotPrimeError(n, "free block decomposition")
        bases.append(B)
    if sum(B.shape[0] for B in bases) != V.dim:
        raise InputError("object idempotents do not decompose the carrier")
    ranks = [B.shape[0] for B in bases]
    maps = []
    for f in range(cat.n_morphisms):
        x, y = cat.dom(f), cat.cod(f)
        u = np.zeros(skew.rank, dtype=np.int64)
        for i, cval in enumerate(R.algebra(x).unit):
            u[skew.pair_index[(f, i)]] = cval
        img = (bases[y] @ V.act_of(u)) % n
        Mf = linalg.solve_left(bases[x], img, n)
        if Mf is None:
            raise InputError("carrier is not spanned by its blocks")
        maps.append(Mf)
    actions = []
    for x in range(cat.n_objects):
        idx = [skew.pair_index[(cat.identity[x], j)] for j in range(R.algebra(x).rank)]
        actions.append(_restricted_action(bases[x], V.act[idx], n, "object block"))
    M = ModulePresheaf(cat, R, ranks, maps, actions)
    M.block_bases = tuple(bases)
    return M


def _phi_outcome(phi, V):
    """The ranks and every array of phi(V) as (dtype, shape, bytes), or the error raised."""
    try:
        M = phi(V)
    except (InputError, NotPrimeError) as exc:
        return ("raises", type(exc), str(exc))
    return _presheaf_outcome(M)


def _presheaf_outcome(M):
    """The ranks and every array of a presheaf from phi_from_gr as (dtype, shape, bytes)."""
    arrays = (*M.maps, *M.actions, *M.block_bases)
    return ("presheaf", M.ranks, [(a.dtype, a.shape, a.tobytes()) for a in arrays])


def criterion_4_lists():
    """The lists that acceptance criterion 4 sends through phi_from_gr: per
    fixture, the psi-images of its presheaves, then its structures of dims 0-3."""
    for _, cat, R in fixture_presheaves():
        skew = build_skew_algebra(cat, R)
        yield [psi_to_gr(M, skew) for M in enumerate_module_presheaves(cat, R, 3)]
        yield [V for m in range(4) for V in enumerate_skew_module_structures(skew, m)]


def fixture_lists(lists):
    """The lists of criterion_4_lists() joined into one mixed-dimension list per fixture."""
    return [psi_images + structures for psi_images, structures in zip(lists[::2], lists[1::2])]


def test_phi_from_gr_matches_the_solve_route():
    # criterion 4's lists, then one list per fixture: each presheaf of a
    # list is that of a call on its module alone and of the solve route
    lists = list(criterion_4_lists())
    for L in [*lists, *fixture_lists(lists)]:
        got = phi_from_gr(L)
        assert len(got) == len(L)
        for V, M in zip(L, got):
            outcome = _presheaf_outcome(M)
            assert outcome == _phi_outcome(phi_from_gr, V) == _phi_outcome(solve_phi_from_gr, V), V.act.tolist()
    assert sum(map(len, lists)) == 462


def test_phi_from_gr_raises_as_the_solve_route():
    # one action matrix of a module moved by a random matrix: the blocks may
    # stop decomposing the carrier, or a map or an action may leave its block
    rng = np.random.default_rng(0)
    seen = Counter()
    for R in (constant_presheaf(a2_category(), product_field_algebra(2, 2)), a2_mixed_presheaf(2)):
        skew = build_skew_algebra(a2_category(), R)
        for V in (regular_module(skew), *enumerate_skew_module_structures(skew, 2)[:6]):
            for p in range(skew.rank):
                for _ in range(3):
                    act = V.act.copy()
                    act[p] = (act[p] + rng.integers(0, 2, size=act[p].shape)) % 2
                    W = SkewModule(skew, act)
                    got = _phi_outcome(phi_from_gr, W)
                    assert got == _phi_outcome(solve_phi_from_gr, W), act.tolist()
                    seen[got[2] if got[0] == "raises" else "presheaf"] += 1
    assert seen["carrier is not spanned by its blocks"]
    assert seen["object block: rows do not span a stable submodule"]
    assert seen["presheaf"]


def test_phi_from_gr_on_a_list_raises_for_its_first_failing_module():
    # failing modules made as in test_phi_from_gr_raises_as_the_solve_route
    skew = build_skew_algebra(a2_category(), constant_presheaf(a2_category(), product_field_algebra(2, 2)))
    rng = np.random.default_rng(0)
    failing = {}
    for V in (regular_module(skew), *enumerate_skew_module_structures(skew, 2)[:6]):
        for p in range(skew.rank):
            for _ in range(3):
                act = V.act.copy()
                act[p] = (act[p] + rng.integers(0, 2, size=act[p].shape)) % 2
                got = _phi_outcome(phi_from_gr, SkewModule(skew, act))
                if got[0] == "raises":
                    failing.setdefault(got[2], SkewModule(skew, act))
    assert len(failing) == 3
    # [good, map outside, not decomposing] among them, and [good, not decomposing, map outside]
    orders = [order for r in (2, 3) for order in itertools.permutations(failing, r)]
    for order in orders:
        with pytest.raises(InputError) as err:
            phi_from_gr([regular_module(skew), *(failing[message] for message in order)])
        assert str(err.value) == order[0]


def test_phi_from_gr_refuses_a_list_over_two_algebras():
    (_, cat1, R1), (_, cat2, R2) = list(fixture_presheaves())[:2]
    V, W = regular_module(build_skew_algebra(cat1, R1)), regular_module(build_skew_algebra(cat2, R2))
    assert phi_from_gr([V, V])[1].ranks == phi_from_gr(V).ranks
    with pytest.raises(InputError, match="one skew algebra"):
        phi_from_gr([V, W])
    with pytest.raises(InputError, match="skew category algebra"):
        phi_from_gr([regular_module(t2_algebra(2))])


def test_phi_from_gr_takes_one_howell_form_per_distinct_block_idempotent(monkeypatch):
    lists = list(criterion_4_lists())
    mixed = fixture_lists(lists)
    calls = []

    def spy(*args, _howell=linalg.howell_form):
        calls.append(args)
        return _howell(*args)

    monkeypatch.setattr(linalg, "howell_form", spy)
    forms = []
    for L in [*lists, *mixed]:
        idempotents = L[0].algebra.idempotents
        distinct = {(V.dim, E.tobytes()) for V in L for E in V.act_of(idempotents)}
        before = len(calls)
        phi_from_gr(L)
        assert len(calls) - before == len(distinct)
        forms.append(len(distinct))
    # criterion 4's two lists per fixture, then one list per fixture, against
    # one form per object of each of the 462 modules, 722 in all
    assert (sum(forms[:len(lists)]), sum(forms[len(lists):])) == (106, 81)
    assert sum(L[0].algebra.cat.n_objects * len(L) for L in lists) == 722


def test_phi_from_gr_on_the_empty_site():
    skew = empty_site_algebra()
    assert phi_from_gr(zero_skew_module(skew)).ranks == ()
    assert [M.ranks for M in phi_from_gr([zero_skew_module(skew)] * 2)] == [(), ()]
    assert phi_from_gr([]) == []
    # rank 0 with a nonzero carrier: no block holds it
    with pytest.raises(InputError, match="do not decompose the carrier"):
        phi_from_gr([zero_skew_module(skew), SkewModule(skew, np.zeros((0, 2, 2), dtype=np.int64))])


# ---------------------------------------------------------------------------
# sheaf / torsion / perpendicular


def a2_site():
    cat = a2_category()
    R = constant_presheaf(cat, field_algebra(2))
    gr = build_gr(cat, R)
    Jp = linearize_topology(gr, subcategory_topology(cat, [0]))
    return cat, R, gr, Jp


def a2_presheaf(r1, r2, amat):
    cat = a2_category()
    R = constant_presheaf(cat, field_algebra(2))
    maps = [
        np.eye(r1, dtype=np.int64),
        np.eye(r2, dtype=np.int64),
        np.asarray(amat, dtype=np.int64).reshape(r2, r1),
    ]
    actions = [np.eye(r, dtype=np.int64).reshape(1, r, r) for r in (r1, r2)]
    return ModulePresheaf(cat, R, (r1, r2), maps, actions)


def test_sheaf_examples_on_a2():
    cat, R, gr, Jp = a2_site()
    P2 = a2_presheaf(1, 1, [[1]])  # restriction along a is an isomorphism
    S1 = a2_presheaf(1, 0, np.zeros((0, 1)))
    S2 = a2_presheaf(0, 1, np.zeros((1, 0)))
    assert is_sheaf(P2, Jp).value
    assert not is_sheaf(S1, Jp).value
    assert not is_sheaf(S2, Jp).value
    res = is_sheaf(S2, Jp)
    assert res.witness["object"] == "2"


def test_torsion_examples_on_a2():
    cat, R, gr, Jp = a2_site()
    P2 = a2_presheaf(1, 1, [[1]])
    S1 = a2_presheaf(1, 0, np.zeros((0, 1)))
    S2 = a2_presheaf(0, 1, np.zeros((1, 0)))
    assert is_torsion(S2, Jp).value
    assert not is_torsion(S1, Jp).value
    assert not is_torsion(P2, Jp).value


def test_sheaf_iff_restriction_iso_on_a2():
    cat, R, gr, Jp = a2_site()
    for M in enumerate_module_presheaves(cat, R, 3):
        expect = (
            M.ranks[0] == M.ranks[1]
            and linalg.matrix_inverse(M.maps[2], 2) is not None
        ) or (M.ranks[0] == M.ranks[1] == 0)
        assert is_sheaf(M, Jp).value == expect, M.ranks


def test_torsion_iff_vanishing_at_dense_object_on_a2():
    cat, R, gr, Jp = a2_site()
    for M in enumerate_module_presheaves(cat, R, 3):
        assert is_torsion(M, Jp).value == (M.ranks[0] == 0), M.ranks


def test_trivial_topology_everything_is_a_sheaf():
    for name, cat, alg in standard_fixtures():
        R = constant_presheaf(cat, alg)
        gr = build_gr(cat, R)
        Jp = linearize_topology(gr, trivial_topology(cat))
        for M in enumerate_module_presheaves(cat, R, 2):
            assert is_sheaf(M, Jp).value, name
            assert is_torsion(M, Jp).value == (sum(M.ranks) == 0), name


def test_zero_cover_topology_on_terminal():
    cat = terminal_category()
    R = constant_presheaf(cat, field_algebra(2))
    gr = build_gr(cat, R)
    tops = enumerate_linear_topologies(gr)
    dense = max(tops, key=lambda t: len(t.covers_at(0)))
    assert len(dense.covers_at(0)) == 2  # max and zero
    for M in enumerate_module_presheaves(cat, R, 2):
        assert is_torsion(M, dense).value
        assert is_sheaf(M, dense).value == (sum(M.ranks) == 0)


# torsion_check before it read the answer off the least cover: every
# element of every block against every cover
def oracle_torsion_check(V: SkewModule, Jp: LinearTopology) -> PredicateResult:
    """Every element of every block must be killed by some cover."""
    gr = Jp.gr
    skew = V.algebra
    n = skew.base.modulus
    cat = skew.cat
    for x in range(cat.n_objects):
        Ex = V.act_of(skew.object_idempotent(x))
        Bx = linalg.howell_form(Ex, n, V.dim)
        gen_mats = {
            ci: [V.act_of(row) for row in T.skew_rows]
            for ci, T in enumerate(Jp.covers_at(x))
        }
        for m in linalg.span_elements(Bx, n):
            if not m.any():
                continue
            if not any(
                all(not ((m @ Mt) % n).any() for Mt in gen_mats[ci])
                for ci in gen_mats
            ):
                return PredicateResult(
                    False,
                    {"object": cat.objects[x], "element": [int(t) for t in m]},
                )
    return PredicateResult(True)


BENCH_PRESHEAVES = sorted(
    p for p in glob.glob(os.path.join(ROOT, "perfbench", "sites", "*.json")) if "topology" not in p
)


@pytest.mark.parametrize("path", BENCH_PRESHEAVES, ids=[os.path.basename(p)[:-5] for p in BENCH_PRESHEAVES])
def test_torsion_check_matches_the_element_walk(path):
    # every universe member (d = 3, or 2 above rank 3) against every J_I
    # and every linearized topology: value and witness
    cat, R = files.load_presheaf(path)
    gr, skew = build_gr(cat, R), build_skew_algebra(cat, R)
    U = ModuleUniverse(skew, 3 if skew.rank <= 3 else 2)
    tops = [ideal_topology(gr, I.matrix) for I in enumerate_idempotent_ideals(skew)]
    tops += [linearize_topology(gr, J) for J in enumerate_topologies(cat)]
    outcomes = Counter()
    for Jp in tops:
        for V in U.members:
            got, want = torsion_check(V, Jp), oracle_torsion_check(V, Jp)
            assert (got.value, got.witness) == (want.value, want.witness)
            outcomes[got.value] += 1
    assert outcomes[True] and outcomes[False]


def test_check_torsion_on_the_fixtures_matches_the_element_walk(capsys):
    fixtures = sorted(glob.glob(os.path.join(ROOT, "fixtures", "*.json")))
    runs = 0
    for p, t, m in itertools.product(fixtures, repeat=3):
        if not (t.endswith("_topology.json") and m.endswith("_module.json")):
            continue
        try:
            cat, R, J = cli._load_site(p, t)
            M = files.load_module(m, cat, R)
            Jp = linearize_topology(build_gr(cat, R), J)
            want = oracle_torsion_check(psi_to_gr(M, Jp.gr.skew), Jp)
        except InputError:
            continue
        code = cli.main(["check-torsion", p, t, m])
        doc = {"schema": cli.REPORT_SCHEMA, "command": "check-torsion"}
        doc.update(value=want.value, witness=want.witness)
        assert (code, capsys.readouterr().out) == (0 if want.value else 1, files.dump_json(doc)), (p, t, m)
        runs += 1
    assert runs >= 9


def test_torsion_check_refuses_a_family_without_least_cover():
    # two incomparable covers e1 A and e2 A of the one object, without their
    # intersection 0: not closed under intersection, so not a linear topology
    cat = terminal_category()
    R = constant_presheaf(cat, product_field_algebra(2, 2))
    gr, skew = build_gr(cat, R), build_skew_algebra(cat, R)
    sieves = gr.linear_sieves_on(0)
    middle = [T for T in sieves if T not in (maximal_linear_sieve(gr, 0), zero_linear_sieve(gr, 0))]
    assert len(middle) == 2
    V = regular_module(skew)
    for covers in ([*middle, maximal_linear_sieve(gr, 0)], []):
        with pytest.raises(InputError, match="object .* no least member"):
            torsion_check(V, LinearTopology(gr, [covers]))
    assert torsion_check(V, LinearTopology(gr, [sieves])).value


def test_sheaf_iff_perpendicular_small():
    for name, cat, alg in standard_fixtures():
        R = constant_presheaf(cat, alg)
        gr = build_gr(cat, R)
        mods = enumerate_module_presheaves(cat, R, 2)
        for Jp in enumerate_linear_topologies(gr):
            for M in mods:
                lhs = is_sheaf(M, Jp).value
                rhs = perpendicular_check(M, Jp).value
                assert lhs == rhs, (name, M.ranks)


def _embed_hom_vector(skew: SkewAlgebra, gr: GrCategory, y: int, x: int, t) -> np.ndarray:
    out = np.zeros(skew.rank, dtype=np.int64)
    for k, p in enumerate(gr.hom_pairs[(y, x)]):
        out[skew.pair_index[p]] = t[k]
    return out


def oracle_sheaf_check(V: SkewModule, Jp: LinearTopology) -> PredicateResult:
    """Reference: one block of unknowns per element of each cover.

    Evaluation against every cover must be bijective onto the natural maps."""
    gr = Jp.gr
    skew = V.algebra
    n = skew.base.modulus
    cat = skew.cat
    for x in range(cat.n_objects):
        Ex = V.act_of(skew.object_idempotent(x))
        Bx = linalg.howell_form(Ex, n, V.dim)
        fix_x = (Ex - np.eye(V.dim, dtype=np.int64)) % n
        for ci, T in enumerate(Jp.covers_at(x)):
            elems = []
            index = {}
            for y in range(cat.n_objects):
                lst = list(linalg.span_elements(T.components[y], n))
                elems.append(lst)
                index[y] = {v.tobytes(): k for k, v in enumerate(lst)}
            offs = {}
            total = 0
            for y in range(cat.n_objects):
                for k in range(len(elems[y])):
                    offs[(y, k)] = total
                    total += V.dim
            mats = {
                (y, k): V.act_of(_embed_hom_vector(skew, gr, y, x, t))
                for y in range(cat.n_objects)
                for k, t in enumerate(elems[y])
            }
            cols = []

            def slot_constraint(parts):
                col = np.zeros(total, dtype=np.int64)
                for (y, k), vec in parts:
                    col[offs[(y, k)] : offs[(y, k)] + V.dim] += vec
                cols.append(col % n)

            for y in range(cat.n_objects):
                Ey = V.act_of(skew.object_idempotent(y))
                fix = (Ey - np.eye(V.dim, dtype=np.int64)) % n
                zero_k = index[y][np.zeros(gr.hom_rank(y, x), dtype=np.int64).tobytes()]
                for c in range(V.dim):
                    slot_constraint([((y, zero_k), np.eye(V.dim, dtype=np.int64)[c])])
                    for k in range(len(elems[y])):
                        slot_constraint([((y, k), fix[:, c])])
                for k1 in range(len(elems[y])):
                    for k2 in range(k1, len(elems[y])):
                        s = ((elems[y][k1] + elems[y][k2]) % n).tobytes()
                        k3 = index[y][s]
                        for c in range(V.dim):
                            e = np.eye(V.dim, dtype=np.int64)[c]
                            slot_constraint(
                                [((y, k3), e), ((y, k1), (-e) % n), ((y, k2), (-e) % n)]
                            )
                for k, t in enumerate(elems[y]):
                    for z in range(cat.n_objects):
                        for ii in range(gr.hom_rank(z, y)):
                            u = np.zeros(gr.hom_rank(z, y), dtype=np.int64)
                            u[ii] = 1
                            tu = gr.compose(z, y, x, t, u)
                            k2 = index[z].get(tu.tobytes())
                            if k2 is None:
                                raise InputError("cover is not closed under precomposition")
                            U = V.act_of(_embed_hom_vector(skew, gr, z, y, u))
                            for c in range(V.dim):
                                e = np.eye(V.dim, dtype=np.int64)[c]
                                slot_constraint(
                                    [((z, k2), e), ((y, k), (-U[:, c]) % n)]
                                )
            Cmat = (
                np.stack(cols, axis=1) if cols else np.zeros((total, 0), dtype=np.int64)
            )
            solutions = linalg.kernel_left(Cmat, n)

            def ev(mrow):
                out = np.zeros(total, dtype=np.int64)
                for (y, k), mat in mats.items():
                    out[offs[(y, k)] : offs[(y, k)] + V.dim] = (mrow @ mat) % n
                return out

            # injectivity: x-block elements killed by every cover element
            gen_mats = [
                V.act_of(_embed_hom_vector(skew, gr, y, x, trow))
                for y in range(cat.n_objects)
                for trow in T.components[y]
            ]
            inj_cols = [fix_x] + [Mt % n for Mt in gen_mats]
            inj = linalg.kernel_left(np.concatenate(inj_cols, axis=1), n)
            if linalg.span_size(inj, n) != 1:
                return PredicateResult(
                    False,
                    {
                        "object": cat.objects[x],
                        "cover": ci,
                        "reason": "not injective",
                        "kernel-size": linalg.span_size(inj, n),
                    },
                )
            image = linalg.howell_form(
                linalg.as_matrix([ev(row) for row in Bx], total), n, total
            )
            missing = int(linalg.reduce_vector(image, solutions, n).any(axis=1).sum())
            if missing:
                return PredicateResult(
                    False,
                    {
                        "object": cat.objects[x],
                        "cover": ci,
                        "reason": "not surjective",
                        "unmatched-solutions": missing,
                    },
                )
    return PredicateResult(True)


def _oracle_cases_all_topologies(name):
    """Every linear topology x every module presheaf of total dim <= 3."""
    _, cat, R = next(f for f in fixture_presheaves() if f[0] == name)
    gr = build_gr(cat, R)
    skew = build_skew_algebra(cat, R)
    mods = [psi_to_gr(M, skew) for M in enumerate_module_presheaves(cat, R, 3)]
    return [(V, Jp) for Jp in enumerate_linear_topologies(gr) for V in mods]


def _oracle_cases_one_sieve(cat, n, dim, all_structures=False):
    """The family {maximal, T} at x, maximal elsewhere, for every linear sieve T on x.

    Over Z/n these are the covers whose rows have relations (2 * (2) == 0
    in Z/4), which the relations block of sheaf_check must read.  The
    modules are the module presheaves, whose blocks V e_x are free, or
    with all_structures every module on (Z/n)^d: over Z/6 these include
    blocks such as 3 * Z/6, of size 2 but one Howell row."""
    R = constant_presheaf(cat, field_algebra(n))
    gr = build_gr(cat, R)
    skew = build_skew_algebra(cat, R)
    if all_structures:
        mods = [V for d in range(dim + 1) for V in enumerate_skew_module_structures(skew, d)]
    else:
        mods = [psi_to_gr(M, skew) for M in enumerate_module_presheaves(cat, R, dim)]
    cases = []
    for x in range(cat.n_objects):
        for T in gr.linear_sieves_on(x):
            covers = [[maximal_linear_sieve(gr, y)] for y in range(cat.n_objects)]
            covers[x] = list({maximal_linear_sieve(gr, x), T})
            cases.extend((V, LinearTopology(gr, covers)) for V in mods)
    return cases


SHEAF_CASES = {
    **{name: functools.partial(_oracle_cases_all_topologies, name) for name, _, _ in standard_fixtures()},
    "terminal_z4": lambda: _oracle_cases_one_sieve(terminal_category(), 4, 2),
    "terminal_z6": lambda: _oracle_cases_one_sieve(terminal_category(), 6, 2),
    "a2_z4": lambda: _oracle_cases_one_sieve(a2_category(), 4, 2),
    "a2_z6": lambda: _oracle_cases_one_sieve(a2_category(), 6, 2),
    "c2_z6": lambda: _oracle_cases_one_sieve(c2_monoid_category(), 6, 1),
    "a2_z6_structures": lambda: _oracle_cases_one_sieve(a2_category(), 6, 1, all_structures=True),
}


@pytest.mark.parametrize("make", SHEAF_CASES.values(), ids=list(SHEAF_CASES))
def test_sheaf_check_matches_oracle(make):
    cases = make()
    assert cases
    for V, Jp in cases:
        got = sheaf_check(V, Jp)
        want = oracle_sheaf_check(V, Jp)
        assert (got.value, got.witness) == (want.value, want.witness), V.act.tolist()


def test_sheaf_check_refuses_cover_not_closed_under_precomposition():
    cat, R, gr, _ = a2_site()
    # id2 without a: id2 . a = a is missing
    T = LinearSieve(gr, 1, np.array([[0, 1]], dtype=np.int64))
    Jp = LinearTopology(gr, [[maximal_linear_sieve(gr, 0)], [maximal_linear_sieve(gr, 1), T]])
    V = regular_module(build_skew_algebra(cat, R))
    with pytest.raises(InputError, match="not closed under precomposition"):
        sheaf_check(V, Jp)


def test_sheaf_witnesses_without_covers_on_a2():
    # D = {}: the zero sieve covers 2, and Hom(0, V) = 0 leaves all of V(2) in the kernel
    cat = a2_category()
    R = constant_presheaf(cat, field_algebra(2))
    Jp = linearize_topology(build_gr(cat, R), subcategory_topology(cat, []))
    for r2, size in ((1, 2), (2, 4)):
        res = is_sheaf(a2_presheaf(0, r2, np.zeros((r2, 0))), Jp)
        assert not res.value
        assert res.witness["object"] == "2"
        assert res.witness["reason"] == "not injective"
        assert res.witness["kernel-size"] == size


def test_representable_quotient_dimensions():
    cat, R, gr, Jp = a2_site()
    skew = build_skew_algebra(cat, R)
    covers = Jp.covers_at(1)
    dims = sorted(
        representable_quotient(T).dim for T in covers
    )
    # quotient by the maximal sieve is zero, by the a-generated sieve is 1-dim
    assert dims == [0, 1]
    assert dims == sorted(oracle_representable_quotient(skew, T).dim for T in covers)


# The predicates as they were before their per-cover tables: every call
# rebuilds the rows, the action and the relations of each cover, and each
# representable quotient with its presentation.


def uncached_sheaf_check(V: SkewModule, Jp: LinearTopology) -> PredicateResult:
    skew = V.algebra
    n = skew.base.modulus
    right = regular_module(skew).act
    for x in range(skew.cat.n_objects):
        Bx = linalg.howell_form(V.act_of(skew.object_idempotent(x)), n, V.dim)
        for ci, T in enumerate(Jp.covers_at(x)):
            G = T.skew_rows
            width = G.shape[0] * V.dim
            C = _restricted_action(G, right, n, "cover is not closed under precomposition")
            relations = np.kron(linalg.kernel_left(G, n).T, np.eye(V.dim, dtype=np.int64))
            homs = linalg.kernel_left(
                np.concatenate([_hom_constraints(SkewModule(skew, C), V), relations], axis=1), n
            )
            acts = np.einsum("kj,jil->kil", G, V.act) % n
            restricted = np.einsum("mi,kil->mkl", Bx, acts).reshape(Bx.shape[0], width)
            image = linalg.howell_form(restricted % n, n, width)
            witness = {"object": skew.cat.objects[x], "cover": ci}
            kernel = linalg.span_size(Bx, n) // linalg.span_size(image, n)
            if kernel != 1:
                return PredicateResult(
                    False, {**witness, "reason": "not injective", "kernel-size": kernel}
                )
            missing = int(linalg.reduce_vector(image, homs, n).any(axis=1).sum())
            if missing:
                return PredicateResult(
                    False, {**witness, "reason": "not surjective", "unmatched-solutions": missing}
                )
    return PredicateResult(True)


def uncached_perpendicular_check(M, Jp: LinearTopology) -> PredicateResult:
    skew = Jp.gr.skew
    V = psi_to_gr(M, skew) if isinstance(M, ModulePresheaf) else M
    for x in range(skew.cat.n_objects):
        for ci, T in enumerate(Jp.covers_at(x)):
            Q = oracle_representable_quotient(skew, T)
            if Q.dim == 0:
                continue
            if hom_skew(Q, V):
                return PredicateResult(False, {"object": skew.cat.objects[x], "cover": ci, "reason": "hom"})
            if ext1_skew(Q, V):
                return PredicateResult(False, {"object": skew.cat.objects[x], "cover": ci, "reason": "ext1"})
    return PredicateResult(True)


def _outcome(check, *args):
    try:
        res = check(*args)
    except InputError as exc:
        return ("raises", str(exc))
    return (res.value, res.witness)


@pytest.mark.parametrize("make", SHEAF_CASES.values(), ids=list(SHEAF_CASES))
def test_sheaf_check_tables_match_the_uncached_route(make):
    # one gr's memo serves every module of a case; the uncached route reads no table
    for V, Jp in make():
        assert _outcome(sheaf_check, V, Jp) == _outcome(uncached_sheaf_check, V, Jp), V.act.tolist()


@pytest.mark.parametrize("name", [name for name, _, _ in standard_fixtures()])
def test_perpendicular_check_tables_match_the_uncached_route(name):
    _, cat, R = next(f for f in fixture_presheaves() if f[0] == name)
    gr = build_gr(cat, R)
    mods = enumerate_module_presheaves(cat, R, 3)
    skew = build_skew_algebra(cat, R)
    for Jp in enumerate_linear_topologies(gr):
        for M in mods:
            want = _outcome(uncached_perpendicular_check, M, Jp)
            assert _outcome(perpendicular_check, M, Jp) == want, (name, M.ranks)
            assert _outcome(perpendicular_check, psi_to_gr(M, skew), Jp) == want, (name, M.ranks)


def _zero_and_bad_cover_topology():
    """On a2: the zero sieve covers 1, and 2 has a cover missing id2 . a = a."""
    cat, R, gr, _ = a2_site()
    zero = LinearSieve(gr, 0, np.zeros((0, 1), dtype=np.int64))
    bad = LinearSieve(gr, 1, np.array([[0, 1]], dtype=np.int64))
    Jp = LinearTopology(gr, [[zero, maximal_linear_sieve(gr, 0)], [maximal_linear_sieve(gr, 1), bad]])
    return cat, R, Jp


@pytest.mark.parametrize("order", [(0, 1), (1, 0)])
def test_predicates_stop_and_raise_where_the_uncached_route_does(order):
    cat, R, Jp = _zero_and_bad_cover_topology()
    skew = Jp.gr.skew
    # V e_1 != 0 fails at the zero cover of 1 before the bad cover is reached;
    # V e_1 == 0 passes 1 and reaches the bad cover of 2
    mods = [
        psi_to_gr(a2_presheaf(1, 0, np.zeros((0, 1))), skew),
        psi_to_gr(a2_presheaf(0, 1, np.zeros((1, 0))), skew),
    ]
    for k in order:
        V = mods[k]
        got = _outcome(sheaf_check, V, Jp)
        assert got == _outcome(uncached_sheaf_check, V, Jp)
        perp = _outcome(perpendicular_check, V, Jp)
        if k == 0:
            assert got[0] is False and got[1]["object"] == "1" and got[1]["reason"] == "not injective"
            assert perp == (False, {"object": "1", "cover": 0, "reason": "hom"})
        else:
            assert got[0] == "raises" and "not closed under precomposition" in got[1]
            assert perp == got
        assert perp == _outcome(uncached_perpendicular_check, V, Jp)


def test_cover_tables_keep_each_algebra_apart():
    cat, R, gr, Jp = a2_site()
    skews = [build_skew_algebra(cat, R) for _ in range(2)]
    for skew in skews:
        for M in enumerate_module_presheaves(cat, R, 2):
            V = psi_to_gr(M, skew)
            assert _outcome(sheaf_check, V, Jp) == _outcome(uncached_sheaf_check, V, Jp)


def _fixture_site(name):
    _, cat, R = next(f for f in fixture_presheaves() if f[0] == name)
    return cat, R, build_gr(cat, R)


def test_predicates_refuse_a_module_over_another_algebra():
    # F2[C2] and F2 x F2 both have rank 2 over F2; read through the covers of
    # terminal_f2xf2, the F2[C2] modules gave sheaf False and perpendicular True
    c2_cat, c2_R, c2_gr = _fixture_site("c2_f2")
    cat, R, gr = _fixture_site("terminal_f2xf2")
    foreign = [psi_to_gr(M, c2_gr.skew) for M in enumerate_module_presheaves(c2_cat, c2_R, 2) if sum(M.ranks) == 2]
    topologies = enumerate_linear_topologies(gr)
    assert foreign and topologies
    for Jp in topologies:
        for V in foreign:
            for check in (sheaf_check, torsion_check, perpendicular_check):
                with pytest.raises(InputError, match="not over the skew algebra of the topology's site"):
                    check(V, Jp)
    # a second build of the same skew algebra is the same algebra
    twin = build_skew_algebra(cat, R)
    assert twin is not gr.skew
    for Jp in topologies:
        for M in enumerate_module_presheaves(cat, R, 2):
            for check in (sheaf_check, torsion_check, perpendicular_check):
                assert _outcome(check, psi_to_gr(M, twin), Jp) == _outcome(check, psi_to_gr(M, gr.skew), Jp)


def test_presheaf_predicates_refuse_a_presheaf_over_another_site():
    # psi_to_gr stacked a c2_f2 presheaf along the pairs of terminal_f2xf2's
    # skew algebra and raised IndexError; a presheaf over F2[C2] on the
    # terminal category has the same pairs and was read silently
    _, cat, R = next(f for f in fixture_presheaves() if f[0] == "terminal_f2xf2")
    gr = build_gr(cat, R)
    c2_cat, c2_R, _ = _fixture_site("c2_f2")
    group_R = constant_presheaf(terminal_category(), group_algebra_c2(2))
    foreign = [
        *enumerate_module_presheaves(c2_cat, c2_R, 1),
        *(M for M in enumerate_module_presheaves(terminal_category(), group_R, 1) if sum(M.ranks)),
    ]
    topologies = enumerate_linear_topologies(gr)
    assert len(foreign) > 2 and topologies
    for Jp in topologies:
        for M in foreign:
            for check in (is_sheaf, is_torsion, perpendicular_check):
                with pytest.raises(InputError, match="not over the skew algebra of the topology's site"):
                    check(M, Jp)
    # a presheaf over a second build of the same site is over the same skew algebra
    twin_cat, twin_R, _ = _fixture_site("terminal_f2xf2")
    assert twin_cat is not cat and twin_R is not R
    for M in enumerate_module_presheaves(twin_cat, twin_R, 2):
        assert psi_to_gr(M, gr.skew).key() == psi_to_gr(M).key()
        for Jp in topologies:
            for on_presheaf, on_module in ((is_sheaf, sheaf_check), (is_torsion, torsion_check),
                                           (perpendicular_check, perpendicular_check)):
                assert _outcome(on_presheaf, M, Jp) == _outcome(on_module, psi_to_gr(M, gr.skew), Jp)


def test_criterion_5_builds_each_cover_table_once(monkeypatch):
    # equal covers of different topologies on one site share one entry
    built = Counter()
    for name in ("_sheaf_cover", "representable_quotient", "_presentation"):
        def spy(*args, _build=getattr(modules, name), _name=name):
            built[_name] += 1
            return _build(*args)

        monkeypatch.setattr(modules, name, spy)
    criterion_5_sheaf_perpendicular()
    assert built == {"_sheaf_cover": 14, "representable_quotient": 14, "_presentation": 2}


def test_interleaved_sites_with_equal_sieve_keys_keep_their_tables():
    # on terminal_f2xf2 and c2_f2, e_0 A has rank 2, so the zero and the
    # maximal sieve have the same key on both sites: a memo shared between
    # them would serve one site's tables to the other
    sites = [_fixture_site(name) for name in ("terminal_f2xf2", "c2_f2")]
    for sieve in (zero_linear_sieve, maximal_linear_sieve):
        assert len({sieve(gr, 0).key() for _, _, gr in sites}) == 1
    # J_I for every idempotent ideal I is every linear topology, built without the memo
    tops = [[ideal_topology(gr, I.matrix) for I in enumerate_idempotent_ideals(gr.skew)] for _, _, gr in sites]
    runs = [
        [(psi_to_gr(M, gr.skew), Jp) for Jp in site_tops for M in enumerate_module_presheaves(cat, R, 2)]
        for (cat, R, gr), site_tops in zip(sites, tops)
    ]
    pairs = [pair for both in itertools.zip_longest(*runs) for pair in both if pair is not None]
    assert len(pairs) == sum(map(len, runs))
    for V, Jp in pairs:
        assert _outcome(sheaf_check, V, Jp) == _outcome(uncached_sheaf_check, V, Jp)
        assert _outcome(perpendicular_check, V, Jp) == _outcome(uncached_perpendicular_check, V, Jp)
        assert _outcome(torsion_check, V, Jp) == _outcome(oracle_torsion_check, V, Jp)
    for (_, _, gr), site_tops in zip(sites, tops):
        assert {Jp.key() for Jp in enumerate_linear_topologies(gr)} == {Jp.key() for Jp in site_tops}


# The presheaf-side Hom route: natural R-linear transformations solved
# from the naturality and linearity equations, one column per equation.
@dataclass
class NatTransformation:
    source: ModulePresheaf
    target: ModulePresheaf
    components: tuple


def hom_modules(M: ModulePresheaf, N: ModulePresheaf) -> list:
    """Basis of natural R-linear transformations M -> N."""
    cat = M.cat
    n = M.R.base.modulus
    offs = []
    total = 0
    for x in range(cat.n_objects):
        offs.append(total)
        total += M.ranks[x] * N.ranks[x]
    if total == 0:
        return []

    cols = []

    def add_constraint(parts):
        col = np.zeros(total, dtype=np.int64)
        for x, block in parts:
            col[offs[x] : offs[x] + block.size] += block.reshape(-1)
        cols.append(col % n)

    for f in range(cat.n_morphisms):
        x, y = cat.dom(f), cat.cod(f)
        # M(f) phi_x = phi_y N(f): entry (i, c) over phi-unknowns
        for i in range(M.ranks[y]):
            for c in range(N.ranks[x]):
                blk_x = np.outer(M.maps[f][i], (np.arange(N.ranks[x]) == c).astype(np.int64))
                blk_y = np.zeros((M.ranks[y], N.ranks[y]), dtype=np.int64)
                blk_y[i] = (-N.maps[f][:, c]) % n
                add_constraint([(x, blk_x % n), (y, blk_y)])
    for x in range(cat.n_objects):
        alg = M.R.algebra(x)
        for j in range(alg.rank):
            AM = M.actions[x][j]
            AN = N.actions[x][j]
            for i in range(M.ranks[x]):
                for c in range(N.ranks[x]):
                    blk = np.outer(AM[i], (np.arange(N.ranks[x]) == c).astype(np.int64))
                    blk2 = np.zeros_like(blk)
                    blk2[i] = (-AN[:, c]) % n
                    add_constraint([(x, (blk + blk2) % n)])
    Cmat = (
        np.stack(cols, axis=1)
        if cols
        else np.zeros((total, 0), dtype=np.int64)
    )
    K = linalg.kernel_left(Cmat, n)
    out = []
    for row in K:
        comps = []
        for x in range(cat.n_objects):
            size = M.ranks[x] * N.ranks[x]
            comps.append(row[offs[x] : offs[x] + size].reshape(M.ranks[x], N.ranks[x]))
        out.append(NatTransformation(M, N, tuple(comps)))
    return out


def test_hom_modules_matches_hom_skew():
    cat = a2_category()
    R = constant_presheaf(cat, field_algebra(2))
    skew = build_skew_algebra(cat, R)
    mods = enumerate_module_presheaves(cat, R, 2)
    for M in mods:
        for N in mods:
            a = len(hom_modules(M, N))
            b = len(hom_skew(psi_to_gr(M, skew), psi_to_gr(N, skew)))
            assert a == b, (M.ranks, N.ranks)


def test_hom_constraints_match_kron_blocks():
    # the broadcast constraint matrix equals the per-basis-element kron
    # blocks, column order included, on every member pair of T2(F2), dim <= 3
    U = ModuleUniverse(t2_algebra(2), 3)
    n = 2
    for V in U.members:
        for W in U.members:
            v, w = V.dim, W.dim
            blocks = [
                (np.kron(V.act[j], np.eye(w, dtype=np.int64)) - np.kron(np.eye(v, dtype=np.int64), W.act[j].T)).T % n
                for j in range(V.algebra.rank)
            ]
            want = np.concatenate(blocks, axis=1)
            got = _hom_constraints(V, W)
            assert got.dtype == np.int64 and got.shape == want.shape == (v * w, 3 * v * w)
            assert np.array_equal(got, want), (v, w)


PROPERTY = settings(derandomize=True, max_examples=60, deadline=None, database=None)
SHIPPED_SITES = {
    "a2_f2": (a2_category, lambda: field_algebra(2), 3),
    "c2_f2": (c2_monoid_category, lambda: field_algebra(2), 3),
    "terminal_f2xf2": (terminal_category, lambda: product_field_algebra(2, 2), 3),
    "c2_f3": (c2_monoid_category, lambda: field_algebra(3), 2),
}


@functools.lru_cache(maxsize=None)
def shipped_universe(name):
    make_cat, make_alg, dim_bound = SHIPPED_SITES[name]
    cat = make_cat()
    return ModuleUniverse(build_skew_algebra(cat, constant_presheaf(cat, make_alg())), dim_bound)


@st.composite
def rebased_members(draw, count):
    """(universe, [(index, module), ...]): members of a shipped universe, each
    under a random change of basis."""
    U = shipped_universe(draw(st.sampled_from(sorted(SHIPPED_SITES))))
    n = U.algebra.base.modulus
    drawn = []
    for _ in range(count):
        i = draw(st.integers(0, len(U) - 1))
        m = U.members[i].dim
        g = np.array(draw(st.lists(st.integers(0, n - 1), min_size=m * m, max_size=m * m)), dtype=np.int64)
        g = g.reshape(m, m)
        ginv = linalg.matrix_inverse(g, n)
        assume(ginv is not None)
        drawn.append((i, SkewModule(U.algebra, (g @ U.members[i].act @ ginv) % n)))
    return U, drawn


@PROPERTY
@given(rebased_members(2))
def test_hom_dimensions_agree_under_change_of_basis(drawn):
    U, [(i, V), (j, W)] = drawn
    a = len(hom_skew(V, W))
    assert a == len(hom_modules(phi_from_gr(V), phi_from_gr(W))) == U.hom_dim(i, j)


@PROPERTY
@given(rebased_members(1))
def test_stacking_round_trip_keeps_the_class(drawn):
    U, [(i, V)] = drawn
    assert U.index_of(V) == i
    assert U.index_of(psi_to_gr(phi_from_gr(V), U.algebra)) == i


@PROPERTY
@given(rebased_members(2))
def test_ext1_routes_and_hom_rank_agree_under_change_of_basis(drawn):
    U, [(_, V), (_, W)] = drawn
    n = U.algebra.base.modulus
    assert ext1_skew(V, W) == ext1_dimension_by_enumeration(V, W)
    rank = linalg.howell_form(_hom_constraints(V, W), n, V.algebra.rank * V.dim * W.dim).shape[0]
    assert rank + len(hom_skew(V, W)) == V.dim * W.dim


def cocycle_constraints_by_loops(V, W):
    """Reference for _cocycle_constraints: column (i, j, a, b) is entry (a, b)
    of sum_q mul[i, j, q] C_q - C_i W_j - V_i C_j, then column (a, b) is
    entry (a, b) of sum_q unit[q] C_q; row (q, s, t) is entry (s, t) of C_q."""
    A = V.algebra
    d, mv, mw = A.rank, V.dim, W.dim
    size = mv * mw
    C = np.zeros((d * size, d * d * size + size), dtype=np.int64)
    col = 0
    for i in range(d):
        for j in range(d):
            for a in range(mv):
                for b in range(mw):
                    for q in range(d):
                        C[q * size + a * mw + b, col] += A.mul[i, j, q]
                    for t in range(mw):
                        C[i * size + a * mw + t, col] -= W.act[j][t, b]
                    for s in range(mv):
                        C[j * size + s * mw + b, col] -= V.act[i][a, s]
                    col += 1
    for a in range(mv):
        for b in range(mw):
            for q in range(d):
                C[q * size + a * mw + b, col] += A.unit[q]
            col += 1
    return C % A.base.modulus


@pytest.mark.parametrize(
    "universe",
    [
        lambda: ModuleUniverse(t2_algebra(2), 3),
        lambda: ModuleUniverse(build_skew_algebra(a2_category(), a2_mixed_presheaf(2)), 2),
        lambda: shipped_universe("c2_f3"),
    ],
    ids=["t2_f2_d3", "a2_mixed_d2", "c2_f3_d2"],
)
def test_cocycle_constraints_match_loops(universe):
    U = universe()
    for V in U.members:
        for W in U.members:
            got = _cocycle_constraints(V, W)
            want = cocycle_constraints_by_loops(V, W)
            assert got.dtype == np.int64 and np.array_equal(got, want), (V.dim, W.dim)


def act_of_by_loop(V, v):
    """Reference for SkewModule.act_of at one element: sum_j v[j] act[j], reduced."""
    out = np.zeros((V.dim, V.dim), dtype=np.int64)
    for c, M in zip(np.asarray(v).tolist(), V.act):
        out += c * M
    return out % V.algebra.base.modulus


def empty_site_algebra():
    """The skew algebra of the empty category: rank 0, as for the empty subcategory of a site."""
    return build_skew_algebra(empty_category(), constant_presheaf(empty_category(), field_algebra(2)))


@pytest.mark.parametrize(
    "modules_of",
    [
        lambda: ModuleUniverse(t2_algebra(2), 2).members,
        lambda: shipped_universe("c2_f3").members,
        lambda: enumerate_skew_module_structures(group_algebra_c2(6), 1),
        lambda: [zero_skew_module(t2_algebra(2)), zero_skew_module(empty_site_algebra())],
        # rank 0 with a nonzero carrier (not unital): every element acts as zero
        lambda: [SkewModule(zero_algebra(2), np.zeros((0, 2, 2), dtype=np.int64))],
    ],
    ids=["t2_f2_d2", "c2_f3_d2", "c2_z6_d1", "dim0", "rank0"],
)
def test_act_of_on_a_stack_is_the_stack_of_single_calls(modules_of):
    rng = np.random.default_rng(2400)
    for V in modules_of():
        n, d, m = V.algebra.base.modulus, V.algebra.rank, V.dim
        for k in (0, 1, 5):
            vs = rng.integers(0, n, size=(k, d)).astype(np.int64)
            got = V.act_of(vs)
            assert got.dtype == np.int64 and got.shape == (k, m, m)
            singles = [V.act_of(v) for v in vs]
            assert all(np.array_equal(S, act_of_by_loop(V, v)) for S, v in zip(singles, vs))
            assert np.array_equal(got, np.array(singles, dtype=np.int64).reshape(k, m, m))
        vs = rng.integers(0, n, size=(2, 3, d)).astype(np.int64)
        assert np.array_equal(V.act_of(vs), V.act_of(vs.reshape(6, d)).reshape(2, 3, m, m))
        one = V.act_of(V.algebra.unit)
        assert one.shape == (m, m) and np.array_equal(one, act_of_by_loop(V, V.algebra.unit))


def test_hom_modules_endomorphisms_of_representable():
    P2 = a2_presheaf(1, 1, [[1]])
    assert len(hom_modules(P2, P2)) == 1


def test_validate_module_presheaf_catches_bad_action():
    cat = a2_category()
    R = constant_presheaf(cat, product_field_algebra(2, 2))
    ranks = (1, 1)
    maps = [np.eye(1, dtype=np.int64)] * 3
    good_act = np.array([[[1]], [[0]]], dtype=np.int64)
    M = ModulePresheaf(cat, R, ranks, maps, [good_act, good_act])
    assert validate_module_presheaf(M).ok
    bad_act = np.array([[[1]], [[1]]], dtype=np.int64)  # unit no longer acts as 1
    M2 = ModulePresheaf(cat, R, ranks, maps, [good_act, bad_act])
    rep = validate_module_presheaf(M2)
    assert not rep.ok
