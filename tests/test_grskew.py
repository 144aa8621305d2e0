"""Skew category algebras, the linear Grothendieck construction, and
linearized topologies, pinned against hand-computed values."""
import glob
import itertools
import json
import os

import numpy as np
import pytest

from torsite import files, linalg
from torsite.algebra import constant_presheaf, validate_algebra
from torsite.errors import BudgetExceededError
from torsite.fixtures import (
    a2_category,
    a2_mixed_presheaf,
    c2_monoid_category,
    empty_category,
    field_algebra,
    fixture_presheaves,
    group_algebra_c2,
    product_field_algebra,
    standard_fixtures,
    terminal_category,
)
from torsite.grskew import (
    LinearSieve,
    LinearTopology,
    build_gr,
    build_skew_algebra,
    end_generator_iso,
    enumerate_linear_topologies,
    ideal_topology,
    is_linear_topology,
    linear_topology_candidates,
    linearize_sieve,
    linearize_topology,
    maximal_linear_sieve,
    pullback_linear_sieve,
    topology_order,
    validate_linear_sieve,
    vector_index,
    zero_linear_sieve,
)
from torsite.report import ValidationReport
from torsite.topology import (
    Sieve,
    enumerate_topologies,
    subcategory_topology,
    trivial_topology,
)
from torsite.torsion import ModuleUniverse, enumerate_idempotent_ideals

ROOT = os.path.join(os.path.dirname(__file__), "..")

EXPECTED_DIMS = {"terminal_f2": 1, "a2_f2": 3, "c2_f2": 2, "terminal_f2xf2": 2}


def test_skew_dimensions():
    for name, cat, alg in standard_fixtures():
        R = constant_presheaf(cat, alg)
        A = build_skew_algebra(cat, R)
        assert A.rank == EXPECTED_DIMS[name], name


def test_skew_dimension_formula():
    # total dimension = sum over morphisms of the rank at the domain
    cat = a2_category()
    R = a2_mixed_presheaf()
    A = build_skew_algebra(cat, R)
    want = sum(R.algebra(cat.dom(f)).rank for f in range(cat.n_morphisms))
    assert A.rank == want == 4


def test_skew_is_valid_algebra():
    for name, cat, alg in standard_fixtures():
        R = constant_presheaf(cat, alg)
        A = build_skew_algebra(cat, R)
        rep = validate_algebra(A)
        assert rep.ok, (name, rep.summary())
    A = build_skew_algebra(a2_category(), a2_mixed_presheaf())
    assert validate_algebra(A).ok


def test_a2_skew_products():
    cat = a2_category()
    R = constant_presheaf(cat, field_algebra(2))
    A = build_skew_algebra(cat, R)
    pos = {name: i for i, name in enumerate(A.basis_names)}
    id1, id2, a = pos["1*id1"], pos["1*id2"], pos["1*a"]

    def prod(i, j):
        return A.multiply(A.basis_vector(i), A.basis_vector(j))

    # a: 1 -> 2, so a absorbs id_1 on the right and id_2 on the left
    assert prod(id2, a)[a] == 1 and prod(id2, a).sum() == 1
    assert prod(a, id1)[a] == 1 and prod(a, id1).sum() == 1
    assert not prod(a, a).any()
    assert not prod(id1, a).any()
    assert not prod(a, id2).any()
    assert not prod(id1, id2).any()
    unit = A.unit.copy()
    want = np.zeros(3, dtype=np.int64)
    want[id1] = 1
    want[id2] = 1
    assert (unit == want).all()


def test_c2_skew_is_group_algebra():
    cat = c2_monoid_category()
    A = build_skew_algebra(cat, constant_presheaf(cat, field_algebra(2)))
    G = group_algebra_c2(2)
    assert A.rank == G.rank == 2
    # identify basis by morphism name suffix
    order = [A.basis_names.index("1*e"), A.basis_names.index("1*g")]
    re_mul = A.mul[np.ix_(order, order, order)]
    assert (re_mul == G.mul).all()


def test_end_generator_iso_all_fixtures():
    for name, cat, alg in standard_fixtures():
        R = constant_presheaf(cat, alg)
        rep = end_generator_iso(cat, R)
        assert rep.ok, (name, rep.summary())
    rep = end_generator_iso(a2_category(), a2_mixed_presheaf())
    assert rep.ok, rep.summary()


def test_empty_category_gives_zero_algebra():
    cat = empty_category()
    R = constant_presheaf(cat, field_algebra(2))
    A = build_skew_algebra(cat, R)
    assert A.rank == 0


def test_gr_hom_ranks_and_composition():
    cat = a2_category()
    R = a2_mixed_presheaf()  # R(1) = F2, R(2) = F2 x F2
    gr = build_gr(cat, R)
    # hom(x, y) = one copy of R(x) per morphism x -> y
    assert gr.hom_rank(0, 0) == 1  # id_1
    assert gr.hom_rank(1, 1) == 2  # id_2 over F2 x F2
    assert gr.hom_rank(0, 1) == 1  # a over R(1) = F2
    assert gr.hom_rank(1, 0) == 0
    # (s at id2) o (r at a) = (R(a)(s) * r at a); R(a) = first projection
    s = np.array([1, 0], dtype=np.int64)
    r = np.array([1], dtype=np.int64)
    out = gr.compose(0, 1, 1, s, r)
    assert (out == np.array([1], dtype=np.int64)).all()
    s2 = np.array([0, 1], dtype=np.int64)
    assert not gr.compose(0, 1, 1, s2, r).any()


def test_linear_sieves_on_a2():
    cat = a2_category()
    R = constant_presheaf(cat, field_algebra(2))
    gr = build_gr(cat, R)
    sieves = gr.linear_sieves_on(1)
    assert len(sieves) == 3
    sizes = sorted(
        sum(linalg.span_size(T.components[y], 2) for y in range(2)) for T in sieves
    )
    # zero sieve, the sieve generated by a, and the maximal sieve
    assert sizes == [2, 3, 4]


def test_linearize_sieve_matches_span():
    cat = a2_category()
    R = constant_presheaf(cat, field_algebra(2))
    gr = build_gr(cat, R)
    a_index = next(
        f for f in range(cat.n_morphisms) if cat.morphisms[f].name == "a"
    )
    S = Sieve(1, frozenset({a_index}))
    T = linearize_sieve(gr, S)
    assert validate_linear_sieve(T).ok
    # T(1) = all of hom(1, 2), T(2) = 0
    assert linalg.span_size(T.components[0], 2) == 2
    assert linalg.span_size(T.components[1], 2) == 1


def test_pullback_linear_sieve_examples():
    cat = a2_category()
    R = constant_presheaf(cat, field_algebra(2))
    gr = build_gr(cat, R)
    T = maximal_linear_sieve(gr, 1)
    f = np.array([1], dtype=np.int64)  # the generator of hom(0, 1)
    P = pullback_linear_sieve(gr, T, 0, f)
    assert P.key() == maximal_linear_sieve(gr, 0).key()
    Z = zero_linear_sieve(gr, 1)
    PZ = pullback_linear_sieve(gr, Z, 0, f)
    # only the zero map precomposes into the zero sieve over a field
    assert linalg.span_size(PZ.components[0], 2) == 1


def test_pullback_along_zero_is_maximal():
    cat = a2_category()
    R = constant_presheaf(cat, field_algebra(2))
    gr = build_gr(cat, R)
    Z = zero_linear_sieve(gr, 1)
    P = pullback_linear_sieve(gr, Z, 0, np.array([0], dtype=np.int64))
    assert P.key() == maximal_linear_sieve(gr, 0).key()


def test_linearize_topology_examples():
    cat = a2_category()
    R = constant_presheaf(cat, field_algebra(2))
    gr = build_gr(cat, R)
    J = subcategory_topology(cat, [0])  # covers: dense at object 1
    Jp = linearize_topology(gr, J)
    assert is_linear_topology(gr, Jp).ok
    assert len(Jp.covers_at(0)) == 1
    covers1 = Jp.covers_at(1)
    assert len(covers1) == 2
    for T in covers1:
        assert linalg.span_size(T.components[0], 2) == 2  # contains all of hom(1,2)


def test_linearize_trivial_topology():
    for name, cat, alg in standard_fixtures():
        R = constant_presheaf(cat, alg)
        gr = build_gr(cat, R)
        Jp = linearize_topology(gr, trivial_topology(cat))
        assert is_linear_topology(gr, Jp).ok, name
        for x in range(cat.n_objects):
            assert len(Jp.covers_at(x)) == 1


def test_linearize_preserves_containment():
    cat = a2_category()
    R = constant_presheaf(cat, field_algebra(2))
    gr = build_gr(cat, R)
    for J in enumerate_topologies(cat):
        Jp = linearize_topology(gr, J)
        assert is_linear_topology(gr, Jp).ok


EXPECTED_LINEAR_COUNTS = {
    "terminal_f2": 2,
    "a2_f2": 4,
    "terminal_f2xf2": 4,
}


def test_enumerate_linear_topologies_counts():
    for name, cat, alg in standard_fixtures():
        if name not in EXPECTED_LINEAR_COUNTS:
            continue
        R = constant_presheaf(cat, alg)
        gr = build_gr(cat, R)
        tops = enumerate_linear_topologies(gr)
        assert len(tops) == EXPECTED_LINEAR_COUNTS[name], name
        keys = {tuple(t.key()) for t in tops}
        assert len(keys) == len(tops)


def test_terminal_f2xf2_linear_topology_structure():
    cat = terminal_category()
    R = constant_presheaf(cat, product_field_algebra(2, 2))
    gr = build_gr(cat, R)
    tops = enumerate_linear_topologies(gr)
    cover_counts = sorted(len(t.covers_at(0)) for t in tops)
    # max only; max + e1-line; max + e2-line; all four sieves
    assert cover_counts == [1, 2, 2, 4]
    for t in tops:
        covers = t.covers_at(0)
        has_zero = any(linalg.span_size(T.components[0], 2) == 1 for T in covers)
        # a zero cover forces every sieve to cover
        assert not has_zero or len(covers) == 4


def test_is_linear_topology_rejects_bad_families():
    cat = terminal_category()
    R = constant_presheaf(cat, product_field_algebra(2, 2))
    gr = build_gr(cat, R)
    e1_line = linalg.howell_form(np.array([[1, 0]], dtype=np.int64), 2, 2)
    e2_line = linalg.howell_form(np.array([[0, 1]], dtype=np.int64), 2, 2)
    mx = maximal_linear_sieve(gr, 0)
    from torsite.grskew import LinearSieve

    T1 = LinearSieve(gr, 0, (e1_line,))
    T2 = LinearSieve(gr, 0, (e2_line,))
    # missing the maximal sieve
    bad = LinearTopology(gr, [[T1]])
    assert not is_linear_topology(gr, bad).ok
    # zero sieve covering forces every sieve to cover
    Z = zero_linear_sieve(gr, 0)
    bad2 = LinearTopology(gr, [[mx, Z]])
    assert not is_linear_topology(gr, bad2).ok
    # {max, e1-line, e2-line} without their intersection fails transitivity
    bad3 = LinearTopology(gr, [[mx, T1, T2]])
    assert not is_linear_topology(gr, bad3).ok
    good = LinearTopology(gr, [[mx, T1]])
    assert is_linear_topology(gr, good).ok


def test_enumeration_budget_guard():
    cat = a2_category()
    R = constant_presheaf(cat, field_algebra(2))
    gr = build_gr(cat, R)
    with pytest.raises(BudgetExceededError):
        enumerate_linear_topologies(gr, budget=1)


def test_linear_sieves_on_checks_budget_on_every_call():
    cat = a2_category()
    R = constant_presheaf(cat, field_algebra(2))
    gr = build_gr(cat, R)
    assert len(gr.linear_sieves_on(1)) == 3
    with pytest.raises(BudgetExceededError) as cached:
        gr.linear_sieves_on(1, 1)
    with pytest.raises(BudgetExceededError) as fresh:
        build_gr(cat, R).linear_sieves_on(1, 1)
    want = ("submodule enumeration", 2, 1)
    assert (cached.value.what, cached.value.needed, cached.value.budget) == want
    assert (fresh.value.what, fresh.value.needed, fresh.value.budget) == want
    # the cached list still serves calls within budget
    assert len(gr.linear_sieves_on(1, 9)) == 3
    with pytest.raises(BudgetExceededError) as product:
        gr.linear_sieves_on(1, 2)
    assert (product.value.what, product.value.needed) == ("linear sieve enumeration", 4)


def test_vector_index_is_all_vectors_order():
    for width, n in ((0, 2), (1, 3), (2, 2), (3, 4)):
        got = [vector_index(f, n) for f in linalg.all_vectors(width, n)]
        assert got == list(range(n**width))


# ---------------------------------------------------------------------------
# linear topologies from idempotent ideals, against the power-set search


def _presheaf_files():
    out = []
    for d in ("perfbench/sites", "fixtures"):
        for path in sorted(glob.glob(os.path.join(ROOT, d, "*.json"))):
            with open(path) as fh:
                if "algebras" in json.load(fh):
                    out.append(path)
    return out


PRESHEAF_FILES = _presheaf_files()
# the power-set search takes ~8 s on this site (16 385 families)
POWER_SET_TOO_SLOW = {"idem_f2xf2.json"}


def check_ideal_topologies(cat, R, power_set=True):
    """J_I of every idempotent ideal I: certified, distinct, 2^s of them,
    and (with power_set) equal to the power-set search, in order."""
    gr = build_gr(cat, R)
    skew = build_skew_algebra(cat, R)
    tops = sorted(
        (ideal_topology(gr, skew, I.matrix) for I in enumerate_idempotent_ideals(skew)),
        key=topology_order,
    )
    assert all(is_linear_topology(gr, Jp).ok for Jp in tops)
    assert len(set(tops)) == len(tops)
    # one hereditary torsion class per set of simple modules (Jans)
    assert len(tops) == 2 ** len(ModuleUniverse(skew, 1).simple_indices)
    if power_set:
        oracle = enumerate_linear_topologies(build_gr(cat, R))
        assert [Jp.key() for Jp in tops] == [Jp.key() for Jp in oracle]


@pytest.mark.parametrize(
    "path", PRESHEAF_FILES, ids=[os.path.relpath(p, ROOT) for p in PRESHEAF_FILES]
)
def test_ideal_topologies_match_power_set_search(path):
    cat, R = files.load_presheaf(path)
    check_ideal_topologies(cat, R, os.path.basename(path) not in POWER_SET_TOO_SLOW)


def test_presheaf_files_cover_the_benchmark_sites():
    names = {os.path.relpath(p, ROOT) for p in PRESHEAF_FILES}
    assert len(names) >= 15 and "perfbench/sites/idem_f2xf2.json" in names


def test_ideal_topologies_of_the_mixed_presheaf():
    check_ideal_topologies(a2_category(), a2_mixed_presheaf())


# ---------------------------------------------------------------------------
# the certificate against the element-by-element pullbacks


def oracle_is_linear_topology(gr, Jp):
    """is_linear_topology before the pullback table, kept verbatim."""
    rep = ValidationReport("linear topology")
    n = gr.base.modulus
    for x in range(gr.cat.n_objects):
        for T in Jp.covers_at(x):
            sub = validate_linear_sieve(T)
            rep.checked += sub.checked
            if not sub.ok:
                rep.add("covers-are-subfunctors", (x,))
    if not rep.ok:
        return rep
    for x in range(gr.cat.n_objects):
        rep.checked += 1
        if not Jp.contains(maximal_linear_sieve(gr, x)):
            rep.add("maximal-subfunctor-covers", (x,))
    for x in range(gr.cat.n_objects):
        for T in Jp.covers_at(x):
            for y in range(gr.cat.n_objects):
                for f_vec in linalg.all_vectors(gr.hom_rank(y, x), n):
                    rep.checked += 1
                    if not Jp.contains(pullback_linear_sieve(gr, T, y, f_vec)):
                        rep.add(
                            "stability",
                            (x, y, tuple(int(t) for t in f_vec)),
                        )
                        break
    for x in range(gr.cat.n_objects):
        for S1 in Jp.covers_at(x):
            for S2 in gr.linear_sieves_on(x):
                if Jp.contains(S2):
                    continue
                rep.checked += 1
                forced = True
                for y in range(gr.cat.n_objects):
                    for f_vec in linalg.span_elements(S1.components[y], n):
                        if not Jp.contains(pullback_linear_sieve(gr, S2, y, f_vec)):
                            forced = False
                            break
                    if not forced:
                        break
                if forced:
                    rep.add("transitivity", (x, S2.key()[1], S1.key()[1]))
    return rep


ORACLE_SITES = {
    "a2_f2": (a2_category, lambda: field_algebra(2)),
    "c2_f3": (c2_monoid_category, lambda: field_algebra(3)),
    "terminal_f2xf2": (terminal_category, lambda: product_field_algebra(2, 2)),
    "a2_z4": (a2_category, lambda: field_algebra(4)),
}


def _oracle_gr(name):
    make_cat, make_alg = ORACLE_SITES[name]
    cat = make_cat()
    return build_gr(cat, constant_presheaf(cat, make_alg()))


@pytest.mark.parametrize("name", sorted(ORACLE_SITES))
def test_is_linear_topology_matches_oracle_on_every_candidate(name):
    gr = _oracle_gr(name)
    families = list(itertools.product(*linear_topology_candidates(gr)))
    verdicts = set()
    for fams in families:
        Jp = LinearTopology(gr, fams)
        got = is_linear_topology(gr, Jp)
        assert got == oracle_is_linear_topology(gr, Jp), fams
        verdicts.add(got.ok)
    assert verdicts == {True, False}


def test_is_linear_topology_matches_oracle_on_a_non_subfunctor_cover():
    gr = _oracle_gr("a2_f2")
    # id2 without a is not closed under precomposition with a
    T = LinearSieve(gr, 1, [np.zeros((0, 1), dtype=np.int64), np.eye(1, dtype=np.int64)])
    Jp = LinearTopology(gr, [[maximal_linear_sieve(gr, 0)], [maximal_linear_sieve(gr, 1), T]])
    got = is_linear_topology(gr, Jp)
    assert got == oracle_is_linear_topology(gr, Jp)
    assert [v.rule for v in got.violations] == ["covers-are-subfunctors"]


@pytest.mark.parametrize("name", sorted(ORACLE_SITES))
def test_pullback_table_matches_direct_pullbacks(name):
    gr = _oracle_gr(name)
    n = gr.base.modulus
    entries = 0
    for x in range(gr.cat.n_objects):
        for T in gr.linear_sieves_on(x):
            for y in range(gr.cat.n_objects):
                table = gr.pullback_keys(T, y)
                vecs = list(linalg.all_vectors(gr.hom_rank(y, x), n))
                assert len(table) == len(vecs)
                for f, key in zip(vecs, table):
                    assert key == pullback_linear_sieve(gr, T, y, f).key()
                    assert table[vector_index(f, n)] == key
                entries += len(table)
    assert entries
