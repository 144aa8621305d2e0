import itertools
import math
import os
import subprocess
import sys

import numpy as np
import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

from torsite import linalg


def brute_span(gens, n):
    """Set of all Z/n-combinations of the generator rows, as tuples."""
    gens = linalg.as_matrix(gens, gens.shape[1] if hasattr(gens, "shape") else len(gens[0]))
    m = gens.shape[0]
    out = set()
    for coeffs in itertools.product(range(n), repeat=m):
        v = (np.array(coeffs, dtype=np.int64) @ gens) % n if m else np.zeros(gens.shape[1], dtype=np.int64)
        out.add(tuple(int(t) for t in v))
    if not out:
        out.add(tuple([0] * gens.shape[1]))
    return out


MODULI = [2, 3, 4, 5, 6, 8, 12]


def random_cases(rng, n, width, rows, count):
    for _ in range(count):
        yield rng.integers(0, n, size=(rows, width)).astype(np.int64)


def test_xgcd_and_unit():
    for n in range(2, 40):
        for a in range(n):
            u = linalg.unit_for(a, n)
            assert math.gcd(u, n) == 1
            assert (u * a) % n == math.gcd(a, n) % n


@pytest.mark.parametrize("n", MODULI)
def test_howell_is_canonical_for_a_span(n):
    rng = np.random.default_rng(20260814 + n)
    for A in random_cases(rng, n, width=4, rows=3, count=25):
        H = linalg.howell_form(A, n, 4)
        # recombine generators without changing the span
        B = A.copy()
        B = np.vstack([B, (B[0] + 2 * B[1]) % n])
        B = B[::-1]
        u = 1 + 2 * int(rng.integers(0, n // 2)) if n % 2 == 0 else int(rng.integers(1, n))
        if math.gcd(u, n) == 1:
            B[0] = (u * B[0]) % n
        H2 = linalg.howell_form(B, n, 4)
        assert linalg.span_key(H) == linalg.span_key(H2)
        assert brute_span(A, n) == brute_span(H, n)


@pytest.mark.parametrize("n", MODULI)
def test_howell_shape_invariants(n):
    rng = np.random.default_rng(7 * n)
    for A in random_cases(rng, n, width=5, rows=4, count=15):
        H = linalg.howell_form(A, n, 5)
        lead = [linalg._leading(r) for r in H]
        assert lead == sorted(lead) and len(set(lead)) == len(lead)
        for i, row in enumerate(H):
            d = int(row[lead[i]])
            assert n % d == 0
            for k in range(i):
                assert int(H[k][lead[i]]) < d
            # annihilator multiples stay inside the lower rows
            t = n // d
            v = (t * row) % n
            rest = H[i + 1 :]
            assert not linalg.reduce_vector(linalg.as_matrix(rest, 5), v, n).any()


@pytest.mark.parametrize("n", MODULI)
def test_membership_matches_brute_force(n):
    rng = np.random.default_rng(100 + n)
    for A in random_cases(rng, n, width=3, rows=2, count=10):
        H = linalg.howell_form(A, n, 3)
        S = brute_span(A, n)
        for v in itertools.product(range(n), repeat=3):
            assert linalg.in_span(H, np.array(v), n) == (v in S)


@pytest.mark.parametrize("n", MODULI)
def test_span_elements_enumeration(n):
    rng = np.random.default_rng(300 + n)
    for A in random_cases(rng, n, width=3, rows=2, count=8):
        H = linalg.howell_form(A, n, 3)
        elems = [tuple(int(t) for t in v) for v in linalg.span_elements(H, n)]
        assert len(elems) == len(set(elems)) == linalg.span_size(H, n)
        assert set(elems) == brute_span(A, n)


@pytest.mark.parametrize("n", MODULI)
def test_solve_left(n):
    rng = np.random.default_rng(500 + n)
    for A in random_cases(rng, n, width=3, rows=3, count=12):
        x = rng.integers(0, n, size=3).astype(np.int64)
        b = (x @ A) % n
        sol = linalg.solve_left(A, b, n)
        assert sol is not None
        assert ((sol @ A) % n == b).all()
    # unsolvable cases detected
    for A in random_cases(rng, n, width=2, rows=2, count=10):
        S = brute_span(A, n)
        for b in itertools.product(range(n), repeat=2):
            sol = linalg.solve_left(A, np.array(b), n)
            assert (sol is not None) == (b in S)


@pytest.mark.parametrize("n", MODULI)
def test_kernel_left(n):
    rng = np.random.default_rng(900 + n)
    for A in random_cases(rng, n, width=2, rows=3, count=10):
        K = linalg.kernel_left(A, n)
        for row in K:
            assert not ((row @ A) % n).any()
        true_kernel = {
            x
            for x in itertools.product(range(n), repeat=3)
            if not ((np.array(x, dtype=np.int64) @ A) % n).any()
        }
        assert linalg.span_size(K, n) == len(true_kernel)
        for x in true_kernel:
            assert linalg.in_span(K, np.array(x), n)


def test_matrix_inverse():
    for n in [2, 3, 4, 6]:
        rng = np.random.default_rng(n)
        eye = np.eye(3, dtype=np.int64)
        found = 0
        for _ in range(60):
            A = rng.integers(0, n, size=(3, 3)).astype(np.int64)
            X = linalg.matrix_inverse(A, n)
            det = int(round(np.linalg.det(A.astype(float))))
            if X is None:
                # invertible mod n iff det is a unit mod n
                assert math.gcd(det % n, n) != 1
            else:
                found += 1
                assert ((A @ X) % n == eye).all()
                assert ((X @ A) % n == eye).all()
        assert found > 0


def test_submodule_counts_over_fields_and_rings():
    # subspaces of F2^2 and F2^3
    assert len(linalg.enumerate_submodules(2, 2)) == 5
    assert len(linalg.enumerate_submodules(3, 2)) == 16
    # subgroups of Z/4 and Z/6
    assert len(linalg.enumerate_submodules(1, 4)) == 3
    assert len(linalg.enumerate_submodules(1, 6)) == 4
    # subgroups of (Z/4)^1... and of Z/2 x Z/2 like grid
    assert len(linalg.enumerate_submodules(2, 4)) == 15


def test_submodules_respect_stability():
    # invariant subspaces of the nilpotent Jordan block on F2^2
    N = np.array([[0, 1], [0, 0]], dtype=np.int64).T  # row convention: v @ N
    subs = linalg.enumerate_submodules(2, 2, stable_under=[N])
    keys = {linalg.span_key(H) for H in subs}
    brute = []
    for H in linalg.enumerate_submodules(2, 2):
        if all(linalg.in_span(H, (v @ N) % 2, 2) for v in linalg.span_elements(H, 2)):
            brute.append(H)
    assert keys == {linalg.span_key(H) for H in brute}
    assert len(subs) == 3  # 0, the image line, everything


def test_budget_guard():
    with pytest.raises(linalg.BudgetExceededError):
        linalg.enumerate_submodules(8, 2, budget=100)


def test_submodule_budget_charges_every_closure(monkeypatch):
    # F2^3 has 8 vectors and 16 subspaces; the search takes 84 Howell forms,
    # 7 to close the nonzero vectors and 77 for the sums S + C
    howells = []
    real = linalg._howell_rows
    monkeypatch.setattr(linalg, "_howell_rows", lambda *args: howells.append(1) or real(*args))
    subs = linalg.enumerate_submodules(3, 2, budget=84)
    assert len(subs) == 16
    assert len(howells) == 84
    with pytest.raises(linalg.BudgetExceededError) as err:
        linalg.enumerate_submodules(3, 2, budget=83)
    assert (err.value.what, err.value.needed, err.value.budget) == ("submodule enumeration", 84, 83)


# The closure search that enumerate_submodules replaced: grow each found
# submodule by every nonzero vector outside it, one stable closure each.
# About |lattice| * n^width closures; the oracle for the sums-of-cyclics
# search.


def oracle_stable_closure(gens, mats, n, width):
    H = linalg.howell_form(linalg.as_matrix(gens, width), n, width)
    while True:
        images = [H] + [(H @ M) % n for M in mats if H.shape[0]]
        H2 = linalg.howell_form(np.vstack(images) if len(images) > 1 else H, n, width)
        if linalg.span_key(H2) == linalg.span_key(H):
            return H
        H = H2


def oracle_enumerate_submodules(width, n, stable_under=()):
    mats = [np.asarray(M, dtype=np.int64) % n for M in stable_under]
    elements = [v for v in linalg.all_vectors(width, n) if v.any()]
    zero = np.zeros((0, width), dtype=np.int64)
    found = {linalg.span_key(zero): zero}
    frontier = [zero]
    while frontier:
        S = frontier.pop()
        for v in elements:
            if linalg.in_span(S, v, n):
                continue
            gens = np.vstack([S, v.reshape(1, -1)]) if S.shape[0] else v.reshape(1, -1)
            T = oracle_stable_closure(gens, mats, n, width)
            k = linalg.span_key(T)
            if k not in found:
                found[k] = T
                frontier.append(T)
    return sorted(found.values(), key=lambda H: (linalg.span_size(H, n), linalg.span_key(H)))


def assert_same_spans(got, want):
    assert [(H.dtype, H.shape, H.tobytes()) for H in got] == [(H.dtype, H.shape, H.tobytes()) for H in want]


@st.composite
def stable_sets(draw):
    n = draw(st.sampled_from([2, 3, 4, 6]))
    width = draw(st.integers(1, 4))
    entries = st.integers(0, n - 1)
    mats = draw(st.lists(st.lists(entries, min_size=width * width, max_size=width * width), max_size=3))
    return n, width, [np.array(M, dtype=np.int64).reshape(width, width) for M in mats]


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(stable_sets())
def test_enumerate_submodules_matches_the_closure_search(case):
    n, width, mats = case
    # the oracle closes about |lattice| * n^width spans: keep both to seconds
    try:
        got = linalg.enumerate_submodules(width, n, mats, budget=2000)
    except linalg.BudgetExceededError:
        got = None
    assume(got is not None and len(got) * n**width <= 2000)
    assert_same_spans(got, oracle_enumerate_submodules(width, n, mats))
    for H in got[1:]:
        assert_same_spans([linalg.stable_closure(H[:1], mats, n, width)], [oracle_stable_closure(H[:1], mats, n, width)])


def test_submodule_budget_stops_the_rank_12_right_ideal_search():
    # 2^12 vectors fit the budget, but the right ideals of the a3 chain over
    # F2 x F2 take millions of closures: the charge must stop the search
    # within seconds
    code = """
from torsite import linalg
from torsite.algebra import constant_presheaf
from torsite.errors import BudgetExceededError
from torsite.fixtures import a3_category, product_field_algebra
from torsite.grskew import build_skew_algebra
from torsite.modules import regular_module
A = build_skew_algebra(a3_category(), constant_presheaf(a3_category(), product_field_algebra(2, 2)))
assert A.rank == 12
try:
    linalg.enumerate_submodules(A.rank, 2, list(regular_module(A).act), 5000)
except BudgetExceededError as exc:
    print(exc.what, exc.needed, exc.budget)
"""
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["submodule", "enumeration", "5001", "5000"]


# ---------------------------------------------------------------------------
# property tests: stacked solves against one-target-at-a-time references

PROPERTY = settings(derandomize=True, max_examples=60, deadline=None, database=None)
PROPERTY_MODULI = [2, 3, 4, 5, 6, 8, 9, 12]


def solve_one(A, b, n):
    """Reference: one target at a time against the Howell form of [A | I]."""
    m, k = A.shape
    if m == 0:
        return np.zeros(0, dtype=np.int64) if not (b % n).any() else None
    H = linalg.howell_form(np.hstack([A % n, np.eye(m, dtype=np.int64)]), n, k + m)
    x = np.zeros(m, dtype=np.int64)
    r = b % n
    for row in H:
        j = linalg._leading(row)
        if j >= k:
            break
        d = int(row[j])
        if int(r[j]) % d:
            return None
        q = int(r[j]) // d
        r = (r - q * row[:k]) % n
        x = (x + q * row[k:]) % n
    return None if r.any() else x


def reduce_one(H, v, n):
    """Reference: the remainder of one vector against a Howell form."""
    r = np.array(v, dtype=np.int64) % n
    for row in H:
        j = linalg._leading(row)
        q = int(r[j]) // int(row[j])
        if q:
            r = (r - q * row) % n
    return r


@st.composite
def systems(draw):
    """(n, A, B): A of shape (m, k), B a stack of r targets, some in the span of A."""
    n = draw(st.sampled_from(PROPERTY_MODULI))
    m, k, r = draw(st.integers(0, 3)), draw(st.integers(1, 3)), draw(st.integers(0, 4))

    def matrix(rows, cols):
        flat = draw(st.lists(st.integers(0, n - 1), min_size=rows * cols, max_size=rows * cols))
        return np.array(flat, dtype=np.int64).reshape(rows, cols)

    A, X, noise = matrix(m, k), matrix(r, m), matrix(r, k)
    inside = np.array(draw(st.lists(st.booleans(), min_size=r, max_size=r)), dtype=bool)
    B = (X @ A + np.where(inside[:, None], 0, noise)) % n
    return n, A, B


@PROPERTY
@given(systems())
def test_stacked_solve_left_matches_one_target_at_a_time(case):
    n, A, B = case
    each = [solve_one(A, b, n) for b in B]
    got = linalg.solve_left(A, B, n)
    if any(x is None for x in each):
        assert got is None
    else:
        assert got.shape == (B.shape[0], A.shape[0])
        assert got.tolist() == [x.tolist() for x in each]
    for b, x in zip(B, each):
        one = linalg.solve_left(A, b, n)
        assert (one is None) == (x is None)
        assert one is None or one.tolist() == x.tolist()


@PROPERTY
@given(systems())
def test_solve_left_is_none_exactly_outside_the_span(case):
    n, A, B = case
    span = brute_span(A, n)
    got = linalg.solve_left(A, B, n)
    assert (got is None) == any(tuple(int(t) for t in b) not in span for b in B)
    if got is not None:
        assert ((got @ A) % n == B).all()


@PROPERTY
@given(systems())
def test_stacked_reduce_vector_matches_one_row_at_a_time(case):
    n, A, B = case
    H = linalg.howell_form(A, n, A.shape[1])
    got = linalg.reduce_vector(H, B, n)
    assert got.shape == B.shape
    assert got.tolist() == [reduce_one(H, b, n).tolist() for b in B]


@PROPERTY
@given(systems())
def test_kernel_left_is_the_brute_force_kernel(case):
    n, A, _ = case
    K = linalg.kernel_left(A, n)
    assert not ((K @ A) % n).any()
    kernel = [
        x
        for x in itertools.product(range(n), repeat=A.shape[0])
        if not ((np.array(x, dtype=np.int64) @ A) % n).any()
    ]
    assert linalg.span_size(K, n) == len(kernel)


@PROPERTY
@given(systems(), st.data())
def test_howell_form_ignores_row_order(case, data):
    n, A, B = case
    rows = np.vstack([A, B])
    order = data.draw(st.permutations(range(rows.shape[0])))
    H = linalg.howell_form(rows, n, rows.shape[1])
    assert linalg.span_key(linalg.howell_form(rows[order], n, rows.shape[1])) == linalg.span_key(H)


@PROPERTY
@given(st.sampled_from(PROPERTY_MODULI), st.integers(1, 3), st.data())
def test_matrix_inverse_matches_sympy(n, k, data):
    flat = data.draw(st.lists(st.integers(0, n - 1), min_size=k * k, max_size=k * k))
    A = np.array(flat, dtype=np.int64).reshape(k, k)
    try:
        want = np.array(sympy.Matrix(A.tolist()).inv_mod(n).tolist(), dtype=np.int64)
    except ValueError:
        want = None
    got = linalg.matrix_inverse(A, n)
    assert (got is None) == (want is None)
    assert got is None or got.tolist() == want.tolist()


# ---------------------------------------------------------------------------
# the Howell kernel against the numpy elimination it replaced

HOWELL_MODULI = [2, 3, 4, 5, 6, 7, 8, 9, 12, 27, 65537]


def _oracle_leading(row) -> int:
    nz = np.flatnonzero(row)
    return int(nz[0]) if nz.size else -1


def _oracle_echelon(rows: list, n: int, width: int) -> list:
    work = [r % n for r in rows if (r % n).any()]
    r = 0
    for j in range(width):
        pivot = False
        for i in range(r, len(work)):
            if work[i][j] % n == 0:
                continue
            if not pivot:
                work[r], work[i] = work[i], work[r]
                pivot = True
            else:
                a = int(work[r][j])
                b = int(work[i][j])
                g, u, v = linalg._xgcd(a, b)
                comb = (u * work[r] + v * work[i]) % n
                elim = ((b // g) * work[r] - (a // g) * work[i]) % n
                work[r], work[i] = comb, elim
        if pivot:
            a = int(work[r][j])
            d = math.gcd(a, n)
            work[r] = (linalg.unit_for(a, n) * work[r]) % n
            for i in range(r):
                q = int(work[i][j]) // d
                if q:
                    work[i] = (work[i] - q * work[r]) % n
            r += 1
    return work[:r]


def oracle_howell_form(rows, n: int, width: int) -> np.ndarray:
    """Reference: echelon and Howell stabilisation on numpy int64 rows."""
    mat = linalg.as_matrix(rows, width)
    work = _oracle_echelon(list(mat), n, width)
    for _ in range(width * (n.bit_length() + 2) + 8):
        extra = []
        for row in work:
            d = int(row[_oracle_leading(row)])
            t = n // math.gcd(d, n)
            if t > 1:
                v = (t * row) % n
                if v.any():
                    extra.append(v)
        if not extra:
            break
        new = _oracle_echelon(work + extra, n, width)
        if len(new) == len(work) and all(
            (a == b).all() for a, b in zip(new, work)
        ):
            break
        work = new
    else:  # pragma: no cover
        raise RuntimeError("howell iteration failed to stabilize")
    if not work:
        return np.zeros((0, width), dtype=np.int64)
    return np.array(work, dtype=np.int64)


@st.composite
def howell_inputs(draw):
    """(n, A): up to 7 x 8 over Z/n, including empty, zero and all-(n - 1) matrices."""
    n = draw(st.sampled_from(HOWELL_MODULI))
    rows, width = draw(st.integers(0, 7)), draw(st.integers(0, 8))
    fill = draw(st.sampled_from(["random", "zero", "top"]))
    if fill == "zero":
        return n, np.zeros((rows, width), dtype=np.int64)
    if fill == "top":
        return n, np.full((rows, width), n - 1, dtype=np.int64)
    # entries near 0 and n - 1 make coincident pivots, hence row combinations
    entry = st.one_of(st.integers(0, n - 1), st.sampled_from([0, 1, n // 2, n - 1]))
    flat = draw(st.lists(entry, min_size=rows * width, max_size=rows * width))
    return n, np.array(flat, dtype=np.int64).reshape(rows, width)


@PROPERTY
@given(howell_inputs())
def test_howell_form_bytes_match_the_numpy_oracle(case):
    n, A = case
    got = linalg.howell_form(A, n, A.shape[1])
    want = oracle_howell_form(A, n, A.shape[1])
    assert got.dtype == want.dtype == np.int64
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# solve_left and kernel_left before they built [A | I] as int rows: the
# augmented matrix went through np.hstack, np.eye and howell_form.
def oracle_solve_left(A, b, n: int):
    A = np.asarray(A, dtype=np.int64)
    m, k = A.shape
    b = np.asarray(b, dtype=np.int64) % n
    aug = linalg.howell_form(np.hstack([A % n, np.eye(m, dtype=np.int64)]), n, k + m).tolist() if m else []
    H = [row for row in aug if linalg._leading(row) < k]
    rest = linalg._reduce(H, [row + [0] * m for row in np.atleast_2d(b).tolist()], n)
    if any(any(row[:k]) for row in rest):
        return None
    x = np.array([[(-t) % n for t in row[k:]] for row in rest], dtype=np.int64).reshape(len(rest), m)
    return x if b.ndim == 2 else x[0]


def oracle_kernel_left(A, n: int) -> np.ndarray:
    A = np.asarray(A, dtype=np.int64)
    m, k = A.shape
    if m == 0:
        return np.zeros((0, 0), dtype=np.int64)
    aug = linalg.howell_form(np.hstack([A % n, np.eye(m, dtype=np.int64)]), n, k + m).tolist()
    return linalg.as_matrix([row[k:] for row in aug if not any(row[:k])], m)


def assert_same_solves_and_kernel(A, targets, n):
    got, want = linalg.kernel_left(A, n), oracle_kernel_left(A, n)
    assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
    for b in targets:
        got, want = linalg.solve_left(A, b, n), oracle_solve_left(A, b, n)
        assert (got is None) == (want is None)
        if got is not None:
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


@PROPERTY
@given(howell_inputs(), st.data())
def test_solve_and_kernel_bytes_match_the_hstack_oracle(case, data):
    n, A = case
    k = A.shape[1]
    H = linalg.howell_form(A, n, k)  # the solves run on A and on its Howell basis
    size = max(A.shape[0], H.shape[0], k)
    r = data.draw(st.integers(0, 3))
    flat = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=r * size, max_size=r * size)), dtype=np.int64)
    free = flat[: r * k].reshape(r, k)  # often outside the span
    for B in (A, H):
        m = B.shape[0]
        inside = (flat[: r * m].reshape(r, m) @ B) % n  # solvable
        assert_same_solves_and_kernel(B, [inside, free] + list(inside) + list(free), n)


@pytest.mark.parametrize("n", [2, 6, 9])
@pytest.mark.parametrize("m, k", [(0, 0), (0, 3), (3, 0), (2, 2)])
def test_solve_and_kernel_match_the_hstack_oracle_on_empty_shapes(n, m, k):
    A = np.arange(m * k, dtype=np.int64).reshape(m, k) % n
    targets = [np.zeros(k, dtype=np.int64), np.ones(k, dtype=np.int64), np.ones((2, k), dtype=np.int64)]
    assert_same_solves_and_kernel(A, targets, n)


@pytest.mark.parametrize("n", [2, 3, 5, 7, 4, 6, 9, 12])
def test_field_and_ring_routes_match_the_oracles(n):
    # every shape up to 5 x 5, width 0 included; the solves run on A and on
    # its Howell basis, with targets inside and outside the span
    rng = np.random.default_rng(1900 + n)
    for m, k in itertools.product(range(6), repeat=2):
        A = rng.integers(0, n, size=(m, k)).astype(np.int64)
        H = linalg.howell_form(A, n, k)
        want = oracle_howell_form(A, n, k)
        assert (H.dtype, H.shape, H.tobytes()) == (want.dtype, want.shape, want.tobytes())
        if linalg.is_prime(n):  # identity at the pivot columns
            assert np.array_equal(H[:, linalg.pivot_columns(H)], np.eye(H.shape[0], dtype=np.int64))
        for B in (A, H):
            inside = (rng.integers(0, n, size=(3, B.shape[0])) @ B) % n
            free = rng.integers(0, n, size=(3, k)).astype(np.int64)
            assert_same_solves_and_kernel(B, [inside, free, *inside, *free], n)


@st.composite
def small_spans(draw):
    """(n, A) with n ** width and n ** rows <= 4096, so every span element can be listed."""
    n = draw(st.sampled_from([2, 3, 4, 6, 8, 9, 12, 27]))
    most = max(w for w in range(1, 13) if n**w <= 4096)
    width, rows = draw(st.integers(1, most)), draw(st.integers(0, min(most, 4)))
    flat = draw(st.lists(st.integers(0, n - 1), min_size=rows * width, max_size=rows * width))
    return n, np.array(flat, dtype=np.int64).reshape(rows, width)


@PROPERTY
@given(small_spans())
def test_howell_property_by_brute_force(case):
    # every span element supported on columns >= j reduces to zero against
    # the rows of H whose leading column is >= j
    n, A = case
    width = A.shape[1]
    H = linalg.howell_form(A, n, width)
    lead = linalg.pivot_columns(H)
    span = [np.array(v, dtype=np.int64) for v in brute_span(A, n)]
    for j in range(width + 1):
        lower = linalg.as_matrix([row for row, c in zip(H, lead) if c >= j], width)
        for v in span:
            if not v[:j].any():
                assert not linalg.reduce_vector(lower, v, n).any(), (j, v.tolist())
