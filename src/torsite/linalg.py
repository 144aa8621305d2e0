"""Exact linear algebra over Z/n.

Spans of row vectors are represented by matrices in Howell normal form,
which is a canonical representative: two generating sets span the same
submodule of (Z/n)^w iff their Howell forms are byte-identical.  For prime
n the form degenerates to the reduced row echelon form over the field,
and elimination takes a shorter route: every nonzero entry is a unit, so
each pivot is scaled to 1 and clears its column with one row operation
per row, and no saturation pass is needed.

Elimination runs on rows of Python ints, so its arithmetic is exact
whatever n.  numpy int64 arrays appear only at the boundary (inputs,
Howell forms, solutions, kernels), and those arrays still rely on the
int64 headroom that ``algebra.MAX_MODULUS`` guarantees.

Row-vector convention throughout the package: a linear map is applied as
``v @ M`` and composites read left to right (``first @ then``).
"""
from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .errors import BudgetExceededError


def _xgcd(a: int, b: int):
    """Return (g, u, v) with u*a + v*b == g == gcd(a, b)."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def modinv(a: int, n: int) -> int:
    g, u, _ = _xgcd(a % n, n)
    if g != 1:
        raise ValueError(f"{a} is not invertible mod {n}")
    return u % n


def unit_for(a: int, n: int) -> int:
    """A unit u mod n with (u * a) % n == gcd(a, n)."""
    a %= n
    d = math.gcd(a, n)
    if d == n:
        return 1
    m = n // d
    u = modinv((a // d) % m, m)
    while math.gcd(u, n) != 1:
        u += m
    return u % n


@functools.cache
def is_prime(n: int) -> bool:
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def as_matrix(rows, width: int) -> np.ndarray:
    """Coerce a row list / array to an int64 matrix of the given width."""
    a = np.array(rows, dtype=np.int64)
    if a.size == 0:
        return np.zeros((0, width), dtype=np.int64)
    if a.ndim == 1:
        a = a.reshape(1, -1)
    if a.shape[1] != width:
        raise ValueError(f"expected width {width}, got {a.shape[1]}")
    return a


def _leading(row) -> int:
    """Column of the first nonzero entry of a row, or -1 for a zero row."""
    for j, x in enumerate(row):
        if x:
            return j
    return -1


def _echelon(work: list, n: int, width: int) -> list:
    """Echelon form of nonzero int rows with entries in [0, n)."""
    r = 0
    for j in range(width):
        if r == len(work):
            break
        pivot = False
        for i in range(r, len(work)):
            if not work[i][j]:
                continue
            if not pivot:
                work[r], work[i] = work[i], work[r]
                pivot = True
            else:
                a, b = work[r][j], work[i][j]
                g, u, v = _xgcd(a, b)
                p, q = b // g, a // g
                top, low = work[r], work[i]
                work[r] = [(u * x + v * y) % n for x, y in zip(top, low)]
                work[i] = [(p * x - q * y) % n for x, y in zip(top, low)]
        if pivot:
            a = work[r][j]
            d = math.gcd(a, n)
            if a != d:
                u = unit_for(a, n)
                work[r] = [(u * x) % n for x in work[r]]
            top = work[r]
            for i in range(r):
                q = work[i][j] // d
                if q:
                    work[i] = [(x - q * y) % n for x, y in zip(work[i], top)]
            r += 1
    return work[:r]


def _field_echelon(work: list, p: int, width: int) -> list:
    """Reduced echelon form of nonzero int rows with entries in [0, p), p prime."""
    r = 0
    for j in range(width):
        if r == len(work):
            break
        for i in range(r, len(work)):
            if work[i][j]:
                break
        else:
            continue
        top = work[i]
        work[i] = work[r]
        if top[j] != 1:
            u = modinv(top[j], p)
            top = [(u * x) % p for x in top]
        work[r] = top
        for i, row in enumerate(work):
            q = row[j]
            if q and i != r:
                work[i] = [(x - q * y) % p for x, y in zip(row, top)]
        r += 1
    return work[:r]


def _howell_rows(work: list, n: int, width: int) -> list:
    """Howell form, as int rows, of the span of int rows with entries in [0, n)."""
    work = [r for r in work if any(r)]
    if is_prime(n):  # all pivots are 1, so the saturation pass adds nothing
        return _field_echelon(work, n, width)
    work = _echelon(work, n, width)
    # enforce the Howell property: annihilator multiples of each row must
    # already lie in the span of the lower rows
    for _ in range(width * (n.bit_length() + 2) + 8):
        extra = []
        for row in work:
            t = n // math.gcd(row[_leading(row)], n)
            if 1 < t < n:  # t == n: the pivot is 1 and t * row == 0
                v = [(t * x) % n for x in row]
                if any(v):
                    extra.append(v)
        if not extra:
            break
        new = _echelon(work + extra, n, width)
        if new == work:
            break
        work = new
    else:  # pragma: no cover
        raise RuntimeError("howell iteration failed to stabilize")
    return work


def howell_form(rows, n: int, width: int | None = None) -> np.ndarray:
    """Canonical Howell form of the span of the given rows.

    Beyond echelon shape (increasing pivot columns, pivots dividing n,
    entries above a pivot reduced modulo it) the result satisfies the
    Howell property: any span element supported on columns >= j lies in
    the span of the rows with leading column >= j.  That last property is
    what makes kernel extraction from an augmented form correct over a
    non-field Z/n.
    """
    if width is None:
        a = np.asarray(rows, dtype=np.int64)
        if a.ndim != 2:
            raise ValueError("width is required for ambiguous input")
        width = a.shape[1]
    work = _howell_rows((as_matrix(rows, width) % n).tolist(), n, width)
    if not work:
        return np.zeros((0, width), dtype=np.int64)
    return np.array(work, dtype=np.int64)


def span_key(H: np.ndarray) -> bytes:
    """Hashable identity of a span given by its Howell form."""
    return H.shape[0].to_bytes(4, "little") + H.tobytes()


def _reduce(H: list, rows: list, n: int) -> list:
    """Reduce each int row in place by the rows of a Howell form, in order."""
    for h in H:
        j = _leading(h)
        for t, r in enumerate(rows):
            q = r[j] // h[j]
            if q:
                rows[t] = [(x - q * y) % n for x, y in zip(r, h)]
    return rows


def reduce_vector(H: np.ndarray, v, n: int) -> np.ndarray:
    """Remainder of v after reduction against a Howell form H.

    v is one vector or a stack of them (one per row); every row is reduced
    by the rows of H in order, exactly as a single vector would be.
    """
    r = np.array(v, dtype=np.int64) % n
    if not H.shape[0]:
        return r
    rows = _reduce(H.tolist(), r.reshape(-1, r.shape[-1]).tolist(), n)
    return np.array(rows, dtype=np.int64).reshape(r.shape)


def in_span(H: np.ndarray, v, n: int) -> bool:
    return not reduce_vector(H, v, n).any()


def _augmented_howell(A: np.ndarray, n: int) -> list:
    """Howell form of [A mod n | I] as int rows; A has shape (m, k)."""
    m, k = A.shape
    unit = [0] * m
    rows = []
    for i, row in enumerate((A % n).tolist()):
        row += unit
        row[k + i] = 1
        rows.append(row)
    return _howell_rows(rows, n, k + m)


def solve_left(A, b, n: int):
    """One solution x of x @ A == b (mod n), or None.

    A has shape (m, k).  b is one target of length k, giving x of length
    m, or a stack of shape (r, k), giving x of shape (r, m) and None if
    any row of b lies outside the span.  Works for any modulus thanks to
    the Howell property of the augmented form, built once for all rows:
    reducing [b | 0] by its rows with leading column < k leaves [0 | -x].
    """
    A = np.asarray(A, dtype=np.int64)
    m, k = A.shape
    b = np.asarray(b, dtype=np.int64) % n
    H = [row for row in _augmented_howell(A, n) if _leading(row) < k]
    rest = _reduce(H, [row + [0] * m for row in np.atleast_2d(b).tolist()], n)
    if any(any(row[:k]) for row in rest):
        return None
    x = np.array([[(-t) % n for t in row[k:]] for row in rest], dtype=np.int64).reshape(len(rest), m)
    return x if b.ndim == 2 else x[0]


def kernel_left(A, n: int) -> np.ndarray:
    """Howell basis of {x : x @ A == 0 (mod n)}."""
    A = np.asarray(A, dtype=np.int64)
    m, k = A.shape
    if m == 0:
        return np.zeros((0, 0), dtype=np.int64)
    return as_matrix([row[k:] for row in _augmented_howell(A, n) if not any(row[:k])], m)


def matrix_inverse(A, n: int):
    """Two-sided inverse of a square matrix mod n, or None."""
    A = np.asarray(A, dtype=np.int64) % n
    k = A.shape[0]
    if A.shape != (k, k):
        raise ValueError("matrix_inverse needs a square matrix")
    X = solve_left(A, np.eye(k, dtype=np.int64), n)
    if X is None:
        return None
    if ((X @ A) % n != np.eye(k, dtype=np.int64)).any():
        return None
    if ((A @ X) % n != np.eye(k, dtype=np.int64)).any():
        return None
    return X


def span_size(H: np.ndarray, n: int) -> int:
    size = 1
    for row in H.tolist():
        size *= n // row[_leading(row)]
    return size


def span_elements(H: np.ndarray, n: int):
    """All elements of the span, each exactly once (H in Howell form)."""
    w = H.shape[1]
    if H.shape[0] == 0:
        yield np.zeros(w, dtype=np.int64)
        return
    ranges = [range(n // row[_leading(row)]) for row in H.tolist()]
    for coeffs in itertools.product(*ranges):
        yield (np.array(coeffs, dtype=np.int64) @ H) % n


def all_vectors(width: int, n: int):
    for tup in itertools.product(range(n), repeat=width):
        yield np.array(tup, dtype=np.int64)


def _stable_rows(rows: list, mats: np.ndarray, n: int, width: int, charge) -> list:
    """Howell rows of the smallest span containing int rows and stable under mats.

    Each step calls charge() and takes one Howell form of the span so far
    with the images that reduce to nonzero; the closure ends at a step
    with none.
    """
    H = []
    rows = [r for r in rows if any(r)]
    while rows:
        charge()
        H = _howell_rows(H + rows, n, width)
        images = ((np.array(H, dtype=np.int64) @ mats) % n).reshape(-1, width).tolist()
        rows = [r for r in _reduce(H, images, n) if any(r)]
    return H


def stable_closure(gens, mats, n: int, width: int) -> np.ndarray:
    """Smallest span containing gens and stable under v -> v @ M for each M."""
    mats = np.array(mats, dtype=np.int64).reshape(len(mats), width, width) % n
    rows = (as_matrix(gens, width) % n).tolist()
    return as_matrix(_stable_rows(rows, mats, n, width, lambda: None), width)


def enumerate_submodules(width: int, n: int, stable_under=(), budget: int | None = None):
    """All submodules of (Z/n)^width stable under right multiplication.

    Every submodule is a sum of cyclic submodules vA (K. Lux, J. Mueller
    and M. Ringe, J. Symbolic Comput. 17, 1994).  Each nonzero vector v,
    up to a unit, is closed once, and the distinct vA are kept.  The
    search then runs breadth-first over the sums S + C of a found
    submodule S and a cyclic C not inside it: a sum of stable spans is
    stable, so each step is one Howell form and no closure.  Returns
    Howell forms sorted by (size, bytes).  The budget refuses n^width up
    front, then bounds one count of every Howell form the search takes,
    closure steps and sums alike.
    """
    if budget is not None and n**width > budget:
        raise BudgetExceededError("submodule enumeration", n**width, budget)
    mats = np.array(stable_under, dtype=np.int64).reshape(len(stable_under), width, width) % n
    units = [u for u in range(2, n) if math.gcd(u, n) == 1]
    charged = 0

    def charge():
        nonlocal charged
        charged += 1
        if budget is not None and charged > budget:
            raise BudgetExceededError("submodule enumeration", charged, budget)

    cyclic = {}  # Howell rows of vA, as a tuple of tuples -> v
    for v in map(list, itertools.product(range(n), repeat=width)):
        if any(v) and all(v <= [u * x % n for x in v] for u in units):  # v least up to a unit
            C = _stable_rows([v, *((np.array(v) @ mats) % n).tolist()], mats, n, width, charge)
            cyclic.setdefault(tuple(map(tuple, C)), v)
    found = {()}
    frontier = [()]
    while frontier:
        grown = []
        for S in frontier:
            for C, r in zip(cyclic, _reduce(S, list(cyclic.values()), n)):
                if any(r):  # vA is not inside S
                    charge()
                    T = tuple(map(tuple, _howell_rows(list(map(list, S + C)), n, width)))
                    if T not in found:
                        found.add(T)
                        grown.append(T)
        frontier = grown
    return sorted((as_matrix(T, width) for T in found), key=lambda H: (span_size(H, n), span_key(H)))


def pivot_columns(H: np.ndarray) -> list:
    return [_leading(row) for row in H.tolist()]


def complement_columns(H: np.ndarray, width: int) -> list:
    piv = set(pivot_columns(H))
    return [j for j in range(width) if j not in piv]
