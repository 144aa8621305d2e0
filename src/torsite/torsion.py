"""Ideals, centers, traces, torsion pairs, TTF triples, and the
classification engines over a bounded module universe.

Everything here is exhaustive at desk scale: ideals are enumerated as
two-sided stable submodules, the module universe holds every module up to
isomorphism below a dimension bound, and torsion pairs are certified by
Hom-vanishing plus an explicit exact sequence for every universe member.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .algebra import AlgebraPresheaf, FiniteAlgebra, restrict_presheaf
from .errors import BudgetExceededError, InputError, NotPrimeError
from .fincat import FiniteCategory, full_subcategory
from .grskew import (
    build_gr,
    build_skew_algebra,
    ideal_topology,
    is_linear_topology,
    topology_order,
)
from .modules import (
    SkewModule,
    extension_class_space,
    hom_skew,
    quotient_module,
    regular_module,
    submodule_module,
    torsion_check,
    zero_skew_module,
)
from .topology import GrothendieckTopology, matching_subcategories

DEFAULT_UNIVERSE_BUDGET = 2**22


# ---------------------------------------------------------------------------
# ideals and centers


@dataclass(frozen=True)
class TwoSidedIdeal:
    algebra: FiniteAlgebra
    rows: tuple  # Howell-form basis rows, as tuples

    @property
    def matrix(self) -> np.ndarray:
        return linalg.as_matrix([np.array(r, dtype=np.int64) for r in self.rows], self.algebra.rank)

    def key(self):
        return linalg.span_key(self.matrix)

    @property
    def size(self) -> int:
        return linalg.span_size(self.matrix, self.algebra.base.modulus)

    def contains(self, v) -> bool:
        return linalg.in_span(self.matrix, np.asarray(v, dtype=np.int64), self.algebra.base.modulus)

    def __eq__(self, other):
        return isinstance(other, TwoSidedIdeal) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())


def _two_sided_mats(A: FiniteAlgebra) -> list:
    mats = []
    for j in range(A.rank):
        b = A.basis_vector(j)
        mats.append(A.right_mult_matrix(b))
        mats.append(A.left_mult_matrix(b))
    return mats


def _ideal_from_rows(A: FiniteAlgebra, rows) -> TwoSidedIdeal:
    H = linalg.stable_closure(rows, _two_sided_mats(A), A.base.modulus, A.rank)
    return TwoSidedIdeal(A, tuple(tuple(int(v) for v in r) for r in H))


def ideal_generated_by(A: FiniteAlgebra, elements) -> TwoSidedIdeal:
    """Smallest two-sided ideal containing the given elements."""
    return _ideal_from_rows(A, [np.asarray(e, dtype=np.int64) for e in elements])


def product_ideal(I: TwoSidedIdeal, K: TwoSidedIdeal) -> TwoSidedIdeal:
    if I.algebra is not K.algebra and I.algebra != K.algebra:
        raise InputError("product of ideals in different algebras")
    A = I.algebra
    prods = [
        A.multiply(np.array(i, dtype=np.int64), np.array(k, dtype=np.int64))
        for i in I.rows
        for k in K.rows
    ]
    return _ideal_from_rows(A, prods)


def is_idempotent_ideal(I: TwoSidedIdeal) -> bool:
    return product_ideal(I, I).key() == I.key()


def enumerate_ideals(A: FiniteAlgebra, budget: int = 2**20) -> list:
    """All two-sided ideals, in canonical (size, echelon-key) order."""
    subs = linalg.enumerate_submodules(A.rank, A.base.modulus, _two_sided_mats(A), budget)
    return [TwoSidedIdeal(A, tuple(tuple(int(v) for v in r) for r in H)) for H in subs]


def enumerate_idempotent_ideals(A: FiniteAlgebra, budget: int = 2**20) -> list:
    return [I for I in enumerate_ideals(A, budget) if is_idempotent_ideal(I)]


def center(A: FiniteAlgebra) -> np.ndarray:
    """Howell basis of the center {z : z*b = b*z for all basis b}."""
    n = A.base.modulus
    if A.rank == 0:
        return np.zeros((0, 0), dtype=np.int64)
    blocks = []
    for j in range(A.rank):
        b = A.basis_vector(j)
        blocks.append((A.right_mult_matrix(b) - A.left_mult_matrix(b)) % n)
    return linalg.kernel_left(np.concatenate(blocks, axis=1), n)


def central_idempotents(A: FiniteAlgebra) -> list:
    """All central idempotent elements, in coordinate order."""
    Z = center(A)
    n = A.base.modulus
    out = []
    for v in linalg.span_elements(Z, n):
        if (A.multiply(v, v) == v % n).all():
            out.append(v)
    out.sort(key=lambda v: tuple(int(t) for t in v))
    return out


def is_central_idempotent(A: FiniteAlgebra, v) -> bool:
    v = np.asarray(v, dtype=np.int64) % A.base.modulus
    n = A.base.modulus
    if ((A.multiply(v, v) - v) % n).any():
        return False
    Z = center(A)
    return linalg.in_span(Z, v, n)


def trace_in_module(maps, target: SkewModule) -> np.ndarray:
    """Howell basis of the sum of the images of the given maps into target.

    The rows of the maps are stacked in the order given.
    """
    n = target.algebra.base.modulus
    rows = [r for H in maps for r in H % n]
    return linalg.howell_form(linalg.as_matrix(rows, target.dim), n, target.dim)


# ---------------------------------------------------------------------------
# the bounded module universe


# GL tables are computed in chunks of this many candidate matrices, so the
# working arrays stay small whatever the group size.
_GL_CHUNK = 1 << 15


def _inverse_mod_prime(a: np.ndarray, p: int) -> np.ndarray:
    """Elementwise a^(p-2) mod p: the inverse of each nonzero entry."""
    out = np.ones_like(a)
    base = a % p
    e = p - 2
    while e:
        if e & 1:
            out = out * base % p
        base = base * base % p
        e >>= 1
    return out


def _invertible_matrices(n: int, m: int, budget: int):
    """GL(m, n) for prime n, as (G, Ginv) stacks.

    The candidates are all n^(m*m) matrices in digit order (cell c of
    candidate k is digit c of k in base n); G keeps the invertible ones in
    that order and Ginv holds their inverses.  One Gauss-Jordan
    elimination runs on a whole chunk of candidates at once.  Entries stay
    below n, so no intermediate exceeds (n-1)^2 + n.
    """
    total = n ** (m * m)
    if total > budget:
        raise BudgetExceededError("invertible matrix enumeration", total, budget)
    if (n - 1) ** 2 + n > np.iinfo(np.int64).max:
        raise InputError(f"modulus {n} is too large for exact int64 arithmetic")
    if m == 0:
        z = np.zeros((1, 0, 0), dtype=np.int64)
        return z, z
    eye = np.eye(m, dtype=np.int64)
    powers = n ** np.arange(m * m, dtype=np.int64)
    gs, ginvs = [], []
    for start in range(0, total, _GL_CHUNK):
        digits = np.arange(start, min(start + _GL_CHUNK, total), dtype=np.int64)
        mats = ((digits[:, None] // powers) % n).reshape(-1, m, m)
        aug = np.concatenate([mats, np.broadcast_to(eye, mats.shape)], axis=2)
        keep = np.arange(len(mats))
        for col in range(m):
            nonzero = aug[:, col:, col] != 0
            alive = nonzero.any(axis=1)
            aug, keep, nonzero = aug[alive], keep[alive], nonzero[alive]
            rows = np.arange(len(aug))
            piv = col + nonzero.argmax(axis=1)
            pivot_row = aug[rows, piv]
            aug[rows, piv] = aug[:, col]
            aug[:, col] = pivot_row * _inverse_mod_prime(pivot_row[:, col], n)[:, None] % n
            factors = aug[:, :, col].copy()
            factors[:, col] = 0
            aug = (aug - factors[:, :, None] * aug[:, None, col]) % n
        gs.append(mats[keep])
        ginvs.append(aug[:, :, m:])
    return np.concatenate(gs), np.concatenate(ginvs)


def _simple_modules(A: FiniteAlgebra, dim_bound: int, budget: int) -> list:
    """The simple modules A/m of dimension <= dim_bound, m a maximal right ideal.

    A right ideal H is maximal iff no proper right ideal of smaller
    codimension contains it.  Returned with repetitions: isomorphic
    quotients are not identified.
    """
    n = A.base.modulus
    if n**A.rank > budget:
        raise BudgetExceededError("module universe right ideals", n**A.rank, budget)
    R = regular_module(A)
    ideals = linalg.enumerate_submodules(A.rank, n, list(R.act), budget)
    simples = []
    for i, H in enumerate(ideals):  # in size order: the larger ideals come after H
        codim = A.rank - H.shape[0]
        if 0 < codim <= dim_bound and not any(
            0 < A.rank - K.shape[0] < codim and not linalg.reduce_vector(K, H, n).any()
            for K in ideals[i + 1:]
        ):
            simples.append(quotient_module(R, H)[0])
    return simples


class ModuleUniverse:
    """Every right module of dimension <= bound over A, up to isomorphism.

    The build runs from the simples up.  The simples are the quotients A/m
    by maximal right ideals m.  Every nonzero module E has a simple
    submodule S, and E/S is smaller, so the modules of dimension d are the
    middle terms of the extensions 0 -> S -> E -> V -> 0 with V a member
    of dimension d - dim S.  Equivalent extensions have isomorphic middle
    terms, so one cocycle per class of Ext^1(V, S) is built, from
    extension_class_space(V, S).  Isomorphic modules are identified by
    their canonical key, the conjugation-minimal action tensor under the
    full change-of-basis group; members are those minima, sorted by key.
    The budget is charged p^dim Ext^1(V, S) for each pair scanned.  Prime
    modulus only.
    """

    def __init__(self, A: FiniteAlgebra, dim_bound: int = 3, budget: int = DEFAULT_UNIVERSE_BUDGET):
        n = A.base.modulus
        if not linalg.is_prime(n):
            raise NotPrimeError(n, "module universe")
        self.algebra = A
        self.dim_bound = dim_bound
        self.budget = budget
        self._gl = {}
        self._canon_cache = {}
        zero = zero_skew_module(A)
        seen = {self._canon_key(zero): zero}
        by_dim = [[zero]]
        simples = {self._canon_key(S): S for S in _simple_modules(A, dim_bound, budget)}
        simples = [simples[k] for k in sorted(simples)]
        scanned = 0
        # one level at a time, and none without simples: a huge bound
        # allocates nothing before the budget stops the build
        for m in range(1, dim_bound + 1 if simples else 1):
            by_dim.append([])
            for S in simples:
                if S.dim > m:
                    continue
                for V in by_dim[m - S.dim]:
                    X, build = extension_class_space(V, S)
                    scanned += linalg.span_size(X, n)
                    if scanned > budget:
                        raise BudgetExceededError("module universe extensions", scanned, budget)
                    for c in linalg.span_elements(X, n):
                        key = self._canon_key(build(c))
                        if key not in seen:
                            act = np.frombuffer(key[1], dtype=np.int64).reshape(A.rank, m, m)
                            seen[key] = SkewModule(A, act)
                            by_dim[m].append(seen[key])
        self.members = [seen[k] for k in sorted(seen)]
        self._index = {self._canon_key(V): i for i, V in enumerate(self.members)}
        self.simple_indices = tuple(self.index_of(S) for S in simples)
        self._homs = {}
        self._sequences = {}
        self._maximal_sub_classes = {}

    def _gl_group(self, m: int):
        if m not in self._gl:
            self._gl[m] = _invertible_matrices(self.algebra.base.modulus, m, self.budget)
        return self._gl[m]

    def _canon_key(self, V: SkewModule):
        ck = V.act.tobytes()
        hit = self._canon_cache.get((V.dim, ck))
        if hit is not None:
            return hit
        n = self.algebra.base.modulus
        m = V.dim
        if m == 0:
            key = (0, V.act.tobytes())
        else:
            G, Ginv = self._gl_group(m)
            conj = np.matmul(np.matmul(Ginv[:, None], V.act[None]), G[:, None]) % n
            best = min(conj[g].tobytes() for g in range(G.shape[0]))
            key = (m, best)
        self._canon_cache[(m, ck)] = key
        return key

    def index_of(self, V: SkewModule) -> int:
        if V.dim > self.dim_bound:
            raise InputError(f"module of dimension {V.dim} is outside the universe bound {self.dim_bound}")
        key = self._canon_key(V)
        if key not in self._index:
            raise InputError("module is not a member of the universe")
        return self._index[key]

    def __len__(self):
        return len(self.members)

    def hom_basis(self, i: int, j: int) -> tuple:
        """Basis of Hom(member i, member j), computed once per pair."""
        if (i, j) not in self._homs:
            homs = hom_skew(self.members[i], self.members[j])
            for H in homs:
                H.setflags(write=False)
            self._homs[(i, j)] = tuple(homs)
        return self._homs[(i, j)]

    def hom_dim(self, i: int, j: int) -> int:
        return len(self.hom_basis(i, j))

    def torsion_sequences(self, xs: frozenset) -> tuple:
        """The sequence x_a -> a -> y_a of every member a, computed once per X.

        x_a is the trace of the members in xs inside a, stacked from their
        hom bases in index order.  Two cases need no elimination: for a in
        xs the identity of a is a map from X, so x_a = a, whose Howell form
        is the identity (the modulus is prime); when Hom(X, a) = 0, x_a = 0.
        Both sequences split.  The sequences are shared by every witness
        for X, so they and their arrays are read-only.
        """
        if xs not in self._sequences:
            sources = sorted(xs)
            zero = self.zero_index()
            sequences = []
            for a_idx, a in enumerate(self.members):
                eye = np.eye(a.dim, dtype=np.int64)
                maps = () if a_idx in xs else [H for i in sources for H in self.hom_basis(i, a_idx)]
                if a_idx in xs:
                    seq = TorsionSequence(a_idx, eye, a_idx, zero, np.zeros((a.dim, 0), dtype=np.int64), True)
                elif not maps:
                    seq = TorsionSequence(a_idx, np.zeros((0, a.dim), dtype=np.int64), zero, a_idx, eye, True)
                else:
                    rows = trace_in_module(maps, a)
                    S, incl = submodule_module(a, rows)
                    Q, proj, _ = quotient_module(a, rows)
                    seq = TorsionSequence(
                        a_idx, incl, self.index_of(S), self.index_of(Q), proj, _splits(self, a, S, incl)
                    )
                seq.sub_rows.setflags(write=False)
                seq.projection.setflags(write=False)
                sequences.append(seq)
            self._sequences[xs] = tuple(sequences)
        return self._sequences[xs]

    def maximal_sub_classes(self, i: int) -> frozenset:
        """Classes of the maximal submodules of member i.

        They are the kernels of the nonzero maps onto simple modules: S is
        simple, so every nonzero map to S is onto and its kernel maximal,
        and a maximal submodule M is the kernel of V -> V/M with V/M a
        simple member.  The modulus is prime, so the maps are the span of
        hom_basis(i, s); kernels are deduplicated by their Howell form.
        """
        if i not in self._maximal_sub_classes:
            V = self.members[i]
            n = self.algebra.base.modulus
            kernels = {}
            for s in self.simple_indices:
                homs = self.hom_basis(i, s)
                if not homs:
                    continue
                basis = np.stack(homs).reshape(len(homs), -1)
                for phi in linalg.span_elements(basis, n):
                    if phi.any():
                        K = linalg.kernel_left(phi.reshape(homs[0].shape), n)
                        kernels.setdefault(linalg.span_key(K), K)
            self._maximal_sub_classes[i] = frozenset(
                self.index_of(submodule_module(V, K)[0]) for K in kernels.values()
            )
        return self._maximal_sub_classes[i]

    def zero_index(self) -> int:
        return self.index_of(zero_skew_module(self.algebra))

    def perp_of(self, xs) -> frozenset:
        return frozenset(
            j
            for j in range(len(self.members))
            if all(self.hom_dim(i, j) == 0 for i in xs)
        )

    def pre_perp_of(self, ys) -> frozenset:
        return frozenset(
            i
            for i in range(len(self.members))
            if all(self.hom_dim(i, j) == 0 for j in ys)
        )


def _normalize_class(universe: ModuleUniverse, given) -> frozenset:
    """Accept an index set, an iterable of modules, or a predicate."""
    if callable(given):
        return frozenset(
            i for i, V in enumerate(universe.members) if given(V)
        )
    items = list(given)
    if all(isinstance(t, (int, np.integer)) for t in items):
        return frozenset(int(t) for t in items)
    return frozenset(universe.index_of(V) for V in items)


# ---------------------------------------------------------------------------
# torsion pairs


@dataclass(frozen=True)
class TorsionSequence:
    member: int
    sub_rows: np.ndarray  # basis of x_a inside a
    sub_class: int
    quot_class: int
    projection: np.ndarray
    splits: bool


@dataclass
class TorsionPairWitness:
    ok: bool
    x_indices: frozenset
    y_indices: frozenset
    hereditary: bool = False
    split: bool = False
    sequences: tuple = ()
    failures: list = field(default_factory=list)

    def __bool__(self):
        return self.ok


def _splits(universe: ModuleUniverse, a: SkewModule, sub: SkewModule, incl_rows: np.ndarray) -> bool:
    """Does the inclusion sub -> a admit a module retraction?"""
    n = universe.algebra.base.modulus
    s = sub.dim
    if s == 0 or s == a.dim:
        return True
    homs = hom_skew(a, sub)
    if not homs:
        return False
    rows = linalg.as_matrix(
        [((incl_rows @ H) % n).reshape(-1) for H in homs], s * s
    )
    want = np.eye(s, dtype=np.int64).reshape(-1)
    return linalg.solve_left(rows, want, n) is not None


def torsion_pair_check(X, Y, universe: ModuleUniverse) -> TorsionPairWitness:
    """Certify (X, Y) as a torsion pair on the universe.

    Checks mutual Hom-perpendicularity and that, for every member a, the
    sequence x_a -> a -> y_a with x_a the trace of X in a (computed once
    per X by the universe) has x_a in X and y_a in Y; the
    hereditary flag records closure of X under submodules, the split flag
    records that every sequence admits a retraction.
    """
    xs = _normalize_class(universe, X)
    ys = _normalize_class(universe, Y)
    failures = []
    if universe.perp_of(xs) != ys:
        failures.append(("perp", "Y is not the right perpendicular of X"))
    if universe.pre_perp_of(ys) != xs:
        failures.append(("pre-perp", "X is not the left perpendicular of Y"))
    sequences = universe.torsion_sequences(xs)
    for seq in sequences:
        if seq.sub_class not in xs:
            failures.append(("sequence-sub", seq.member, seq.sub_class))
        if seq.quot_class not in ys:
            failures.append(("sequence-quot", seq.member, seq.quot_class))
    # modules of finite length: closed under submodules iff closed under
    # maximal submodules
    hereditary = all(universe.maximal_sub_classes(i) <= xs for i in xs)
    split = all(seq.splits for seq in sequences)
    return TorsionPairWitness(not failures, xs, ys, hereditary, split, sequences, failures)


@dataclass
class TTFTriple:
    """(X, Y, Z) from the torsion pairs (X, Y) and (Y, Z)."""

    pair_xy: TorsionPairWitness
    pair_yz: TorsionPairWitness

    @property
    def x_indices(self) -> frozenset:
        return self.pair_xy.x_indices

    @property
    def y_indices(self) -> frozenset:
        return self.pair_xy.y_indices

    @property
    def z_indices(self) -> frozenset:
        return self.pair_yz.y_indices

    @property
    def split(self) -> bool:
        return self.pair_xy.split and self.pair_yz.split

    @property
    def ok(self) -> bool:
        return self.pair_xy.ok and self.pair_yz.ok and self.pair_xy.y_indices == self.pair_yz.x_indices

    def __bool__(self):
        return self.ok

    def key(self):
        return (tuple(sorted(self.x_indices)), tuple(sorted(self.y_indices)), tuple(sorted(self.z_indices)))


def module_times_ideal(V: SkewModule, I: TwoSidedIdeal) -> np.ndarray:
    """Rows spanning V*I: the rows of V*r for each basis row r of I."""
    rows = []
    for r in I.rows:
        rows.extend(V.act_of(np.array(r, dtype=np.int64)))
    return linalg.as_matrix(rows, V.dim)


def killed_by_ideal(V: SkewModule, I: TwoSidedIdeal) -> np.ndarray:
    """Howell basis of the elements v of V with v*I = 0."""
    mats = [V.act_of(np.array(r, dtype=np.int64)) for r in I.rows]
    if not (mats and V.dim):
        return np.eye(V.dim, dtype=np.int64)
    return linalg.kernel_left(np.concatenate(mats, axis=1), V.algebra.base.modulus)


def ttf_from_idempotent_ideal(I: TwoSidedIdeal, universe: ModuleUniverse) -> TTFTriple:
    """The TTF triple attached to an idempotent ideal.

    X = {M : M*I = M}, Y = {M : M*I = 0}, Z = {M : no nonzero element of M
    is killed by I}.
    """
    if not is_idempotent_ideal(I):
        raise InputError("ideal is not idempotent")
    return _ttf_triple(I, universe)


def _ttf_triple(I: TwoSidedIdeal, universe: ModuleUniverse) -> TTFTriple:
    """ttf_from_idempotent_ideal for an ideal already known to be idempotent."""
    n = universe.algebra.base.modulus
    xs, ys, zs = set(), set(), set()
    for idx, V in enumerate(universe.members):
        MI = linalg.howell_form(module_times_ideal(V, I), n, V.dim)
        if V.dim == 0 or linalg.span_size(MI, n) == n**V.dim:
            xs.add(idx)
        if MI.shape[0] == 0:
            ys.add(idx)
        if linalg.span_size(killed_by_ideal(V, I), n) == 1:
            zs.add(idx)
    return TTFTriple(torsion_pair_check(xs, ys, universe), torsion_pair_check(ys, zs, universe))


def split_ttf_from_central_idempotent(e, universe: ModuleUniverse) -> TTFTriple:
    """The split TTF triple attached to a central idempotent e: the TTF
    triple of the ideal AeA = eA, so X = Z = {M : Me = M} and
    Y = {M : Me = 0}."""
    A = universe.algebra
    if not is_central_idempotent(A, e):
        raise InputError("element is not a central idempotent")
    return ttf_from_idempotent_ideal(ideal_generated_by(A, [e]), universe)


# ---------------------------------------------------------------------------
# brute-force oracles


# Closures are computed for 2**_SUBSET_CHUNK_BITS candidate subsets at once.
_SUBSET_CHUNK_BITS = 16


def _subset_unions(values) -> np.ndarray:
    """out[s] is the OR of values[t] over the bits t of s, by doubling."""
    out = np.zeros(1, dtype=np.int64)
    for v in values:
        out = np.concatenate([out, out | v])
    return out


def brute_force_torsion_pairs(universe: ModuleUniverse) -> list:
    """All torsion pairs on the universe by exhaustive subset search.

    Every set X of members that contains zero is a candidate.  Y = X^perp
    and its left perpendicular are computed for every candidate at once,
    on int64 bitmasks over the members; the candidates with X equal to
    the left perpendicular of Y are certified by torsion_pair_check, in
    order of size, then lexicographically.
    """
    N = len(universe.members)
    zero = universe.zero_index()
    others = [i for i in range(N) if i != zero]
    k = len(others)
    if N > 63 or 2**k > universe.budget:
        raise BudgetExceededError("brute-force torsion pair search", 2**k, universe.budget)
    hom_to = [0] * N  # bitmask over j of hom(member i, member j) != 0
    for i in range(N):
        for j in range(N):
            if universe.hom_dim(i, j):
                hom_to[i] |= 1 << j
    full = (1 << N) - 1
    low = min(k, _SUBSET_CHUNK_BITS)
    # candidate s holds others[t] for every bit t of s; its low bits index these tables
    low_x = _subset_unions([1 << i for i in others[:low]])
    low_hom = _subset_unions([hom_to[i] for i in others[:low]])
    closed = []
    for high in range(1 << (k - low)):
        xmask, hom_union = 1 << zero, 0
        for t, i in enumerate(others[low:]):
            if (high >> t) & 1:
                xmask |= 1 << i
                hom_union |= hom_to[i]
        xmask = low_x | xmask
        ymask = ~(low_hom | hom_union) & full
        back = np.zeros_like(xmask)
        for i in range(N):
            back |= ((ymask & hom_to[i]) == 0).astype(np.int64) << i
        closed.extend((high << low) + int(s) for s in np.flatnonzero(back == xmask))
    combos = sorted(
        ([others[t] for t in range(k) if (s >> t) & 1] for s in closed), key=lambda c: (len(c), c)
    )
    pairs = []
    for combo in combos:
        xs = frozenset([zero, *combo])
        ys = universe.perp_of(xs)
        w = torsion_pair_check(xs, ys, universe)
        if w.ok:
            pairs.append(w)
    return pairs


def brute_force_hereditary_pairs(universe: ModuleUniverse) -> list:
    """The torsion pairs of brute_force_torsion_pairs whose torsion class
    is closed under submodules."""
    return [w for w in brute_force_torsion_pairs(universe) if w.hereditary]


def brute_force_ttf_triples(universe: ModuleUniverse) -> list:
    """All TTF triples by matching torsion pairs end to end."""
    pairs = brute_force_torsion_pairs(universe)
    by_x = {p.x_indices: p for p in pairs}
    return [TTFTriple(p, by_x[p.y_indices]) for p in pairs if p.y_indices in by_x]


# ---------------------------------------------------------------------------
# the classification report


@dataclass
class ClassificationReport:
    subcategory_objects: tuple
    counts: dict
    hereditary_pairs: list
    ttf_triples: list
    split_ttf_triples: list
    ok: bool

    def summary(self) -> str:
        parts = [f"{k}={v}" for k, v in self.counts.items()]
        return ("pass " if self.ok else "FAIL ") + ", ".join(parts)


def classify(
    cat: FiniteCategory,
    R: AlgebraPresheaf,
    J: GrothendieckTopology,
    dim_bound: int = 3,
    budget: int = DEFAULT_UNIVERSE_BUDGET,
) -> ClassificationReport:
    """Run all three classifications for a site whose topology is J^D.

    Finds the unique full subcategory D with subcategory topology J
    (input error if none), restricts R to D, and classifies: linear
    topologies as hereditary torsion pairs, idempotent ideals as TTF
    triples, central idempotents as split TTF triples.  The TTF triple
    (X, Y, Z) of each idempotent ideal I is the one object certified;
    the other two families are read off it (Jans, 1965).  The linear
    topology of I is J_I, certified by is_linear_topology, and its
    hereditary torsion pair is (Y, Z): the torsion class of J_I, found
    by torsion_check on every member, must equal Y = {M : MI = 0}.  At
    each object x the least cover of J_I is its floor I(-, x), so the
    check reads V * I(-, x) == 0 off the covers ideal_topology built.  A
    central idempotent e gives the triple of its ideal eA, which must be
    split.  A failed certificate, a class mismatch, two equal J_I or two
    equal triples clear ok.
    """
    matches = matching_subcategories(cat, J)
    if not matches:
        raise InputError("topology is not a subcategory topology; no D matches")
    D = full_subcategory(cat, matches[0])
    RD = restrict_presheaf(R, D)
    sub = RD.cat
    gr = build_gr(sub, RD)
    skew = build_skew_algebra(sub, RD)
    universe = ModuleUniverse(skew, dim_bound, budget)

    ideals = enumerate_idempotent_ideals(skew, budget)
    triples = [_ttf_triple(I, universe) for I in ideals]
    topologies = [ideal_topology(gr, skew, I.matrix, budget) for I in ideals]
    ok = (
        len(set(topologies)) == len(topologies)
        and all(is_linear_topology(gr, Jp, budget).ok for Jp in topologies)
        and all(t.ok for t in triples)
        and len({t.key() for t in triples}) == len(triples)
    )

    hereditary = []
    for Jp, t in sorted(zip(topologies, triples), key=lambda pair: topology_order(pair[0])):
        xs = frozenset(i for i, V in enumerate(universe.members) if torsion_check(V, Jp).value)
        ok = ok and xs == t.y_indices and t.pair_yz.hereditary
        hereditary.append(t.pair_yz)

    by_ideal = dict(zip(ideals, triples))
    cents = central_idempotents(skew)
    splits = [by_ideal[I] for I in (ideal_generated_by(skew, [e]) for e in cents) if I in by_ideal]
    ok = (
        ok
        and len(splits) == len(cents)
        and all(t.split for t in splits)
        and len({t.key() for t in splits}) == len(splits)
    )

    counts = {
        "universe_members": len(universe),
        "linear_topologies": len(hereditary),
        "hereditary_torsion_pairs": len(hereditary),
        "idempotent_ideals": len(triples),
        "ttf_triples": len(triples),
        "central_idempotents": len(cents),
        "split_ttf_triples": len(splits),
    }
    return ClassificationReport(
        tuple(sub.objects), counts, hereditary, triples, splits, ok
    )
