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
    ideal_topology,
    is_linear_topology,
    topology_order,
)
from .modules import (
    SkewModule,
    extension_class_space,
    hom_skew,
    quotient_module,
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
        return np.array(self.rows, dtype=np.int64).reshape(len(self.rows), self.algebra.rank)

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


# GL inverses are computed in chunks of this many matrices, so the
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

    G lists the invertible matrices in digit order: cell c of matrix k is
    digit c of k in base n, and the budget is charged for all n^(m*m)
    candidates k.  Only the invertible ones are built, one row at a time
    from the last: a row runs over the vectors outside the span of the
    rows below it, in code order, which keeps the stack in digit order.
    Ginv holds their inverses, from one Gauss-Jordan elimination per chunk
    of matrices.  Entries stay below n, so no intermediate exceeds
    (n-1)^2 + n.
    """
    total = n ** (m * m)
    if total > budget:
        raise BudgetExceededError("invertible matrix enumeration", total, budget)
    if (n - 1) ** 2 + n > np.iinfo(np.int64).max:
        raise InputError(f"modulus {n} is too large for exact int64 arithmetic")
    if m == 0:
        z = np.zeros((1, 0, 0), dtype=np.int64)
        return z, z
    powers = n ** np.arange(m, dtype=np.int64)
    vectors = (np.arange(n**m, dtype=np.int64)[:, None] // powers) % n  # row v has code v
    G = vectors[1:, None]  # the last rows of the matrices built so far
    for r in range(1, m):
        # the codes of the n^r combinations of the r rows of each partial matrix
        span = np.matmul(vectors[: n**r, :r], G) % n @ powers
        outside = np.ones((len(G), n**m), dtype=bool)
        outside[np.arange(len(G))[:, None], span] = False
        k, v = np.nonzero(outside)
        G = np.concatenate([vectors[v][:, None], G[k]], axis=1)
    ginvs = []
    for start in range(0, len(G), _GL_CHUNK):
        mats = G[start : start + _GL_CHUNK]
        aug = np.concatenate([mats, np.broadcast_to(np.eye(m, dtype=np.int64), mats.shape)], axis=2)
        rows = np.arange(len(aug))
        for col in range(m):
            piv = col + (aug[:, col:, col] != 0).argmax(axis=1)
            pivot_row = aug[rows, piv]
            aug[rows, piv] = aug[:, col]
            aug[:, col] = pivot_row * _inverse_mod_prime(pivot_row[:, col], n)[:, None] % n
            factors = aug[:, :, col].copy()
            factors[:, col] = 0
            aug = (aug - factors[:, :, None] * aug[:, None, col]) % n
        ginvs.append(aug[:, :, m:])
    return G, np.concatenate(ginvs)


def _simple_modules(A: FiniteAlgebra, budget: int) -> list:
    """The minimal submodules of D(A) = Hom_k(A, k), prime modulus only.

    D(A) is an injective cogenerator, so every simple module embeds in it
    (M. Auslander, I. Reiten and S. O. Smalo, Representation Theory of
    Artin Algebras, 1995).  Its action is (f * b_j)(b_i) = f(b_j b_i),
    act[j] = mul[j].T.  Isomorphic simples are not identified.
    """
    n = A.base.modulus
    if n**A.rank > budget:
        raise BudgetExceededError("module universe simple modules", n**A.rank, budget)
    D = SkewModule(A, A.mul.transpose(0, 2, 1))
    return [submodule_module(D, H)[0] for H in linalg.minimal_submodules(A.rank, n, D.act, budget)]


class ModuleUniverse:
    """Every right module of dimension <= bound over A, up to isomorphism.

    The build runs from the simples up: the minimal submodules of the
    dual module D(A).  Every nonzero module E has a simple submodule S,
    and E/S is smaller, so the modules of dimension d are the middle terms
    of the extensions 0 -> S -> E -> V -> 0 with V a member of dimension
    d - dim S.  Equivalent extensions have isomorphic middle
    terms, so one cocycle per class of Ext^1(V, S) is built, from
    extension_class_space(V, S).  Isomorphic modules are identified by
    their canonical key, the conjugation-minimal action tensor under the
    full change-of-basis group; members are those minima, sorted by key.
    The budget is charged p^dim Ext^1(V, S) for each pair scanned.  Prime
    modulus only.  simple_bound is the largest dimension of a simple.
    composition_factors[i] holds the simple members of a composition
    series of member i, sorted: those of V plus S when E is first keyed.
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
        z = self._canon_key(zero)
        # factors[key]: the composition factors of a member, as positions in simples
        seen, factors, by_dim = {z: zero}, {z: ()}, [[z]]
        simples = _simple_modules(A, budget)
        self.simple_bound = max((S.dim for S in simples), default=0)
        simples = sorted({self._canon_key(S): S for S in simples if S.dim <= dim_bound}.items())
        scanned = 0
        # one level at a time, and none without simples: a huge bound
        # allocates nothing before the budget stops the build
        for m in range(1, dim_bound + 1 if simples else 1):
            by_dim.append([])
            for s, (_, S) in enumerate(simples):
                if S.dim > m:
                    continue
                for v_key in by_dim[m - S.dim]:
                    X, build = extension_class_space(seen[v_key], S)
                    scanned += linalg.span_size(X, n)
                    if scanned > budget:
                        raise BudgetExceededError("module universe extensions", scanned, budget)
                    for c in linalg.span_elements(X, n):
                        key = self._canon_key(build(c))
                        if key not in seen:
                            act = np.frombuffer(key[1], dtype=np.int64).reshape(A.rank, m, m)
                            seen[key] = SkewModule(A, act)
                            factors[key] = tuple(sorted(factors[v_key] + (s,)))
                            by_dim[m].append(key)
        keys = sorted(seen)
        self.members = [seen[k] for k in keys]
        self._index = {k: i for i, k in enumerate(keys)}
        # a member's tensor is its own canonical form
        self._canon_cache.update((k, k) for k in keys)
        self.simple_indices = tuple(self._index[k] for k, _ in simples)
        # members and simples share the key order, so the tuples stay sorted
        self.composition_factors = tuple(
            tuple(self.simple_indices[s] for s in factors[k]) for k in keys
        )
        self._homs = {}
        self._sequences = {}

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
    per X by the universe) has x_a in X and y_a in Y; the split flag
    records that every sequence admits a retraction.  The hereditary flag
    records that X holds every composition factor of its members.  When
    the pre-perp check holds, that is closure of X under submodules: X is
    then closed under quotients and extensions inside the universe, and a
    submodule lies in X once its composition factors do.
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
    hereditary = all(f in xs for i in xs for f in universe.composition_factors[i])
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
    rows = I.matrix
    return V.act_of(rows).reshape(rows.shape[0] * V.dim, V.dim)


def killed_by_ideal(V: SkewModule, I: TwoSidedIdeal) -> np.ndarray:
    """Howell basis of the elements v of V with v*I = 0."""
    rows = I.matrix
    if not (rows.shape[0] and V.dim):
        return np.eye(V.dim, dtype=np.int64)
    mats = V.act_of(rows).transpose(1, 0, 2).reshape(V.dim, rows.shape[0] * V.dim)
    return linalg.kernel_left(mats, V.algebra.base.modulus)


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
    split.  A failed certificate, a class mismatch, two equal J_I, two
    equal triples or a count of idempotent ideals other than 2^s, one per
    set of the s simples of D(A), clear ok.
    """
    matches = matching_subcategories(cat, J)
    if not matches:
        raise InputError("topology is not a subcategory topology; no D matches")
    D = full_subcategory(cat, matches[0])
    RD = restrict_presheaf(R, D)
    sub = RD.cat
    gr = build_gr(sub, RD)
    skew = gr.skew
    universe = ModuleUniverse(skew, dim_bound, budget)
    if (d := universe.simple_bound) > dim_bound:  # the 2^s triples need every simple
        raise InputError(f"dimension bound {dim_bound} leaves out a simple module of dimension {d}; "
                         f"classify needs a bound of at least {d}")

    ideals = enumerate_idempotent_ideals(skew, budget)
    triples = [_ttf_triple(I, universe) for I in ideals]
    topologies = [ideal_topology(gr, I.matrix, budget) for I in ideals]
    ok = (
        len(ideals) == 2 ** len(universe.simple_indices)
        and len(set(topologies)) == len(topologies)
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
