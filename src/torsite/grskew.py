"""The linear Grothendieck construction Gr(R) and the skew category algebra.

For a presheaf of algebras R on a finite category C, hom_{Gr(R)}(x, y) is
the free k-module on pairs (f: x -> y in C, basis element of R(x)), with
bilinear composition sending (s at g) after (r at f) to R(f)(s)*r at gf.
The one-object collapse of the same data is the skew algebra R[C], and
summing hom components gives an isomorphism onto it.

Linear sieves on Gr(R) are subfunctors of hom(-, x), that is right
ideals of A = R[C] inside e_x A, kept in A's coordinates (LinearSieve);
Gr's composition tables serve only end_generator_iso and ``torsite gr``.
Linear topologies are checked and enumerated by finite linear algebra
over Z/n.  Each GrCategory owns, in one memo, every table that does not
depend on a module (the sieve lists, subfunctor reports, the cover data
of torsite.modules), so equal sieves in topologies share one.
"""
from __future__ import annotations

import bisect
import functools
import itertools

import numpy as np

from . import linalg
from .algebra import AlgebraPresheaf, FiniteAlgebra
from .errors import BudgetExceededError, InputError
from .fincat import FiniteCategory
from .report import ValidationReport
from .topology import GrothendieckTopology, Sieve

DEFAULT_LINEAR_BUDGET = 2**20


class GrCategory:
    def __init__(self, cat: FiniteCategory, R: AlgebraPresheaf):
        self.cat = cat
        self.R = R
        self.base = R.base
        self.hom_pairs = {}
        for x in range(cat.n_objects):
            for y in range(cat.n_objects):
                pairs = [
                    (f, i)
                    for f in cat.hom(x, y)
                    for i in range(R.algebra(x).rank)
                ]
                self.hom_pairs[(x, y)] = pairs
        self._pos = {
            (x, y): {p: k for k, p in enumerate(pairs)}
            for (x, y), pairs in self.hom_pairs.items()
        }
        self.skew = SkewAlgebra(cat, R)
        objs = range(cat.n_objects)
        # e_x A in skew coordinates, block hom(y, x) from offsets[x][y]; A's basis acting on it
        self.columns = tuple(
            np.array([self.skew.pair_index[p] for y in objs for p in self.hom_pairs[(y, x)]], dtype=np.int64)
            for x in objs
        )
        self.offsets = tuple(
            tuple(itertools.accumulate((self.hom_rank(y, x) for y in objs), initial=0)) for x in objs
        )
        self.right_action = tuple(self.skew.mul[c][:, :, c].transpose(1, 0, 2) for c in self.columns)
        self._memo = {}  # key -> module-independent table, see memo

    @functools.cached_property
    def _tables(self) -> dict:
        """Composition tables of Gr(R), for end_generator_iso and ``torsite gr``."""
        objs = range(self.cat.n_objects)
        return {(x, y, z): self._build_table(x, y, z) for x in objs for y in objs for z in objs}

    def hom_rank(self, x: int, y: int) -> int:
        return len(self.hom_pairs[(x, y)])

    def _build_table(self, x: int, y: int, z: int) -> np.ndarray:
        """T[j, i, :] = coordinates of (basis j of hom(y,z)) after (basis i of hom(x,y))."""
        n = self.base.modulus
        yz = self.hom_pairs[(y, z)]
        xy = self.hom_pairs[(x, y)]
        xz = self._pos[(x, z)]
        T = np.zeros((len(yz), len(xy), len(xz)), dtype=np.int64)
        Rx = self.R.algebra(x)
        for jj, (g, j) in enumerate(yz):
            for ii, (f, i) in enumerate(xy):
                gf = int(self.cat.compose_table[g, f])
                s = self.R.algebra(y).basis_vector(j)
                moved = (s @ self.R.map(f)) % n
                prod = Rx.multiply(moved, Rx.basis_vector(i))
                for m in range(Rx.rank):
                    if prod[m]:
                        T[jj, ii, xz[(gf, m)]] = prod[m]
        return T

    def compose(self, x: int, y: int, z: int, s, r) -> np.ndarray:
        """Composite of s in hom(y,z) after r in hom(x,y), in hom(x,z) coordinates."""
        T = self._tables[(x, y, z)]
        return np.einsum("j,i,jik->k", s, r, T) % self.base.modulus

    def unit_vector(self, x: int) -> np.ndarray:
        v = np.zeros(self.hom_rank(x, x), dtype=np.int64)
        e = self.cat.identity[x]
        unit = self.R.algebra(x).unit
        for i, c in enumerate(unit):
            v[self._pos[(x, x)][(e, i)]] = c
        return v

    def linear_sieves_on(self, x: int, budget: int = DEFAULT_LINEAR_BUDGET) -> list:
        """Every linear sieve on x, in key order, memoised under ("sieves", x, budget).

        They are the right ideals inside e_x A: one enumerate_submodules
        search under A's basis.  A search that raises stores nothing, so
        each budget raises exactly where a fresh GrCategory would.
        """
        def search():
            subs = linalg.enumerate_submodules(self.offsets[x][-1], self.base.modulus, self.right_action[x], budget)
            return sorted((LinearSieve(self, x, H) for H in subs), key=LinearSieve.key)

        return self.memo(("sieves", x, budget), search)

    def sieves_above(self, F: "LinearSieve", budget: int = DEFAULT_LINEAR_BUDGET) -> list:
        """The linear sieves on F.target that contain F, in key order, memoised under ("above", F.key(), budget)."""
        sieves = self.linear_sieves_on(F.target, budget)
        return self.memo(("above", F.key(), budget), lambda: [T for T in sieves if T.contains(F)])

    def memo(self, key, build):
        """build(), once per key such as ("report", T.key()); a build that raises stores nothing."""
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    def sieve_report(self, T: "LinearSieve") -> ValidationReport:
        """validate_linear_sieve(T), memoised under ("report", T.key())."""
        return self.memo(("report", T.key()), lambda: validate_linear_sieve(T))

    def __repr__(self):
        return f"GrCategory({self.cat!r})"


class SkewAlgebra(FiniteAlgebra):
    """R[C] with basis (algebra basis element at morphism), in morphism order."""

    def __init__(self, cat: FiniteCategory, R: AlgebraPresheaf):
        self.cat = cat
        self.R = R
        pairs = []
        names = []
        for f in range(cat.n_morphisms):
            alg = R.algebra(cat.dom(f))
            for i in range(alg.rank):
                pairs.append((f, i))
                names.append(f"{alg.basis_names[i]}*{cat.morphisms[f].name}")
        self.pairs = tuple(pairs)
        self.pair_index = {p: k for k, p in enumerate(pairs)}
        d = len(pairs)
        n = R.base.modulus
        mul = np.zeros((d, d, d), dtype=np.int64)
        for p, (g, j) in enumerate(pairs):
            for q, (f, i) in enumerate(pairs):
                if cat.dom(g) != cat.cod(f):
                    continue
                gf = int(cat.compose_table[g, f])
                src = R.algebra(cat.dom(g))
                dst = R.algebra(cat.dom(f))
                moved = (src.basis_vector(j) @ R.map(f)) % n
                prod = dst.multiply(moved, dst.basis_vector(i))
                for m in range(dst.rank):
                    if prod[m]:
                        mul[p, q, self.pair_index[(gf, m)]] = prod[m]
        # The elements phi_from_gr reads, with their domain and codomain
        # objects: the unit of R(dom f) at each morphism f, then each basis
        # element of R(x) at the identity of x.
        morphs, objs = range(cat.n_morphisms), range(cat.n_objects)
        acting = [x for x in objs for _ in range(R.algebra(x).rank)]
        self.phi_dom = np.array([cat.dom(f) for f in morphs] + acting, dtype=np.int64)
        self.phi_cod = np.array([cat.cod(f) for f in morphs] + acting, dtype=np.int64)
        self.phi_elements = np.zeros((len(self.phi_dom), d), dtype=np.int64)
        for f in morphs:
            for i, c in enumerate(R.algebra(cat.dom(f)).unit):
                self.phi_elements[f, self.pair_index[(f, i)]] = c
        basis = [self.pair_index[(cat.identity[x], j)] for x in objs for j in range(R.algebra(x).rank)]
        self.phi_elements[cat.n_morphisms + np.arange(len(basis)), basis] = 1
        # the unit of R(x) at the identity of x, one row per object; A's unit is their sum
        self.idempotents = self.phi_elements[list(cat.identity)]
        super().__init__(R.base, mul, self.idempotents.sum(axis=0), names)

    def object_idempotent(self, x: int) -> np.ndarray:
        """The unit of R(x) sitting at the identity of x."""
        return self.idempotents[x].copy()


def _require_valid_presheaf(R: AlgebraPresheaf):
    from .algebra import validate_presheaf

    rep = validate_presheaf(R)
    if not rep.ok:
        raise InputError(f"invalid presheaf: {rep.violations[0]}")


def build_gr(cat: FiniteCategory, R: AlgebraPresheaf) -> GrCategory:
    _require_valid_presheaf(R)
    return GrCategory(cat, R)


def build_skew_algebra(cat: FiniteCategory, R: AlgebraPresheaf) -> SkewAlgebra:
    _require_valid_presheaf(R)
    return SkewAlgebra(cat, R)


def end_generator_iso(cat: FiniteCategory, R: AlgebraPresheaf) -> ValidationReport:
    """Verify that summing hom components maps Gr(R) isomorphically onto R[C].

    The candidate map sends the basis vector (f, i) of hom(x, y) to the
    basis vector (f, i) of the skew algebra; the checks are bijectivity on
    basis, multiplicativity on every basis pair (composites match skew
    products, non-composable pairs multiply to zero), and unit matching.
    """
    rep = ValidationReport("hom-sum isomorphism onto the skew algebra")
    gr = build_gr(cat, R)
    skew = gr.skew
    n = skew.base.modulus
    total = sum(
        gr.hom_rank(x, y)
        for x in range(cat.n_objects)
        for y in range(cat.n_objects)
    )
    rep.checked += 1
    if total != skew.rank:
        rep.add("dimension", (total, skew.rank))
        return rep
    seen = set()
    for (x, y), pairs in gr.hom_pairs.items():
        for p in pairs:
            seen.add(p)
    rep.checked += 1
    if seen != set(skew.pairs):
        rep.add("basis-bijection")
        return rep

    def embed(x, y, vec):
        out = np.zeros(skew.rank, dtype=np.int64)
        out[gr.columns[y][gr.offsets[y][x]:gr.offsets[y][x + 1]]] = vec
        return out

    objs = range(cat.n_objects)
    for y, z in itertools.product(objs, objs):
        for jj, u in enumerate(gr.hom_pairs[(y, z)]):
            uvec = np.zeros(gr.hom_rank(y, z), dtype=np.int64)
            uvec[jj] = 1
            for x, y2 in itertools.product(objs, objs):
                for ii, v in enumerate(gr.hom_pairs[(x, y2)]):
                    vvec = np.zeros(gr.hom_rank(x, y2), dtype=np.int64)
                    vvec[ii] = 1
                    skew_prod = skew.multiply(
                        skew.basis_vector(skew.pair_index[u]),
                        skew.basis_vector(skew.pair_index[v]),
                    )
                    rep.checked += 1
                    if y2 == y:
                        comp = gr.compose(x, y, z, uvec, vvec)
                        if (embed(x, z, comp) != skew_prod).any():
                            rep.add("multiplicativity", (u, v))
                    else:
                        if skew_prod.any():
                            rep.add("orthogonality", (u, v))
    unit_sum = np.zeros(skew.rank, dtype=np.int64)
    for x in objs:
        unit_sum = (unit_sum + embed(x, x, gr.unit_vector(x))) % n
    rep.checked += 1
    if (unit_sum != skew.unit).any():
        rep.add("unit")
    return rep


class LinearSieve:
    """A subfunctor of hom_{Gr(R)}(-, x): a right ideal T of A inside e_x A.

    rows are coordinates of e_x A with the blocks hom(y, x) side by side
    (gr.columns[x]); T keeps their Howell form.  T is the sum of its blocks
    T e_y (t = sum_y t e_y), so that form is the per-block Howell forms
    stacked: block-diagonal, each row inside the block of its pivot.
    components[y] is block y, and the key holds the span key of each.
    Rows whose span is not the sum of its blocks are refused.
    """

    def __init__(self, gr: GrCategory, target: int, rows):
        self.gr = gr
        self.target = target
        offs = gr.offsets[target]
        self.rows = linalg.howell_form(rows, gr.base.modulus, offs[-1])
        # the rows of block y are those with pivot in offs[y]:offs[y + 1]
        pivots = linalg.pivot_columns(self.rows)
        ends = [bisect.bisect_left(pivots, o) for o in offs]
        self.components = tuple(
            self.rows[ends[y]:ends[y + 1], offs[y]:offs[y + 1]] for y in range(len(offs) - 1)
        )
        if sum(map(np.count_nonzero, self.components)) != np.count_nonzero(self.rows):
            raise InputError(f"linear sieve rows on object {target} mix the blocks hom(-, {target})")
        self._key = (target, tuple(linalg.span_key(H) for H in self.components))

    @property
    def skew_rows(self) -> np.ndarray:
        """The rows in skew-algebra coordinates: the rows times the embedding of e_x A in A."""
        return self.rows @ np.eye(self.gr.skew.rank, dtype=np.int64)[self.gr.columns[self.target]]

    def key(self):
        return self._key

    def __eq__(self, other):
        return isinstance(other, LinearSieve) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def contains(self, other: "LinearSieve") -> bool:
        return linalg.in_span(self.rows, other.rows, self.gr.base.modulus)

    def __repr__(self):
        sizes = ",".join(str(H.shape[0]) for H in self.components)
        return f"LinearSieve(target {self.target}, rows {sizes})"


def maximal_linear_sieve(gr: GrCategory, x: int) -> LinearSieve:
    """e_x A itself, memoised under ("maximal", x)."""
    return gr.memo(("maximal", x), lambda: LinearSieve(gr, x, np.eye(gr.offsets[x][-1], dtype=np.int64)))


def zero_linear_sieve(gr: GrCategory, x: int) -> LinearSieve:
    return LinearSieve(gr, x, np.zeros((0, gr.offsets[x][-1]), dtype=np.int64))


def validate_linear_sieve(T: LinearSieve) -> ValidationReport:
    """Subfunctor check: T * b lies in T for every basis element b of A.

    Precomposition with b in hom(z, y) takes block y of e_x A into block z,
    and T is block-diagonal, so one reduction of every T * b against T
    tests each image against T(z) alone, as the per-block check does.
    """
    n = T.gr.base.modulus
    rep = ValidationReport(f"linear sieve on object {T.target}")
    images = (T.rows @ T.gr.right_action[T.target]) % n  # images[b, k] = row k times basis b
    outside = linalg.reduce_vector(T.rows, images, n).any(axis=2)
    rep.checked = outside.size
    for b, k in np.argwhere(outside):
        rep.add("closed-under-precomposition", (T.gr.skew.basis_names[b], int(k)))
    return rep


def linearize_sieve(gr: GrCategory, S: Sieve) -> LinearSieve:
    """Span of the coordinates supported on morphisms of S."""
    x = S.target
    f = [gr.skew.pairs[c][0] for c in gr.columns[x]]
    return LinearSieve(gr, x, np.eye(len(f), dtype=np.int64)[[g in S.members for g in f]])


def pullback_linear_sieve(gr: GrCategory, T: LinearSieve, y: int, f_vec) -> LinearSieve:
    """Preimage subfunctor f^*(T) = {u in e_y A : f * u lies in T} of f in hom(y, T.target).

    u -> f * u is a map of right modules e_y A -> e_x A, so f^*(T) is a
    right ideal, block-diagonal like T: the first part of the kernel of
    [L_f ; -T], with L_f the rows f * u for the basis u of e_y A.
    """
    n = gr.base.modulus
    x, offs = T.target, gr.offsets[T.target]
    f = np.zeros(offs[-1], dtype=np.int64)
    f[offs[y]:offs[y + 1]] = f_vec
    L = (f @ gr.right_action[x][gr.columns[y]]) % n
    K = linalg.kernel_left(np.concatenate([L, (-T.rows) % n]), n)
    return LinearSieve(gr, y, K[:, :L.shape[0]])


class LinearTopology:
    def __init__(self, gr: GrCategory, covers):
        self.gr = gr
        self.covers = tuple(tuple(sorted(cs, key=lambda t: t.key())) for cs in covers)
        if len(self.covers) != gr.cat.n_objects:
            raise InputError("need one cover set per object")
        self._keys = tuple(frozenset(t.key() for t in cs) for cs in self.covers)

    def covers_at(self, x: int):
        return self.covers[x]

    def least_cover(self, x: int):
        """The smallest cover of x, or None if x has none."""
        return min(self.covers[x], key=lambda T: linalg.span_size(T.rows, self.gr.base.modulus), default=None)

    def contains(self, T: LinearSieve) -> bool:
        return T.key() in self._keys[T.target]

    def key(self):
        return self._keys

    def __eq__(self, other):
        return isinstance(other, LinearTopology) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        sizes = ",".join(str(len(c)) for c in self.covers)
        return f"LinearTopology(covers per object: {sizes})"


def linearize_topology(
    gr: GrCategory, J: GrothendieckTopology, budget: int = DEFAULT_LINEAR_BUDGET
) -> LinearTopology:
    """Smallest family of linear sieves containing the linearized covers."""
    covers = []
    for x in range(gr.cat.n_objects):
        floors = [linearize_sieve(gr, S) for S in J.covers_at(x)]
        chosen = [
            T
            for T in gr.linear_sieves_on(x, budget)
            if any(T.contains(F) for F in floors)
        ]
        covers.append(chosen)
    return LinearTopology(gr, covers)


def is_linear_topology(
    gr: GrCategory, Jp: LinearTopology, budget: int = DEFAULT_LINEAR_BUDGET
) -> ValidationReport:
    """Certify Jp by its least covers F_x: covers are subfunctors, maximal
    sieves cover, the covers of x are the sieves containing F_x (least-cover),
    f * F_y lies in F_x for each basis element f of hom(y, x) (stability),
    and F_x lies in F_x * F, the span of t * g over t in F_x e_y and g in F_y.

    A linear topology is closed upward and under finite intersections
    (B. Stenstrom, Rings of Quotients, ch. VI), so it has least covers.
    Then f^*(T) covers iff f * F_y lies in T, hardest at T = F_x, and a
    non-cover S is forced by some cover iff S contains the sieve F_x * F:
    the last two rules are stability and transitivity along every f.
    """
    rep = ValidationReport("linear topology")
    n = gr.base.modulus
    objs = range(gr.cat.n_objects)
    for x in objs:
        for T in Jp.covers_at(x):
            sub = gr.sieve_report(T)
            rep.checked += sub.checked
            if not sub.ok:
                rep.add("covers-are-subfunctors", (x,))
    if not rep.ok:
        return rep
    for x in objs:
        rep.checked += 1
        if not Jp.contains(maximal_linear_sieve(gr, x)):
            rep.add("maximal-subfunctor-covers", (x,))
    least = [Jp.least_cover(x) for x in objs]
    for x, F in zip(objs, least):
        rep.checked += 1
        if F is None or Jp.key()[x] != {T.key() for T in gr.sieves_above(F, budget)}:
            rep.add("least-cover", (x,))
    if not rep.ok:
        return rep
    products = {x: [] for x in objs}  # t * g for t in F_x e_y and g in F_y, over all y
    for x, y in itertools.product(objs, objs):
        offs = gr.offsets[x]
        # Q[k, f] = basis element f of hom(y, x) times row k of F_y
        Q = np.einsum("kq,qfr->kfr", least[y].rows, gr.right_action[x][gr.columns[y], offs[y]:offs[y + 1]]) % n
        rep.checked += 1
        if linalg.reduce_vector(least[x].rows, Q, n).any():
            rep.add("stability", (x, y))
        products[x].append(np.einsum("tf,kfr->tkr", least[x].components[y], Q).reshape(-1, offs[-1]))
    for x, F in zip(objs, least):
        rep.checked += 1
        if not linalg.in_span(linalg.howell_form(np.concatenate(products[x]) % n, n, gr.offsets[x][-1]), F.rows, n):
            rep.add("transitivity", (x,))
    return rep


def topology_order(Jp: LinearTopology) -> tuple:
    """Sort key of the canonical report order of linear topologies."""
    return tuple(sorted(map(sorted, Jp.key())))


def ideal_topology(gr: GrCategory, ideal_rows, budget: int = DEFAULT_LINEAR_BUDGET) -> LinearTopology:
    """J_I: at each object x, the linear sieves T that contain the floor e_x I.

    Left multiplication by e_x keeps the skew coordinates at gr.columns[x],
    so the floor, a right ideal as I is two-sided, is the rows of I there.
    For a finite-dimensional R[C] every linear topology is J_I for exactly
    one idempotent ideal I (J. P. Jans, 1965; B. Stenstrom, Rings of
    Quotients, ch. VI).
    """
    rows = linalg.as_matrix(ideal_rows, gr.skew.rank)
    covers = []
    for x in range(gr.cat.n_objects):
        covers.append(gr.sieves_above(LinearSieve(gr, x, rows[:, gr.columns[x]]), budget))
    return LinearTopology(gr, covers)


def linear_topology_candidates(gr: GrCategory, budget: int = DEFAULT_LINEAR_BUDGET) -> list:
    """The cover families the power-set search tries, one list per object.

    Families must contain the maximal subfunctor; a family containing the
    zero subfunctor must be everything (transitivity via pullbacks along 0
    forces it), which prunes the candidate space.
    """
    per_object = []
    total = 1
    for x in range(gr.cat.n_objects):
        sieves = gr.linear_sieves_on(x, budget)
        top = maximal_linear_sieve(gr, x)
        ends = (top.key(), zero_linear_sieve(gr, x).key())
        middle = [T for T in sieves if T.key() not in ends]
        fams = []
        for r in range(len(middle) + 1):
            for combo in itertools.combinations(middle, r):
                fams.append(tuple([top, *combo]))
        if len(sieves) > 1:
            fams.append(tuple(sieves))
        per_object.append(fams)
        total *= len(fams)
        if total > budget:
            raise BudgetExceededError("linear topology enumeration", total, budget)
    return per_object


def enumerate_linear_topologies(
    gr: GrCategory, budget: int = DEFAULT_LINEAR_BUDGET
) -> list:
    """All linear topologies on Gr(R), canonical order, by certifying every
    candidate family.  The oracle for ideal_topology, which classify uses.
    """
    out = []
    for assignment in itertools.product(*linear_topology_candidates(gr, budget)):
        Jp = LinearTopology(gr, assignment)
        if is_linear_topology(gr, Jp, budget).ok:
            out.append(Jp)
    return sorted(out, key=topology_order)
