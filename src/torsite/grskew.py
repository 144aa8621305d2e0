"""The linear Grothendieck construction Gr(R) and the skew category algebra.

For a presheaf of algebras R on a finite category C, hom_{Gr(R)}(x, y) is
the free k-module on pairs (f: x -> y in C, basis element of R(x)), with
bilinear composition sending (s at g) after (r at f) to R(f)(s)*r at gf.
The one-object collapse of the same data is the skew algebra R[C], and
summing hom components gives an isomorphism onto it.

Linear sieves on Gr(R) are subfunctors of hom(-, x); linear topologies
are checked and enumerated by finite linear algebra over Z/n.  Each
GrCategory keeps, per sieve, its subfunctor report and the table of its
pullbacks along every morphism, so certifying many topologies on one
Gr(R) computes each pullback once.
"""
from __future__ import annotations

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
        n = self.base.modulus
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
        self._tables = {}
        for x in range(cat.n_objects):
            for y in range(cat.n_objects):
                for z in range(cat.n_objects):
                    self._tables[(x, y, z)] = self._build_table(x, y, z)
        self._sieve_cache = {}  # x -> (search sizes, sieves on x)
        self._reports = {}  # sieve key -> validate_linear_sieve report
        self._pullbacks = {}  # (sieve key, y) -> pullback keys

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
        """Every linear sieve on x, in key order.

        The search runs once per object; every call checks its budget
        against the search sizes, so a cached list is never returned where
        a fresh search would raise.
        """
        if x not in self._sieve_cache:
            self._sieve_cache[x] = _enumerate_linear_sieves(self, x, budget)
        sizes, sieves = self._sieve_cache[x]
        _check_sieve_budget(self.base.modulus, sizes, budget)
        return sieves

    def sieve_report(self, T: "LinearSieve") -> ValidationReport:
        """validate_linear_sieve(T), computed once per sieve."""
        rep = self._reports.get(T.key())
        if rep is None:
            rep = self._reports[T.key()] = validate_linear_sieve(T)
        return rep

    def pullback_keys(self, T: "LinearSieve", y: int) -> tuple:
        """Keys of f^*(T) for every f in hom(y, T.target), in all_vectors order.

        Entry vector_index(f) belongs to f; each is computed once by
        pullback_linear_sieve.
        """
        keys = self._pullbacks.get((T.key(), y))
        if keys is None:
            vecs = linalg.all_vectors(self.hom_rank(y, T.target), self.base.modulus)
            keys = tuple(pullback_linear_sieve(self, T, y, f).key() for f in vecs)
            self._pullbacks[(T.key(), y)] = keys
        return keys

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
        unit = np.zeros(d, dtype=np.int64)
        for x in range(cat.n_objects):
            e = cat.identity[x]
            for i, c in enumerate(R.algebra(x).unit):
                unit[self.pair_index[(e, i)]] = c
        super().__init__(R.base, mul, unit, names)

    def object_idempotent(self, x: int) -> np.ndarray:
        """The unit of R(x) sitting at the identity of x."""
        v = np.zeros(self.rank, dtype=np.int64)
        e = self.cat.identity[x]
        for i, c in enumerate(self.R.algebra(x).unit):
            v[self.pair_index[(e, i)]] = c
        return v


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
    skew = build_skew_algebra(cat, R)
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
        for k, p in enumerate(gr.hom_pairs[(x, y)]):
            out[skew.pair_index[p]] = vec[k]
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
    """A subfunctor of hom_{Gr(R)}(-, x), one Howell-form block per object."""

    def __init__(self, gr: GrCategory, target: int, components):
        self.gr = gr
        self.target = target
        n = gr.base.modulus
        comps = []
        for y in range(gr.cat.n_objects):
            width = gr.hom_rank(y, target)
            comps.append(linalg.howell_form(
                linalg.as_matrix(components[y], width), n, width
            ))
        self.components = tuple(comps)
        self._key = (target, tuple(linalg.span_key(H) for H in comps))

    def key(self):
        return self._key

    def __eq__(self, other):
        return isinstance(other, LinearSieve) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def component(self, y: int) -> np.ndarray:
        return self.components[y]

    def contains(self, other: "LinearSieve") -> bool:
        n = self.gr.base.modulus
        return not any(
            linalg.reduce_vector(self.components[y], other.components[y], n).any()
            for y in range(self.gr.cat.n_objects)
        )

    def __repr__(self):
        sizes = ",".join(str(H.shape[0]) for H in self.components)
        return f"LinearSieve(target {self.target}, rows {sizes})"


def maximal_linear_sieve(gr: GrCategory, x: int) -> LinearSieve:
    return LinearSieve(
        gr,
        x,
        [np.eye(gr.hom_rank(y, x), dtype=np.int64) for y in range(gr.cat.n_objects)],
    )


def zero_linear_sieve(gr: GrCategory, x: int) -> LinearSieve:
    return LinearSieve(
        gr,
        x,
        [np.zeros((0, gr.hom_rank(y, x)), dtype=np.int64) for y in range(gr.cat.n_objects)],
    )


def validate_linear_sieve(T: LinearSieve) -> ValidationReport:
    """Subfunctor check: generators stay inside T under precomposition."""
    gr = T.gr
    n = gr.base.modulus
    rep = ValidationReport(f"linear sieve on object {T.target}")
    x = T.target
    for y in range(gr.cat.n_objects):
        for v in T.components[y]:
            for z in range(gr.cat.n_objects):
                for ii in range(gr.hom_rank(z, y)):
                    u = np.zeros(gr.hom_rank(z, y), dtype=np.int64)
                    u[ii] = 1
                    image = gr.compose(z, y, x, v, u)
                    rep.checked += 1
                    if not linalg.in_span(T.components[z], image, n):
                        rep.add("closed-under-precomposition", (y, z, ii))
    return rep


def linearize_sieve(gr: GrCategory, S: Sieve) -> LinearSieve:
    """Span of the coordinates supported on morphisms of S."""
    x = S.target
    comps = []
    for y in range(gr.cat.n_objects):
        pairs = gr.hom_pairs[(y, x)]
        rows = [
            np.eye(len(pairs), dtype=np.int64)[k]
            for k, (f, _) in enumerate(pairs)
            if f in S.members
        ]
        comps.append(linalg.as_matrix(rows, len(pairs)))
    return LinearSieve(gr, x, comps)


def pullback_linear_sieve(gr: GrCategory, T: LinearSieve, y: int, f_vec) -> LinearSieve:
    """Preimage subfunctor f^*(T)(z) = {u in hom(z,y) : f after u lies in T(z)}."""
    n = gr.base.modulus
    x = T.target
    f_vec = np.asarray(f_vec, dtype=np.int64) % n
    comps = []
    for z in range(gr.cat.n_objects):
        rzy = gr.hom_rank(z, y)
        rzx = gr.hom_rank(z, x)
        C = np.zeros((rzy, rzx), dtype=np.int64)
        for ii in range(rzy):
            u = np.zeros(rzy, dtype=np.int64)
            u[ii] = 1
            C[ii] = gr.compose(z, y, x, f_vec, u)
        Trows = T.components[z]
        stacked = np.vstack([C, (-Trows) % n]) if Trows.shape[0] else C
        K = linalg.kernel_left(stacked, n)
        comps.append(K[:, :rzy] if K.shape[0] else np.zeros((0, rzy), dtype=np.int64))
    return LinearSieve(gr, y, comps)


def vector_index(f, n: int) -> int:
    """Position of f in linalg.all_vectors(len(f), n)."""
    i = 0
    for t in f:
        i = i * n + int(t)
    return i


def _check_sieve_budget(n: int, sizes, budget: int):
    """Raise as a sieve search with these (width, submodule count) pairs would."""
    total = 1
    for width, count in sizes:
        if n**width > budget:
            raise BudgetExceededError("submodule enumeration", n**width, budget)
        if count > budget:
            raise BudgetExceededError("submodule enumeration", budget + 1, budget)
        total *= count
        if total > budget:
            raise BudgetExceededError("linear sieve enumeration", total, budget)


def _enumerate_linear_sieves(gr: GrCategory, x: int, budget: int) -> tuple:
    """(search sizes, sieves on x in key order); valid sieves' reports are kept."""
    n = gr.base.modulus
    per_object = []
    sizes = []
    for y in range(gr.cat.n_objects):
        width = gr.hom_rank(y, x)
        subs = linalg.enumerate_submodules(width, n, budget=budget)
        per_object.append(subs)
        sizes.append((width, len(subs)))
        _check_sieve_budget(n, sizes, budget)
    out = []
    for combo in itertools.product(*per_object):
        T = LinearSieve(gr, x, list(combo))
        rep = validate_linear_sieve(T)
        if rep.ok:
            gr._reports[T.key()] = rep
            out.append(T)
    return sizes, sorted(out, key=lambda t: t.key())


class LinearTopology:
    def __init__(self, gr: GrCategory, covers):
        self.gr = gr
        self.covers = tuple(tuple(sorted(cs, key=lambda t: t.key())) for cs in covers)
        if len(self.covers) != gr.cat.n_objects:
            raise InputError("need one cover set per object")
        self._keys = tuple(frozenset(t.key() for t in cs) for cs in self.covers)

    def covers_at(self, x: int):
        return self.covers[x]

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
    """Certify Jp: covers are subfunctors, maximal sieves cover, stability
    under pullback, transitivity.  Pullbacks come from gr's table."""
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
    covering = Jp.key()
    for x in objs:
        for T in Jp.covers_at(x):
            for y in objs:
                vecs = itertools.product(range(n), repeat=gr.hom_rank(y, x))
                for key, f in zip(gr.pullback_keys(T, y), vecs):
                    rep.checked += 1
                    if key not in covering[y]:
                        rep.add("stability", (x, y, f))
                        break
    for x in objs:
        for S1 in Jp.covers_at(x):
            for S2 in gr.linear_sieves_on(x, budget):
                if Jp.contains(S2):
                    continue
                rep.checked += 1
                forced = all(
                    gr.pullback_keys(S2, y)[vector_index(f, n)] in covering[y]
                    for y in objs
                    for f in linalg.span_elements(S1.components[y], n)
                )
                if forced:
                    rep.add("transitivity", (x, S2.key()[1], S1.key()[1]))
    return rep


def topology_order(Jp: LinearTopology) -> tuple:
    """Sort key of the canonical report order of linear topologies."""
    return tuple(sorted(map(sorted, Jp.key())))


def ideal_topology(
    gr: GrCategory, skew: SkewAlgebra, ideal_rows, budget: int = DEFAULT_LINEAR_BUDGET
) -> LinearTopology:
    """J_I: at each object x, the linear sieves T whose T(y) contains the
    floor I(y, x) = I intersected with hom(y, x), for every y.

    I is two-sided and the object idempotents sum to 1, so I(y, x) is the
    block of the rows of I on the skew-basis pairs of hom(y, x).  For a
    finite-dimensional R[C] every linear topology is J_I for exactly one
    idempotent ideal I (J. P. Jans, 1965; B. Stenstrom, Rings of
    Quotients, ch. VI).
    """
    rows = linalg.as_matrix(ideal_rows, skew.rank)
    objs = range(gr.cat.n_objects)
    covers = []
    for x in objs:
        floor = LinearSieve(gr, x, [
            rows[:, [skew.pair_index[p] for p in gr.hom_pairs[(y, x)]]] for y in objs
        ])
        covers.append([T for T in gr.linear_sieves_on(x, budget) if T.contains(floor)])
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
        maxk = maximal_linear_sieve(gr, x).key()
        zerok = zero_linear_sieve(gr, x).key()
        middle = [T for T in sieves if T.key() not in (maxk, zerok)]
        fams = []
        for r in range(len(middle) + 1):
            for combo in itertools.combinations(middle, r):
                fams.append(tuple([maximal_linear_sieve(gr, x), *combo]))
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
