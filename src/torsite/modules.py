"""Presheaves of modules, modules over the skew algebra, and the predicates.

The two sides of the picture:

* a ModulePresheaf assigns to every object x a free Z/n-module with a
  right R(x)-action and to every morphism a restriction map, with the
  usual compatibilities;
* a SkewModule is a right module over R[C] (equivalently over Gr(R)).

``psi_to_gr`` stacks the blocks M(x) into one carrier, letting the basis
element (r at f: x -> y) act by m |-> M(f)(m) * r from the y-block to the
x-block; ``phi_from_gr`` recovers the presheaf from the object
idempotents.  Sheaf, torsion and perpendicular predicates and Ext^1 are
computed here by exact linear algebra.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .algebra import AlgebraPresheaf, FiniteAlgebra
from .errors import BudgetExceededError, InputError, NotPrimeError
from .fincat import FiniteCategory
from .grskew import GrCategory, LinearTopology, SkewAlgebra, build_skew_algebra
from .report import ValidationReport


class ModulePresheaf:
    def __init__(self, cat: FiniteCategory, R: AlgebraPresheaf, ranks, maps, actions):
        self.cat = cat
        self.R = R
        self.ranks = tuple(int(r) for r in ranks)
        self.maps = tuple(np.asarray(M, dtype=np.int64) for M in maps)
        self.actions = tuple(np.asarray(a, dtype=np.int64) for a in actions)
        if len(self.ranks) != cat.n_objects or len(self.actions) != cat.n_objects:
            raise InputError("need rank and action data for every object")
        if len(self.maps) != cat.n_morphisms:
            raise InputError("need one map per morphism")
        for f in range(cat.n_morphisms):
            want = (self.ranks[cat.cod(f)], self.ranks[cat.dom(f)])
            if self.maps[f].shape != want:
                raise InputError(
                    f"map of {cat.morphisms[f].name!r} has shape {self.maps[f].shape}, expected {want}"
                )
        for x in range(cat.n_objects):
            want = (R.algebra(x).rank, self.ranks[x], self.ranks[x])
            if self.actions[x].shape != want:
                raise InputError(
                    f"action at {cat.objects[x]!r} has shape {self.actions[x].shape}, expected {want}"
                )

    def map(self, f: int) -> np.ndarray:
        return self.maps[f]

    def action_of(self, x: int, r) -> np.ndarray:
        """Matrix of m |-> m*r on M(x) for an algebra element r."""
        return np.einsum("j,jkl->kl", np.asarray(r, dtype=np.int64), self.actions[x]) % self.R.base.modulus

    def __repr__(self):
        return f"ModulePresheaf(ranks {self.ranks})"


def zero_module_presheaf(cat: FiniteCategory, R: AlgebraPresheaf) -> ModulePresheaf:
    ranks = [0] * cat.n_objects
    maps = [np.zeros((0, 0), dtype=np.int64) for _ in range(cat.n_morphisms)]
    actions = [np.zeros((R.algebra(x).rank, 0, 0), dtype=np.int64) for x in range(cat.n_objects)]
    return ModulePresheaf(cat, R, ranks, maps, actions)


def validate_module_presheaf(M: ModulePresheaf) -> ValidationReport:
    cat, R = M.cat, M.R
    n = R.base.modulus
    rep = ValidationReport("module presheaf")
    for x in range(cat.n_objects):
        e = cat.identity[x]
        rep.checked += 1
        if (M.maps[e] % n != np.eye(M.ranks[x], dtype=np.int64)).any():
            rep.add("identity-map", (cat.objects[x],))
    for g in range(cat.n_morphisms):
        for f in range(cat.n_morphisms):
            gf = int(cat.compose_table[g, f])
            if gf < 0:
                continue
            rep.checked += 1
            if ((M.maps[g] @ M.maps[f]) % n != M.maps[gf] % n).any():
                rep.add("functoriality", (cat.morphisms[g].name, cat.morphisms[f].name))
    for x in range(cat.n_objects):
        alg = R.algebra(x)
        act = M.actions[x] % n
        rep.checked += 1
        unit_act = np.einsum("j,jkl->kl", alg.unit, act) % n
        if (unit_act != np.eye(M.ranks[x], dtype=np.int64)).any():
            rep.add("unital-action", (cat.objects[x],))
        lhs = np.einsum("ijm,mkl->ijkl", alg.mul, act) % n
        rhs = np.einsum("ikm,jml->ijkl", act, act) % n
        rep.checked += alg.rank**2
        for i, j in np.argwhere((lhs != rhs).any(axis=(2, 3)))[:8]:
            rep.add(
                "associative-action",
                (cat.objects[x], alg.basis_names[i], alg.basis_names[j]),
            )
    for f in range(cat.n_morphisms):
        x, y = cat.dom(f), cat.cod(f)
        src = R.algebra(y)
        for j in range(src.rank):
            moved = (src.basis_vector(j) @ R.map(f)) % n
            lhs = (M.actions[y][j] @ M.maps[f]) % n
            rhs = (M.maps[f] @ M.action_of(x, moved)) % n
            rep.checked += 1
            if (lhs != rhs).any():
                rep.add(
                    "map-action-compatibility",
                    (cat.morphisms[f].name, src.basis_names[j]),
                )
    return rep


class SkewModule:
    """Right module over a finite algebra: act[j] is the matrix of -*b_j."""

    def __init__(self, algebra: FiniteAlgebra, act):
        self.algebra = algebra
        self.act = np.asarray(act, dtype=np.int64) % algebra.base.modulus
        if self.act.ndim != 3 or self.act.shape[0] != algebra.rank:
            raise InputError("action tensor must have one matrix per algebra basis element")
        if self.act.shape[1] != self.act.shape[2]:
            raise InputError("action matrices must be square")
        self.dim = self.act.shape[1]

    def act_of(self, v) -> np.ndarray:
        if self.algebra.rank == 0:
            return np.zeros((self.dim, self.dim), dtype=np.int64)
        return np.einsum("j,jkl->kl", np.asarray(v, dtype=np.int64), self.act) % self.algebra.base.modulus

    def key(self) -> bytes:
        return self.act.tobytes()

    def __repr__(self):
        return f"SkewModule(dim {self.dim} over rank-{self.algebra.rank} algebra)"


def validate_skew_module(V: SkewModule) -> ValidationReport:
    rep = ValidationReport(f"module of dimension {V.dim}")
    A = V.algebra
    n = A.base.modulus
    rep.checked += 1
    unit_act = V.act_of(A.unit)
    if (unit_act != np.eye(V.dim, dtype=np.int64)).any():
        rep.add("unital")
    lhs = np.einsum("ijm,mkl->ijkl", A.mul, V.act) % n
    rhs = np.einsum("ikm,jml->ijkl", V.act, V.act) % n
    rep.checked += A.rank**2
    for i, j in np.argwhere((lhs != rhs).any(axis=(2, 3)))[:8]:
        rep.add("multiplicative", (A.basis_names[i], A.basis_names[j]))
    return rep


def zero_skew_module(A: FiniteAlgebra) -> SkewModule:
    return SkewModule(A, np.zeros((A.rank, 0, 0), dtype=np.int64))


def regular_module(A: FiniteAlgebra) -> SkewModule:
    return SkewModule(A, A.mul.transpose(1, 0, 2))


def direct_sum(V: SkewModule, W: SkewModule) -> SkewModule:
    A = V.algebra
    act = np.zeros((A.rank, V.dim + W.dim, V.dim + W.dim), dtype=np.int64)
    act[:, : V.dim, : V.dim] = V.act
    act[:, V.dim :, V.dim :] = W.act
    return SkewModule(A, act)


def _restricted_action(rows: np.ndarray, mats, n: int, what: str) -> np.ndarray:
    """The right actions mats restricted to the stable span of rows, in row coordinates.

    rows has shape (k, w) and each of mats shape (w, w); the result has
    shape (len(mats), k, k).  All k * len(mats) images are written in the
    basis rows by one solve.
    """
    k, w = rows.shape
    mats = np.array(mats, dtype=np.int64).reshape(len(mats), w, w)
    imgs = ((rows @ mats) % n).reshape(len(mats) * k, w)
    coeffs = linalg.solve_left(rows, imgs, n)
    if coeffs is None:
        raise InputError(f"{what}: rows do not span a stable submodule")
    return coeffs.reshape(len(mats), k, k)


def submodule_module(V: SkewModule, rows) -> tuple:
    """Module structure on a stable submodule; returns (module, inclusion)."""
    n = V.algebra.base.modulus
    H = linalg.howell_form(linalg.as_matrix(rows, V.dim), n, V.dim)
    return SkewModule(V.algebra, _restricted_action(H, V.act, n, "submodule")), H


def quotient_module(V: SkewModule, rows) -> tuple:
    """Quotient by a stable submodule; returns (module, projection, section).

    The projection matrix has shape (dim V, dim Q); coset coordinates are
    the non-pivot columns, which requires unit pivots (prime modulus).
    The section, of shape (dim Q, dim V), sends each coset coordinate to
    the basis vector of its column, so section @ projection is the
    identity of Q.
    """
    n = V.algebra.base.modulus
    if not linalg.is_prime(n):
        raise NotPrimeError(n, "quotient carrier")
    H = linalg.howell_form(linalg.as_matrix(rows, V.dim), n, V.dim)
    comp = linalg.complement_columns(H, V.dim)
    sec = np.eye(V.dim, dtype=np.int64)[comp]
    proj = linalg.reduce_vector(H, np.eye(V.dim, dtype=np.int64), n)[:, comp]
    Q = SkewModule(V.algebra, (sec @ V.act @ proj) % n)
    return Q, proj, sec


def _hom_constraints(V: SkewModule, W: SkewModule) -> np.ndarray:
    """The matrix C with x @ C == 0 iff x, read as a (dim V, dim W) matrix, is a map.

    Row (c, d) and column (j, a, b) hold V.act[j][a, c] [b == d] -
    [a == c] W.act[j][d, b]: block j is the transpose of
    kron(V.act[j], I) - kron(I, W.act[j].T), built for all j in one
    broadcast.
    """
    v, w, r = V.dim, W.dim, V.algebra.rank
    left = V.act.transpose(2, 0, 1)[:, None, :, :, None] * np.eye(w, dtype=np.int64)[None, :, None, None, :]
    right = np.eye(v, dtype=np.int64)[:, None, None, :, None] * W.act.transpose(1, 0, 2)[None, :, :, None, :]
    return ((left - right) % V.algebra.base.modulus).reshape(v * w, r * v * w)


def hom_skew(V: SkewModule, W: SkewModule) -> list:
    """Basis of the module maps V -> W as (dim V, dim W) matrices."""
    v, w = V.dim, W.dim
    if v == 0 or w == 0:
        return []
    K = linalg.kernel_left(_hom_constraints(V, W), V.algebra.base.modulus)
    return [row.reshape(v, w) for row in K]


def psi_to_gr(M: ModulePresheaf, skew: SkewAlgebra | None = None) -> SkewModule:
    """Stack the blocks of M into a right module over the skew algebra.

    Basis element (b_i at f: x -> y) sends the M(y)-block into the
    M(x)-block by m |-> M(f)(m) * b_i and kills the other blocks.
    """
    if skew is None:
        skew = build_skew_algebra(M.cat, M.R)
    cat = M.cat
    n = M.R.base.modulus
    offsets = []
    total = 0
    for x in range(cat.n_objects):
        offsets.append(total)
        total += M.ranks[x]
    act = np.zeros((skew.rank, total, total), dtype=np.int64)
    for p, (f, i) in enumerate(skew.pairs):
        x, y = cat.dom(f), cat.cod(f)
        block = (M.maps[f] @ M.actions[x][i]) % n
        act[p][offsets[y] : offsets[y] + M.ranks[y], offsets[x] : offsets[x] + M.ranks[x]] = block
    return SkewModule(skew, act)


def phi_from_gr(V: SkewModule) -> ModulePresheaf:
    """Recover the module presheaf from a module over the skew algebra.

    Blocks are cut out by the object idempotents; their row spaces must be
    free (automatic over a field), otherwise the rank-based presheaf data
    model cannot hold the carrier.
    """
    skew = V.algebra
    if not isinstance(skew, SkewAlgebra):
        raise InputError("phi_from_gr needs a module over a skew category algebra")
    cat = skew.cat
    R = skew.R
    n = skew.base.modulus
    bases, pivots = [], []
    for x in range(cat.n_objects):
        E = V.act_of(skew.object_idempotent(x))
        B = linalg.howell_form(E, n, V.dim)
        piv = linalg.pivot_columns(B)
        if (B[np.arange(len(piv)), piv] != 1).any():
            raise NotPrimeError(n, "free block decomposition")
        bases.append(B)
        pivots.append(piv)
    if sum(B.shape[0] for B in bases) != V.dim:
        raise InputError("object idempotents do not decompose the carrier")
    ranks = [B.shape[0] for B in bases]

    # unit pivots: B[:, pivots] is the identity, so a row v lies in the
    # span of B iff v == v[:, pivots] @ B, and v[:, pivots] are its coordinates
    map_images = []
    for f in range(cat.n_morphisms):
        x, y = cat.dom(f), cat.cod(f)
        u = np.zeros(skew.rank, dtype=np.int64)
        for i, cval in enumerate(R.algebra(x).unit):
            u[skew.pair_index[(f, i)]] = cval
        map_images.append((bases[y] @ V.act_of(u)) % n)
    action_images = []
    for x in range(cat.n_objects):
        idx = [skew.pair_index[(cat.identity[x], j)] for j in range(R.algebra(x).rank)]
        action_images.append((bases[x] @ V.act[idx]) % n)
    maps_outside = actions_outside = False
    for x in range(cat.n_objects):
        from_maps = [map_images[f] for f in range(cat.n_morphisms) if cat.dom(f) == x]
        k = sum(img.shape[0] for img in from_maps)
        rows = np.concatenate([*from_maps, *action_images[x]])  # the identity of x is in from_maps
        outside = ((rows[:, pivots[x]] @ bases[x]) % n != rows).any(axis=1)
        maps_outside |= bool(outside[:k].any())
        actions_outside |= bool(outside[k:].any())
    if maps_outside:
        raise InputError("carrier is not spanned by its blocks")
    if actions_outside:
        raise InputError("object block: rows do not span a stable submodule")
    maps = [img[:, pivots[cat.dom(f)]] for f, img in enumerate(map_images)]
    actions = [img[:, :, pivots[x]] for x, img in enumerate(action_images)]
    M = ModulePresheaf(cat, R, ranks, maps, actions)
    M.block_bases = tuple(bases)
    return M


# ---------------------------------------------------------------------------
# sheaf / torsion / perpendicular predicates


@dataclass
class PredicateResult:
    value: bool
    witness: dict = field(default_factory=dict)

    def __bool__(self):
        return self.value


def _sieve_rows(skew: SkewAlgebra, gr: GrCategory, T) -> np.ndarray:
    """The rows of the linear sieve T, component by component, in skew-algebra coordinates."""
    blocks = []
    for y, comp in enumerate(T.components):
        block = np.zeros((comp.shape[0], skew.rank), dtype=np.int64)
        block[:, [skew.pair_index[p] for p in gr.hom_pairs[(y, T.target)]]] = comp
        blocks.append(block)
    return np.concatenate(blocks)


def _cover_table(
    Jp: LinearTopology, skew: SkewAlgebra, kind: str, x: int | None, ci: int | None, build
):
    """build(), the module-independent data of kind for cover ci at x, built once per topology.

    x and ci are None for data about every object.  Entries live on Jp,
    keyed on the algebra as well and holding it, so data built for one
    algebra is never served for another.  A build that raises stores
    nothing: the next call raises at the same point.
    """
    key = (kind, id(skew), x, ci)
    entry = Jp._cover_tables.get(key)
    if entry is None:
        entry = Jp._cover_tables[key] = (skew, build())
    return entry[1]


def _sheaf_cover(skew: SkewAlgebra, gr: GrCategory, T) -> tuple:
    """The rows G of T, the module C of the action on them (G * b_j == C.act[j] @ G),
    and the relations r @ G == 0 among the rows, as columns."""
    n = skew.base.modulus
    G = _sieve_rows(skew, gr, T)
    C = _restricted_action(G, regular_module(skew).act, n, "cover is not closed under precomposition")
    return G, SkewModule(skew, C), linalg.kernel_left(G, n).T


def sheaf_check(V: SkewModule, Jp: LinearTopology) -> PredicateResult:
    """Restriction V e_x = Hom(e_x A, V) -> Hom(T, V) must be bijective for every cover T of x.

    A map T -> V is its value Phi, of shape (g, dim V), on the g rows G of
    T.  Hom(T, V) is the kernel of one matrix: the map constraints for the
    action of A on row coordinates (G * b_j == C_j @ G), and r @ Phi == 0
    for every relation r @ G == 0 among the rows.  The relations are
    empty over a field; over Z/n they make the choice of C_j irrelevant.
    The restriction of m is Phi_m[k] = m * G[k].  G, C and the relations
    do not depend on V: they are built once per cover and kept on Jp.
    """
    skew = V.algebra
    n = skew.base.modulus
    for x in range(skew.cat.n_objects):
        Bx = linalg.howell_form(V.act_of(skew.object_idempotent(x)), n, V.dim)
        for ci, T in enumerate(Jp.covers_at(x)):
            G, C, rel = _cover_table(Jp, skew, "sheaf", x, ci, lambda: _sheaf_cover(skew, Jp.gr, T))
            width = G.shape[0] * V.dim
            relations = np.kron(rel, np.eye(V.dim, dtype=np.int64))
            homs = linalg.kernel_left(np.concatenate([_hom_constraints(C, V), relations], axis=1), n)
            acts = np.einsum("kj,jil->kil", G, V.act) % n  # m * G[k] == m @ acts[k]
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


def _least_covers(skew: SkewAlgebra, Jp: LinearTopology) -> tuple:
    """The rows of the least cover of each object, stacked in object order, and the owner of each row.

    The least cover of x is its smallest cover, checked to lie inside every
    other one.  A linear topology is closed under finite intersections, so
    it has one; InputError names the first object without one.
    """
    n = skew.base.modulus
    blocks, owner = [], []
    for x in range(skew.cat.n_objects):
        covers = Jp.covers_at(x)
        least = min(
            covers, key=lambda T: math.prod(linalg.span_size(H, n) for H in T.components), default=None
        )
        if least is None or not all(T.contains(least) for T in covers):
            raise InputError(
                f"covers of object {skew.cat.objects[x]} have no least member: not a linear topology"
            )
        blocks.append(_sieve_rows(skew, Jp.gr, least))
        owner += [x] * blocks[-1].shape[0]
    rows = np.concatenate([np.zeros((0, skew.rank), dtype=np.int64), *blocks])
    return rows, np.array(owner, dtype=np.int64)


def torsion_check(V: SkewModule, Jp: LinearTopology) -> PredicateResult:
    """Every element of every block V e_x must be killed by some cover of x.

    Some cover of x kills m iff the least cover of x does, and its rows t
    lie in e_x A, so V e_x * t == V * t.  Hence V is torsion iff V * t == 0
    for every row t of every least cover: one einsum, with the rows kept
    on Jp.  Only on failure is a Howell basis of V e_x taken, to name the
    first element not killed in span_elements order.  InputError if an
    object has no least cover.
    """
    skew = V.algebra
    n = skew.base.modulus
    rows, owner = _cover_table(Jp, skew, "least", None, None, lambda: _least_covers(skew, Jp))
    killed = np.einsum("kj,jil->kil", rows, V.act) % n  # m * rows[k] == m @ killed[k]
    bad = killed.any(axis=(1, 2))
    if not bad.any():
        return PredicateResult(True)
    x = int(owner[bad.argmax()])
    Bx = linalg.howell_form(V.act_of(skew.object_idempotent(x)), n, V.dim)
    # span_elements(Bx) lists c @ Bx with c in lexicographic order.  With i
    # the last row of Bx not killed, every c before the unit vector e_i is
    # supported on the killed rows after i, so Bx[i] is the first not killed
    hit = (np.einsum("mi,kil->mkl", Bx, killed[owner == x]) % n).any(axis=(1, 2))
    m = Bx[np.flatnonzero(hit)[-1]]
    return PredicateResult(False, {"object": skew.cat.objects[x], "element": [int(t) for t in m]})


def is_sheaf(M: ModulePresheaf, Jp: LinearTopology) -> PredicateResult:
    return sheaf_check(psi_to_gr(M, _skew_of(Jp)), Jp)


def is_torsion(M: ModulePresheaf, Jp: LinearTopology) -> PredicateResult:
    return torsion_check(psi_to_gr(M, _skew_of(Jp)), Jp)


def _skew_of(Jp: LinearTopology) -> SkewAlgebra:
    gr = Jp.gr
    if not hasattr(gr, "_skew"):
        gr._skew = build_skew_algebra(gr.cat, gr.R)
    return gr._skew


def representable_module(skew: SkewAlgebra, x: int) -> tuple:
    """The module hom(-, x), i.e. e_x * A, on its coordinate subset."""
    idx = [
        k for k, (f, _) in enumerate(skew.pairs) if skew.cat.cod(f) == x
    ]
    reg = regular_module(skew)
    act = reg.act[:, :, idx][:, idx, :]
    return SkewModule(skew, act), idx


def representable_quotient(skew: SkewAlgebra, gr: GrCategory, x: int, T) -> SkewModule:
    """hom(-, x) / T for a linear sieve T on x (prime modulus); InputError unless T is stable."""
    P, idx = representable_module(skew, x)
    rows = _sieve_rows(skew, gr, T)[:, idx]
    _restricted_action(rows, P.act, skew.base.modulus, "cover is not closed under precomposition")
    Q, _, _ = quotient_module(P, rows)
    return Q


def _rank(rows: np.ndarray, n: int) -> int:
    return linalg.howell_form(rows, n, rows.shape[1]).shape[0]


def _presentation(V: SkewModule) -> tuple:
    """(K, Omega) for 0 -> Omega -> free -> V -> 0, V nonzero.

    The free module has one generator per carrier basis vector of V; the
    rows of K span Omega inside it.
    """
    A = V.algebra
    n = A.base.modulus
    d, m = A.rank, V.dim
    # pi((a_i)) = sum_i e_i . a_i; row i * d + j is the image of e_i b_j
    PI = V.act.transpose(1, 0, 2).reshape(m * d, m)
    K = linalg.kernel_left(PI, n)
    act_free = [np.kron(np.eye(m, dtype=np.int64), A.mul[:, j, :]) % n for j in range(d)]
    return K, SkewModule(A, _restricted_action(K, act_free, n, "syzygy action"))


def _ext1_from_presentation(V: SkewModule, K: np.ndarray, Omega: SkewModule, W: SkewModule) -> int:
    """dim Ext^1(V, W): Hom(Omega, W) modulo the restrictions of maps free -> W."""
    homs = hom_skew(Omega, W)
    if not homs:
        return 0
    n = V.algebra.base.modulus
    d, m, w, kw = V.algebra.rank, V.dim, W.dim, K.shape[0]
    # the map free -> W sending e_i to the c-th basis vector of W, restricted to Omega:
    # these rows lie in Hom(Omega, W), whose basis homs is independent (n is prime)
    image = np.einsum("riq,qcl->icrl", K.reshape(kw, m, d), W.act).reshape(m * w, kw * w) % n
    return len(homs) - _rank(image, n)


def ext1_skew(V: SkewModule, W: SkewModule) -> int:
    """dim Ext^1(V, W) from the presentation 0 -> Omega -> free -> V -> 0.

    The free module has one generator per carrier basis vector of V;
    Ext^1 is Hom(Omega, W) modulo the restrictions of maps free -> W.
    """
    n = V.algebra.base.modulus
    if not linalg.is_prime(n):
        raise NotPrimeError(n, "ext1")
    if V.dim == 0 or W.dim == 0:
        return 0
    return _ext1_from_presentation(V, *_presentation(V), W)


def _cocycle_constraints(V: SkewModule, W: SkewModule) -> np.ndarray:
    """The matrix C with c @ C == 0 iff c, read as blocks C_q of shape (dim V, dim W), is a cocycle.

    Row (q, s, t) is entry (s, t) of C_q.  Column (i, j, a, b) is entry
    (a, b) of sum_q mul[i, j, q] C_q - C_i W_j - V_i C_j; the last dim V *
    dim W columns, (a, b), are entry (a, b) of sum_q unit[q] C_q.
    """
    A = V.algebra
    d, v, w = A.rank, V.dim, W.dim
    Id, Iv, Iw = (np.eye(k, dtype=np.int64) for k in (d, v, w))
    mult = (
        np.einsum("ijq,sa,tb->qstijab", A.mul, Iv, Iw)
        - np.einsum("qi,sa,jtb->qstijab", Id, Iv, W.act)
        - np.einsum("qj,tb,ias->qstijab", Id, Iw, V.act)
    ).reshape(d * v * w, d * d * v * w)
    unit = np.einsum("q,sa,tb->qstab", A.unit, Iv, Iw).reshape(d * v * w, v * w)
    return np.concatenate([mult, unit], axis=1) % A.base.modulus


def extension_cocycle_space(V: SkewModule, W: SkewModule):
    """Cocycle data for extensions 0 -> W -> E -> V -> 0.

    Middle structures on W (+) V are lower block triangular; the unknown
    blocks C_j solve the multiplicativity and unit constraints.  Returns
    (cocycle basis, builder) where the builder turns a cocycle vector into
    the middle-term module.
    """
    A = V.algebra
    d, mv, mw = A.rank, V.dim, W.dim
    Z = linalg.kernel_left(_cocycle_constraints(V, W), A.base.modulus)

    def build(cvec) -> SkewModule:
        act = np.zeros((d, mw + mv, mw + mv), dtype=np.int64)
        act[:, :mw, :mw] = W.act
        act[:, mw:, mw:] = V.act
        act[:, mw:, :mw] = np.asarray(cvec).reshape(d, mv, mw)
        return SkewModule(A, act)

    return Z, build


def extension_class_space(V: SkewModule, W: SkewModule):
    """One cocycle per class of Ext^1(V, W): a complement of the coboundaries.

    The coboundary of D adds V_j D - D W_j to each C_j, which is
    conjugation of the middle term by [[I, 0], [D, I]]; these are the rows
    of _hom_constraints(V, W).  The Howell rows of Z reduced against the
    Howell form B of those rows vanish at every pivot column of B, so
    their span meets B only in 0 and, with B, spans Z (prime modulus).
    Returns (complement basis, build) as extension_cocycle_space returns (Z, build).
    """
    n = V.algebra.base.modulus
    if not linalg.is_prime(n):
        raise NotPrimeError(n, "extension classes")
    Z, build = extension_cocycle_space(V, W)
    width = Z.shape[1]
    B = linalg.howell_form(_hom_constraints(V, W), n, width)
    return linalg.howell_form(linalg.reduce_vector(B, Z, n), n, width), build


def ext1_dimension_by_enumeration(V: SkewModule, W: SkewModule) -> int:
    """Independent route: count extensions of V by W, cocycles mod coboundaries.

    The coboundary of D is (D W_j - V_j D)_j, minus the row of D in
    _hom_constraints(V, W), whose rank is therefore that of the coboundaries.
    """
    n = V.algebra.base.modulus
    if not linalg.is_prime(n):
        raise NotPrimeError(n, "ext1 enumeration")
    if V.dim == 0 or W.dim == 0:
        return 0
    Z, _ = extension_cocycle_space(V, W)
    return Z.shape[0] - _rank(_hom_constraints(V, W), n)


def perpendicular_check(M, Jp: LinearTopology) -> PredicateResult:
    """Hom and Ext^1 vanishing against every representable quotient.

    Each quotient and its presentation are built once per cover, when a
    module first needs them, and kept on Jp.
    """
    skew = _skew_of(Jp)
    if isinstance(M, ModulePresheaf):
        V = psi_to_gr(M, skew)
    else:
        V = M
    gr = Jp.gr
    for x in range(skew.cat.n_objects):
        for ci, T in enumerate(Jp.covers_at(x)):
            Q = _cover_table(Jp, skew, "quotient", x, ci, lambda: representable_quotient(skew, gr, x, T))
            if Q.dim == 0:
                continue
            if hom_skew(Q, V):
                return PredicateResult(
                    False,
                    {"object": skew.cat.objects[x], "cover": ci, "reason": "hom"},
                )
            # ext1_skew(Q, V), with Q's presentation kept
            if V.dim and _ext1_from_presentation(
                Q, *_cover_table(Jp, skew, "presentation", x, ci, lambda: _presentation(Q)), V
            ):
                return PredicateResult(
                    False,
                    {"object": skew.cat.objects[x], "cover": ci, "reason": "ext1"},
                )
    return PredicateResult(True)


# ---------------------------------------------------------------------------
# enumeration of module structures


def _generating_words(A: FiniteAlgebra):
    """A small generating set of basis indices plus spanning word data."""
    n = A.base.modulus
    d = A.rank
    if d == 0:
        return [], [()], linalg.as_matrix([], 0)
    for size in range(d + 1):
        for gens in itertools.combinations(range(d), size):
            words = [()]
            vecs = [A.unit.copy()]
            span = linalg.howell_form(linalg.as_matrix([A.unit], d), n, d)
            frontier = [((), A.unit.copy())]
            while frontier:
                word, vec = frontier.pop(0)
                for g in gens:
                    w2 = word + (g,)
                    if len(w2) > 2 * d:
                        continue
                    v2 = A.multiply(vec, A.basis_vector(g))
                    if not linalg.in_span(span, v2, n):
                        span = linalg.howell_form(
                            np.vstack([span, v2.reshape(1, -1)]), n, d
                        )
                        words.append(w2)
                        vecs.append(v2)
                        frontier.append((w2, v2))
            if span.shape[0] == d and all(
                int(r[linalg._leading(r)]) == 1 for r in span
            ):
                return list(gens), words, linalg.as_matrix(vecs, d)
    raise InputError("no generating set found (non-free span)")


def _all_matrices(n: int, rows: int, cols: int) -> np.ndarray:
    """Every rows x cols matrix over Z/n, numbered by idx: entry c of matrix
    idx, in row-major order, is (idx // n**c) % n."""
    count = n ** (rows * cols)
    powers = n ** np.arange(rows * cols, dtype=np.int64)
    return (np.arange(count, dtype=np.int64)[:, None] // powers % n).reshape(count, rows, cols)


def enumerate_skew_module_structures(
    A: FiniteAlgebra, dim: int, budget: int = 2**22
) -> list:
    """All unital right-module structures on (Z/n)^dim, as SkewModules.

    Candidate idx gives generator gens[t] the matrix numbered
    (idx // img_count**t) % img_count; the structures come out in order of
    idx.  The generators are fixed one at a time, the last first, and each
    relation (the unit axiom and associativity at every basis pair (i, j))
    is tested as soon as every generator its elements depend on is fixed,
    so most candidates are dropped before the remaining generators
    multiply them.  Every returned structure has passed every relation.
    """
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
    G = len(gens)
    # Basis element i depends on gens[low[i]:] at most: the generators in
    # the words that span it.  A relation on the elements E is ready once
    # gens[G - s:] are fixed, at stage s = G - min(low[e] for e in E).
    low = [
        min(
            (gens.index(g) for w, word in enumerate(words) if coeff[i, w] % n for g in word),
            default=G,
        )
        for i in range(A.rank)
    ]

    def stage(elems) -> int:
        return G - min((low[e] for e in elems), default=G)

    unit_stage = stage(np.flatnonzero(A.unit % n))
    pairs = [
        (stage([i, j, *np.flatnonzero(A.mul[i, j] % n)]), i, j)
        for i in range(A.rank)
        for j in range(A.rank)
    ]
    # with no generators the table is never read, and it has img_count rows
    all_mats = _all_matrices(n, dim, dim) if gens else None
    eye = np.eye(dim, dtype=np.int64)
    out = []
    chunk = 1 << 14
    # Survivors of the stages so far, with the digits of unfixed generators
    # zero: those generators get the zero matrix, so elements that depend
    # on them get wrong actions, which no ready relation reads.
    found = np.zeros(1, dtype=np.int64)
    for s in range(G + 1):
        width = img_count if s else 1
        step = img_count ** (G - s)
        kept = [found[:0]]
        for start in range(0, len(found) * width, chunk):
            f = np.arange(start, min(start + chunk, len(found) * width))
            idx = found[f // width] + (f % width) * step
            k = len(idx)
            gmats = {}
            for t, g in enumerate(gens):
                gmats[g] = all_mats[(idx // (img_count**t)) % img_count]  # (k, dim, dim)
            wstack = np.empty((len(words), k, dim, dim), dtype=np.int64)
            for wi, word in enumerate(words):
                Mw = np.broadcast_to(eye, (k, dim, dim)).copy()
                for g in word:
                    Mw = np.matmul(Mw, gmats[g]) % n
                wstack[wi] = Mw
            act = np.einsum("iw,wkab->kiab", coeff, wstack) % n
            if unit_stage == s:
                ok = (np.einsum("j,kjab->kab", A.unit, act) % n == eye).all(axis=(1, 2))
                idx, act = idx[ok], act[ok]
            for p, i, j in pairs:
                if p == s:
                    lhs = np.einsum("m,kmab->kab", A.mul[i, j], act) % n
                    ok = (lhs == (act[:, i] @ act[:, j]) % n).all(axis=(1, 2))
                    idx, act = idx[ok], act[ok]
            kept.append(idx)
            if s == G:
                out.extend(SkewModule(A, a) for a in act)
        found = np.concatenate(kept)
    return out


def _compatible_maps(cat: FiniteCategory, R: AlgebraPresheaf, actions, stacks) -> np.ndarray:
    """Which of k candidates pass functoriality and map-action compatibility.

    stacks[f] is the (k, rank cod f, rank dom f) stack of the candidates'
    matrices of morphism f; actions are the (valid) actions of every
    object.  These are the relations of validate_module_presheaf that read
    a map, tested on all candidates at once.
    """
    n = R.base.modulus
    ok = np.ones(stacks[0].shape[0], dtype=bool)
    for g in range(cat.n_morphisms):
        for f in range(cat.n_morphisms):
            gf = int(cat.compose_table[g, f])
            if gf >= 0:
                ok &= (np.matmul(stacks[g], stacks[f]) % n == stacks[gf]).all(axis=(1, 2))
    for f in range(cat.n_morphisms):
        x, y = cat.dom(f), cat.cod(f)
        # moved[j] acts on M(x) as the basis element j of R(y) restricted along f
        moved = np.einsum("jm,mkl->jkl", R.map(f) % n, actions[x]) % n
        lhs = np.einsum("jab,kbc->kjac", actions[y], stacks[f]) % n
        rhs = np.einsum("kab,jbc->kjac", stacks[f], moved) % n
        ok &= (lhs == rhs).all(axis=(1, 2, 3))
    return ok


def enumerate_module_presheaves(
    cat: FiniteCategory, R: AlgebraPresheaf, max_total: int, budget: int = 2**22
) -> list:
    """All valid module presheaves of total dimension <= max_total.

    For each rank tuple the candidates come in the order of
    itertools.product over the action choices, then over the matrices of
    the non-identity morphisms (numbered as in _all_matrices).  Identity
    morphisms get identity matrices, and the actions are valid module
    structures, so the remaining relations of validate_module_presheaf
    are tested on chunks of map candidates at once.
    """
    n = R.base.modulus
    out = []
    obj_structures = {}
    for x in range(cat.n_objects):
        obj_structures[x] = {
            m: [V for V in enumerate_skew_module_structures(R.algebra(x), m, budget) if validate_skew_module(V).ok]
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
    chunk = 1 << 14
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
        map_choices = dict(zip(nonid, (_all_matrices(n, rows, cols) for rows, cols in shapes)))
        total = n ** sum(rows * cols for rows, cols in shapes)
        for actions in itertools.product(*action_choices):
            acts = [V.act for V in actions]
            for start in range(0, total, chunk):
                c = np.arange(start, min(start + chunk, total))
                # candidate c takes matrix digits[f][c] of f, the last
                # morphism's digit varying fastest as in itertools.product
                digits, stride = {}, total
                for f, table in map_choices.items():
                    stride //= len(table)
                    digits[f] = (c // stride) % len(table)
                stacks = []
                for f in range(cat.n_morphisms):
                    if f in map_choices:
                        stacks.append(map_choices[f][digits[f]])
                    else:
                        r = ranks[cat.dom(f)]
                        stacks.append(np.broadcast_to(np.eye(r, dtype=np.int64), (len(c), r, r)))
                for i in np.flatnonzero(_compatible_maps(cat, R, acts, stacks)):
                    maps = [
                        map_choices[f][digits[f][i]] if f in map_choices
                        else np.eye(ranks[cat.dom(f)], dtype=np.int64)
                        for f in range(cat.n_morphisms)
                    ]
                    out.append(ModulePresheaf(cat, R, ranks, maps, acts))
    return out
