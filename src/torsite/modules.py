"""Presheaves of modules, modules over the skew algebra, and the predicates.

The two sides of the picture:

* a ModulePresheaf assigns to every object x a free Z/n-module with a
  right R(x)-action and to every morphism a restriction map, with the
  usual compatibilities;
* a SkewModule is a right module over R[C] (equivalently over Gr(R)).

``psi_to_gr`` stacks the blocks M(x) into one carrier, letting the basis
element (r at f: x -> y) act by m |-> M(f)(m) * r from the y-block to the
x-block; ``phi_from_gr`` recovers the presheaf from the object
idempotents, for one module or for a list of modules over one skew
algebra, taking the Howell form of each distinct block idempotent once per
call.  Sheaf, torsion and perpendicular predicates and Ext^1 are computed
here by exact linear algebra.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .algebra import AlgebraPresheaf, FiniteAlgebra
from .errors import BudgetExceededError, InputError, NotPrimeError
from .fincat import FiniteCategory
from .grskew import LinearTopology, SkewAlgebra, build_skew_algebra
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
        """Matrix of m |-> m * v for an algebra element v, or a stack of them
        for a stack of elements: one matmul against the flattened action."""
        v = np.asarray(v, dtype=np.int64)
        flat = v @ self.act.reshape(self.algebra.rank, self.dim * self.dim)
        return (flat % self.algebra.base.modulus).reshape(*v.shape[:-1], self.dim, self.dim)

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


def _same_algebra(A: FiniteAlgebra, B: FiniteAlgebra) -> bool:
    """Whether A and B have the same modulus, multiplication and unit."""
    return A is B or (
        A.base.modulus == B.base.modulus and np.array_equal(A.mul, B.mul) and np.array_equal(A.unit, B.unit)
    )


def _same_site(M: ModulePresheaf, skew: SkewAlgebra) -> bool:
    """Whether M's category and rings have the tables of skew's site."""
    cat, R = skew.cat, skew.R
    same_cat = M.cat is cat or (
        M.cat.n_objects == cat.n_objects
        and [(m.dom, m.cod) for m in M.cat.morphisms] == [(m.dom, m.cod) for m in cat.morphisms]
        and M.cat.identity == cat.identity
        and np.array_equal(M.cat.compose_table, cat.compose_table)
    )
    # with the same category, both presheaves have one algebra per object and one map per morphism
    return same_cat and (M.R is R or (
        all(_same_algebra(a, b) for a, b in zip(M.R.algebras, R.algebras))
        and all(np.array_equal(f, g) for f, g in zip(M.R.maps, R.maps))
    ))


def psi_to_gr(M: ModulePresheaf, skew: SkewAlgebra | None = None) -> SkewModule:
    """Stack the blocks of M into a right module over the skew algebra.

    Basis element (b_i at f: x -> y) sends the M(y)-block into the
    M(x)-block by m |-> M(f)(m) * b_i and kills the other blocks.
    InputError unless M's category and rings are those of skew's site.
    """
    if skew is None:
        skew = build_skew_algebra(M.cat, M.R)
    elif not _same_site(M, skew):
        raise InputError("module is not over the skew algebra of the topology's site")
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


def phi_from_gr(V: SkewModule | list) -> ModulePresheaf | list:
    """Recover the module presheaf from a module over the skew algebra, or
    the presheaves of a list of modules over one skew algebra, in order.

    Blocks are cut out by the object idempotents; their row spaces must be
    free (automatic over a field), otherwise the rank-based presheaf data
    model cannot hold the carrier.  A list raises what a call on its first
    failing module alone would raise.  Within one call the Howell form of
    each distinct block idempotent is taken once, and the modules of one
    dimension and block ranks share one stacked product.
    """
    modules = [V] if isinstance(V, SkewModule) else list(V)
    if not modules:
        return []
    skew = modules[0].algebra
    if not isinstance(skew, SkewAlgebra):
        raise InputError("phi_from_gr needs a module over a skew category algebra")
    if any(W.algebra is not skew for W in modules):
        raise InputError("phi_from_gr needs modules over one skew algebra")
    cat, R = skew.cat, skew.R
    n = skew.base.modulus
    forms = {}  # (dim, idempotent bytes) -> (Howell form, pivot columns, unit pivots)
    blocks, errors, groups = {}, {}, {}
    for k, W in enumerate(modules):
        found = []
        for E in W.act_of(skew.idempotents):
            key = (W.dim, E.tobytes())
            if key not in forms:
                B = linalg.howell_form(E, n, W.dim)
                piv = linalg.pivot_columns(B)
                forms[key] = (B, piv, bool((B[np.arange(len(piv)), piv] == 1).all()))
            found.append(forms[key])
        ranks = tuple(len(piv) for _, piv, _ in found)
        if not all(unit for _, _, unit in found):
            errors[k] = NotPrimeError(n, "free block decomposition")
        elif sum(ranks) != W.dim:
            errors[k] = InputError("object idempotents do not decompose the carrier")
        else:
            blocks[k] = found
            groups.setdefault((W.dim, ranks), []).append(k)

    m = cat.n_morphisms
    acting = list(itertools.accumulate((R.algebra(x).rank for x in range(cat.n_objects)), initial=m))
    out = [None] * len(modules)
    for (dim, ranks), members in groups.items():
        ends = list(itertools.accumulate(ranks, initial=0))
        block = [slice(ends[x], ends[x + 1]) for x in range(len(ranks))]
        owner = np.repeat(np.arange(len(ranks)), ranks)  # the object of each block-basis row
        P = np.zeros((len(members), dim, dim), dtype=np.int64)  # block bases stacked in object order
        for x in range(len(ranks)):
            P[:, ends[x]:ends[x + 1]] = [blocks[k][x][0] for k in members]
        pivots = np.array([[c for _, piv, _ in blocks[k] for c in piv] for k in members], dtype=np.int64)
        acts = np.stack([modules[k].act for k in members]).reshape(len(members), skew.rank, dim * dim)
        images = (skew.phi_elements @ acts % n).reshape(len(members), len(skew.phi_dom), dim, dim)
        rows = P[:, None] @ images % n  # rows[i, e, r]: block-basis row r times element e
        # unit pivots: B[:, pivots] is the identity, so a row v lies in the
        # span of B iff v == v[:, pivots] @ B, and v[:, pivots] are its coordinates
        coords = np.take_along_axis(rows, pivots.reshape(len(members), 1, 1, dim), axis=3)
        own = owner == skew.phi_dom[:, None]  # the columns of the block of dom e
        outside = (coords * own[:, None, :] @ P[:, None] % n != rows).any(axis=3)
        outside &= owner == skew.phi_cod[:, None]  # rows of the block of cod e
        maps_outside = outside[:, :m].any(axis=(1, 2)).tolist()
        actions_outside = outside[:, m:].any(axis=(1, 2)).tolist()
        for i, k in enumerate(members):
            if maps_outside[i]:
                errors[k] = InputError("carrier is not spanned by its blocks")
            elif actions_outside[i]:
                errors[k] = InputError("object block: rows do not span a stable submodule")
            else:
                c = coords[i]
                maps = [c[f, block[cat.cod(f)], block[cat.dom(f)]] for f in range(m)]
                actions = [c[acting[x]:acting[x + 1], block[x], block[x]] for x in range(len(ranks))]
                out[k] = ModulePresheaf(cat, R, ranks, maps, actions)
                out[k].block_bases = tuple(P[i, b] for b in block)
    if errors:
        raise errors[min(errors)]
    return out[0] if isinstance(V, SkewModule) else out


# ---------------------------------------------------------------------------
# sheaf / torsion / perpendicular predicates


@dataclass
class PredicateResult:
    value: bool
    witness: dict = field(default_factory=dict)

    def __bool__(self):
        return self.value


def _site_skew(V: SkewModule, Jp: LinearTopology) -> SkewAlgebra:
    """Jp.gr.skew; InputError unless V's algebra has its modulus, multiplication and unit."""
    skew = Jp.gr.skew
    if not _same_algebra(V.algebra, skew):
        raise InputError("module is not over the skew algebra of the topology's site")
    return skew


def _sheaf_cover(T) -> tuple:
    """The rows G of T in skew coordinates, the module C of the action on them
    (G * b_j == C.act[j] @ G), and the relations r @ G == 0 among the rows, as columns."""
    gr = T.gr
    n = gr.base.modulus
    C = _restricted_action(T.rows, gr.right_action[T.target], n, "cover is not closed under precomposition")
    return T.skew_rows, SkewModule(gr.skew, C), linalg.kernel_left(T.rows, n).T


def sheaf_check(V: SkewModule, Jp: LinearTopology) -> PredicateResult:
    """Restriction V e_x = Hom(e_x A, V) -> Hom(T, V) must be bijective for every cover T of x.

    A map T -> V is its value Phi, of shape (g, dim V), on the g rows G of
    T.  Hom(T, V) is the kernel of one matrix: the map constraints for the
    action of A on row coordinates (G * b_j == C_j @ G), and r @ Phi == 0
    for every relation r @ G == 0 among the rows.  The relations are
    empty over a field; over Z/n they make the choice of C_j irrelevant.
    The restriction of m is Phi_m[k] = m * G[k].  G, C and the relations
    do not depend on V: they are built once per cover, in Jp.gr's memo.
    InputError unless V is a module over Jp.gr.skew.
    """
    skew = _site_skew(V, Jp)
    n = skew.base.modulus
    for x in range(skew.cat.n_objects):
        Bx = linalg.howell_form(V.act_of(skew.object_idempotent(x)), n, V.dim)
        for ci, T in enumerate(Jp.covers_at(x)):
            G, C, rel = Jp.gr.memo(("sheaf", T.key()), lambda: _sheaf_cover(T))
            width = G.shape[0] * V.dim
            relations = linalg.kron(rel, np.eye(V.dim, dtype=np.int64))
            homs = linalg.kernel_left(np.concatenate([_hom_constraints(C, V), relations], axis=1), n)
            acts = V.act_of(G)  # m * G[k] == m @ acts[k]
            restricted = Bx @ acts.transpose(1, 0, 2).reshape(V.dim, width)
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


def _least_covers(Jp: LinearTopology) -> tuple:
    """The rows of the least cover of each object, stacked in object order, and the owner of each row.

    The least cover of x is its smallest cover, checked to lie inside every
    other one.  A linear topology is closed under finite intersections, so
    it has one; InputError names the first object without one.
    """
    skew = Jp.gr.skew
    blocks, owner = [], []
    for x in range(skew.cat.n_objects):
        least = Jp.least_cover(x)
        if least is None or not all(T.contains(least) for T in Jp.covers_at(x)):
            raise InputError(
                f"covers of object {skew.cat.objects[x]} have no least member: not a linear topology"
            )
        blocks.append(least.skew_rows)
        owner += [x] * blocks[-1].shape[0]
    rows = np.concatenate([np.zeros((0, skew.rank), dtype=np.int64), *blocks])
    return rows, np.array(owner, dtype=np.int64)


def torsion_check(V: SkewModule, Jp: LinearTopology) -> PredicateResult:
    """Every element of every block V e_x must be killed by some cover of x.

    Some cover of x kills m iff the least cover of x does, and its rows t
    lie in e_x A, so V e_x * t == V * t.  Hence V is torsion iff V * t == 0
    for every row t of every least cover: one act_of, with the rows kept
    in Jp.gr's memo.  Only on failure is a Howell basis of V e_x taken, to
    name the first element not killed in span_elements order.  InputError
    if an object has no least cover, or unless V is a module over Jp.gr.skew.
    """
    skew = _site_skew(V, Jp)
    n = skew.base.modulus
    rows, owner = Jp.gr.memo(("least", Jp.key()), lambda: _least_covers(Jp))
    killed = V.act_of(rows)  # m * rows[k] == m @ killed[k]
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
    return sheaf_check(psi_to_gr(M, Jp.gr.skew), Jp)


def is_torsion(M: ModulePresheaf, Jp: LinearTopology) -> PredicateResult:
    return torsion_check(psi_to_gr(M, Jp.gr.skew), Jp)


def representable_quotient(T) -> SkewModule:
    """hom(-, x) / T = e_x A / T for a linear sieve T on x (prime modulus).

    e_x A is gr.right_action[x] on the coordinates gr.columns[x], where
    T.rows lie.  InputError unless T is stable, read from gr.sieve_report(T).
    """
    gr = T.gr
    if not gr.sieve_report(T).ok:
        raise InputError("cover is not closed under precomposition: rows do not span a stable submodule")
    Q, _, _ = quotient_module(SkewModule(gr.skew, gr.right_action[T.target]), T.rows)
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
    act_free = linalg.kron(np.eye(m, dtype=np.int64), A.mul.transpose(1, 0, 2)) % n
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
    size = d * v * w
    # the constraints applied to every basis cocycle at once: X[r] is row r of the identity, as blocks C_q
    X = np.eye(size, dtype=np.int64).reshape(size, d, v, w)
    mult = (
        (A.mul.reshape(d * d, d) @ X.reshape(size, d, v * w)).reshape(size, d, d, v, w)
        - X[:, :, None] @ W.act[None, None]
        - V.act[None, :, None] @ X[:, None]
    ).reshape(size, d * d * v * w)
    unit = A.unit @ X.reshape(size, d, v * w)
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
    module first needs them, in Jp.gr's memo.  InputError unless M is a
    module presheaf or a module over Jp.gr.skew.
    """
    gr = Jp.gr
    V = psi_to_gr(M, gr.skew) if isinstance(M, ModulePresheaf) else M
    skew = _site_skew(V, Jp)
    for x in range(skew.cat.n_objects):
        for ci, T in enumerate(Jp.covers_at(x)):
            Q = gr.memo(("quotient", T.key()), lambda: representable_quotient(T))
            if Q.dim == 0:
                continue
            if hom_skew(Q, V):
                return PredicateResult(
                    False,
                    {"object": skew.cat.objects[x], "cover": ci, "reason": "hom"},
                )
            # ext1_skew(Q, V), with Q's presentation kept
            if V.dim and _ext1_from_presentation(
                Q, *gr.memo(("presentation", T.key()), lambda: _presentation(Q)), V
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


def _word_actions(stacks: np.ndarray, words, coeff: np.ndarray, n: int) -> np.ndarray:
    """The (k, rank, dim, dim) action tensors of k candidate structures.

    stacks[t] is the (k, dim, dim) stack of the candidates' matrices of
    generator t; basis element i acts as sum_w coeff[i, w] times the
    product along words[w], a tuple of generator positions.  Every word
    but the empty one extends an earlier word by one generator
    (_generating_words builds them so), which costs one matmul.
    """
    k, dim = stacks.shape[1:3]
    products = {(): np.broadcast_to(np.eye(dim, dtype=np.int64), (k, dim, dim))}
    for word in words[1:]:
        products[word] = products[word[:-1]] @ stacks[word[-1]] % n
    return np.einsum("iw,wkab->kiab", coeff, np.stack([products[w] for w in words])) % n


def enumerate_skew_module_structures(
    A: FiniteAlgebra, dim: int, budget: int = 2**22
) -> list:
    """All unital right-module structures on (Z/n)^dim, as SkewModules.

    Candidate idx gives generator gens[t] the matrix numbered
    (idx // img_count**t) % img_count; the structures come out in order of
    idx.  Each relation (the unit axiom and associativity at every basis
    pair (i, j)) reads the generators in the words that span its
    elements.  A relation that reads one generator alone cuts that
    generator's table, once, to the matrices that satisfy it.  The
    generators are then fixed one at a time, the last first, each from its
    cut table (kept in ascending order), and every other relation is
    tested at the stage that fixes the last generator it reads.  The
    generator fixed first is cut by its own stage, which tests the
    relations that read it alone on its whole table.  Every returned
    structure has passed every relation.

    Over a prime modulus the unit check rejects nothing.  _generating_words
    starts from the unit (the empty word) and adds a word only when its
    vector lies outside the span of those before it, until they span all
    rank dimensions; so its vectors are a basis, coeff is their inverse,
    and A.unit @ coeff is the indicator of the empty word, whose matrix is
    the identity.  Over Z/n with n composite the words may be dependent and
    the coefficients not unique (dep_z4 in the tests gives [1, 2, 0, 1, 2]),
    so the check, which is the unit axiom, stays.
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
    words = [tuple(gens.index(g) for g in word) for word in words]  # generators by position
    reads = [{t for w, word in enumerate(words) if coeff[i, w] % n for t in word} for i in range(A.rank)]
    # each relation, the unit axiom (None) or the pair (i, j), with the generators it reads
    relations = [(None, np.flatnonzero(A.unit % n))] + [
        ((i, j), [i, j, *np.flatnonzero(A.mul[i, j] % n)]) for i in range(A.rank) for j in range(A.rank)
    ]
    cut, staged = [[] for _ in range(G)], [[] for _ in range(G + 1)]
    for rel, elems in relations:
        r = set().union(*(reads[e] for e in elems))
        s = G - min(r, default=G)  # stage s fixes generator G - s, the last that r reads
        # a relation on one generator alone cuts its table, but the first fixed is cut by its stage
        (cut[min(r)] if len(r) == 1 and s > 1 else staged[s]).append(rel)
    # with no generators no table of img_count rows is built: candidates index an empty one by no digit
    all_mats = _all_matrices(n, dim, dim) if gens else np.zeros((0, dim, dim), dtype=np.int64)
    powers = img_count ** np.arange(G, dtype=np.int64)[:, None]
    eye = np.eye(dim, dtype=np.int64)
    chunk = 1 << 14

    def extend(found, table, rels, out=None):
        """The candidates found[a] + table[b], a outer, that pass rels; with
        out, the structures of the survivors are appended to it.  Unfixed
        generators have digit zero, the zero matrix, so elements that
        depend on them get wrong actions, which no ready relation reads."""
        kept = [found[:0]]
        count = len(found) * len(table)
        for start in range(0, count, chunk):
            f = np.arange(start, min(start + chunk, count))
            idx = found[f // len(table)] + table[f % len(table)]
            if rels or out is not None:
                act = _word_actions(all_mats[idx // powers % img_count], words, coeff, n)
                for rel in rels:
                    if rel is None:  # the unit axiom
                        lhs, rhs = np.einsum("j,kjab->kab", A.unit, act), eye
                    else:
                        i, j = rel
                        lhs, rhs = np.einsum("m,kmab->kab", A.mul[i, j], act), act[:, i] @ act[:, j]
                    ok = (lhs % n == rhs % n).all(axis=(1, 2))
                    idx, act = idx[ok], act[ok]
                if out is not None:
                    out.extend(SkewModule(A, a) for a in act)
            kept.append(idx)
        return np.concatenate(kept)

    zero = np.zeros(1, dtype=np.int64)
    tables = [extend(zero, np.arange(img_count, dtype=np.int64) * img_count**t, cut[t]) for t in range(G)]
    found, out = zero, []
    for s in range(G + 1):
        found = extend(found, tables[G - s] if s else zero, staged[s], out if s == G else None)
    return out


def _compatible_maps(cat: FiniteCategory, R: AlgebraPresheaf, actions, stacks) -> np.ndarray:
    """Which of k candidates pass functoriality and map-action compatibility.

    stacks[f] is the (k, rank cod f, rank dom f) stack of the candidates'
    matrices of morphism f, and actions[x] the (k, rank R(x), rank x,
    rank x) stack of their (valid) actions of object x.  These are the
    relations of validate_module_presheaf that read a map, tested on all
    candidates at once.
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
        # moved[k, j] acts on M(x) as the basis element j of R(y) restricted along f
        moved = np.einsum("jm,kmab->kjab", R.map(f) % n, actions[x]) % n
        lhs = actions[y] @ stacks[f][:, None] % n
        rhs = stacks[f][:, None] @ moved % n
        ok &= (lhs == rhs).all(axis=(1, 2, 3))
    return ok


def enumerate_module_presheaves(
    cat: FiniteCategory, R: AlgebraPresheaf, max_total: int, budget: int = 2**22
) -> list:
    """All valid module presheaves of total dimension <= max_total.

    For each rank tuple the candidates come in the order of
    itertools.product over the action choices, then over the matrices of
    the non-identity morphisms (numbered as in _all_matrices).  Identity
    morphisms get identity matrices, and the actions are the structures of
    enumerate_skew_module_structures, which pass every module relation, so
    the remaining relations of validate_module_presheaf are tested on
    chunks of (action choice, map) candidates at once, with each object's
    structures stacked per candidate.
    """
    n = R.base.modulus
    out = []
    obj_structures = {}
    for x in range(cat.n_objects):
        obj_structures[x] = {
            m: enumerate_skew_module_structures(R.algebra(x), m, budget) for m in range(max_total + 1)
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
        if not all(action_choices):
            continue  # some object has no structure of its rank
        # each object's structures, then each non-identity morphism's matrices
        tables = [np.stack([V.act for V in ch]) for ch in action_choices]
        tables += [_all_matrices(n, rows, cols) for rows, cols in shapes]
        for start in range(0, combos, chunk):
            c = np.arange(start, min(start + chunk, combos))
            # candidate c takes entry digits[t][c] of table t, the last
            # table's digit varying fastest as in itertools.product
            digits, stride = [], combos
            for table in tables:
                stride //= len(table)
                digits.append(c // stride % len(table))
            picked = [table[d] for table, d in zip(tables, digits)]
            acts, maps = picked[: cat.n_objects], dict(zip(nonid, picked[cat.n_objects :]))
            eyes = [np.broadcast_to(np.eye(r, dtype=np.int64), (len(c), r, r)) for r in ranks]
            stacks = [maps[f] if f in maps else eyes[cat.dom(f)] for f in range(cat.n_morphisms)]
            for i in np.flatnonzero(_compatible_maps(cat, R, acts, stacks)):
                # copies, so that no presheaf holds on to the chunk's stacks
                out.append(ModulePresheaf(cat, R, ranks, [s[i].copy() for s in stacks], [a[i].copy() for a in acts]))
    return out
