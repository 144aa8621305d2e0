"""Recollement data attached to an idempotent: corner and quotient
algebras, the six functors between their module categories, and the
verification that they form an adjoint-triple diagram on a bounded
universe.

For an idempotent e of A the three rings are eAe (the corner), A, and
A/AeA (the quotient).  All six functors are computed as concrete matrix
constructions on right modules; verification checks image/kernel
matching, full faithfulness of inflation, and all four unit/counit
triangle identities member by member.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .algebra import FiniteAlgebra
from .errors import InputError, NotPrimeError
from .modules import SkewModule, _restricted_action, hom_skew, quotient_module, regular_module
from .torsion import ModuleUniverse, ideal_generated_by, killed_by_ideal, module_times_ideal


def _coords_rows(basis: np.ndarray, vecs, n: int, what: str) -> np.ndarray:
    """Express each vector in the row span of basis; rows of the result."""
    vecs = np.asarray(vecs, dtype=np.int64).reshape(len(vecs), basis.shape[1])
    out = linalg.solve_left(basis, vecs, n)
    if out is None:
        raise InputError(f"{what}: vector leaves the expected span")
    return out


def corner_algebra(A: FiniteAlgebra, e) -> tuple:
    """The algebra eAe with unit e; returns (algebra, rows embedding it in A)."""
    n = A.base.modulus
    e = np.asarray(e, dtype=np.int64) % n
    prods = [A.multiply(A.multiply(e, A.basis_vector(j)), e) for j in range(A.rank)]
    rows = linalg.howell_form(linalg.as_matrix(prods, A.rank), n, A.rank)
    r = rows.shape[0]
    # the products of the basis rows, then e itself, which lies in eAe
    vecs = [A.multiply(a, b) for a in rows for b in rows] + [e]
    coords = _coords_rows(rows, vecs, n, "corner product")
    names = tuple(f"c{i}" for i in range(r))
    return FiniteAlgebra(A.base, coords[:-1].reshape(r, r, r), coords[-1], names), rows


def quotient_algebra(A: FiniteAlgebra, ideal_rows: np.ndarray) -> tuple:
    """The algebra A/I; returns (algebra, projection, section).

    The carrier is quotient_module(regular_module(A), I), so the modulus
    must be prime.  projection has shape (rank A, rank Q), section
    (rank Q, rank A), with section @ projection the identity.
    """
    Q, proj, sec = quotient_module(regular_module(A), ideal_rows)
    # sec[j] is the basis vector b of coset column j, so the product of
    # cosets i and j is coset i acted on by b: mul[i, j] = Q.act[b][i]
    mul = np.einsum("jb,bik->ijk", sec, Q.act)
    unit = (A.unit @ proj) % A.base.modulus
    names = tuple(f"q{i}" for i in range(Q.dim))
    return FiniteAlgebra(A.base, mul, unit, names), proj, sec


def _read_only(value):
    """value with every array in it made read-only; lists become tuples."""
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
    elif isinstance(value, SkewModule):
        value.act.flags.writeable = False
    elif isinstance(value, (tuple, list)):
        value = tuple(_read_only(v) for v in value)
    return value


def _stored(functor):
    """Compute functor(self, N) once per action tensor of N, in self._values.

    The shape is part of the key: over a rank-0 algebra every action
    tensor has empty bytes.  The stored value is shared by every caller,
    so it is returned read-only.
    """
    name = functor.__name__

    @functools.wraps(functor)
    def stored(self, N: SkewModule):
        key = (name, N.act.shape, N.act.tobytes())
        value = self._values.get(key)
        if value is None:
            value = self._values[key] = _read_only(functor(self, N))
        return value

    return stored


def _is_module_map(S: SkewModule, T: SkewModule, F: np.ndarray) -> bool:
    n = S.algebra.base.modulus
    for j in range(S.algebra.rank):
        if ((S.act[j] @ F - F @ T.act[j]) % n).any():
            return False
    return True


class Recollement:
    """Functor data for the idempotent e: eAe <- A -> A/AeA.

    Besides the six functors, each adjunction has its unit and counit in
    one method, as a matrix built from functor values the caller already
    holds: ``pullback_counit`` (i^* i_* N -> N), ``socle_unit``
    (N -> i^! i_* N), ``tensor_unit`` (N -> j^* j_! N), ``tensor_counit``
    (j_! j^* M -> M), ``hom_unit`` (M -> j_* j^* M) and ``hom_counit``
    (j^* j_* N -> N).  The other two, M -> i_* i^* M and i_* i^! M -> M,
    are the projection of ``i_upper`` and the inclusion of ``i_shriek``.

    Each of the six functors is computed once per distinct argument
    module and instance, and its value is read-only.
    """

    def __init__(self, A: FiniteAlgebra, e):
        n = A.base.modulus
        e = np.asarray(e, dtype=np.int64) % n
        if not A.is_idempotent(e):
            raise InputError("recollement needs an idempotent element")
        if not linalg.is_prime(n):
            raise NotPrimeError(n, "recollement verification")
        self.A = A
        self.e = e
        self._values = {}  # (functor, action shape, action bytes) -> value
        self.corner, self.corner_rows = corner_algebra(A, e)
        self.ideal = ideal_generated_by(A, [e])
        self.quotient, self.alg_proj, self.alg_sec = quotient_algebra(
            A, self.ideal.matrix
        )
        basis = [A.basis_vector(j) for j in range(A.rank)]
        # eA: right A-module and left eAe-module
        ea = [A.multiply(e, b) for b in basis]
        self.eA_rows = linalg.howell_form(linalg.as_matrix(ea, A.rank), n, A.rank)
        self.ea_right = _restricted_action(
            self.eA_rows, [A.right_mult_matrix(b) for b in basis], n, "eA right action"
        )
        self.ea_corner = _restricted_action(
            self.eA_rows, [A.left_mult_matrix(c) for c in self.corner_rows], n, "corner action on eA"
        )
        # Ae: left A-module and right eAe-module
        ae = [A.multiply(b, e) for b in basis]
        self.Ae_rows = linalg.howell_form(linalg.as_matrix(ae, A.rank), n, A.rank)
        self.ae_corner = _restricted_action(
            self.Ae_rows, [A.right_mult_matrix(c) for c in self.corner_rows], n, "Ae corner action"
        )
        self.ae_left = _restricted_action(
            self.Ae_rows, [A.left_mult_matrix(b) for b in basis], n, "Ae left action"
        )
        self.Ae_corner_module = SkewModule(self.corner, self.ae_corner)
        self.e_in_eA = _coords_rows(self.eA_rows, [e], n, "unit in eA")[0]
        self.e_in_Ae = _coords_rows(self.Ae_rows, [e], n, "unit in Ae")[0]

    # -- the six functors ---------------------------------------------------

    @_stored
    def j_star(self, M: SkewModule) -> tuple:
        """M -> Me as a corner module; returns (module, rows in M)."""
        n = self.A.base.modulus
        rows = linalg.howell_form(M.act_of(self.e), n, M.dim)
        act = _restricted_action(rows, [M.act_of(c) for c in self.corner_rows], n, "Me action")
        return SkewModule(self.corner, act), rows

    def j_star_map(self, M, rowsM, N, rowsN, F) -> np.ndarray:
        n = self.A.base.modulus
        return _coords_rows(rowsN, (rowsM @ F) % n, n, "restricted map")

    @_stored
    def i_star(self, N: SkewModule) -> SkewModule:
        """Inflation of a quotient-algebra module along A -> A/AeA."""
        act = np.stack(
            [N.act_of(self.alg_proj[j]) for j in range(self.A.rank)]
        ) if self.A.rank else np.zeros((0, N.dim, N.dim), dtype=np.int64)
        return SkewModule(self.A, act)

    @_stored
    def i_upper(self, M: SkewModule) -> tuple:
        """M -> M / M*AeA; returns (quotient module, projection, section)."""
        Qa, proj, sec = quotient_module(M, module_times_ideal(M, self.ideal))
        act = np.stack(
            [Qa.act_of(self.alg_sec[t]) for t in range(self.quotient.rank)]
        ) if self.quotient.rank else np.zeros((0, Qa.dim, Qa.dim), dtype=np.int64)
        return SkewModule(self.quotient, act), proj, sec

    @_stored
    def i_shriek(self, M: SkewModule) -> tuple:
        """The largest submodule killed by AeA; returns (module, rows in M)."""
        n = self.A.base.modulus
        K = killed_by_ideal(M, self.ideal)
        act = _restricted_action(K, [M.act_of(s) for s in self.alg_sec], n, "socle action")
        return SkewModule(self.quotient, act), K

    @_stored
    def j_shriek(self, N: SkewModule) -> tuple:
        """N tensor_{eAe} eA; returns (module, projection, section).

        The quotient of N tensor eA over the base ring by the relations
        (v c) tensor x - v tensor (c x), for v in N, c in eAe and x in eA.
        """
        n = self.A.base.modulus
        p = self.eA_rows.shape[0]
        m = N.dim * p
        eye_N, eye_p = np.eye(N.dim, dtype=np.int64), np.eye(p, dtype=np.int64)
        free = np.array([np.kron(eye_N, a) for a in self.ea_right], dtype=np.int64)
        rel = [np.kron(N.act[t], eye_p) - np.kron(eye_N, c) for t, c in enumerate(self.ea_corner)]
        rel = np.array(rel, dtype=np.int64).reshape(len(rel) * m, m) % n
        return quotient_module(SkewModule(self.A, free.reshape(self.A.rank, m, m)), rel)

    def j_shriek_map(self, N, dataN, N2, dataN2, G) -> np.ndarray:
        n = self.A.base.modulus
        p = self.eA_rows.shape[0]
        _, projN, secN = dataN
        _, projN2, _ = dataN2
        return (secN @ np.kron(G, np.eye(p, dtype=np.int64)) @ projN2) % n

    def _hom_rows(self, basis, dim: int) -> np.ndarray:
        n = self.A.base.modulus
        return linalg.as_matrix([B.reshape(-1) % n for B in basis], self.Ae_rows.shape[0] * dim)

    @_stored
    def j_lower(self, N: SkewModule) -> tuple:
        """Corner-module maps Ae -> N as a right A-module.

        Returns (module, hom basis matrices); the A-action precomposes
        with the left multiplication of A on Ae.
        """
        n = self.A.base.modulus
        basis = hom_skew(self.Ae_corner_module, N)
        flat = self._hom_rows(basis, N.dim)
        # B -> L @ B on the flattened hom space is v -> v @ kron(L^T, 1)
        eye_N = np.eye(N.dim, dtype=np.int64)
        act = _restricted_action(flat, [np.kron(L.T, eye_N) for L in self.ae_left], n, "hom module action")
        return SkewModule(self.A, act), basis

    def j_lower_map(self, N, basisN, N2, basisN2, G) -> np.ndarray:
        n = self.A.base.modulus
        imgs = [((B @ G) % n).reshape(-1) for B in basisN]
        return _coords_rows(self._hom_rows(basisN2, N2.dim), imgs, n, "hom functor map")

    # -- units and counits ----------------------------------------------------

    def pullback_counit(self, proj: np.ndarray):
        """Counit i^* i_* N -> N, or None when it does not exist.

        proj is the projection of i_upper(i_* N); the counit is its inverse.
        """
        return linalg.matrix_inverse(proj, self.A.base.modulus)

    def socle_unit(self, K: np.ndarray) -> np.ndarray:
        """Unit N -> i^! i_* N, the identity of N written in the rows K.

        K are the rows of i_shriek(i_* N) in i_* N.
        """
        eye = np.eye(K.shape[1], dtype=np.int64)
        return _coords_rows(K, eye, self.A.base.modulus, "socle unit")

    def tensor_unit(self, N: SkewModule, shriek: tuple, rows: np.ndarray) -> np.ndarray:
        """Unit N -> j^* j_! N, n |-> class(n tensor e).

        shriek is j_shriek(N) and rows are the rows of j^* j_! N in j_! N.
        """
        n = self.A.base.modulus
        _, proj, _ = shriek
        emb = np.kron(np.eye(N.dim, dtype=np.int64), self.e_in_eA)
        return _coords_rows(rows, (emb @ proj) % n, n, "tensor unit")

    def tensor_counit(self, M: SkewModule, rows: np.ndarray, shriek: tuple) -> np.ndarray:
        """Counit j_! j^* M -> M, m tensor x |-> m x.

        rows are the rows of j^* M in M and shriek is j_shriek(j^* M).
        """
        n = self.A.base.modulus
        _, _, sec = shriek
        acts = [M.act_of(x) for x in self.eA_rows]
        free = np.array([(v @ X) % n for v in rows for X in acts], dtype=np.int64)
        return (sec @ free.reshape(len(rows) * len(acts), M.dim)) % n

    def hom_unit(self, M: SkewModule, rows: np.ndarray, basis: list) -> np.ndarray:
        """Unit M -> j_* j^* M, m |-> (v in Ae |-> m v).

        rows are the rows of j^* M in M and basis is the hom basis of
        j_lower(j^* M).
        """
        if not basis:
            return np.zeros((M.dim, 0), dtype=np.int64)
        n = self.A.base.modulus
        k = rows.shape[0]
        acts = np.concatenate([M.act_of(v) for v in self.Ae_rows])
        imgs = _coords_rows(rows, acts, n, "unit image").reshape(-1, M.dim, k).transpose(1, 0, 2)
        return _coords_rows(self._hom_rows(basis, k), imgs.reshape(M.dim, -1), n, "hom unit")

    def hom_counit(self, N: SkewModule, rows: np.ndarray, basis: list) -> np.ndarray:
        """Counit j^* j_* N -> N, psi |-> psi(e).

        rows are the rows of j^* j_* N in j_* N and basis is the hom
        basis of j_lower(N).
        """
        n = self.A.base.modulus
        B = np.array(basis, dtype=np.int64).reshape(len(basis), self.Ae_rows.shape[0], N.dim)
        return (rows @ (np.einsum("k,hkl->hl", self.e_in_Ae, B) % n)) % n


CHECKS = (
    "image_matches_kernel",
    "inflation_fully_faithful",
    "pullback_inflation_triangles",
    "inflation_socle_triangles",
    "extension_restriction_triangles",
    "restriction_coextension_triangles",
)


@dataclass
class RecollementReport:
    algebra: FiniteAlgebra
    idempotent: tuple
    corner_rank: int
    quotient_rank: int
    universe_sizes: dict
    checks: dict
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(self.checks.values())

    def __bool__(self):
        return self.ok

    def summary(self) -> str:
        body = ", ".join(f"{k}={'pass' if v else 'FAIL'}" for k, v in self.checks.items())
        return ("pass " if self.ok else "FAIL ") + body


def verify_recollement(
    A: FiniteAlgebra, e, dim_bound: int = 3, budget: int = 2**22
) -> RecollementReport:
    """Build the six functors for e and verify the recollement axioms.

    Checks, on every member of the bounded module universes: the image of
    inflation equals the kernel of the corner restriction, inflation is
    fully faithful, and the four adjunctions (extension -| restriction -|
    coextension and pullback -| inflation -| socle) satisfy both triangle
    identities with genuinely module-linear units and counits.
    """
    return verify_recollements(A, [e], dim_bound, budget)[0]


def verify_recollements(
    A: FiniteAlgebra, idempotents, dim_bound: int = 3, budget: int = 2**22
) -> list:
    """verify_recollement for each idempotent in turn; one report per e.

    Every distinct algebra among A and the corners and quotients gets one
    module universe, shared by all the idempotents: A/0 and the corner
    1A1 have A's structure constants, and so can a corner and a quotient.
    """
    universes = {}

    def universe(B: FiniteAlgebra) -> ModuleUniverse:
        key = (B.base.modulus, B.mul.tobytes(), B.unit.tobytes())
        if key not in universes:
            universes[key] = ModuleUniverse(B, dim_bound, budget)
        return universes[key]

    return [_verify(Recollement(A, e), universe) for e in idempotents]


def _verify(rec: Recollement, universe) -> RecollementReport:
    """The checks of verify_recollement for rec; universe(B) gives B's universe."""
    A = rec.A
    n = A.base.modulus
    UA = universe(A)
    UX = universe(rec.corner)
    UY = universe(rec.quotient)
    inflated = [rec.i_star(N) for N in UY.members]
    restricted = [rec.j_star(M) for M in UA.members]
    failures = []

    def is_identity(F, k):
        return not ((F % n) != np.eye(k, dtype=np.int64)).any()

    def run(name, triangle, members, *extra):
        # triangle returns the label of the first identity that fails, if any
        for args in zip(members, *extra):
            label = triangle(*args)
            if label:
                failures.append((name, (label, args[0].key())))

    # image of inflation = kernel of corner restriction, as universe classes
    ker = {i for i, M in enumerate(UA.members) if not (M.act_of(rec.e) % n).any()}
    img = {UA.index_of(iN) for iN in inflated}
    if img != ker:
        failures.append(("image_matches_kernel", (sorted(img), sorted(ker))))

    # full faithfulness of inflation
    for a in range(len(UY)):
        for b in range(len(UY)):
            lhs = UY.hom_dim(a, b)
            rhs = len(hom_skew(inflated[a], inflated[b]))
            if lhs != rhs:
                failures.append(("inflation_fully_faithful", (a, b, lhs, rhs)))

    # (pullback -| inflation): the unit M -> i_* i^* M is the projection
    def pullback_at_middle(M):
        QM, projM, secM = rec.i_upper(M)
        iQM = rec.i_star(QM)
        if not _is_module_map(M, iQM, projM):
            return "unit not a module map"
        # i^*(unit) then the counit at i^* M must be the identity of i^* M
        _, projQ, _ = rec.i_upper(iQM)
        counit = rec.pullback_counit(projQ)
        if counit is None or not is_identity((secM @ projM @ projQ) % n @ counit, QM.dim):
            return "first identity"

    def pullback_at_quotient(N, iN):
        QiN, projN, _ = rec.i_upper(iN)
        counit = rec.pullback_counit(projN)
        if counit is None or not _is_module_map(QiN, N, counit) or not is_identity(projN @ counit, N.dim):
            return "second identity"

    run("pullback_inflation_triangles", pullback_at_middle, UA.members)
    run("pullback_inflation_triangles", pullback_at_quotient, UY.members, inflated)

    # (inflation -| socle): the counit i_* i^! M -> M is the inclusion
    def socle_at_middle(M):
        SM, K = rec.i_shriek(M)
        iSM = rec.i_star(SM)
        if not _is_module_map(iSM, M, K):
            return "counit not a module map"
        _, K0 = rec.i_shriek(iSM)
        induced = _coords_rows(K, (K0 @ K) % n, n, "socle map")
        if not is_identity(rec.socle_unit(K0) @ induced, SM.dim):
            return "second identity"

    def socle_at_quotient(N, iN):
        SiN, K = rec.i_shriek(iN)
        unit = rec.socle_unit(K)
        if not _is_module_map(N, SiN, unit) or not is_identity(unit @ K, N.dim):
            return "first identity"

    run("inflation_socle_triangles", socle_at_middle, UA.members)
    run("inflation_socle_triangles", socle_at_quotient, UY.members, inflated)

    # (extension -| restriction): j_! -| j^*
    def tensor_at_corner(N):
        shriek = rec.j_shriek(N)
        JN = shriek[0]
        JNe, rowsJNe = rec.j_star(JN)
        unit = rec.tensor_unit(N, shriek, rowsJNe)
        if not _is_module_map(N, JNe, unit):
            return "unit not a module map"
        # j_!(unit) then the counit at j_! N must be the identity of j_! N
        shriekJ = rec.j_shriek(JNe)
        junit = rec.j_shriek_map(N, shriek, JNe, shriekJ, unit)
        counit = rec.tensor_counit(JN, rowsJNe, shriekJ)
        if not _is_module_map(shriekJ[0], JN, counit) or not is_identity(junit @ counit, JN.dim):
            return "first identity"

    def tensor_at_middle(M, restriction):
        Me, rowsMe = restriction
        shriek = rec.j_shriek(Me)
        counit = rec.tensor_counit(M, rowsMe, shriek)
        if not _is_module_map(shriek[0], M, counit):
            return "counit not a module map"
        # the unit at j^* M then j^*(counit) must be the identity of j^* M
        _, rowsJMee = rec.j_star(shriek[0])
        unit = rec.tensor_unit(Me, shriek, rowsJMee)
        jcounit = rec.j_star_map(shriek[0], rowsJMee, M, rowsMe, counit)
        if not is_identity(unit @ jcounit, Me.dim):
            return "second identity"

    run("extension_restriction_triangles", tensor_at_corner, UX.members)
    run("extension_restriction_triangles", tensor_at_middle, UA.members, restricted)

    # (restriction -| coextension): j^* -| j_*
    def hom_at_middle(M, restriction):
        Me, rowsMe = restriction
        HN, basis = rec.j_lower(Me)
        unit = rec.hom_unit(M, rowsMe, basis)
        if not _is_module_map(M, HN, unit):
            return "unit not a module map"
        # j^*(unit) then the counit at j^* M must be the identity of j^* M
        HNe, rowsHNe = rec.j_star(HN)
        counit = rec.hom_counit(Me, rowsHNe, basis)
        junit = rec.j_star_map(M, rowsMe, HN, rowsHNe, unit)
        if not _is_module_map(HNe, Me, counit) or not is_identity(junit @ counit, Me.dim):
            return "first identity"

    def hom_at_corner(N):
        HN, basis = rec.j_lower(N)
        HNe, rowsHNe = rec.j_star(HN)
        counit = rec.hom_counit(N, rowsHNe, basis)
        if not _is_module_map(HNe, N, counit):
            return "counit not a module map"
        # the unit at j_* N then j_*(counit) must be the identity of j_* N
        _, basis2 = rec.j_lower(HNe)
        unit = rec.hom_unit(HN, rowsHNe, basis2)
        jcounit = rec.j_lower_map(HNe, basis2, N, basis, counit)
        if not is_identity(unit @ jcounit, HN.dim):
            return "second identity"

    run("restriction_coextension_triangles", hom_at_middle, UA.members, restricted)
    run("restriction_coextension_triangles", hom_at_corner, UX.members)

    sizes = {"middle": len(UA), "corner": len(UX), "quotient": len(UY)}
    checks = {name: all(f != name for f, _ in failures) for name in CHECKS}
    return RecollementReport(
        A, tuple(int(v) for v in rec.e), rec.corner.rank, rec.quotient.rank, sizes, checks, failures
    )
