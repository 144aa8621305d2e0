"""Recollement data attached to an idempotent: corner and quotient
algebras, the six functors between their module categories, and the
verification that they form an adjoint-triple diagram on a bounded
universe.

For an idempotent e of A the three rings are eAe (the corner), A, and
A/AeA (the quotient).  All six functors are computed as concrete matrix
constructions on right modules, each with its action on module maps,
and each of the four adjunctions has a unit and a counit that take only
the module.  Verification checks image/kernel matching, full
faithfulness of inflation, and both triangle identities of every
adjunction in ADJUNCTIONS, member by member.
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
    return not ((S.act @ F - F @ T.act) % S.algebra.base.modulus).any()


def _module(value) -> SkewModule:
    """The module of a functor value: i_star returns it alone, the others first in a tuple."""
    return value if isinstance(value, SkewModule) else value[0]


class Recollement:
    """Functor data for the idempotent e: eAe <- A -> A/AeA.

    Each functor F has its action on maps as ``F_map(N, N2, G)``, sending
    a module map G: N -> N2 to F(G).  Each adjunction L -| R has a unit
    N -> R L N and a counit L R M -> M, each a matrix computed from the
    module alone: ``pullback_*`` (i^* -| i_*), ``socle_*`` (i_* -| i^!),
    ``tensor_*`` (j_! -| j^*) and ``hom_*`` (j^* -| j_*).

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

    # -- the six functors and their actions on maps --------------------------

    @_stored
    def j_star(self, M: SkewModule) -> tuple:
        """M -> Me as a corner module; returns (module, rows in M)."""
        n = self.A.base.modulus
        rows = linalg.howell_form(M.act_of(self.e), n, M.dim)
        act = _restricted_action(rows, M.act_of(self.corner_rows), n, "Me action")
        return SkewModule(self.corner, act), rows

    def j_star_map(self, M, M2, F) -> np.ndarray:
        n = self.A.base.modulus
        return _coords_rows(self.j_star(M2)[1], (self.j_star(M)[1] @ F) % n, n, "restricted map")

    @_stored
    def i_star(self, N: SkewModule) -> SkewModule:
        """Inflation of a quotient-algebra module along A -> A/AeA."""
        return SkewModule(self.A, N.act_of(self.alg_proj))

    def i_star_map(self, N, N2, F) -> np.ndarray:
        return F

    @_stored
    def i_upper(self, M: SkewModule) -> tuple:
        """M -> M / M*AeA; returns (quotient module, projection, section)."""
        Qa, proj, sec = quotient_module(M, module_times_ideal(M, self.ideal))
        return SkewModule(self.quotient, Qa.act_of(self.alg_sec)), proj, sec

    def i_upper_map(self, M, M2, F) -> np.ndarray:
        return (self.i_upper(M)[2] @ F @ self.i_upper(M2)[1]) % self.A.base.modulus

    @_stored
    def i_shriek(self, M: SkewModule) -> tuple:
        """The largest submodule killed by AeA; returns (module, rows in M)."""
        n = self.A.base.modulus
        K = killed_by_ideal(M, self.ideal)
        act = _restricted_action(K, M.act_of(self.alg_sec), n, "socle action")
        return SkewModule(self.quotient, act), K

    def i_shriek_map(self, M, M2, F) -> np.ndarray:
        n = self.A.base.modulus
        return _coords_rows(self.i_shriek(M2)[1], (self.i_shriek(M)[1] @ F) % n, n, "socle map")

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
        free = linalg.kron(eye_N, self.ea_right)
        rel = linalg.kron(N.act, eye_p) - linalg.kron(eye_N, self.ea_corner)
        rel = rel.reshape(self.corner.rank * m, m) % n
        return quotient_module(SkewModule(self.A, free), rel)

    def j_shriek_map(self, N, N2, G) -> np.ndarray:
        p = self.eA_rows.shape[0]
        free = linalg.kron(G, np.eye(p, dtype=np.int64))
        return (self.j_shriek(N)[2] @ free @ self.j_shriek(N2)[1]) % self.A.base.modulus

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
        act = _restricted_action(flat, linalg.kron(self.ae_left.transpose(0, 2, 1), eye_N), n, "hom module action")
        return SkewModule(self.A, act), basis

    def j_lower_map(self, N, N2, G) -> np.ndarray:
        n = self.A.base.modulus
        imgs = [((B @ G) % n).reshape(-1) for B in self.j_lower(N)[1]]
        return _coords_rows(self._hom_rows(self.j_lower(N2)[1], N2.dim), imgs, n, "hom functor map")

    # -- units and counits ----------------------------------------------------

    def pullback_unit(self, M: SkewModule) -> np.ndarray:
        """Unit M -> i_* i^* M, the projection onto M / M*AeA."""
        return self.i_upper(M)[1]

    def pullback_counit(self, N: SkewModule) -> np.ndarray:
        """Counit i^* i_* N -> N, the section of i^*(i_* N); AeA kills i_* N,
        so the projection is square and the section is its inverse."""
        return self.i_upper(self.i_star(N))[2]

    def socle_unit(self, N: SkewModule) -> np.ndarray:
        """Unit N -> i^! i_* N, the identity of i_* N written in the rows of i^!(i_* N)."""
        K = self.i_shriek(self.i_star(N))[1]
        return _coords_rows(K, np.eye(N.dim, dtype=np.int64), self.A.base.modulus, "socle unit")

    def socle_counit(self, M: SkewModule) -> np.ndarray:
        """Counit i_* i^! M -> M, the inclusion of the rows of i^! M."""
        return self.i_shriek(M)[1]

    def tensor_unit(self, N: SkewModule) -> np.ndarray:
        """Unit N -> j^* j_! N, n |-> class(n tensor e)."""
        n = self.A.base.modulus
        JN, proj, _ = self.j_shriek(N)
        emb = linalg.kron(np.eye(N.dim, dtype=np.int64), self.e_in_eA[None, :])
        return _coords_rows(self.j_star(JN)[1], (emb @ proj) % n, n, "tensor unit")

    def tensor_counit(self, M: SkewModule) -> np.ndarray:
        """Counit j_! j^* M -> M, m tensor x |-> m x."""
        n = self.A.base.modulus
        Me, rows = self.j_star(M)
        _, _, sec = self.j_shriek(Me)
        p = self.eA_rows.shape[0]
        # row i * p + j of free is rows[i] @ act_of(eA_rows[j])
        acts = M.act_of(self.eA_rows).transpose(1, 0, 2).reshape(M.dim, p * M.dim)
        free = ((rows @ acts) % n).reshape(rows.shape[0] * p, M.dim)
        return (sec @ free) % n

    def hom_unit(self, M: SkewModule) -> np.ndarray:
        """Unit M -> j_* j^* M, m |-> (v in Ae |-> m v)."""
        Me, rows = self.j_star(M)
        _, basis = self.j_lower(Me)
        if not basis:
            return np.zeros((M.dim, 0), dtype=np.int64)
        n = self.A.base.modulus
        k = rows.shape[0]
        acts = M.act_of(self.Ae_rows).reshape(self.Ae_rows.shape[0] * M.dim, M.dim)
        imgs = _coords_rows(rows, acts, n, "unit image").reshape(-1, M.dim, k).transpose(1, 0, 2)
        return _coords_rows(self._hom_rows(basis, k), imgs.reshape(M.dim, -1), n, "hom unit")

    def hom_counit(self, N: SkewModule) -> np.ndarray:
        """Counit j^* j_* N -> N, psi |-> psi(e)."""
        n = self.A.base.modulus
        HN, basis = self.j_lower(N)
        _, rows = self.j_star(HN)
        B = np.array(basis, dtype=np.int64).reshape(len(basis), self.Ae_rows.shape[0], N.dim)
        return (rows @ ((self.e_in_Ae @ B) % n)) % n


CHECKS = (
    "image_matches_kernel",
    "inflation_fully_faithful",
    "pullback_inflation_triangles",
    "inflation_socle_triangles",
    "extension_restriction_triangles",
    "restriction_coextension_triangles",
)

# One row per adjunction L -| R: its check, the universes of the domains
# of L and R, the functors L and R, and the prefix of its unit and
# counit.  Every name is a Recollement method looked up on the instance,
# and each functor F has its action on maps as F_map.
ADJUNCTIONS = (
    ("pullback_inflation_triangles", "middle", "quotient", "i_upper", "i_star", "pullback"),
    ("inflation_socle_triangles", "quotient", "middle", "i_star", "i_shriek", "socle"),
    ("extension_restriction_triangles", "corner", "middle", "j_shriek", "j_star", "tensor"),
    ("restriction_coextension_triangles", "middle", "corner", "j_star", "j_lower", "hom"),
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

    if (d := universe(A).simple_bound) > dim_bound:  # a universe without every simple verifies nothing
        raise InputError(f"dimension bound {dim_bound} leaves out a simple module of dimension {d}; "
                         f"recollement needs a bound of at least {d}")
    return [_verify(Recollement(A, e), universe) for e in idempotents]


def _verify(rec: Recollement, universe) -> RecollementReport:
    """The checks of verify_recollement for rec; universe(B) gives B's universe."""
    A = rec.A
    n = A.base.modulus
    UA, UX, UY = universe(A), universe(rec.corner), universe(rec.quotient)
    universes = {"middle": UA, "corner": UX, "quotient": UY}
    failures = []

    # image of inflation = kernel of corner restriction, as universe classes
    ker = {i for i, M in enumerate(UA.members) if not (M.act_of(rec.e) % n).any()}
    classes = [UA.index_of(rec.i_star(N)) for N in UY.members]
    if set(classes) != ker:
        failures.append(("image_matches_kernel", (sorted(set(classes)), sorted(ker))))

    # full faithfulness of inflation; Hom dimensions are invariant under
    # isomorphism, so the right side is read from UA's table
    for a in range(len(UY)):
        for b in range(len(UY)):
            lhs = UY.hom_dim(a, b)
            rhs = UA.hom_dim(classes[a], classes[b])
            if lhs != rhs:
                failures.append(("inflation_fully_faithful", (a, b, lhs, rhs)))

    def triangle(check, X, label, unit, counit, composite):
        # unit and counit are (source, target, matrix); a functor acts on
        # module maps only, so composite() runs once both are module maps
        if not _is_module_map(*unit):
            label = "unit not a module map"
        elif not _is_module_map(*counit):
            label = "counit not a module map"
        else:
            F = composite() % n
            if np.array_equal(F, np.eye(len(F), dtype=np.int64)):
                return
        failures.append((check, (label, X.key())))

    for check, left, right, l_name, r_name, prefix in ADJUNCTIONS:
        names = (l_name, l_name + "_map", r_name, r_name + "_map", prefix + "_unit", prefix + "_counit")
        L, L_map, R, R_map, unit, counit = (getattr(rec, name) for name in names)
        for N in universes[left].members:  # L(unit at N), then the counit at L N
            LN = _module(L(N))
            RLN = _module(R(LN))
            eta, eps = unit(N), counit(LN)
            triangle(check, N, "first identity", (N, RLN, eta), (_module(L(RLN)), LN, eps),
                     lambda: L_map(N, RLN, eta) @ eps)
        for M in universes[right].members:  # the unit at R M, then R(counit at M)
            RM = _module(R(M))
            LRM = _module(L(RM))
            eta, eps = unit(RM), counit(M)
            triangle(check, M, "second identity", (RM, _module(R(LRM)), eta), (LRM, M, eps),
                     lambda: eta @ R_map(LRM, M, eps))

    sizes = {"middle": len(UA), "corner": len(UX), "quotient": len(UY)}
    checks = {name: all(f != name for f, _ in failures) for name in CHECKS}
    return RecollementReport(
        A, tuple(int(v) for v in rec.e), rec.corner.rank, rec.quotient.rank, sizes, checks, failures
    )
