"""Finite unital algebras over Z/n and algebra-valued presheaves.

An algebra is a free Z/n-module with structure constants
``mul[i, j, m]`` = coefficient of basis m in (basis i * basis j).
A presheaf R on a finite category C assigns an algebra to every object
and to every morphism f: x -> y a unital algebra map R(f): R(y) -> R(x),
stored as a matrix applied on the right of row vectors.
"""
from __future__ import annotations

import numpy as np

from . import linalg
from .errors import BudgetExceededError, InputError
from .fincat import FiniteCategory, FullSubcategory
from .report import ValidationReport


# All arithmetic is int64, reduced mod n after each contraction, so every
# entry lies below n and n - 1 <= 2**16 keeps each two-factor product below
# 2**32 (the sections in chained products select rows).  The widest
# contractions are the three-factor ones (FiniteAlgebra.multiply, the
# algebra-map check, composition in Gr): sums of rank**2 products, each at
# most (n-1)**3, so FiniteAlgebra refuses rank**2 * (n-1)**3 >= 2**63.  At
# n = MAX_MODULUS that admits rank <= 181; over F2 it refuses nothing.
MAX_MODULUS = 2**16 + 1


class BaseRing:
    """The coefficient ring Z/n, 2 <= n <= MAX_MODULUS."""

    def __init__(self, modulus: int):
        if modulus < 2:
            raise InputError("modulus must be at least 2")
        if modulus > MAX_MODULUS:
            raise InputError(
                f"modulus {modulus} is too large: int64 arithmetic is exact only up to {MAX_MODULUS}"
            )
        self.modulus = int(modulus)

    def __eq__(self, other):
        return isinstance(other, BaseRing) and other.modulus == self.modulus

    def __hash__(self):
        return hash(("BaseRing", self.modulus))

    def __repr__(self):
        return f"BaseRing(Z/{self.modulus})"


def check_exact_rank(rank: int, modulus: int) -> None:
    """Refuse a rank whose three-factor contractions could overflow int64."""
    if rank**2 * (modulus - 1) ** 3 >= 2**63:
        raise InputError(
            f"rank {rank} is too large for modulus {modulus}: "
            "int64 arithmetic is exact only while rank**2 * (modulus - 1)**3 < 2**63"
        )


class FiniteAlgebra:
    def __init__(self, base: BaseRing, mul, unit, basis_names=None):
        self.base = base
        mul = np.asarray(mul, dtype=np.int64)
        if mul.ndim != 3 or len({*mul.shape}) > 1:
            raise InputError("structure constants must be a cube")
        self.rank = mul.shape[0]
        check_exact_rank(self.rank, base.modulus)
        self.mul = mul % base.modulus
        unit = np.asarray(unit, dtype=np.int64)
        if unit.size != self.rank:
            raise InputError("unit must have one coordinate per basis element")
        self.unit = unit.reshape(self.rank) % base.modulus
        if basis_names is None:
            basis_names = tuple(f"b{i}" for i in range(self.rank))
        self.basis_names = tuple(basis_names)
        if len(self.basis_names) != self.rank:
            raise InputError("basis name count mismatch")

    def multiply(self, x, y) -> np.ndarray:
        n = self.base.modulus
        return np.einsum("i,j,ijm->m", x, y, self.mul) % n

    def right_mult_matrix(self, y) -> np.ndarray:
        """Matrix M with x @ M == x * y."""
        return np.einsum("j,ijm->im", np.asarray(y, dtype=np.int64), self.mul) % self.base.modulus

    def left_mult_matrix(self, x) -> np.ndarray:
        """Matrix M with y @ M == x * y."""
        return np.einsum("i,ijm->jm", np.asarray(x, dtype=np.int64), self.mul) % self.base.modulus

    def elements(self, budget: int | None = None):
        n = self.base.modulus
        if budget is not None and n**self.rank > budget:
            raise BudgetExceededError("algebra element enumeration", n**self.rank, budget)
        return linalg.all_vectors(self.rank, n)

    def is_idempotent(self, v) -> bool:
        v = np.asarray(v, dtype=np.int64) % self.base.modulus
        return (self.multiply(v, v) == v).all()

    def basis_vector(self, i: int) -> np.ndarray:
        e = np.zeros(self.rank, dtype=np.int64)
        e[i] = 1
        return e

    def __repr__(self):
        return f"FiniteAlgebra(rank {self.rank} over Z/{self.base.modulus})"


def validate_algebra(alg: FiniteAlgebra) -> ValidationReport:
    rep = ValidationReport(f"algebra of rank {alg.rank} over Z/{alg.base.modulus}")
    n = alg.base.modulus
    c = alg.mul
    left = np.einsum("ijm,mkl->ijkl", c, c) % n
    right = np.einsum("jkm,iml->ijkl", c, c) % n
    rep.checked += alg.rank**3
    bad = np.argwhere((left != right).any(axis=3))
    for i, j, k in bad[:8]:
        rep.add(
            "associativity",
            (alg.basis_names[i], alg.basis_names[j], alg.basis_names[k]),
        )
    rep.checked += 2 * alg.rank
    lu = np.einsum("i,ijm->jm", alg.unit, c) % n
    ru = np.einsum("j,ijm->im", alg.unit, c) % n
    eye = np.eye(alg.rank, dtype=np.int64)
    if (lu != eye).any():
        rep.add("left-unit")
    if (ru != eye).any():
        rep.add("right-unit")
    return rep


class AlgebraPresheaf:
    """Contravariant assignment of algebras and restriction maps on C."""

    def __init__(self, cat: FiniteCategory, algebras, maps):
        self.cat = cat
        self.algebras = tuple(algebras)
        self.maps = tuple(np.asarray(M, dtype=np.int64) for M in maps)
        if len(self.algebras) != cat.n_objects:
            raise InputError("need one algebra per object")
        if len(self.maps) != cat.n_morphisms:
            raise InputError("need one matrix per morphism")
        for f in range(cat.n_morphisms):
            want = (self.algebras[cat.cod(f)].rank, self.algebras[cat.dom(f)].rank)
            if self.maps[f].shape != want:
                raise InputError(
                    f"map of {cat.morphisms[f].name!r} has shape "
                    f"{self.maps[f].shape}, expected {want}"
                )

    @property
    def base(self) -> BaseRing:
        if self.algebras:
            return self.algebras[0].base
        return BaseRing(2)

    def algebra(self, x: int) -> FiniteAlgebra:
        return self.algebras[x]

    def map(self, f: int) -> np.ndarray:
        return self.maps[f]


def validate_presheaf(R: AlgebraPresheaf) -> ValidationReport:
    cat = R.cat
    rep = ValidationReport("algebra presheaf")
    for x in range(cat.n_objects):
        sub = validate_algebra(R.algebra(x))
        rep.checked += sub.checked
        for v in sub.violations:
            rep.add(f"algebra[{cat.objects[x]}]:{v.rule}", v.witness)
    if cat.n_objects and len({a.base.modulus for a in R.algebras}) > 1:
        rep.add("single-base-ring")
        return rep
    n = R.base.modulus
    for x in range(cat.n_objects):
        e = cat.identity[x]
        rep.checked += 1
        if (R.map(e) % n != np.eye(R.algebra(x).rank, dtype=np.int64)).any():
            rep.add("identity-maps-to-identity", (cat.objects[x],))
    for g in range(cat.n_morphisms):
        for f in range(cat.n_morphisms):
            gf = int(cat.compose_table[g, f])
            if gf < 0:
                continue
            rep.checked += 1
            if ((R.map(g) @ R.map(f)) % n != R.map(gf) % n).any():
                rep.add(
                    "contravariant-functoriality",
                    (cat.morphisms[g].name, cat.morphisms[f].name),
                )
    for f in range(cat.n_morphisms):
        src = R.algebra(cat.cod(f))
        dst = R.algebra(cat.dom(f))
        M = R.map(f) % n
        rep.checked += 1
        if ((src.unit @ M) % n != dst.unit).any():
            rep.add("unital", (cat.morphisms[f].name,))
        lhs = np.einsum("ijm,mk->ijk", src.mul, M) % n
        rhs = np.einsum("ia,jb,abk->ijk", M, M, dst.mul) % n
        rep.checked += src.rank**2
        for i, j in np.argwhere((lhs != rhs).any(axis=2))[:8]:
            rep.add(
                "multiplicative",
                (cat.morphisms[f].name, src.basis_names[i], src.basis_names[j]),
            )
    return rep


def restrict_presheaf(R: AlgebraPresheaf, D: FullSubcategory) -> AlgebraPresheaf:
    """Restriction of R along a full subcategory of its site."""
    if D.parent is not R.cat:
        raise InputError("subcategory does not belong to the presheaf's category")
    sub = D.as_category()
    algebras = [R.algebras[o] for o in D.object_subset]
    maps = [R.maps[m] for m in D.morphism_subset]
    return AlgebraPresheaf(sub, algebras, maps)


def constant_presheaf(cat: FiniteCategory, alg: FiniteAlgebra) -> AlgebraPresheaf:
    eye = np.eye(alg.rank, dtype=np.int64)
    return AlgebraPresheaf(cat, [alg] * cat.n_objects, [eye] * cat.n_morphisms)
