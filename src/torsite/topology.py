"""Sieves and Grothendieck topologies on a finite category.

A sieve on x is a right-closed set of morphisms into x.  Topologies are
stored per object as tuples of sieves in canonical (bitmask) order, so
two topologies are equal iff their keys are equal.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import BudgetExceededError, InputError
from .fincat import FiniteCategory, FullSubcategory, full_subcategory
from .report import ValidationReport

DEFAULT_TOPOLOGY_BUDGET = 2**20


@dataclass(frozen=True)
class Sieve:
    target: int
    members: frozenset

    @property
    def mask(self) -> int:
        return sum(1 << m for m in self.members)

    def __contains__(self, f: int) -> bool:
        return f in self.members


def is_sieve(cat: FiniteCategory, S: Sieve) -> bool:
    for g in S.members:
        if cat.cod(g) != S.target:
            return False
        for f in cat.morphisms_into(cat.dom(g)):
            if int(cat.compose_table[g, f]) not in S.members:
                return False
    return True


def maximal_sieve(cat: FiniteCategory, x: int) -> Sieve:
    return Sieve(x, frozenset(cat.morphisms_into(x)))


def sieves_on(cat: FiniteCategory, x: int, budget: int | None = 2**22) -> list:
    """All sieves on x, sorted by bitmask."""
    into = cat.morphisms_into(x)
    if budget is not None and 2 ** len(into) > budget:
        raise BudgetExceededError("sieve enumeration", 2 ** len(into), budget)
    out = []
    for r in range(len(into) + 1):
        for combo in itertools.combinations(into, r):
            S = Sieve(x, frozenset(combo))
            if is_sieve(cat, S):
                out.append(S)
    return sorted(out, key=lambda s: s.mask)


def pullback_sieve(cat: FiniteCategory, S: Sieve, f: int) -> Sieve:
    """f^*(S) = {g : S contains f after g}, a sieve on dom f."""
    if cat.cod(f) != S.target:
        raise InputError("pullback morphism must end at the sieve's target")
    y = cat.dom(f)
    members = frozenset(
        g for g in cat.morphisms_into(y) if int(cat.compose_table[f, g]) in S.members
    )
    return Sieve(y, members)


class GrothendieckTopology:
    def __init__(self, cat: FiniteCategory, covers):
        self.cat = cat
        self.covers = tuple(
            tuple(sorted(cs, key=lambda s: s.mask)) for cs in covers
        )
        if len(self.covers) != cat.n_objects:
            raise InputError("need one cover collection per object")
        self._sets = tuple(frozenset(s.mask for s in cs) for cs in self.covers)

    def covers_at(self, x: int):
        return self.covers[x]

    def contains(self, S: Sieve) -> bool:
        return S.mask in self._sets[S.target]

    def key(self):
        return self._sets

    def __eq__(self, other):
        return (
            isinstance(other, GrothendieckTopology)
            and self.cat is other.cat
            and self.key() == other.key()
        )

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        sizes = ",".join(str(len(c)) for c in self.covers)
        return f"GrothendieckTopology(covers per object: {sizes})"


def is_topology(cat: FiniteCategory, J: GrothendieckTopology) -> ValidationReport:
    rep = ValidationReport("topology")
    all_sieves = [sieves_on(cat, x) for x in range(cat.n_objects)]
    for x in range(cat.n_objects):
        for S in J.covers_at(x):
            rep.checked += 1
            if S.target != x or not is_sieve(cat, S):
                rep.add("covers-are-sieves", (cat.objects[x], sorted(S.members)))
    if not rep.ok:
        return rep
    for x in range(cat.n_objects):
        rep.checked += 1
        if not J.contains(maximal_sieve(cat, x)):
            rep.add("maximal-sieve-covers", (cat.objects[x],))
    for x in range(cat.n_objects):
        for S in J.covers_at(x):
            for f in cat.morphisms_into(x):
                rep.checked += 1
                if not J.contains(pullback_sieve(cat, S, f)):
                    rep.add(
                        "stability",
                        (cat.objects[x], sorted(S.members), cat.morphisms[f].name),
                    )
    for x in range(cat.n_objects):
        for S1 in J.covers_at(x):
            for S2 in all_sieves[x]:
                if J.contains(S2):
                    continue
                rep.checked += 1
                if all(
                    J.contains(pullback_sieve(cat, S2, f)) for f in S1.members
                ):
                    rep.add(
                        "transitivity",
                        (cat.objects[x], sorted(S2.members), sorted(S1.members)),
                    )
    return rep


def enumerate_topologies(
    cat: FiniteCategory, budget: int = DEFAULT_TOPOLOGY_BUDGET
) -> list:
    """All Grothendieck topologies, in canonical order.

    Candidates are per-object families of sieves containing the maximal
    sieve; families containing the empty sieve are pruned to the full
    family, which the transitivity axiom forces anyway.
    """
    per_object = []
    total = 1
    for x in range(cat.n_objects):
        sieves = sieves_on(cat, x)
        maxm = maximal_sieve(cat, x).mask
        middle = [s for s in sieves if s.mask not in (0, maxm)]
        fams = []
        for r in range(len(middle) + 1):
            for combo in itertools.combinations(middle, r):
                fams.append(tuple(sorted((*combo, maximal_sieve(cat, x)), key=lambda s: s.mask)))
        full = tuple(sorted(sieves, key=lambda s: s.mask))
        if len(sieves) > 1:
            fams.append(full)
        per_object.append(fams)
        total *= len(fams)
        if total > budget:
            raise BudgetExceededError("topology enumeration", total, budget)
    out = []
    for assignment in itertools.product(*per_object):
        J = GrothendieckTopology(cat, assignment)
        if is_topology(cat, J).ok:
            out.append(J)
    return sorted(out, key=lambda J: tuple(tuple(sorted(s)) for s in J.key()))


def subcategory_topology(cat: FiniteCategory, D) -> GrothendieckTopology:
    """The topology whose covers on x are the sieves containing every
    morphism into x that starts in D."""
    if not isinstance(D, FullSubcategory):
        D = full_subcategory(cat, D)
    if D.parent is not cat:
        raise InputError("subcategory belongs to a different category")
    dobj = set(D.object_subset)
    covers = []
    for x in range(cat.n_objects):
        required = {f for f in cat.morphisms_into(x) if cat.dom(f) in dobj}
        covers.append(
            [S for S in sieves_on(cat, x) if required <= S.members]
        )
    return GrothendieckTopology(cat, covers)


def trivial_topology(cat: FiniteCategory) -> GrothendieckTopology:
    return subcategory_topology(cat, range(cat.n_objects))


def matching_subcategories(cat: FiniteCategory, J: GrothendieckTopology) -> list:
    """All object subsets D with subcategory topology equal to J."""
    out = []
    for r in range(cat.n_objects + 1):
        for combo in itertools.combinations(range(cat.n_objects), r):
            if subcategory_topology(cat, combo).key() == J.key():
                out.append(tuple(combo))
    return out
