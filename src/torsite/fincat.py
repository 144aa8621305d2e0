"""Finite categories as explicit tables.

A category is stored by object names, a morphism list with domain and
codomain indices, the identity morphism of every object, and a dense
composition table ``compose[g, f]`` holding the index of g after f, or -1
when the pair is not composable.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .report import ValidationReport


@dataclass(frozen=True)
class Morphism:
    name: str
    dom: int
    cod: int


class FiniteCategory:
    def __init__(self, objects, morphisms, identity, compose):
        self.objects = tuple(objects)
        self.morphisms = tuple(morphisms)
        self.identity = tuple(identity)
        self.compose_table = np.asarray(compose, dtype=np.int64).reshape(
            len(self.morphisms), len(self.morphisms)
        )
        self._obj_index = {name: i for i, name in enumerate(self.objects)}
        self._mor_index = {m.name: i for i, m in enumerate(self.morphisms)}

    @property
    def n_objects(self) -> int:
        return len(self.objects)

    @property
    def n_morphisms(self) -> int:
        return len(self.morphisms)

    def object_index(self, name: str) -> int:
        try:
            return self._obj_index[name]
        except KeyError:
            raise InputError(f"unknown object {name!r}") from None

    def morphism_index(self, name: str) -> int:
        try:
            return self._mor_index[name]
        except KeyError:
            raise InputError(f"unknown morphism {name!r}") from None

    def dom(self, f: int) -> int:
        return self.morphisms[f].dom

    def cod(self, f: int) -> int:
        return self.morphisms[f].cod

    def compose(self, g: int, f: int) -> int:
        """Index of g after f; raises if the pair is not composable."""
        gf = int(self.compose_table[g, f])
        if gf < 0:
            raise InputError(
                f"morphisms {self.morphisms[g].name!r} after "
                f"{self.morphisms[f].name!r} are not composable"
            )
        return gf

    def hom(self, x: int, y: int) -> list:
        return [i for i, m in enumerate(self.morphisms) if m.dom == x and m.cod == y]

    def morphisms_into(self, x: int) -> list:
        return [i for i, m in enumerate(self.morphisms) if m.cod == x]

    def morphisms_from(self, x: int) -> list:
        return [i for i, m in enumerate(self.morphisms) if m.dom == x]

    def __repr__(self):
        return (
            f"FiniteCategory({len(self.objects)} objects, "
            f"{len(self.morphisms)} morphisms)"
        )

    @classmethod
    def from_data(cls, objects, morphisms, identity, compose_pairs):
        """Build from name-level data.

        objects: list of object names; morphisms: (name, dom, cod) name
        triples; identity: {object: morphism}; compose_pairs: {(g, f): gf}
        name triples for every composable pair not involving an identity
        (identity compositions are filled in automatically).
        """
        objects = list(objects)
        if len(set(objects)) != len(objects):
            raise InputError("duplicate object names")
        names = [m[0] for m in morphisms]
        if len(set(names)) != len(names):
            raise InputError("duplicate morphism names")
        obj_index = {name: i for i, name in enumerate(objects)}
        mors = []
        for name, dom, cod in morphisms:
            if dom not in obj_index or cod not in obj_index:
                raise InputError(f"morphism {name!r} has unknown endpoint")
            mors.append(Morphism(name, obj_index[dom], obj_index[cod]))
        mor_index = {m.name: i for i, m in enumerate(mors)}
        if set(identity) != set(objects):
            raise InputError("identity map must cover the objects exactly")
        ident = []
        for obj in objects:
            mname = identity[obj]
            if mname not in mor_index:
                raise InputError(f"identity of {obj!r} is unknown morphism {mname!r}")
            ident.append(mor_index[mname])
        n = len(mors)
        table = -np.ones((n, n), dtype=np.int64)
        for x, e in zip(range(len(objects)), ident):
            if mors[e].dom != x or mors[e].cod != x:
                raise InputError(f"identity of {objects[x]!r} is not an endomorphism")
        for g, mg in enumerate(mors):
            for f, mf in enumerate(mors):
                if mg.dom != mf.cod:
                    continue
                if f == ident[mf.dom] and g == ident[mf.cod]:
                    table[g, f] = g  # id after id
                elif g == ident[mg.dom]:
                    table[g, f] = f
                elif f == ident[mf.dom]:
                    table[g, f] = g
        for (gname, fname), gfname in dict(compose_pairs).items():
            g = mor_index.get(gname)
            f = mor_index.get(fname)
            gf = mor_index.get(gfname)
            if g is None or f is None or gf is None:
                raise InputError(f"composition ({gname!r}, {fname!r}) -> {gfname!r} names unknown morphisms")
            if mors[g].dom != mors[f].cod:
                raise InputError(f"({gname!r}, {fname!r}) is not a composable pair")
            if table[g, f] >= 0 and table[g, f] != gf:
                raise InputError(f"composition ({gname!r}, {fname!r}) given twice with different results")
            table[g, f] = gf
        for g, mg in enumerate(mors):
            for f, mf in enumerate(mors):
                if mg.dom == mf.cod and table[g, f] < 0:
                    raise InputError(
                        f"missing composition ({mors[g].name!r}, {mors[f].name!r})"
                    )
        return cls(objects, mors, ident, table)


def validate_category(cat: FiniteCategory) -> ValidationReport:
    """Check identities, composability bookkeeping and associativity."""
    rep = ValidationReport(f"category with objects {list(cat.objects)}")
    n = cat.n_morphisms
    for x in range(cat.n_objects):
        e = cat.identity[x]
        rep.checked += 1
        if cat.dom(e) != x or cat.cod(e) != x:
            rep.add("identity-endo", (cat.objects[x],))
    for g in range(n):
        for f in range(n):
            gf = int(cat.compose_table[g, f])
            rep.checked += 1
            if (cat.dom(g) == cat.cod(f)) != (gf >= 0):
                rep.add(
                    "compose-defined-iff-composable",
                    (cat.morphisms[g].name, cat.morphisms[f].name),
                )
                continue
            if gf >= 0:
                if cat.dom(gf) != cat.dom(f) or cat.cod(gf) != cat.cod(g):
                    rep.add(
                        "composite-endpoints",
                        (cat.morphisms[g].name, cat.morphisms[f].name),
                    )
    for f in range(n):
        rep.checked += 2
        if int(cat.compose_table[cat.identity[cat.cod(f)], f]) != f:
            rep.add("left-identity", (cat.morphisms[f].name,))
        if int(cat.compose_table[f, cat.identity[cat.dom(f)]]) != f:
            rep.add("right-identity", (cat.morphisms[f].name,))
    for h in range(n):
        for g in range(n):
            if cat.dom(h) != cat.cod(g):
                continue
            hg = int(cat.compose_table[h, g])
            for f in range(n):
                if cat.dom(g) != cat.cod(f):
                    continue
                gf = int(cat.compose_table[g, f])
                rep.checked += 1
                if int(cat.compose_table[hg, f]) != int(cat.compose_table[h, gf]):
                    rep.add(
                        "associativity",
                        (
                            cat.morphisms[h].name,
                            cat.morphisms[g].name,
                            cat.morphisms[f].name,
                        ),
                    )
    return rep


@dataclass
class FullSubcategory:
    parent: FiniteCategory
    object_subset: tuple
    morphism_subset: tuple

    def as_category(self) -> FiniteCategory:
        omap = {old: new for new, old in enumerate(self.object_subset)}
        mmap = {old: new for new, old in enumerate(self.morphism_subset)}
        objects = [self.parent.objects[o] for o in self.object_subset]
        mors = [
            Morphism(
                self.parent.morphisms[m].name,
                omap[self.parent.dom(m)],
                omap[self.parent.cod(m)],
            )
            for m in self.morphism_subset
        ]
        ident = [mmap[self.parent.identity[o]] for o in self.object_subset]
        k = len(mors)
        table = -np.ones((k, k), dtype=np.int64)
        for g_old in self.morphism_subset:
            for f_old in self.morphism_subset:
                gf = int(self.parent.compose_table[g_old, f_old])
                if gf >= 0:
                    table[mmap[g_old], mmap[f_old]] = mmap[gf]
        return FiniteCategory(objects, mors, ident, table)


def full_subcategory(cat: FiniteCategory, objects) -> FullSubcategory:
    """Full subcategory on a subset of objects (indices or names)."""
    idx = sorted(
        {o if isinstance(o, (int, np.integer)) else cat.object_index(o) for o in objects}
    )
    for o in idx:
        if not 0 <= o < cat.n_objects:
            raise InputError(f"object index {o} out of range")
    subset = set(idx)
    mors = tuple(
        m
        for m in range(cat.n_morphisms)
        if cat.dom(m) in subset and cat.cod(m) in subset
    )
    return FullSubcategory(cat, tuple(idx), mors)
