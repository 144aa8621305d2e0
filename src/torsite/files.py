"""JSON interchange: categories, algebra presheaves, topologies,
and module presheaves.

Every file carries a versioned ``schema`` field.  Loaders validate
structure and name references eagerly and raise InputError with a
file-and-key location; writers emit deterministic documents (sorted
keys, plain integer matrices).
"""
from __future__ import annotations

import json

import numpy as np

from .algebra import AlgebraPresheaf, BaseRing, FiniteAlgebra, check_exact_rank
from .errors import InputError
from .fincat import FiniteCategory
from .modules import ModulePresheaf, validate_module_presheaf
from .topology import GrothendieckTopology, Sieve, is_sieve, is_topology

CATEGORY_SCHEMA = "torsite/category-v1"
PRESHEAF_SCHEMA = "torsite/presheaf-v1"
TOPOLOGY_SCHEMA = "torsite/topology-v1"
MODULE_SCHEMA = "torsite/module-v1"


def load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise InputError(f"{path}: file not found") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}") from None
    if not isinstance(doc, dict):
        raise InputError(f"{path}: top level must be a JSON object")
    return doc


_quote = json.encoder.encode_basestring_ascii


def _json_key(key) -> str:
    if isinstance(key, str):
        return _quote(key)
    if key is None or isinstance(key, (int, float)):
        return _quote(json.dumps(key))
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _json_text(value, indent: str) -> str:
    """json.dumps(value, sort_keys=True, indent=2), nested at indent.

    With an indent, json runs its pure-Python encoder; this emitter gives
    the same bytes faster.  Floats and the types json refuses go to
    json.dumps itself."""
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = sorted(value.items())
        body = ",\n".join(f"{inner}{_json_key(k)}: {_json_text(v, inner)}" for k, v in items)
        return f"{{\n{body}\n{indent}}}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        body = ",\n".join(inner + _json_text(v, inner) for v in value)
        return f"[\n{body}\n{indent}]"
    return json.dumps(value)


def dump_json(doc, path: str | None = None) -> str:
    text = _json_text(doc, "") + "\n"
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text


def _need(doc: dict, key: str, where: str):
    if key not in _expect(doc, dict, where):
        raise InputError(f"{where}: missing key {key!r}")
    return doc[key]


def _expect(value, kind: type, where: str):
    """value, refused unless it is a JSON object (kind dict) or list (kind list)."""
    if not isinstance(value, kind):
        raise InputError(f"{where}: expected {'an object' if kind is dict else 'a list'}")
    return value


def _need_str(doc: dict, key: str, where: str) -> str:
    if not isinstance(value := _need(doc, key, where), str):
        raise InputError(f"{where}.{key}: expected a string")
    return value


def _is_int64(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool) and -(2**63) <= x < 2**63


def _int_array(data, where: str, ndim: int = 2) -> np.ndarray:
    """JSON integers (no bools, floats or strings) as an int64 array of rank ndim.

    An empty list, or an empty array of lower rank such as [[]], stands
    for an empty array of that rank.
    """
    what = "an integer" if ndim == 0 else f"a {ndim}-dimensional integer array"
    try:
        arr = np.array(data, dtype=object)
    except ValueError:
        raise InputError(f"{where}: expected {what}") from None
    if arr.size == 0 and arr.ndim < ndim:
        arr = arr.reshape((0,) * ndim)
    if arr.ndim != ndim or not all(_is_int64(x) for x in arr.flat):
        raise InputError(f"{where}: expected {what} within the int64 range")
    return arr.astype(np.int64)


# ---------------------------------------------------------------------------
# categories


def category_to_doc(cat: FiniteCategory) -> dict:
    compose = []
    for g in range(cat.n_morphisms):
        for f in range(cat.n_morphisms):
            gf = int(cat.compose_table[g, f])
            if gf < 0 or g in cat.identity or f in cat.identity:
                continue
            compose.append(
                [cat.morphisms[g].name, cat.morphisms[f].name, cat.morphisms[gf].name]
            )
    return {
        "schema": CATEGORY_SCHEMA,
        "objects": list(cat.objects),
        "morphisms": [
            {"name": m.name, "dom": cat.objects[m.dom], "cod": cat.objects[m.cod]}
            for m in cat.morphisms
        ],
        "identity": {
            cat.objects[x]: cat.morphisms[cat.identity[x]].name
            for x in range(cat.n_objects)
        },
        "compose": sorted(compose),
    }


def category_from_doc(doc: dict, where: str = "category") -> FiniteCategory:
    objects = _need(doc, "objects", where)
    if not isinstance(objects, list) or not all(isinstance(o, str) for o in objects):
        raise InputError(f"{where}.objects: expected a list of strings")
    raw_mors = _expect(_need(doc, "morphisms", where), list, f"{where}.morphisms")
    mors = []
    for i, m in enumerate(raw_mors):
        if not isinstance(m, dict):
            raise InputError(f"{where}.morphisms[{i}]: expected an object")
        mors.append(tuple(_need_str(m, key, f"{where}.morphisms[{i}]") for key in ("name", "dom", "cod")))
    identity = _expect(_need(doc, "identity", where), dict, f"{where}.identity")
    for obj in identity:
        _need_str(identity, obj, f"{where}.identity")
    raw_comp = _expect(doc.get("compose", []), list, f"{where}.compose")
    pairs = {}
    for i, triple in enumerate(raw_comp):
        if not (isinstance(triple, list) and len(triple) == 3 and all(isinstance(t, str) for t in triple)):
            raise InputError(f"{where}.compose[{i}]: expected [g, f, gf] of morphism names")
        pairs[(triple[0], triple[1])] = triple[2]
    try:
        return FiniteCategory.from_data(objects, mors, identity, pairs)
    except InputError as exc:
        raise InputError(f"{where}: {exc}") from None


def load_category(path: str) -> FiniteCategory:
    doc = load_json(path)
    if doc.get("schema") != CATEGORY_SCHEMA:
        raise InputError(f"{path}: expected schema {CATEGORY_SCHEMA!r}")
    return category_from_doc(doc, path)


# ---------------------------------------------------------------------------
# algebra presheaves


def presheaf_to_doc(cat: FiniteCategory, R: AlgebraPresheaf) -> dict:
    algebras = {}
    for x in range(cat.n_objects):
        alg = R.algebra(x)
        algebras[cat.objects[x]] = {
            "basis": list(alg.basis_names),
            "unit": [int(v) for v in alg.unit],
            "mul": alg.mul.tolist(),
        }
    return {
        "schema": PRESHEAF_SCHEMA,
        "category": {
            k: v for k, v in category_to_doc(cat).items() if k != "schema"
        },
        "base": {"modulus": R.base.modulus},
        "algebras": algebras,
        "maps": {
            cat.morphisms[f].name: R.map(f).tolist()
            for f in range(cat.n_morphisms)
        },
    }


def presheaf_from_doc(doc: dict, where: str = "presheaf") -> tuple:
    cat = category_from_doc(_need(doc, "category", where), f"{where}.category")
    base_doc = _need(doc, "base", where)
    modulus = _need(base_doc, "modulus", f"{where}.base")
    base = BaseRing(int(_int_array(modulus, f"{where}.base.modulus", 0)))
    algs_doc = _expect(_need(doc, "algebras", where), dict, f"{where}.algebras")
    algebras = []
    for x, obj in enumerate(cat.objects):
        if obj not in algs_doc:
            raise InputError(f"{where}.algebras: missing object {obj!r}")
        entry = algs_doc[obj]
        basis = _need(entry, "basis", f"{where}.algebras[{obj}]")
        if not isinstance(basis, list):
            raise InputError(f"{where}.algebras[{obj}].basis: expected a list of names")
        try:
            check_exact_rank(len(basis), base.modulus)
        except InputError as exc:
            raise InputError(f"{where}.algebras[{obj}]: {exc}") from None
        mul = _int_array(_need(entry, "mul", f"{where}.algebras[{obj}]"), f"{where}.algebras[{obj}].mul", 3)
        unit = _int_array(_need(entry, "unit", f"{where}.algebras[{obj}]"), f"{where}.algebras[{obj}].unit", 1)
        try:
            algebras.append(FiniteAlgebra(base, mul, unit, tuple(basis)))
        except InputError as exc:
            raise InputError(f"{where}.algebras[{obj}]: {exc}") from None
    maps_doc = _expect(_need(doc, "maps", where), dict, f"{where}.maps")
    maps = []
    for f in range(cat.n_morphisms):
        name = cat.morphisms[f].name
        if name not in maps_doc:
            raise InputError(f"{where}.maps: missing morphism {name!r}")
        maps.append(_int_array(maps_doc[name], f"{where}.maps[{name}]"))
    extra = set(maps_doc) - {m.name for m in cat.morphisms}
    if extra:
        raise InputError(f"{where}.maps: unknown morphisms {sorted(extra)}")
    try:
        R = AlgebraPresheaf(cat, algebras, maps)
    except InputError as exc:
        raise InputError(f"{where}: {exc}") from None
    return cat, R


def load_presheaf(path: str) -> tuple:
    doc = load_json(path)
    if doc.get("schema") != PRESHEAF_SCHEMA:
        raise InputError(f"{path}: expected schema {PRESHEAF_SCHEMA!r}")
    return presheaf_from_doc(doc, path)


# ---------------------------------------------------------------------------
# topologies


def topology_to_doc(J: GrothendieckTopology) -> dict:
    cat = J.cat
    covers = {}
    for x in range(cat.n_objects):
        covers[cat.objects[x]] = [
            sorted(cat.morphisms[m].name for m in S.members)
            for S in J.covers_at(x)
        ]
    return {
        "schema": TOPOLOGY_SCHEMA,
        "category": {k: v for k, v in category_to_doc(cat).items() if k != "schema"},
        "covers": covers,
    }


def topology_from_doc(doc: dict, where: str = "topology") -> GrothendieckTopology:
    cat = category_from_doc(_need(doc, "category", where), f"{where}.category")
    covers_doc = _expect(_need(doc, "covers", where), dict, f"{where}.covers")
    covers = []
    for x, obj in enumerate(cat.objects):
        if obj not in covers_doc:
            raise InputError(f"{where}.covers: missing object {obj!r}")
        sieves = []
        for i, names in enumerate(_expect(covers_doc[obj], list, f"{where}.covers[{obj}]")):
            if not isinstance(names, list) or not all(isinstance(name, str) for name in names):
                raise InputError(f"{where}.covers[{obj}][{i}]: expected a list of morphism names")
            members = set()
            for name in names:
                try:
                    members.add(cat.morphism_index(name))
                except InputError:
                    raise InputError(
                        f"{where}.covers[{obj}][{i}]: unknown morphism {name!r}"
                    ) from None
            S = Sieve(x, frozenset(members))
            if not is_sieve(cat, S):
                raise InputError(
                    f"{where}.covers[{obj}][{i}]: member set is not a sieve on {obj!r}"
                )
            sieves.append(S)
        covers.append(sieves)
    J = GrothendieckTopology(cat, covers)
    rep = is_topology(cat, J)
    if not rep.ok:
        v = rep.violations[0]
        raise InputError(f"{where}: not a topology ({v.rule} at {v.witness})")
    return J


def load_topology(path: str) -> GrothendieckTopology:
    doc = load_json(path)
    if doc.get("schema") != TOPOLOGY_SCHEMA:
        raise InputError(f"{path}: expected schema {TOPOLOGY_SCHEMA!r}")
    return topology_from_doc(doc, path)


# ---------------------------------------------------------------------------
# module presheaves


def module_to_doc(M: ModulePresheaf) -> dict:
    cat = M.cat
    modules = {}
    for x in range(cat.n_objects):
        entry = {
            "rank": M.ranks[x],
            "action": M.actions[x].tolist(),
            "maps": {},
        }
        for f in cat.morphisms_from(x):
            entry["maps"][cat.morphisms[f].name] = M.maps[f].tolist()
        modules[cat.objects[x]] = entry
    return {"schema": MODULE_SCHEMA, "modules": modules}


def _empty_as(arr: np.ndarray, shape: tuple) -> np.ndarray:
    """arr, read as the empty array of the given shape when both are empty."""
    return arr.reshape(shape) if arr.size == 0 and 0 in shape else arr


def module_from_doc(
    doc: dict, cat: FiniteCategory, R: AlgebraPresheaf, where: str = "module"
) -> ModulePresheaf:
    mods_doc = _expect(_need(doc, "modules", where), dict, f"{where}.modules")
    ranks = []
    actions = []
    maps = [None] * cat.n_morphisms
    for x, obj in enumerate(cat.objects):
        if obj not in mods_doc:
            raise InputError(f"{where}.modules: missing object {obj!r}")
        entry = mods_doc[obj]
        at = f"{where}.modules[{obj}]"
        rank = int(_int_array(_need(entry, "rank", at), f"{at}.rank", 0))
        if rank < 0:
            raise InputError(f"{at}.rank: expected a non-negative integer")
        ranks.append(rank)
        act = _int_array(_need(entry, "action", at), f"{at}.action", 3)
        actions.append(_empty_as(act, (R.algebra(x).rank, rank, rank)))
        for name, mat in _expect(entry.get("maps", {}), dict, f"{at}.maps").items():
            try:
                f = cat.morphism_index(name)
            except InputError:
                raise InputError(
                    f"{where}.modules[{obj}].maps: unknown morphism {name!r}"
                ) from None
            if maps[f] is not None:
                raise InputError(f"{where}: morphism {name!r} given twice")
            maps[f] = _int_array(mat, f"{where}.modules[{obj}].maps[{name}]")
    for f in range(cat.n_morphisms):
        if maps[f] is None:
            raise InputError(
                f"{where}: missing map for morphism {cat.morphisms[f].name!r}"
            )
        maps[f] = _empty_as(maps[f], (ranks[cat.cod(f)], ranks[cat.dom(f)]))
    try:
        return ModulePresheaf(cat, R, ranks, maps, actions)
    except InputError as exc:
        raise InputError(f"{where}: {exc}") from None


def load_module(path: str, cat: FiniteCategory, R: AlgebraPresheaf) -> ModulePresheaf:
    doc = load_json(path)
    if doc.get("schema") != MODULE_SCHEMA:
        raise InputError(f"{path}: expected schema {MODULE_SCHEMA!r}")
    return module_from_doc(doc, cat, R, path)


# ---------------------------------------------------------------------------
# detection and whole-file validation


def same_category(a: FiniteCategory, b: FiniteCategory) -> bool:
    return (
        a.objects == b.objects
        and tuple((m.name, m.dom, m.cod) for m in a.morphisms)
        == tuple((m.name, m.dom, m.cod) for m in b.morphisms)
        and a.identity == b.identity
        and (a.compose_table == b.compose_table).all()
    )


def detect_schema(doc: dict, where: str) -> str:
    schema = doc.get("schema")
    if schema not in {CATEGORY_SCHEMA, PRESHEAF_SCHEMA, TOPOLOGY_SCHEMA, MODULE_SCHEMA}:
        raise InputError(f"{where}: unknown or missing schema {schema!r}")
    return schema


def validate_file(path: str, context: str | None = None) -> dict:
    """Deep-validate any known file kind; returns a small summary.

    Module files need a presheaf for context; pass its path in context.
    """
    from .algebra import validate_presheaf
    from .fincat import validate_category

    doc = load_json(path)
    schema = detect_schema(doc, path)
    if schema == CATEGORY_SCHEMA:
        cat = category_from_doc(doc, path)
        rep = validate_category(cat)
        if not rep.ok:
            raise InputError(f"{path}: {rep.violations[0].rule}")
        return {"kind": "category", "objects": len(cat.objects), "morphisms": cat.n_morphisms}
    if schema == PRESHEAF_SCHEMA:
        cat, R = presheaf_from_doc(doc, path)
        rep = validate_presheaf(R)
        if not rep.ok:
            raise InputError(f"{path}: {rep.violations[0].rule} at {rep.violations[0].witness}")
        return {
            "kind": "presheaf",
            "objects": len(cat.objects),
            "modulus": R.base.modulus,
            "ranks": [R.algebra(x).rank for x in range(cat.n_objects)],
        }
    if schema == TOPOLOGY_SCHEMA:
        J = topology_from_doc(doc, path)
        return {
            "kind": "topology",
            "covers": [len(J.covers_at(x)) for x in range(J.cat.n_objects)],
        }
    if context is None:
        raise InputError(f"{path}: module files need a presheaf file for context")
    cat, R = load_presheaf(context)
    M = module_from_doc(doc, cat, R, path)
    rep = validate_module_presheaf(M)
    if not rep.ok:
        raise InputError(f"{path}: {rep.violations[0].rule} at {rep.violations[0].witness}")
    return {"kind": "module", "ranks": list(M.ranks)}
