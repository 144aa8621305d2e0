"""End-to-end acceptance checks with frozen oracle values.

Each criterion function performs one independent verification at desk
scale and returns a one-line detail string; failures raise
AssertionError, under ``python -O`` too.  ``run_all`` executes all of
them, timing each against its stated budget, and is what ``torsite
selftest`` runs.  The expected counts hard-coded here were derived by
hand and double-checked against the brute-force routes before being
frozen.
"""
from __future__ import annotations

import itertools
import time

import numpy as np

from . import linalg
from .algebra import validate_algebra
from .fixtures import (
    a2_category,
    fixture_presheaves,
    product_field_algebra,
    t2_algebra,
    terminal_category,
)
from .grskew import (
    build_gr,
    build_skew_algebra,
    end_generator_iso,
    enumerate_linear_topologies,
    linearize_topology,
)
from .modules import (
    enumerate_module_presheaves,
    enumerate_skew_module_structures,
    ext1_dimension_by_enumeration,
    ext1_skew,
    perpendicular_check,
    phi_from_gr,
    psi_to_gr,
    sheaf_check,
)
from .topology import enumerate_topologies, subcategory_topology
from .torsion import (
    ModuleUniverse,
    brute_force_hereditary_pairs,
    brute_force_ttf_triples,
    central_idempotents,
    enumerate_idempotent_ideals,
    split_ttf_from_central_idempotent,
)

def _check(ok, detail) -> None:
    """Raise AssertionError(detail) unless ok; unlike assert, kept under python -O."""
    if not ok:
        raise AssertionError(detail)


SKEW_DIMENSIONS = {
    "terminal_f2": 1,
    "a2_f2": 3,
    "c2_f2": 2,
    "terminal_f2xf2": 2,
}


def criterion_1_skew_algebra() -> str:
    """Skew category algebras validate exactly and have the pinned dimensions."""
    dims = {}
    for name, cat, R in fixture_presheaves():
        A = build_skew_algebra(cat, R)
        rep = validate_algebra(A)
        _check(rep.ok, f"{name}: {rep.violations[:1]}")
        dims[name] = A.rank
    _check(dims == SKEW_DIMENSIONS, dims)
    return "dimensions " + ", ".join(f"{k}={v}" for k, v in dims.items())


def criterion_2_end_generator() -> str:
    """The center-of-Gr to center-of-skew-algebra comparison map is a ring iso."""
    for name, cat, R in fixture_presheaves():
        rep = end_generator_iso(cat, R)
        _check(rep.ok, f"{name}: {rep.violations[:1]}")
    return "bijective, multiplicative, unital on all 4 fixtures"


def criterion_3_topologies() -> str:
    """Every topology is a subcategory topology, and conversely; counts 2 and 4."""
    counts = {}
    for name, cat in (
        ("terminal", terminal_category()),
        ("a2", a2_category()),
    ):
        found = {J.key() for J in enumerate_topologies(cat)}
        # strictly full subcategories are exactly the object subsets
        subsets = itertools.chain.from_iterable(
            itertools.combinations(range(cat.n_objects), r)
            for r in range(cat.n_objects + 1)
        )
        expected = {subcategory_topology(cat, D).key() for D in subsets}
        _check(found == expected, f"{name}: topology sets differ")
        counts[name] = len(found)
    _check(counts == {"terminal": 2, "a2": 4}, counts)
    return f"terminal={counts['terminal']}, a2={counts['a2']}, both equal to subcategory topologies"


def criterion_4_round_trip() -> str:
    """Presheaf-to-skew-module stacking is an equivalence on dimensions <= 3."""
    checked = 0

    def entries(M):
        return np.concatenate([np.zeros(0, dtype=np.int64), *(a.ravel() for a in (*M.maps, *M.actions))])

    for name, cat, R in fixture_presheaves():
        skew = build_skew_algebra(cat, R)
        n = R.base.modulus
        presheaves = enumerate_module_presheaves(cat, R, 3)
        for M, M2 in zip(presheaves, phi_from_gr([psi_to_gr(M, skew) for M in presheaves])):
            _check(M2.ranks == M.ranks, name)
            _check(np.array_equal(entries(M2) % n, entries(M) % n), name)
            checked += 1
        structures = [V for m in range(4) for V in enumerate_skew_module_structures(skew, m)]
        for V, M in zip(structures, phi_from_gr(structures)):
            W = psi_to_gr(M, skew)
            if V.dim == 0:
                checked += 1
                continue
            P = np.concatenate(M.block_bases, axis=0)
            _check(P.shape == (V.dim, V.dim), name)
            # a square P is invertible iff its Howell form is the identity
            _check(np.array_equal(linalg.howell_form(P, n), np.eye(V.dim, dtype=np.int64)), name)
            _check(np.array_equal(W.act @ P % n, P @ V.act % n), name)
            checked += 1
    return f"{checked} modules round-tripped exactly"


def criterion_5_sheaf_perpendicular() -> str:
    """Sheaf condition and Hom/Ext perpendicularity agree on every module."""
    checked = 0
    for name, cat, R in fixture_presheaves():
        gr = build_gr(cat, R)
        modules = enumerate_module_presheaves(cat, R, 3)
        stacked = [psi_to_gr(M, gr.skew) for M in modules]
        for J in enumerate_topologies(cat):
            Jp = linearize_topology(gr, J)
            for M, V in zip(modules, stacked):
                # is_sheaf(M, Jp) is sheaf_check after psi_to_gr
                a = bool(sheaf_check(V, Jp))
                b = bool(perpendicular_check(V, Jp))
                _check(a == b, f"{name}: mismatch at ranks {M.ranks}")
                checked += 1
    return f"{checked} (module, topology) pairs, zero mismatches"


def criterion_6_hereditary_counts() -> str:
    """Linear topology count equals the brute-force hereditary torsion pair count."""
    expected = {"terminal_f2": 2, "terminal_f2xf2": 4}
    seen = {}
    for name, cat, R in fixture_presheaves():
        if name not in expected:
            continue
        gr = build_gr(cat, R)
        linear = enumerate_linear_topologies(gr)
        U = ModuleUniverse(gr.skew, dim_bound=3)
        brute = brute_force_hereditary_pairs(U)
        _check(len(linear) == len(brute) == expected[name], (name, len(linear), len(brute)))
        seen[name] = len(linear)
    return f"terminal_f2={seen['terminal_f2']}, terminal_f2xf2={seen['terminal_f2xf2']}"


def criterion_7_ttf_counts() -> str:
    """Idempotent ideal count equals the brute-force TTF triple count."""
    A = t2_algebra(2)
    ideals = enumerate_idempotent_ideals(A)
    U = ModuleUniverse(A, dim_bound=3)
    triples = brute_force_ttf_triples(U)
    _check(len(ideals) == 4, len(ideals))
    _check(len(triples) == 4, len(triples))
    return f"idempotent ideals = ttf triples = {len(ideals)}"


def criterion_8_split_ttf() -> str:
    """Central idempotents biject with split TTF triples; counts 2 and 4."""
    expected = {"t2": 2, "f2xf2": 4}
    seen = {}
    for name, A in (("t2", t2_algebra(2)), ("f2xf2", product_field_algebra(2, 2))):
        cents = central_idempotents(A)
        U = ModuleUniverse(A, dim_bound=3)
        brute_split = {t.key() for t in brute_force_ttf_triples(U) if t.split}
        built = {split_ttf_from_central_idempotent(e, U).key() for e in cents}
        _check(len(built) == len(cents), f"{name}: map not injective")
        _check(built == brute_split, f"{name}: split TTF sets differ")
        _check(len(cents) == expected[name], (name, len(cents)))
        seen[name] = len(cents)
    return f"t2={seen['t2']}, f2xf2={seen['f2xf2']}, bijection verified"


def criterion_9_recollement() -> str:
    """Recollement checks pass for the zero, unit, and corner idempotents."""
    from .recollement import verify_recollements

    A = t2_algebra(2)
    labels, idempotents = ("0", "1", "e22"), ([0, 0, 0], list(A.unit), [0, 0, 1])
    for label, rep in zip(labels, verify_recollements(A, idempotents, dim_bound=3)):
        _check(rep.ok, f"e={label}: {rep.failures[:1]}")
    return "all checks pass for e in {0, 1, e22}"


def criterion_10_ext1_routes() -> str:
    """Ext^1 by projective presentation equals Ext^1 by extension enumeration."""
    A = t2_algebra(2)
    U = ModuleUniverse(A, dim_bound=2)
    pairs = 0
    for i, V in enumerate(U.members):
        for j, W in enumerate(U.members):
            a = ext1_skew(V, W)
            b = ext1_dimension_by_enumeration(V, W)
            _check(a == b, (i, j, a, b))
            pairs += 1
    return f"{pairs} module pairs, dimensions agree exactly"


CRITERIA = [
    (1, "skew algebra dimensions", criterion_1_skew_algebra, 1.0),
    (2, "end-to-generator isomorphism", criterion_2_end_generator, 1.0),
    (3, "topologies are subcategory topologies", criterion_3_topologies, 5.0),
    (4, "stacking round trip", criterion_4_round_trip, 30.0),
    (5, "sheaf equals perpendicular", criterion_5_sheaf_perpendicular, 300.0),
    (6, "linear topologies vs hereditary pairs", criterion_6_hereditary_counts, 300.0),
    (7, "idempotent ideals vs ttf triples", criterion_7_ttf_counts, 300.0),
    (8, "central idempotents vs split ttf", criterion_8_split_ttf, 60.0),
    (9, "recollement verification", criterion_9_recollement, 60.0),
    (10, "ext1 route agreement", criterion_10_ext1_routes, 60.0),
]


def run_all(say=None) -> list:
    """Run every criterion; returns [{criterion, name, ok, seconds, detail}, ...]."""
    results = []
    for number, name, fn, limit in CRITERIA:
        start = time.perf_counter()
        try:
            detail = fn()
            ok = True
        except AssertionError as exc:
            detail = f"FAILED: {exc}"
            ok = False
        seconds = time.perf_counter() - start
        if ok and seconds > limit:
            ok = False
            detail += f" (exceeded {limit:.0f} s budget)"
        results.append(
            {
                "criterion": number,
                "name": name,
                "ok": ok,
                "seconds": round(seconds, 3),
                "limit": limit,
                "detail": detail,
            }
        )
        if say is not None:
            status = "pass" if ok else "FAIL"
            say(f"criterion {number:2d} [{status}] {seconds:7.2f}s  {name}: {detail}")
    return results
