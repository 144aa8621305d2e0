"""Regenerate the benchmark's input files in perfbench/sites/.

Every site the benchmark runs is written here as presheaf and topology
JSON built from ``torsite.fixtures``, so the program under test only
ever receives files.  The four shipped fixture presheaves are rebuilt
the same way rather than read from ``fixtures/``, which keeps the
benchmark's inputs fixed even if the shipped files move.

Run from the repository root:  python3 perfbench/make_sites.py
"""
from __future__ import annotations

import itertools
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SITES = os.path.join(ROOT, "perfbench", "sites")

sys.path.insert(0, os.path.join(ROOT, "src"))

from torsite import files  # noqa: E402
from torsite import fixtures as fx  # noqa: E402
from torsite.algebra import constant_presheaf  # noqa: E402
from torsite.topology import subcategory_topology  # noqa: E402

CATEGORIES = {
    "terminal": fx.terminal_category,
    "a2": fx.a2_category,
    "a3": fx.a3_category,
    "c2": fx.c2_monoid_category,
    "idem": fx.idempotent_monoid_category,
}
COEFFICIENTS = {
    "f2": lambda: fx.field_algebra(2),
    "f3": lambda: fx.field_algebra(3),
    "f2xf2": lambda: fx.product_field_algebra(2, 2),
}
PRESHEAVES = [
    ("terminal", "f2"),
    ("terminal", "f3"),
    ("terminal", "f2xf2"),
    ("a2", "f2"),
    ("a2", "f2xf2"),
    ("a3", "f2"),
    ("c2", "f2"),
    ("c2", "f3"),
    ("c2", "f2xf2"),
    ("idem", "f2"),
    ("idem", "f2xf2"),
]


def topology_tag(cat, D) -> str:
    """'full' for the trivial topology (D = every object), 'none' for D empty."""
    if len(D) == cat.n_objects:
        return "full"
    return "".join(cat.objects[x] for x in D) or "none"


def main() -> int:
    os.makedirs(SITES, exist_ok=True)
    for cat_name, alg_name in PRESHEAVES:
        cat = CATEGORIES[cat_name]()
        R = constant_presheaf(cat, COEFFICIENTS[alg_name]())
        files.dump_json(files.presheaf_to_doc(cat, R), os.path.join(SITES, f"{cat_name}_{alg_name}.json"))
    for cat_name, make in CATEGORIES.items():
        cat = make()
        for r in range(cat.n_objects + 1):
            for D in itertools.combinations(range(cat.n_objects), r):
                J = subcategory_topology(cat, D)
                name = f"{cat_name}_{topology_tag(cat, D)}_topology.json"
                files.dump_json(files.topology_to_doc(J), os.path.join(SITES, name))
    return 0


if __name__ == "__main__":
    sys.exit(main())
