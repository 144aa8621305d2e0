"""Spans around the public functions of each torsite layer.

The benchmark records spans from its own side of each layer boundary:
``Tracer.install`` replaces each target function with a wrapper in every
loaded ``torsite`` module that bound the name (``torsion`` and
``recollement`` import ``hom_skew``, ``quotient_module`` and others at
import time, so patching only the defining module would miss those
calls).  Spans are kept in memory with their parent span; self time is a
span's duration minus the durations of its direct children.
"""
from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter

# (module, attribute, span name).  Several functions may share one span
# name; nested spans of one name still add up correctly because self time
# excludes children.
TARGETS = [
    ("torsite.torsion", "ModuleUniverse.__init__", "torsion.universe"),
    ("torsite.torsion", "ModuleUniverse.index_of", "torsion.index_of"),
    ("torsite.torsion", "torsion_pair_check", "torsion.torsion_pair_check"),
    ("torsite.torsion", "trace_in_module", "torsion.trace_in_module"),
    ("torsite.torsion", "enumerate_idempotent_ideals", "torsion.enumerate_idempotent_ideals"),
    ("torsite.torsion", "brute_force_torsion_pairs", "torsion.brute_force"),
    ("torsite.torsion", "brute_force_hereditary_pairs", "torsion.brute_force"),
    ("torsite.torsion", "brute_force_ttf_triples", "torsion.brute_force"),
    ("torsite.modules", "enumerate_skew_module_structures", "modules.enumerate_skew_module_structures"),
    ("torsite.modules", "hom_skew", "modules.hom_skew"),
    ("torsite.modules", "torsion_check", "modules.torsion_check"),
    ("torsite.modules", "extension_cocycle_space", "modules.extension_cocycle_space"),
    ("torsite.modules", "psi_to_gr", "modules.stacking"),
    ("torsite.modules", "phi_from_gr", "modules.stacking"),
    ("torsite.modules", "sheaf_check", "modules.predicates"),
    ("torsite.modules", "is_sheaf", "modules.predicates"),
    ("torsite.modules", "is_torsion", "modules.predicates"),
    ("torsite.modules", "perpendicular_check", "modules.predicates"),
    ("torsite.modules", "ext1_skew", "modules.ext1_skew"),
    ("torsite.modules", "ext1_dimension_by_enumeration", "modules.ext1_by_enumeration"),
    ("torsite.grskew", "enumerate_linear_topologies", "grskew.enumerate_linear_topologies"),
    ("torsite.grskew", "is_linear_topology", "grskew.is_linear_topology"),
    ("torsite.grskew", "pullback_linear_sieve", "grskew.pullback_linear_sieve"),
    ("torsite.linalg", "howell_form", "linalg.howell_form"),
    ("torsite.linalg", "solve_left", "linalg.solve_left"),
    ("torsite.linalg", "kernel_left", "linalg.kernel_left"),
    ("torsite.linalg", "matrix_inverse", "linalg.matrix_inverse"),
    ("torsite.linalg", "enumerate_submodules", "linalg.enumerate_submodules"),
    ("torsite.recollement", "verify_recollement", "recollement.verify"),
    ("torsite.files", "load_presheaf", "files.load"),
    ("torsite.files", "load_topology", "files.load"),
    ("torsite.cli", "_emit", "cli.emit"),
]

ROOT = "job"
LAYERS = ("torsion", "modules", "grskew", "linalg", "recollement", "files", "cli")


class Tracer:
    """In-memory span store plus counters taken at the same boundaries."""

    def __init__(self):
        self.names = []
        self.parents = []
        self.starts = []
        self.ends = []
        self.stack = [-1]
        self.open = Counter()  # open spans per name, for ancestor tests
        self.counts = Counter()
        self._undo = []

    def span(self, name: str, fn, after=None):
        """Wrap fn so that each call records one span named name."""
        names, parents, starts, ends, stack, open_ = (
            self.names, self.parents, self.starts, self.ends, self.stack, self.open,
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            open_[name] += 1
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                stack.pop()
                open_[name] -= 1
            if after is not None:
                after(args, result)
            return result

        return traced

    # -- counters that need a result or an ancestor ------------------------

    def _after_universe(self, args, _result):
        universe = args[0]
        self.counts["torsion.universe.members"] += len(universe.members)
        if self.open["recollement.verify"]:
            self.counts["recollement.universes"] += 1

    def _after_structures(self, _args, result):
        self.counts["modules.enumerate_skew_module_structures.structures"] += len(result)
        if self.open["torsion.universe"]:
            self.counts["torsion.universe.structures"] += len(result)

    # -- patching ----------------------------------------------------------

    def install(self):
        """Replace every target in every loaded torsite module that binds it."""
        after = {
            "torsion.universe": self._after_universe,
            "modules.enumerate_skew_module_structures": self._after_structures,
        }
        modules = [m for k, m in sys.modules.items() if k == "torsite" or k.startswith("torsite.")]
        for mod_name, attr, name in TARGETS:
            owner = sys.modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._set(cls, meth, self.span(name, original, after.get(name)))
                continue
            original = getattr(owner, attr)
            wrapper = self.span(name, original, after.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)

    def _set(self, holder, key, value):
        self._undo.append((holder, key, vars(holder)[key]))
        setattr(holder, key, value)

    def uninstall(self):
        for holder, key, original in reversed(self._undo):
            setattr(holder, key, original)
        self._undo.clear()

    def run_root(self, fn):
        """Call fn inside a root span, so unwrapped work shows as its self time."""
        return self.span(ROOT, fn)()

    # -- results -----------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, total seconds and self seconds."""
        n = len(self.names)
        dur = [self.ends[i] - self.starts[i] for i in range(n)]
        child = [0.0] * n
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += dur[i]
        out = {}
        for i, name in enumerate(self.names):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += dur[i]
            row["self_s"] += dur[i] - child[i]
        return out

    def edges(self) -> dict:
        """Call tree aggregated by (parent name, name): calls and seconds."""
        out = {}
        for i, name in enumerate(self.names):
            p = self.parents[i]
            key = f"{self.names[p] if p >= 0 else '-'} > {name}"
            row = out.setdefault(key, {"calls": 0, "total_s": 0.0})
            row["calls"] += 1
            row["total_s"] += self.ends[i] - self.starts[i]
        return out
