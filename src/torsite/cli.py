"""Command-line interface.

Subcommands: validate, topologies, skew, gr, linearize, check-sheaf,
check-torsion, classify, recollement, selftest.  Every command prints one
deterministic JSON document on stdout (and to --output when given) and a
one-line summary on stderr.  Exit codes: 0 success or predicate true,
1 predicate false or failed verification, 2 input error, 3 budget
exceeded.
"""
from __future__ import annotations

import argparse
import sys

import numpy as np

from . import files
from .errors import BudgetExceededError, InputError, NotPrimeError, TorsiteError
from .grskew import (
    build_gr,
    build_skew_algebra,
    linearize_topology,
)
from .modules import is_sheaf, is_torsion
from .recollement import verify_recollement
from .topology import GrothendieckTopology, enumerate_topologies
from .torsion import classify

REPORT_SCHEMA = "torsite/report-v1"


def _say(msg: str):
    print(msg, file=sys.stderr)


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    return repr(value)


def _emit(doc: dict, args) -> str:
    text = files.dump_json(doc, getattr(args, "output", None))
    sys.stdout.write(text)
    return text


def _load_site(presheaf_path: str, topology_path: str):
    cat, R = files.load_presheaf(presheaf_path)
    J = files.load_topology(topology_path)
    if not files.same_category(cat, J.cat):
        raise InputError(
            f"{topology_path}: topology is over a different category than {presheaf_path}"
        )
    return cat, R, GrothendieckTopology(cat, [list(J.covers_at(x)) for x in range(cat.n_objects)])


def _linear_topology_doc(gr, Jp) -> dict:
    cat = gr.cat
    covers = {}
    for x in range(cat.n_objects):
        covers[cat.objects[x]] = [
            {
                "target": cat.objects[x],
                "components": {
                    cat.objects[y]: T.components[y].tolist()
                    for y in range(cat.n_objects)
                },
            }
            for T in Jp.covers_at(x)
        ]
    return covers


def _pair_doc(w) -> dict:
    return {
        "ok": w.ok,
        "hereditary": w.hereditary,
        "split": w.split,
        "torsion_classes": sorted(w.x_indices),
        "torsion_free_classes": sorted(w.y_indices),
        "sequences": [
            {
                "member": s.member,
                "sub_class": s.sub_class,
                "quot_class": s.quot_class,
                "splits": s.splits,
                "sub_rows": np.asarray(s.sub_rows).tolist(),
                "projection": np.asarray(s.projection).tolist(),
            }
            for s in w.sequences
        ],
    }


def _ttf_doc(t) -> dict:
    return {
        "ok": t.ok,
        "split": t.split,
        "x": sorted(t.x_indices),
        "y": sorted(t.y_indices),
        "z": sorted(t.z_indices),
    }


# -- commands ----------------------------------------------------------------


def cmd_validate(args) -> int:
    summary = files.validate_file(args.file, args.context)
    doc = {"schema": REPORT_SCHEMA, "command": "validate", "ok": True, **summary}
    _emit(doc, args)
    _say(f"{args.file}: valid {summary['kind']}")
    return 0


def cmd_topologies(args) -> int:
    cat = files.load_category(args.file)
    tops = enumerate_topologies(cat, budget=args.budget)
    doc = {
        "schema": REPORT_SCHEMA,
        "command": "topologies",
        "count": len(tops),
        "topologies": [files.topology_to_doc(J)["covers"] for J in tops],
    }
    _emit(doc, args)
    _say(f"{len(tops)} topologies")
    return 0


def cmd_skew(args) -> int:
    cat, R = files.load_presheaf(args.file)
    A = build_skew_algebra(cat, R)
    doc = {
        "schema": REPORT_SCHEMA,
        "command": "skew",
        "dim": A.rank,
        "basis": list(A.basis_names),
        "unit": [int(v) for v in A.unit],
        "mul": A.mul.tolist(),
    }
    _emit(doc, args)
    _say(f"skew category algebra of dimension {A.rank}")
    return 0


def cmd_gr(args) -> int:
    cat, R = files.load_presheaf(args.file)
    gr = build_gr(cat, R)
    ranks = {}
    tables = {}
    for x in range(cat.n_objects):
        for y in range(cat.n_objects):
            key = f"{cat.objects[x]}->{cat.objects[y]}"
            ranks[key] = gr.hom_rank(x, y)
    for x in range(cat.n_objects):
        for y in range(cat.n_objects):
            for z in range(cat.n_objects):
                T = gr._tables[(x, y, z)]
                if T.size:
                    tables[f"{cat.objects[x]}->{cat.objects[y]}->{cat.objects[z]}"] = T.tolist()
    doc = {
        "schema": REPORT_SCHEMA,
        "command": "gr",
        "hom_ranks": ranks,
        "composition_tables": tables,
    }
    _emit(doc, args)
    _say(f"hom ranks over {cat.n_objects} objects")
    return 0


def cmd_linearize(args) -> int:
    cat, R, J = _load_site(args.presheaf, args.topology)
    gr = build_gr(cat, R)
    Jp = linearize_topology(gr, J, args.budget)
    doc = {
        "schema": REPORT_SCHEMA,
        "command": "linearize",
        "covers": _linear_topology_doc(gr, Jp),
        "counts": [len(Jp.covers_at(x)) for x in range(cat.n_objects)],
    }
    _emit(doc, args)
    _say("linearized topology with cover counts " + str(doc["counts"]))
    return 0


def _predicate_command(args, predicate, name: str) -> int:
    cat, R, J = _load_site(args.presheaf, args.topology)
    M = files.load_module(args.module, cat, R)
    gr = build_gr(cat, R)
    Jp = linearize_topology(gr, J, args.budget)
    res = predicate(M, Jp)
    witness = res.witness
    if isinstance(witness, dict) and "cover" in witness:
        witness = {k: v for k, v in witness.items() if k != "cover"}
    doc = {
        "schema": REPORT_SCHEMA,
        "command": name,
        "value": bool(res),
        "witness": _jsonable(witness),
    }
    _emit(doc, args)
    _say(f"{name}: {'yes' if res else 'no'}")
    return 0 if res else 1


def cmd_check_sheaf(args) -> int:
    return _predicate_command(args, is_sheaf, "check-sheaf")


def cmd_check_torsion(args) -> int:
    return _predicate_command(args, is_torsion, "check-torsion")


def cmd_classify(args) -> int:
    cat, R, J = _load_site(args.presheaf, args.topology)
    rep = classify(cat, R, J, dim_bound=args.dim_bound, budget=args.budget)
    doc = {
        "schema": REPORT_SCHEMA,
        "command": "classify",
        "ok": rep.ok,
        "subcategory_objects": list(rep.subcategory_objects),
        "counts": rep.counts,
        "hereditary_torsion_pairs": [_pair_doc(w) for w in rep.hereditary_pairs],
        "ttf_triples": [_ttf_doc(t) for t in rep.ttf_triples],
        "split_ttf": [_ttf_doc(t) for t in rep.split_ttf_triples],
    }
    _emit(doc, args)
    _say(rep.summary())
    return 0 if rep.ok else 1


def cmd_recollement(args) -> int:
    cat, R = files.load_presheaf(args.presheaf)
    A = build_skew_algebra(cat, R)
    try:
        # reduced in Python, so a coordinate outside int64 never reaches numpy
        e = [int(t) % A.base.modulus for t in args.idempotent.replace(" ", "").split(",") if t != ""]
    except ValueError:
        raise InputError(f"--idempotent: expected comma-separated integers, got {args.idempotent!r}") from None
    if len(e) != A.rank:
        raise InputError(
            f"--idempotent: expected {A.rank} coordinates for this algebra, got {len(e)}"
        )
    rep = verify_recollement(A, e, dim_bound=args.dim_bound, budget=args.budget)
    doc = {
        "schema": REPORT_SCHEMA,
        "command": "recollement",
        "ok": rep.ok,
        "idempotent": list(rep.idempotent),
        "corner_rank": rep.corner_rank,
        "quotient_rank": rep.quotient_rank,
        "universe_sizes": rep.universe_sizes,
        "checks": rep.checks,
        "failures": [[name, str(detail)] for name, detail in rep.failures],
    }
    _emit(doc, args)
    _say(rep.summary())
    return 0 if rep.ok else 1


def cmd_selftest(args) -> int:
    from .acceptance import run_all

    results = run_all(say=_say)
    doc = {
        "schema": REPORT_SCHEMA,
        "command": "selftest",
        "ok": all(r["ok"] for r in results),
        "criteria": results,
    }
    _emit(doc, args)
    return 0 if doc["ok"] else 1


# One row per command: name, help, handler, its own arguments as
# (name or flag, keyword arguments), then which of --budget and
# --dim-bound it takes after --output.
_PRESHEAF_TOPOLOGY = (("presheaf", {}), ("topology", {}))
COMMANDS = (
    ("validate", "validate any torsite JSON file", cmd_validate,
     (("file", {}), ("--context", {"help": "presheaf file giving context for a module file"})), False, False),
    ("topologies", "enumerate Grothendieck topologies on a category", cmd_topologies,
     (("file", {}),), True, False),
    ("skew", "emit the skew category algebra of a presheaf", cmd_skew,
     (("file", {}),), False, False),
    ("gr", "emit hom ranks and composition tables of the linear construction", cmd_gr,
     (("file", {}),), False, False),
    ("linearize", "linearize a topology", cmd_linearize,
     _PRESHEAF_TOPOLOGY, True, False),
    ("check-sheaf", "is the module a sheaf for the linearized topology?", cmd_check_sheaf,
     _PRESHEAF_TOPOLOGY + (("module", {}),), True, False),
    ("check-torsion", "is the module torsion for the linearized topology?", cmd_check_torsion,
     _PRESHEAF_TOPOLOGY + (("module", {}),), True, False),
    ("classify", "run the three classifications for a subcategory topology", cmd_classify,
     _PRESHEAF_TOPOLOGY, True, True),
    ("recollement", "verify the recollement attached to an idempotent", cmd_recollement,
     (("presheaf", {}),
      ("--idempotent", {"required": True, "help": "comma-separated coordinates in the skew algebra basis"})),
     True, True),
    ("selftest", "run the acceptance suite", cmd_selftest, (), False, False),
)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The argument parser with every subcommand, or with only the one named.

    A parser for one command gives the same usage, help and errors for
    that command's arguments as the full one: its subcommand metavar
    spells out every choice, as the full parser's usage does.
    """
    parser = argparse.ArgumentParser(
        prog="torsite",
        description="Desk-scale computations for module categories over ringed finite sites.",
    )
    metavar = None if command is None else "{" + ",".join(row[0] for row in COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, help_text, func, arguments, budget, dim in COMMANDS:
        if command not in (None, name):
            continue
        p = sub.add_parser(name, help=help_text)
        for arg, kwargs in arguments:
            p.add_argument(arg, **kwargs)
        p.add_argument("--output", help="also write the JSON report to this path")
        if budget:
            p.add_argument("--budget", type=int, default=2**22, help="enumeration budget")
        if dim:
            p.add_argument("--dim-bound", type=int, default=3, help="module universe dimension bound")
        p.set_defaults(func=func)
    return parser


def _check_flags(args):
    """Refuse numeric flags outside their range before any work is done."""
    if getattr(args, "budget", 1) < 1:
        raise InputError(f"--budget: expected an integer >= 1, got {args.budget}")
    if getattr(args, "dim_bound", 0) < 0:
        raise InputError(f"--dim-bound: expected an integer >= 0, got {args.dim_bound}")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    named = argv[0] if argv and any(argv[0] == row[0] for row in COMMANDS) else None
    args = build_parser(named).parse_args(argv)
    try:
        _check_flags(args)
        return args.func(args)
    except BudgetExceededError as exc:
        _say(f"budget exceeded: {exc}")
        sys.stdout.write(files.dump_json({"schema": REPORT_SCHEMA, "error": str(exc), "kind": "budget"}))
        return 3
    except (InputError, NotPrimeError) as exc:
        _say(f"input error: {exc}")
        sys.stdout.write(files.dump_json({"schema": REPORT_SCHEMA, "error": str(exc), "kind": "input"}))
        return 2
    except TorsiteError as exc:
        _say(f"error: {exc}")
        sys.stdout.write(files.dump_json({"schema": REPORT_SCHEMA, "error": str(exc), "kind": "error"}))
        return 2


if __name__ == "__main__":
    sys.exit(main())
