"""The answers of the benchmark jobs, pinned byte for byte.

Each ``classify`` and ``recollement`` job of ``perfbench/workloads.json``
runs through ``cli.main``; the sha256 of its stdout and its exit code are
pinned.  So is the detail string of every selftest criterion.  A change
that claims a speed-up with the same answers must leave all of them as
they are."""
import hashlib
import json
import os

import pytest

from torsite import acceptance, cli

BENCH = os.path.join(os.path.dirname(__file__), "..", "perfbench")
SITES = os.path.join(BENCH, "sites")

JOB_OUTPUTS = {
    ("classify-d3", "a2_f2/full"): (0, "fccf8fa068d0bd75fb770b0f54935c5273e8595b81eb6c0046508303fc360ceb"),
    ("classify-d3", "a3_f2/13"): (0, "69be2951a3c596432cff2718130ad8dc9ca1c502c8f1ef3c4f7afa291cc57390"),
    ("classify-d3", "c2_f2/full"): (0, "7d1c72a4424b46d6e6900fe2d551c2c145c44b0df1a5ce88ed3c85874dd7a967"),
    ("classify-d3", "terminal_f2xf2/full"): (0, "956cba62edac605c4d105055ae76b9c694f5c3ceb189cbbdf5d3e7b976d379fa"),
    ("classify-d2", "a2_f2/full"): (0, "d41713f16c36db37740c8f807df9ae93ea2e0f0b71a510731f12ac5c2bbbad55"),
    ("classify-d2", "a2_f2/1"): (0, "f93998c736746155f3a9f3b3969b5288edaae920c028886c476d45f233c721c4"),
    ("classify-d2", "a2_f2/2"): (0, "823e35f5bcb9c1110e684d59ab46f0219903955f7eb51321e07f8addede374e7"),
    ("classify-d2", "a2_f2/none"): (0, "097cce90a1c30290dd467db2dd879be171ff874c0dba64cc7290f0157aa16a92"),
    ("classify-d2", "c2_f3/full"): (0, "bcb790bfa85faa526d7ffc201cbb46c9f445894f03d1dc76efeaf42a5884719d"),
    ("classify-d2", "idem_f2/full"): (0, "d7882eb6b2edfa5e8ae5be72c5a8d6d5be3cb9e6e8b1b030d56729d763868acf"),
    ("classify-d2", "terminal_f2xf2/full"): (0, "c12f2c7aa009bcc2f6fa6d78526af7a069803358a3c318d3508110059944bdfc"),
    ("recollement", "a2_f2/e=0,0,0"): (0, "114d279c568a0faa2d47320d96abadbe34743a0569aa35007f6a35538c6628fc"),
    ("recollement", "a2_f2/e=1,0,0"): (0, "b295c84cee30e567267c98dfdf589e4d095e5592a06ba2aad4b8fcd78fd8395d"),
    ("recollement", "a2_f2/e=0,1,0"): (0, "d7462418baf4789e078ac89640f514f05db451f73685f3c3c375f3c501d2ef9f"),
    ("recollement", "a2_f2/e=1,1,0"): (0, "95063b3c8e474423fbdfbbb3109eec978b9824108766551acb78cb0d6242d0d1"),
    ("recollement", "terminal_f2xf2/e=0,0"): (0, "a98e54cd63b7c9c951c7a63d5973966d71f2e8a5796ecdf820d98c5da7ff8f25"),
    ("recollement", "terminal_f2xf2/e=0,1"): (0, "bd847d556259cbc5f8a7fba10bed1381f3b0aba02426b06f78cefe950571ee2c"),
    ("recollement", "terminal_f2xf2/e=1,0"): (0, "f19735a0cad03e4ef9c32d40614b700c4afe6051b5816b07c0ac67ae79611053"),
    ("recollement", "terminal_f2xf2/e=1,1"): (0, "ec83e02285a3c84a0cb4e8891d4eec164a439b8f831fc644bfa6c7020ab903cd"),
    ("recollement", "c2_f2/e=0,0"): (0, "f5bddfe5173144320211079d433dfe517066f0ef484daad9896c8e4d2ae04853"),
    ("recollement", "c2_f2/e=1,0"): (0, "00e96603c163145b4a6186e626c485a2f9b163cf88f0d73e083ea4d138c31791"),
    ("recollement", "terminal_f2/e=0"): (0, "8da1c58bdd07ddbc41d1b014c7797c96faed976ff3da1393d71f788c5106126c"),
    ("recollement", "terminal_f2/e=1"): (0, "134ce6d8b59053cb00a9ff15a116e53beb7523cca1a40f827e74148fbd104b2c"),
}

SELFTEST_DETAILS = {
    1: 'dimensions terminal_f2=1, a2_f2=3, c2_f2=2, terminal_f2xf2=2',
    2: 'bijective, multiplicative, unital on all 4 fixtures',
    3: 'terminal=2, a2=4, both equal to subcategory topologies',
    4: '462 modules round-tripped exactly',
    5: '270 (module, topology) pairs, zero mismatches',
    6: 'terminal_f2=2, terminal_f2xf2=4',
    7: 'idempotent ideals = ttf triples = 4',
    8: 't2=2, f2xf2=4, bijection verified',
    9: 'all checks pass for e in {0, 1, e22}',
    10: '49 module pairs, dimensions agree exactly',
}


def _jobs():
    with open(os.path.join(BENCH, "workloads.json")) as fh:
        spec = json.load(fh)
    return [
        (workload, job)
        for workload, work in spec["workloads"].items()
        for job in work["jobs"]
        if job.get("command") in ("classify", "recollement")
    ]


def _argv(job: dict) -> list:
    """The argv that perfbench/run.py builds for the job."""
    presheaf = os.path.join(SITES, f"{job['presheaf']}.json")
    if job["command"] == "classify":
        category = job["presheaf"].split("_")[0]
        topology = os.path.join(SITES, f"{category}_{job['topology']}_topology.json")
        return ["classify", presheaf, topology, "--dim-bound", str(job["dim_bound"])]
    return ["recollement", presheaf, "--idempotent", job["idempotent"], "--dim-bound", str(job["dim_bound"])]


def test_every_classify_and_recollement_job_is_pinned():
    assert sorted((w, j["id"]) for w, j in _jobs()) == sorted(JOB_OUTPUTS)
    assert len(JOB_OUTPUTS) == 23


@pytest.mark.parametrize("workload, job", _jobs(), ids=lambda v: v if isinstance(v, str) else v["id"])
def test_benchmark_job_output_is_pinned(workload, job, capsys):
    code = cli.main(_argv(job))
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert (code, digest) == JOB_OUTPUTS[(workload, job["id"])]


@pytest.mark.parametrize("number, fn", [(number, fn) for number, _, fn, _ in acceptance.CRITERIA])
def test_selftest_detail_is_pinned(number, fn):
    assert fn() == SELFTEST_DETAILS[number]
