"""The answers of the benchmark jobs, pinned byte for byte.

Each ``classify`` and ``recollement`` job of ``perfbench/workloads.json``
runs through ``cli.main``; the sha256 of its stdout and its exit code are
pinned.  So is the detail string of every selftest criterion.  So are the
commands that print or read linear sieves: ``linearize`` on every
presheaf and topology of one category, among the fixtures and among the
benchmark sites, and ``check-sheaf`` and ``check-torsion`` on every
fixture presheaf, topology and module (mismatched ones exit 2).  A change
that claims a speed-up with the same answers must leave all of them as
they are."""
import hashlib
import itertools
import json
import os

import pytest

from torsite import acceptance, cli, files

ROOT = os.path.join(os.path.dirname(__file__), "..")
BENCH = os.path.join(ROOT, "perfbench")
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


SIEVE_OUTPUTS = {
    ("linearize", "fixtures", "a2_f2", "a2_obj1_topology"): (0, "8837f2765f81b40849b3758c3e2de925b5333ba810723474d474e6fc1c099efb"),
    ("check-sheaf", "fixtures", "a2_f2", "a2_obj1_topology", "a2_p2_module"): (0, "dc9cdb6db2b06e52a45a3e4d9bec133e7ccf7cce62f79a9b4549fadf18272734"),
    ("check-torsion", "fixtures", "a2_f2", "a2_obj1_topology", "a2_p2_module"): (1, "b60ab9bec81335fdcb987d6049fc50e59c6718dbbe6fec7a7f48495f81b90b50"),
    ("check-sheaf", "fixtures", "a2_f2", "a2_obj1_topology", "a2_s1_module"): (1, "c8d22145aacfaa269c018d9b4913db73c67d9f7241ff649fe290687c952d2507"),
    ("check-torsion", "fixtures", "a2_f2", "a2_obj1_topology", "a2_s1_module"): (1, "16887e80e4dcd1eadc52094cb794a467fb8f5859760ad613e30926c42e49521f"),
    ("check-sheaf", "fixtures", "a2_f2", "a2_obj1_topology", "a2_s2_module"): (1, "347003368d75c80f3d50ce2e28428ec7f0e29c2dcf1c46e9681074ab923b9f07"),
    ("check-torsion", "fixtures", "a2_f2", "a2_obj1_topology", "a2_s2_module"): (0, "5108182cf990d8aed89f21f1fbb429bfa759cb8ebcda0d6326d7a88d55d2f760"),
    ("linearize", "fixtures", "a2_f2", "a2_obj2_topology"): (0, "36a177675544db6194bc28086c44302c03d7f5b145f2587c68676c9f94ce0117"),
    ("check-sheaf", "fixtures", "a2_f2", "a2_obj2_topology", "a2_p2_module"): (1, "ca4aa89314cf1695c26ee43e8e0742a9179d17ea79768c35770301e3fb765d2f"),
    ("check-torsion", "fixtures", "a2_f2", "a2_obj2_topology", "a2_p2_module"): (1, "2b9c19d1b0f2242aa0ae2177ac51f11fb0179f21bac2ffc47c0dc0b4421334ea"),
    ("check-sheaf", "fixtures", "a2_f2", "a2_obj2_topology", "a2_s1_module"): (1, "ca4aa89314cf1695c26ee43e8e0742a9179d17ea79768c35770301e3fb765d2f"),
    ("check-torsion", "fixtures", "a2_f2", "a2_obj2_topology", "a2_s1_module"): (0, "5108182cf990d8aed89f21f1fbb429bfa759cb8ebcda0d6326d7a88d55d2f760"),
    ("check-sheaf", "fixtures", "a2_f2", "a2_obj2_topology", "a2_s2_module"): (0, "dc9cdb6db2b06e52a45a3e4d9bec133e7ccf7cce62f79a9b4549fadf18272734"),
    ("check-torsion", "fixtures", "a2_f2", "a2_obj2_topology", "a2_s2_module"): (1, "a0629914b2fc9489f70cfdc15b0460959c9b2a802d7e137959085b4b6acda4c9"),
    ("linearize", "fixtures", "a2_f2", "a2_trivial_topology"): (0, "36e541ea89b4faa99ec2f94f7d7851f462f28224a39b7e2cd0ad0247ccc25340"),
    ("check-sheaf", "fixtures", "a2_f2", "a2_trivial_topology", "a2_p2_module"): (0, "dc9cdb6db2b06e52a45a3e4d9bec133e7ccf7cce62f79a9b4549fadf18272734"),
    ("check-torsion", "fixtures", "a2_f2", "a2_trivial_topology", "a2_p2_module"): (1, "b60ab9bec81335fdcb987d6049fc50e59c6718dbbe6fec7a7f48495f81b90b50"),
    ("check-sheaf", "fixtures", "a2_f2", "a2_trivial_topology", "a2_s1_module"): (0, "dc9cdb6db2b06e52a45a3e4d9bec133e7ccf7cce62f79a9b4549fadf18272734"),
    ("check-torsion", "fixtures", "a2_f2", "a2_trivial_topology", "a2_s1_module"): (1, "16887e80e4dcd1eadc52094cb794a467fb8f5859760ad613e30926c42e49521f"),
    ("check-sheaf", "fixtures", "a2_f2", "a2_trivial_topology", "a2_s2_module"): (0, "dc9cdb6db2b06e52a45a3e4d9bec133e7ccf7cce62f79a9b4549fadf18272734"),
    ("check-torsion", "fixtures", "a2_f2", "a2_trivial_topology", "a2_s2_module"): (1, "a0629914b2fc9489f70cfdc15b0460959c9b2a802d7e137959085b4b6acda4c9"),
    ("check-sheaf", "fixtures", "a2_f2", "terminal_trivial_topology", "a2_p2_module"): (2, "dd07cf25508b0a988c564ba5e89b4f129de72bce5597c2ef5b340bd82d9ff106"),
    ("check-torsion", "fixtures", "a2_f2", "terminal_trivial_topology", "a2_p2_module"): (2, "dd07cf25508b0a988c564ba5e89b4f129de72bce5597c2ef5b340bd82d9ff106"),
    ("check-sheaf", "fixtures", "a2_f2", "terminal_trivial_topology", "a2_s1_module"): (2, "dd07cf25508b0a988c564ba5e89b4f129de72bce5597c2ef5b340bd82d9ff106"),
    ("check-torsion", "fixtures", "a2_f2", "terminal_trivial_topology", "a2_s1_module"): (2, "dd07cf25508b0a988c564ba5e89b4f129de72bce5597c2ef5b340bd82d9ff106"),
    ("check-sheaf", "fixtures", "a2_f2", "terminal_trivial_topology", "a2_s2_module"): (2, "dd07cf25508b0a988c564ba5e89b4f129de72bce5597c2ef5b340bd82d9ff106"),
    ("check-torsion", "fixtures", "a2_f2", "terminal_trivial_topology", "a2_s2_module"): (2, "dd07cf25508b0a988c564ba5e89b4f129de72bce5597c2ef5b340bd82d9ff106"),
    ("check-sheaf", "fixtures", "c2_f2", "a2_obj1_topology", "a2_p2_module"): (2, "642a6602971a52ebb8c0b4e04ba2902fae3780894ac1229c08605030700613d2"),
    ("check-torsion", "fixtures", "c2_f2", "a2_obj1_topology", "a2_p2_module"): (2, "642a6602971a52ebb8c0b4e04ba2902fae3780894ac1229c08605030700613d2"),
    ("check-sheaf", "fixtures", "c2_f2", "a2_obj1_topology", "a2_s1_module"): (2, "642a6602971a52ebb8c0b4e04ba2902fae3780894ac1229c08605030700613d2"),
    ("check-torsion", "fixtures", "c2_f2", "a2_obj1_topology", "a2_s1_module"): (2, "642a6602971a52ebb8c0b4e04ba2902fae3780894ac1229c08605030700613d2"),
    ("check-sheaf", "fixtures", "c2_f2", "a2_obj1_topology", "a2_s2_module"): (2, "642a6602971a52ebb8c0b4e04ba2902fae3780894ac1229c08605030700613d2"),
    ("check-torsion", "fixtures", "c2_f2", "a2_obj1_topology", "a2_s2_module"): (2, "642a6602971a52ebb8c0b4e04ba2902fae3780894ac1229c08605030700613d2"),
    ("check-sheaf", "fixtures", "c2_f2", "a2_obj2_topology", "a2_p2_module"): (2, "dd2475e8ba8d3a2efad58ca3d20211865a9be2a144ae09c639fd131ab7fb2a6e"),
    ("check-torsion", "fixtures", "c2_f2", "a2_obj2_topology", "a2_p2_module"): (2, "dd2475e8ba8d3a2efad58ca3d20211865a9be2a144ae09c639fd131ab7fb2a6e"),
    ("check-sheaf", "fixtures", "c2_f2", "a2_obj2_topology", "a2_s1_module"): (2, "dd2475e8ba8d3a2efad58ca3d20211865a9be2a144ae09c639fd131ab7fb2a6e"),
    ("check-torsion", "fixtures", "c2_f2", "a2_obj2_topology", "a2_s1_module"): (2, "dd2475e8ba8d3a2efad58ca3d20211865a9be2a144ae09c639fd131ab7fb2a6e"),
    ("check-sheaf", "fixtures", "c2_f2", "a2_obj2_topology", "a2_s2_module"): (2, "dd2475e8ba8d3a2efad58ca3d20211865a9be2a144ae09c639fd131ab7fb2a6e"),
    ("check-torsion", "fixtures", "c2_f2", "a2_obj2_topology", "a2_s2_module"): (2, "dd2475e8ba8d3a2efad58ca3d20211865a9be2a144ae09c639fd131ab7fb2a6e"),
    ("check-sheaf", "fixtures", "c2_f2", "a2_trivial_topology", "a2_p2_module"): (2, "c29906967c968da21f6c6ca4a1df2df3e481b867e131c53029afdbffae4db15b"),
    ("check-torsion", "fixtures", "c2_f2", "a2_trivial_topology", "a2_p2_module"): (2, "c29906967c968da21f6c6ca4a1df2df3e481b867e131c53029afdbffae4db15b"),
    ("check-sheaf", "fixtures", "c2_f2", "a2_trivial_topology", "a2_s1_module"): (2, "c29906967c968da21f6c6ca4a1df2df3e481b867e131c53029afdbffae4db15b"),
    ("check-torsion", "fixtures", "c2_f2", "a2_trivial_topology", "a2_s1_module"): (2, "c29906967c968da21f6c6ca4a1df2df3e481b867e131c53029afdbffae4db15b"),
    ("check-sheaf", "fixtures", "c2_f2", "a2_trivial_topology", "a2_s2_module"): (2, "c29906967c968da21f6c6ca4a1df2df3e481b867e131c53029afdbffae4db15b"),
    ("check-torsion", "fixtures", "c2_f2", "a2_trivial_topology", "a2_s2_module"): (2, "c29906967c968da21f6c6ca4a1df2df3e481b867e131c53029afdbffae4db15b"),
    ("check-sheaf", "fixtures", "c2_f2", "terminal_trivial_topology", "a2_p2_module"): (2, "661f99d36c460c000ec344f1cd68529c9a513cdcb8dceafe5f2479be100ccf41"),
    ("check-torsion", "fixtures", "c2_f2", "terminal_trivial_topology", "a2_p2_module"): (2, "661f99d36c460c000ec344f1cd68529c9a513cdcb8dceafe5f2479be100ccf41"),
    ("check-sheaf", "fixtures", "c2_f2", "terminal_trivial_topology", "a2_s1_module"): (2, "661f99d36c460c000ec344f1cd68529c9a513cdcb8dceafe5f2479be100ccf41"),
    ("check-torsion", "fixtures", "c2_f2", "terminal_trivial_topology", "a2_s1_module"): (2, "661f99d36c460c000ec344f1cd68529c9a513cdcb8dceafe5f2479be100ccf41"),
    ("check-sheaf", "fixtures", "c2_f2", "terminal_trivial_topology", "a2_s2_module"): (2, "661f99d36c460c000ec344f1cd68529c9a513cdcb8dceafe5f2479be100ccf41"),
    ("check-torsion", "fixtures", "c2_f2", "terminal_trivial_topology", "a2_s2_module"): (2, "661f99d36c460c000ec344f1cd68529c9a513cdcb8dceafe5f2479be100ccf41"),
    ("check-sheaf", "fixtures", "terminal_f2", "a2_obj1_topology", "a2_p2_module"): (2, "fa46fd7a4aff08ce25175c074e7e29303df7911f023389f404ddbd7b57b8e9f7"),
    ("check-torsion", "fixtures", "terminal_f2", "a2_obj1_topology", "a2_p2_module"): (2, "fa46fd7a4aff08ce25175c074e7e29303df7911f023389f404ddbd7b57b8e9f7"),
    ("check-sheaf", "fixtures", "terminal_f2", "a2_obj1_topology", "a2_s1_module"): (2, "fa46fd7a4aff08ce25175c074e7e29303df7911f023389f404ddbd7b57b8e9f7"),
    ("check-torsion", "fixtures", "terminal_f2", "a2_obj1_topology", "a2_s1_module"): (2, "fa46fd7a4aff08ce25175c074e7e29303df7911f023389f404ddbd7b57b8e9f7"),
    ("check-sheaf", "fixtures", "terminal_f2", "a2_obj1_topology", "a2_s2_module"): (2, "fa46fd7a4aff08ce25175c074e7e29303df7911f023389f404ddbd7b57b8e9f7"),
    ("check-torsion", "fixtures", "terminal_f2", "a2_obj1_topology", "a2_s2_module"): (2, "fa46fd7a4aff08ce25175c074e7e29303df7911f023389f404ddbd7b57b8e9f7"),
    ("check-sheaf", "fixtures", "terminal_f2", "a2_obj2_topology", "a2_p2_module"): (2, "da3a3a7790df385e2303dd4d4dd513f9d757ca9730aa6fe6513548ed72b16fec"),
    ("check-torsion", "fixtures", "terminal_f2", "a2_obj2_topology", "a2_p2_module"): (2, "da3a3a7790df385e2303dd4d4dd513f9d757ca9730aa6fe6513548ed72b16fec"),
    ("check-sheaf", "fixtures", "terminal_f2", "a2_obj2_topology", "a2_s1_module"): (2, "da3a3a7790df385e2303dd4d4dd513f9d757ca9730aa6fe6513548ed72b16fec"),
    ("check-torsion", "fixtures", "terminal_f2", "a2_obj2_topology", "a2_s1_module"): (2, "da3a3a7790df385e2303dd4d4dd513f9d757ca9730aa6fe6513548ed72b16fec"),
    ("check-sheaf", "fixtures", "terminal_f2", "a2_obj2_topology", "a2_s2_module"): (2, "da3a3a7790df385e2303dd4d4dd513f9d757ca9730aa6fe6513548ed72b16fec"),
    ("check-torsion", "fixtures", "terminal_f2", "a2_obj2_topology", "a2_s2_module"): (2, "da3a3a7790df385e2303dd4d4dd513f9d757ca9730aa6fe6513548ed72b16fec"),
    ("check-sheaf", "fixtures", "terminal_f2", "a2_trivial_topology", "a2_p2_module"): (2, "980f18d66c80d5dccb013d979ccee1bde7b036261034b0e937a57647213d9b58"),
    ("check-torsion", "fixtures", "terminal_f2", "a2_trivial_topology", "a2_p2_module"): (2, "980f18d66c80d5dccb013d979ccee1bde7b036261034b0e937a57647213d9b58"),
    ("check-sheaf", "fixtures", "terminal_f2", "a2_trivial_topology", "a2_s1_module"): (2, "980f18d66c80d5dccb013d979ccee1bde7b036261034b0e937a57647213d9b58"),
    ("check-torsion", "fixtures", "terminal_f2", "a2_trivial_topology", "a2_s1_module"): (2, "980f18d66c80d5dccb013d979ccee1bde7b036261034b0e937a57647213d9b58"),
    ("check-sheaf", "fixtures", "terminal_f2", "a2_trivial_topology", "a2_s2_module"): (2, "980f18d66c80d5dccb013d979ccee1bde7b036261034b0e937a57647213d9b58"),
    ("check-torsion", "fixtures", "terminal_f2", "a2_trivial_topology", "a2_s2_module"): (2, "980f18d66c80d5dccb013d979ccee1bde7b036261034b0e937a57647213d9b58"),
    ("linearize", "fixtures", "terminal_f2", "terminal_trivial_topology"): (0, "8cfc5451238463fd3c7de919fcf773c3c617f9aae1e6005dce4f14324300f918"),
    ("check-sheaf", "fixtures", "terminal_f2", "terminal_trivial_topology", "a2_p2_module"): (2, "44dc6e795841a0171b069a20034a7aeba2eb3476f3300f642aade3b7b1f1510d"),
    ("check-torsion", "fixtures", "terminal_f2", "terminal_trivial_topology", "a2_p2_module"): (2, "44dc6e795841a0171b069a20034a7aeba2eb3476f3300f642aade3b7b1f1510d"),
    ("check-sheaf", "fixtures", "terminal_f2", "terminal_trivial_topology", "a2_s1_module"): (2, "964b300965b2adf7795074299158d5ad0ae8e087e116e995c0d252c8d8af9dfd"),
    ("check-torsion", "fixtures", "terminal_f2", "terminal_trivial_topology", "a2_s1_module"): (2, "964b300965b2adf7795074299158d5ad0ae8e087e116e995c0d252c8d8af9dfd"),
    ("check-sheaf", "fixtures", "terminal_f2", "terminal_trivial_topology", "a2_s2_module"): (2, "83c6df61b4c3320d80b221d7ab51fed09a5382d3e75f0b1b391809e09faff19b"),
    ("check-torsion", "fixtures", "terminal_f2", "terminal_trivial_topology", "a2_s2_module"): (2, "83c6df61b4c3320d80b221d7ab51fed09a5382d3e75f0b1b391809e09faff19b"),
    ("check-sheaf", "fixtures", "terminal_f2xf2", "a2_obj1_topology", "a2_p2_module"): (2, "e277daf1b112c86c57a6dfabf4c7b1f4c5effca836f78212b7aef84675c3ec9f"),
    ("check-torsion", "fixtures", "terminal_f2xf2", "a2_obj1_topology", "a2_p2_module"): (2, "e277daf1b112c86c57a6dfabf4c7b1f4c5effca836f78212b7aef84675c3ec9f"),
    ("check-sheaf", "fixtures", "terminal_f2xf2", "a2_obj1_topology", "a2_s1_module"): (2, "e277daf1b112c86c57a6dfabf4c7b1f4c5effca836f78212b7aef84675c3ec9f"),
    ("check-torsion", "fixtures", "terminal_f2xf2", "a2_obj1_topology", "a2_s1_module"): (2, "e277daf1b112c86c57a6dfabf4c7b1f4c5effca836f78212b7aef84675c3ec9f"),
    ("check-sheaf", "fixtures", "terminal_f2xf2", "a2_obj1_topology", "a2_s2_module"): (2, "e277daf1b112c86c57a6dfabf4c7b1f4c5effca836f78212b7aef84675c3ec9f"),
    ("check-torsion", "fixtures", "terminal_f2xf2", "a2_obj1_topology", "a2_s2_module"): (2, "e277daf1b112c86c57a6dfabf4c7b1f4c5effca836f78212b7aef84675c3ec9f"),
    ("check-sheaf", "fixtures", "terminal_f2xf2", "a2_obj2_topology", "a2_p2_module"): (2, "37abc9b9d1e629158b1badc580f8bd108dfbbc44a0168d32891ab4afbfdb6625"),
    ("check-torsion", "fixtures", "terminal_f2xf2", "a2_obj2_topology", "a2_p2_module"): (2, "37abc9b9d1e629158b1badc580f8bd108dfbbc44a0168d32891ab4afbfdb6625"),
    ("check-sheaf", "fixtures", "terminal_f2xf2", "a2_obj2_topology", "a2_s1_module"): (2, "37abc9b9d1e629158b1badc580f8bd108dfbbc44a0168d32891ab4afbfdb6625"),
    ("check-torsion", "fixtures", "terminal_f2xf2", "a2_obj2_topology", "a2_s1_module"): (2, "37abc9b9d1e629158b1badc580f8bd108dfbbc44a0168d32891ab4afbfdb6625"),
    ("check-sheaf", "fixtures", "terminal_f2xf2", "a2_obj2_topology", "a2_s2_module"): (2, "37abc9b9d1e629158b1badc580f8bd108dfbbc44a0168d32891ab4afbfdb6625"),
    ("check-torsion", "fixtures", "terminal_f2xf2", "a2_obj2_topology", "a2_s2_module"): (2, "37abc9b9d1e629158b1badc580f8bd108dfbbc44a0168d32891ab4afbfdb6625"),
    ("check-sheaf", "fixtures", "terminal_f2xf2", "a2_trivial_topology", "a2_p2_module"): (2, "f6bedd4159a676205af261987c4be2a27ad6e6e8c8c7d828c76c619b76319a74"),
    ("check-torsion", "fixtures", "terminal_f2xf2", "a2_trivial_topology", "a2_p2_module"): (2, "f6bedd4159a676205af261987c4be2a27ad6e6e8c8c7d828c76c619b76319a74"),
    ("check-sheaf", "fixtures", "terminal_f2xf2", "a2_trivial_topology", "a2_s1_module"): (2, "f6bedd4159a676205af261987c4be2a27ad6e6e8c8c7d828c76c619b76319a74"),
    ("check-torsion", "fixtures", "terminal_f2xf2", "a2_trivial_topology", "a2_s1_module"): (2, "f6bedd4159a676205af261987c4be2a27ad6e6e8c8c7d828c76c619b76319a74"),
    ("check-sheaf", "fixtures", "terminal_f2xf2", "a2_trivial_topology", "a2_s2_module"): (2, "f6bedd4159a676205af261987c4be2a27ad6e6e8c8c7d828c76c619b76319a74"),
    ("check-torsion", "fixtures", "terminal_f2xf2", "a2_trivial_topology", "a2_s2_module"): (2, "f6bedd4159a676205af261987c4be2a27ad6e6e8c8c7d828c76c619b76319a74"),
    ("linearize", "fixtures", "terminal_f2xf2", "terminal_trivial_topology"): (0, "de38f3dbbef0e1766635ca667a203151e9219e8d827569f28f5cd703dc737c98"),
    ("check-sheaf", "fixtures", "terminal_f2xf2", "terminal_trivial_topology", "a2_p2_module"): (2, "44dc6e795841a0171b069a20034a7aeba2eb3476f3300f642aade3b7b1f1510d"),
    ("check-torsion", "fixtures", "terminal_f2xf2", "terminal_trivial_topology", "a2_p2_module"): (2, "44dc6e795841a0171b069a20034a7aeba2eb3476f3300f642aade3b7b1f1510d"),
    ("check-sheaf", "fixtures", "terminal_f2xf2", "terminal_trivial_topology", "a2_s1_module"): (2, "964b300965b2adf7795074299158d5ad0ae8e087e116e995c0d252c8d8af9dfd"),
    ("check-torsion", "fixtures", "terminal_f2xf2", "terminal_trivial_topology", "a2_s1_module"): (2, "964b300965b2adf7795074299158d5ad0ae8e087e116e995c0d252c8d8af9dfd"),
    ("check-sheaf", "fixtures", "terminal_f2xf2", "terminal_trivial_topology", "a2_s2_module"): (2, "83c6df61b4c3320d80b221d7ab51fed09a5382d3e75f0b1b391809e09faff19b"),
    ("check-torsion", "fixtures", "terminal_f2xf2", "terminal_trivial_topology", "a2_s2_module"): (2, "83c6df61b4c3320d80b221d7ab51fed09a5382d3e75f0b1b391809e09faff19b"),
    ("linearize", "perfbench/sites", "a2_f2", "a2_1_topology"): (0, "8837f2765f81b40849b3758c3e2de925b5333ba810723474d474e6fc1c099efb"),
    ("linearize", "perfbench/sites", "a2_f2", "a2_2_topology"): (0, "36a177675544db6194bc28086c44302c03d7f5b145f2587c68676c9f94ce0117"),
    ("linearize", "perfbench/sites", "a2_f2", "a2_full_topology"): (0, "36e541ea89b4faa99ec2f94f7d7851f462f28224a39b7e2cd0ad0247ccc25340"),
    ("linearize", "perfbench/sites", "a2_f2", "a2_none_topology"): (0, "d3c7d6da3c92d6659c9abd9f8f01611f492a9b9c57ba424ade97e2057f79f0b4"),
    ("linearize", "perfbench/sites", "a2_f2xf2", "a2_1_topology"): (0, "97bbea09adbba7f44195549b0fe590212a7670d6912673687e6d629dddad9e45"),
    ("linearize", "perfbench/sites", "a2_f2xf2", "a2_2_topology"): (0, "615f3707ac56827682a24540892fd74683d80f7ac8fe380e7da3c826da845630"),
    ("linearize", "perfbench/sites", "a2_f2xf2", "a2_full_topology"): (0, "111b75ed76d3a00e8cd32dadfe47a7f3ca454fdd7c98f64c9d4bbbc60fd1c4a6"),
    ("linearize", "perfbench/sites", "a2_f2xf2", "a2_none_topology"): (0, "7e4d1ec2f21864d2166026128f75c6b4cbb9d0012c54b123c6e5a9947b2ad68d"),
    ("linearize", "perfbench/sites", "a3_f2", "a3_12_topology"): (0, "75964b0231bf3c71d60c85b30ceff686fc5d8c8d3b963955b90a3ed1124c672a"),
    ("linearize", "perfbench/sites", "a3_f2", "a3_13_topology"): (0, "1db72ec55b106cb938976ff6483136391379cc63095af901542fa875de898172"),
    ("linearize", "perfbench/sites", "a3_f2", "a3_1_topology"): (0, "d1d4e21124768a1585d16d18138741e7d6fa7dc8668a49f6a4f1aaf9d81aedfd"),
    ("linearize", "perfbench/sites", "a3_f2", "a3_23_topology"): (0, "cfa44b4d7eb89149a20294e87901c4f2e94e86f9175d966ad95aa0db12807c3a"),
    ("linearize", "perfbench/sites", "a3_f2", "a3_2_topology"): (0, "4eded967bce2bf3c865091138599abfa2dd6d602303d68e9fc2bbd2a109ada57"),
    ("linearize", "perfbench/sites", "a3_f2", "a3_3_topology"): (0, "65c9d664ab6b3f70911d2c81260a80cd4db1491dd015c7bef21350ec308c5e19"),
    ("linearize", "perfbench/sites", "a3_f2", "a3_full_topology"): (0, "be2e8378b47c9133f6252a134ac58811221ec05d6742e472951041d72e5c2344"),
    ("linearize", "perfbench/sites", "a3_f2", "a3_none_topology"): (0, "cbb6264c148b1d346f521e62dce36ef3c6579651e6ea886e614dc6dd5d50bf14"),
    ("linearize", "perfbench/sites", "c2_f2", "c2_full_topology"): (0, "de38f3dbbef0e1766635ca667a203151e9219e8d827569f28f5cd703dc737c98"),
    ("linearize", "perfbench/sites", "c2_f2", "c2_none_topology"): (0, "b5f993155a0c5999ca891e78b7b635bb84cbb4ac5e2857541973e1f2026f2bad"),
    ("linearize", "perfbench/sites", "c2_f2xf2", "c2_full_topology"): (0, "07a11e0779ee0a8845d9c40480b5e270ed96a8d0e92029e979dc139baa08eaf9"),
    ("linearize", "perfbench/sites", "c2_f2xf2", "c2_none_topology"): (0, "cf80641798606b7e952b25e609303492db77e1e941577a133d0a86626cd725bb"),
    ("linearize", "perfbench/sites", "c2_f3", "c2_full_topology"): (0, "de38f3dbbef0e1766635ca667a203151e9219e8d827569f28f5cd703dc737c98"),
    ("linearize", "perfbench/sites", "c2_f3", "c2_none_topology"): (0, "26d2d6053ffb69880912e00d1de72195d7c2178fee7a5ae7b077e00dd089b957"),
    ("linearize", "perfbench/sites", "idem_f2", "idem_full_topology"): (0, "de38f3dbbef0e1766635ca667a203151e9219e8d827569f28f5cd703dc737c98"),
    ("linearize", "perfbench/sites", "idem_f2", "idem_none_topology"): (0, "3cff2070341b10c36954e9797f86b52333b3e9fce2bc277bfc1d0a59bb9067da"),
    ("linearize", "perfbench/sites", "idem_f2xf2", "idem_full_topology"): (0, "07a11e0779ee0a8845d9c40480b5e270ed96a8d0e92029e979dc139baa08eaf9"),
    ("linearize", "perfbench/sites", "idem_f2xf2", "idem_none_topology"): (0, "fe6cf81ad523a35ff5004b373dd3e33a38731fc209fb2d44d7a847a6929dd4ee"),
    ("linearize", "perfbench/sites", "terminal_f2", "terminal_full_topology"): (0, "8cfc5451238463fd3c7de919fcf773c3c617f9aae1e6005dce4f14324300f918"),
    ("linearize", "perfbench/sites", "terminal_f2", "terminal_none_topology"): (0, "e6dc5a6326f89e03a65262d7e79163b5f5e8438f328ab512929eec83c47ee703"),
    ("linearize", "perfbench/sites", "terminal_f2xf2", "terminal_full_topology"): (0, "de38f3dbbef0e1766635ca667a203151e9219e8d827569f28f5cd703dc737c98"),
    ("linearize", "perfbench/sites", "terminal_f2xf2", "terminal_none_topology"): (0, "05ce8f102c8d9863abab378db697398d5bb4f4c641d72cfe87d888bb878f896c"),
    ("linearize", "perfbench/sites", "terminal_f3", "terminal_full_topology"): (0, "8cfc5451238463fd3c7de919fcf773c3c617f9aae1e6005dce4f14324300f918"),
    ("linearize", "perfbench/sites", "terminal_f3", "terminal_none_topology"): (0, "e6dc5a6326f89e03a65262d7e79163b5f5e8438f328ab512929eec83c47ee703"),
}


def _stems(directory: str, schema: str) -> list:
    """Sorted names, without .json, of the files of one schema in a directory of ROOT."""
    stems = []
    for name in sorted(os.listdir(os.path.join(ROOT, directory))):
        if name.endswith(".json"):
            with open(os.path.join(ROOT, directory, name)) as fh:
                if json.load(fh).get("schema") == schema:
                    stems.append(name[:-5])
    return stems


def _path(directory: str, stem: str) -> str:
    """The path from ROOT, so that error messages naming a file do not depend on where ROOT is."""
    return f"{directory}/{stem}.json"


def _sieve_runs() -> list:
    """(command, directory, file stems...) of every run SIEVE_OUTPUTS pins."""
    runs = []
    kinds = {kind: _stems("fixtures", f"torsite/{kind}-v1") for kind in ("presheaf", "topology", "module")}
    for p, t in itertools.product(kinds["presheaf"], kinds["topology"]):
        cat, _ = files.load_presheaf(os.path.join(ROOT, _path("fixtures", p)))
        if files.same_category(cat, files.load_topology(os.path.join(ROOT, _path("fixtures", t))).cat):
            runs.append(("linearize", "fixtures", p, t))
        runs += [(c, "fixtures", p, t, m) for m in kinds["module"] for c in ("check-sheaf", "check-torsion")]
    sites = "perfbench/sites"
    for p in _stems(sites, "torsite/presheaf-v1"):
        category = p.split("_")[0]
        runs += [("linearize", sites, p, t) for t in _stems(sites, "torsite/topology-v1") if t.startswith(category + "_")]
    return runs


def test_every_sieve_run_is_pinned():
    assert sorted(_sieve_runs()) == sorted(SIEVE_OUTPUTS)
    assert len(SIEVE_OUTPUTS) == 133


@pytest.mark.parametrize("run", sorted(SIEVE_OUTPUTS), ids="/".join)
def test_sieve_output_is_pinned(run, capsys, monkeypatch):
    command, directory, *stems = run
    monkeypatch.chdir(ROOT)
    code = cli.main([command, *(_path(directory, s) for s in stems)])
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert (code, digest) == SIEVE_OUTPUTS[run]
