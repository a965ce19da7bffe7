"""Tests of the benchmark itself: generator rules, the output gate and the
tracer.

    python3 -m pytest -q perfbench

The traced-run tests run every workload for one round each way, about two
minutes in all.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import sympy

import jobs
import run as bench
import spans

ROOT = bench.ROOT
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def all_jobs():
    return [(w, job) for w in bench.WORKLOADS
            for job in jobs.POOLS[w]()]


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=600)


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def test_symmetric_semigroup_iff_two_generated_curve():
    bench.load_program()
    from cancelkit.fixtures import monomial_curve
    for triple in jobs.curve_triples():
        two = len(monomial_curve(triple).generators) == 2
        assert two == jobs.semigroup_is_symmetric(triple), triple


def test_kernel_scripts_declare_matching_weights():
    for _, job in all_jobs():
        kernel = re.search(r"kernel\(([^)]*)\)", job.text)
        if not kernel:
            continue
        exponents = [int(t.strip()[1:]) for t in kernel.group(1).split(",")]
        ring = re.search(r"\[([^\]]*)\]", job.text).group(1)
        weights = [int(v.split(":")[1]) for v in ring.split(",")]
        assert weights == exponents, job.name


def test_reduce_ideals_have_one_degree():
    for workload, job in all_jobs():
        if "minreduction" not in job.text:
            continue
        degrees = {sympy.Poly(sympy.sympify(g.replace("^", "**"))).
                   total_degree() for g in job.gb_input}
        assert len(degrees) == 1, (workload, job.name)


def test_pool_matches_reference_and_has_negative_controls():
    with open(bench.REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)["workloads"]
    for workload, job in all_jobs():
        entry = reference[workload][job.name]
        assert entry["script_sha256"] == job.sha
        assert entry["exit"] == job.expect
    expects = [job.expect for job in jobs.verify_pool()]
    assert 0 < expects.count(2) <= 0.05 * len(expects)


def test_pool_scripts_are_distinct():
    for workload in bench.WORKLOADS:
        texts = [job.text for job in jobs.POOLS[workload]()]
        assert len(set(texts)) == len(texts), workload


def test_stream_is_a_seeded_permutation():
    pool = list(range(30))
    assert jobs.stream(pool, 7, 0) == jobs.stream(pool, 7, 0)
    assert jobs.stream(pool, 7, 0) != jobs.stream(pool, 8, 0)
    assert jobs.stream(pool, 7, 0) != jobs.stream(pool, 7, 1)
    assert sorted(jobs.stream(pool, 7, 3)) == pool


def test_tracer_wraps_every_binding_and_restores_them():
    bench.load_program()
    import cancelkit.gb
    import cancelkit.ideals
    import cancelkit.rees
    import cancelkit.resolutions
    import cancelkit.cancellation

    def snapshot():
        return {(name, attr): value
                for name, module in sys.modules.items()
                if name.startswith("cancelkit") and module is not None
                for attr, value in vars(module).items()}

    before = snapshot()
    methods = dict(vars(cancelkit.ideals.Ideal))
    tracer = spans.Tracer()
    tracer.install()
    try:
        owners = tracer.bindings_of("buchberger")
        for module in (cancelkit.gb, cancelkit.ideals, cancelkit.rees):
            assert module in owners
        assert cancelkit.cancellation in tracer.bindings_of(
            "cohomology_summary")
        assert cancelkit.resolutions in tracer.bindings_of(
            "module_buchberger")
        assert cancelkit.ideals.buchberger is not before[
            ("cancelkit.ideals", "buchberger")]
    finally:
        tracer.uninstall()
    assert snapshot() == before
    assert dict(vars(cancelkit.ideals.Ideal)) == methods


def test_untraced_run_prints_every_end_to_end_metric():
    out = run_bench("--workload", "verify", "--seed", "3", "--seconds", "1",
                    "--trace", "0")
    assert out.returncode == 0, out.stderr
    result = last_json(out.stdout)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


def test_traced_runs_match_untraced_and_cover_every_layer():
    calls = {}
    for workload in bench.WORKLOADS:
        out = run_bench("--workload", workload, "--seed", "5", "--seconds",
                        "1", "--trace", "1")
        assert out.returncode == 0, out.stderr
        result = last_json(out.stdout)
        # correct covers the reference digests and traced == untraced
        assert result["correct"], out.stdout
        assert set(result["metrics"]) == {m["name"]
                                          for m in SPEC["per_layer"]}
        for name, m in result["metrics"].items():
            if name.endswith(".calls"):
                calls[name] = calls.get(name, 0) + m["value"]
        if workload == "rerun-q":
            assert result["metrics"]["cache.hit_ratio"]["value"] > 0
            assert result["metrics"]["cache.bytes_written"]["value"] > 0
    never = sorted(name for name, count in calls.items() if count == 0)
    assert never == []


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = run_bench("--workload", "verify", "--seed", "1", "--seconds", "1",
                    "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
    assert not (tmp_path / ".bench_build").exists()
