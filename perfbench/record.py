"""Record the benchmark's reference outputs from the current sources.

    python3 perfbench/record.py

Runs every pool job of every workload twice through
``cancelkit.cli.main`` (with a fresh cache directory, cold then warm, on
``rerun-q``) and writes ``perfbench/reference.json``: per job, the sha256
of its script, its exit code and the sha256 of its stdout.  Recording
stops with an error if a job exits other than its family promises, if two
runs of a job differ, or if the basis of a job's first ``gb`` command
differs from sympy's ``groebner`` of the same generators.
"""

import hashlib
import json
import os
import shutil
import sys
import tempfile

import sympy

import run as bench


def _sympy(text):
    return sympy.sympify(text.replace("^", "**"))


def cross_check(job, stdout):
    """The basis of the job's first ``gb`` command must equal sympy's
    reduced grevlex basis of the same generators."""
    report = json.loads(stdout)
    syms = sympy.symbols(report["ring"]["variables"])
    options = {"modulus": 32003} if report["field"] == "zp:32003" else {}
    first_gb = next(c for c in report["commands"]
                    if c["command"].startswith("gb "))
    ours = {sympy.Poly(_sympy(g), *syms, **options).monic()
            for g in first_gb["result"]["generators"]}
    basis = sympy.groebner([_sympy(g) for g in job.gb_input], *syms,
                           order="grevlex", **options)
    theirs = {sympy.Poly(g, *syms, **options).monic() for g in basis.exprs}
    if ours != theirs:
        raise SystemExit(f"{job.name}: gb differs from sympy's groebner")


def record(cli, workload, scratch):
    entries = {}
    checked = 0
    for job, path in bench.prepare(workload, scratch):
        outputs = []
        for _ in range(2):
            if workload in bench.CACHED:
                cache_dir = tempfile.mkdtemp(dir=scratch)
                argv = ["run", path, "--cache-dir", cache_dir]
                outputs.append(bench.call(cli, argv)[:2])
                outputs.append(bench.call(cli, argv)[:2])
                shutil.rmtree(cache_dir)
            else:
                outputs.append(bench.call(cli, ["run", path])[:2])
        code, stdout = outputs[0]
        if code != job.expect:
            raise SystemExit(f"{job.name}: exit {code}, expected "
                             f"{job.expect}")
        if any(o != outputs[0] for o in outputs):
            raise SystemExit(f"{job.name}: outputs differ between runs")
        if job.gb_input is not None and code == 0:
            cross_check(job, stdout)
            checked += 1
        entries[job.name] = {
            "script_sha256": job.sha,
            "exit": code,
            "stdout_sha256": hashlib.sha256(stdout.encode()).hexdigest(),
        }
    print(f"{workload}: {len(entries)} jobs, {checked} bases checked "
          f"against sympy")
    return entries


def main():
    cli = bench.load_program()
    import cancelkit
    os.makedirs(bench.WORK, exist_ok=True)
    scratch = tempfile.mkdtemp(dir=bench.WORK)
    try:
        reference = {
            "program": f"cancelkit {cancelkit.__version__}",
            "workloads": {w: record(cli, w, os.path.join(scratch, w))
                          for w in bench.WORKLOADS},
        }
    finally:
        shutil.rmtree(scratch)
    with open(bench.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
