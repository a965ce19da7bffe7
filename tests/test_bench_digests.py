"""Every benchmark job, checked against the recorded digests.

Runs each job of the ``verify`` and ``reduce`` pools twice in this
process through ``cancelkit.cli.main``, as ``perfbench/run.py`` does, and
each ``rerun-q`` job cold and then warm on a fresh disk cache, and
compares its exit code and the sha256 of its stdout with
``perfbench/reference.json``: a changed report shows here in a few
seconds instead of in a full benchmark run.  One ``rerun-q`` job also
checks the disk cache's file traffic: a cold job appends to the cache log
once, a warm job reads it once.  Reads ``perfbench/`` and writes nothing
there.
"""

import builtins
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import pathlib
import sys

import pytest

from cancelkit import cli

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _load_jobs():
    spec = importlib.util.spec_from_file_location(
        "perfbench_jobs", PERFBENCH / "jobs.py")
    module = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


JOBS = _load_jobs()
REFERENCE = json.loads((PERFBENCH / "reference.json").read_text())


def _names(workload):
    return [job.name for job in JOBS.POOLS[workload]()]


def _job(workload, name):
    [job] = [j for j in JOBS.POOLS[workload]() if j.name == name]
    ref = REFERENCE["workloads"][workload][name]
    assert ref["script_sha256"] == job.sha, "the pool no longer matches"
    return job, ref


def _run(path, *flags):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["run", str(path), *flags])
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


def test_every_recorded_job_is_checked():
    for workload in ("verify", "reduce", "rerun-q"):
        assert sorted(_names(workload)) == sorted(
            REFERENCE["workloads"][workload]), workload


@pytest.mark.parametrize("workload, name", [
    (workload, name) for workload in ("verify", "reduce")
    for name in _names(workload)])
def test_job_matches_reference(tmp_path, workload, name):
    # twice in one process, as the benchmark's later rounds run it: state
    # left over from the first run must not change the second
    job, ref = _job(workload, name)
    path = tmp_path / f"{name}.ck"
    path.write_text(job.text)
    expected = (ref["exit"], ref["stdout_sha256"])
    assert _run(path) == expected
    assert _run(path) == expected


def test_cached_job_matches_reference_cold_and_warm(tmp_path):
    # curve jobs have coefficients +-1 only; ci and sparse jobs have
    # non-unit leading coefficients, so their Q division takes the
    # pseudo-division scaling step
    for name in _names("rerun-q"):
        job, ref = _job("rerun-q", name)
        path = tmp_path / f"{name}.ck"
        path.write_text(job.text)
        cache = tmp_path / f"cache-{name}"
        cold = _run(path, "--cache-dir", str(cache))
        assert any(cache.iterdir()), name
        warm = _run(path, "--cache-dir", str(cache))
        assert cold == warm == (ref["exit"], ref["stdout_sha256"]), name


def test_a_cold_job_appends_once_and_a_warm_job_reads_once(tmp_path,
                                                          monkeypatch):
    # the disk cache is one log per directory: a cold job opens it for
    # appending once and writes once, a warm job reads it once and
    # appends nothing
    name = _names("rerun-q")[0]
    job, ref = _job("rerun-q", name)
    path = tmp_path / f"{name}.ck"
    path.write_text(job.text)
    directory = tmp_path / "cache"
    flags = ("--cache-dir", str(directory))
    reads, appends, writes = [], [], []
    fds = set()
    real_open, real_os_open, real_write = builtins.open, os.open, os.write

    def inside(file):
        return isinstance(file, (str, os.PathLike)) and \
            os.path.dirname(os.fspath(file)) == str(directory)

    def counted_open(file, *args, **kwargs):
        if inside(file):
            reads.append(file)
        return real_open(file, *args, **kwargs)

    def counted_os_open(file, flags, *args, **kwargs):
        fd = real_os_open(file, flags, *args, **kwargs)
        if inside(file):
            appends.append(flags)
            fds.add(fd)
        return fd

    def counted_write(fd, data):
        written = real_write(fd, data)
        if fd in fds:
            writes.append(written)
        return written

    monkeypatch.setattr(builtins, "open", counted_open)
    monkeypatch.setattr(os, "open", counted_os_open)
    monkeypatch.setattr(os, "write", counted_write)
    expected = (ref["exit"], ref["stdout_sha256"])
    assert _run(path, *flags) == expected
    assert len(appends) == 1 and appends[0] & os.O_APPEND
    [log] = os.listdir(directory)
    assert writes == [(directory / log).stat().st_size]
    entries = [line for line in (directory / log).read_bytes().split(b"\n")
               if line]
    assert len(entries) > 1
    del reads[:], appends[:], writes[:]
    assert _run(path, *flags) == expected
    assert (len(reads), appends, writes) == (1, [], [])
    assert os.listdir(directory) == [log]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["run", str(path), "--text", *flags]) == ref["exit"]
    assert f"cache: {len(entries)} hits, 0 misses, 0 bytes written" in \
        out.getvalue().splitlines()
