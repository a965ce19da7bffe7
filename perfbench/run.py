"""cancelkit benchmark: closed-loop streams of cancelkit scripts.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  One client, no threads: each job is a call of
``cancelkit.cli.main(["run", <script>, ...])`` in this process, and the
next job starts when the previous one returns.  Jobs run in rounds; a
round is the workload's whole recorded pool in an order drawn from
``--seed``.  A run measures the number of whole rounds whose job time, at
full host speed (see ``speed_probe``), comes nearest to ``--seconds``.

Every job's exit code and the sha256 of its stdout are checked against
``perfbench/reference.json`` (written by ``perfbench/record.py``).

With ``--trace 0`` the last line holds the end-to-end metrics.  With
``--trace 1`` rounds run untraced for half of ``--seconds``, then the same
jobs run again with spans around every call into cancelkit's public
functions (``perfbench/spans.py``); the last line holds the per-layer
metrics, the outputs of both passes must agree byte for byte, and the
spans are written to ``.bench_build/perfbench/``.
"""

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_build", "perfbench")
REFERENCE = os.path.join(HERE, "reference.json")
SETUP_PROBES = 9
# Time of speed_probe() when the host runs this process at full speed.
REFERENCE_PROBE_S = 0.007

sys.path.insert(0, HERE)
import jobs as jobgen  # noqa: E402
import spans as tracing  # noqa: E402

WORKLOADS = ("verify", "reduce", "rerun-q")
CACHED = {"rerun-q"}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def load_program():
    """Import cancelkit.cli from this checkout's src/, never from an
    installed copy."""
    if not os.path.isdir(os.path.join(SRC, "cancelkit")):
        raise BenchError(f"no cancelkit sources under {SRC}")
    sys.path.insert(0, SRC)
    import cancelkit.cli
    origin = os.path.dirname(os.path.dirname(os.path.abspath(
        cancelkit.cli.__file__)))
    if os.path.normcase(origin) != os.path.normcase(os.path.abspath(SRC)):
        raise BenchError(f"cancelkit imported from {origin}, not {SRC}")
    return cancelkit.cli


def load_reference(workload):
    try:
        with open(REFERENCE, encoding="utf-8") as fh:
            return json.load(fh)["workloads"][workload]
    except (OSError, KeyError, ValueError) as exc:
        raise BenchError(f"no reference for {workload}: {exc}") from exc


def prepare(workload, directory):
    """Write the workload's pool into `directory`; returns
    [(job, script path)] in pool order."""
    os.makedirs(directory, exist_ok=True)
    pool = []
    for job in jobgen.POOLS[workload]():
        path = os.path.join(directory, job.name + ".ck")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(job.text)
        pool.append((job, path))
    return pool


def setup_probe(workload, directory):
    """What a fresh deployment pays before its first job: interpreter
    start (paid by the caller), importing cancelkit.cli, writing inputs."""
    load_program()
    prepare(workload, directory)


_PROBE_TABLE = {(i * 2654435761) & 0xFFFFFFFF | 1 << 70: i
                for i in range(1024)}
_PROBE_KEYS = list(_PROBE_TABLE)


def speed_probe():
    """Seconds taken by fixed interpreter work that does not touch
    cancelkit: big-int dict lookups and arithmetic on tables built at
    import, so the probe allocates nothing that the heap a job leaves
    behind could slow down.

    The hosts this runs on change the speed they give a process by up to
    half within seconds, with no steal time to show for it.  Dividing a
    job's time by the probe times taken around it removes most of that
    drift and keeps every change the program makes."""
    start = time.perf_counter()
    table = _PROBE_TABLE
    keys = _PROBE_KEYS
    acc = 0
    for i in range(30000):
        key = keys[(i * 7 + acc) & 1023]
        acc = (acc + table[key] * 31 + (key >> 64)) & 0xFFFF
    return time.perf_counter() - start


def measure_setup(workload, directory):
    """Median time of fresh interpreters running setup_probe, in seconds
    at full host speed (see speed_probe)."""
    times = []
    before = speed_probe()
    for i in range(SETUP_PROBES):
        probe_dir = os.path.join(directory, f"probe{i}")
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             probe_dir, "--workload", workload],
            check=True, cwd=ROOT, stdin=subprocess.DEVNULL, timeout=60)
        raw = time.perf_counter() - start
        after = speed_probe()
        times.append(raw * 2 * REFERENCE_PROBE_S / (before + after))
        before = after
        shutil.rmtree(probe_dir)
    return statistics.median(times)


class Result:
    """One submission: `raw` is its wall time, `seconds` the same at full
    host speed."""

    __slots__ = ("job", "submission", "code", "stdout", "raw", "seconds",
                 "ok")

    def __init__(self, job, submission, code, stdout, raw, seconds):
        self.job = job
        self.submission = submission  # "cold" or "warm"
        self.code = code
        self.stdout = stdout
        self.raw = raw
        self.seconds = seconds
        self.ok = False


def call(cli, argv):
    """One job through the real entry point; returns (exit code, stdout,
    seconds)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is a failed job, not a crash here
            code = f"exception {type(exc).__name__}: {exc}"
    return code, out.getvalue(), time.perf_counter() - start


class Stream:
    """Runs rounds of one workload's pool and checks every job.

    A speed probe runs after every job.  A job's latency, and the time
    since the previous probe, are scaled by REFERENCE_PROBE_S over the mean
    of the probes before and after it; `busy` sums the scaled times, so
    throughput leaves out the probes."""

    def __init__(self, cli, workload, seed, pool, reference, directory):
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.pool = pool
        self.reference = reference
        self.directory = directory
        self.cache_bytes = 0
        self.busy = 0.0
        self.scales = []
        self._probe = None
        self._slot_start = None

    def start_clock(self):
        self.busy = 0.0
        self.scales = []
        gc.collect()
        self._probe = speed_probe()
        self._slot_start = time.perf_counter()

    def timed(self, job, submission, argv):
        code, stdout, raw = call(self.cli, argv)
        slot = time.perf_counter() - self._slot_start
        # every job starts from a collected heap, whatever the last one left
        gc.collect()
        probe = speed_probe()
        scale = 2 * REFERENCE_PROBE_S / (self._probe + probe)
        self._probe = probe
        self.scales.append(scale)
        self.busy += slot * scale
        self._slot_start = time.perf_counter()
        return Result(job, submission, code, stdout, raw, raw * scale)

    def rounds_for(self, seconds, min_rounds):
        """Whole rounds, as many as bring `busy` nearest to `seconds` (at
        least `min_rounds`), so that the number of rounds does not follow
        the host's speed; returns (results, rounds run, wall seconds)."""
        results = []
        self.start_clock()
        start = time.perf_counter()
        rounds = 0
        while True:
            for job, path in jobgen.stream(self.pool, self.seed, rounds):
                results.extend(self.submit(job, path, first=rounds == 0))
            rounds += 1
            if rounds >= min_rounds and \
                    self.busy + self.busy / rounds / 2 >= seconds:
                break
        return results, rounds, time.perf_counter() - start

    def replay(self, results, tracer):
        """Submit the same jobs again, in the same order, traced; the
        spans of submission i belong to job i."""
        paths = {job.name: path for job, path in self.pool}
        out = []
        self.start_clock()
        while len(out) < len(results):
            job = results[len(out)].job
            tracer.begin_job(len(out))
            out.extend(self.submit(job, paths[job.name], first=False,
                                   tracer=tracer, index=len(out)))
        return out

    def submit(self, job, path, first, tracer=None, index=0):
        if self.workload not in CACHED:
            result = self.timed(job, "cold" if first else "warm",
                                ["run", path])
            self.check(result)
            return [result]
        # a fresh cache per script: cold fills it, warm reads it
        cache_dir = os.path.join(self.directory, "cache")
        os.makedirs(cache_dir)
        try:
            argv = ["run", path, "--cache-dir", cache_dir]
            cold = self.timed(job, "cold", argv)
            if tracer is not None:
                tracer.begin_job(index + 1)
            warm = self.timed(job, "warm", argv)
            if tracer is not None:
                self.cache_bytes += sum(
                    e.stat().st_size for e in os.scandir(cache_dir))
        finally:
            shutil.rmtree(cache_dir)
        self.check(cold)
        self.check(warm)
        if warm.stdout != cold.stdout:
            warm.ok = False
        return [cold, warm]

    def check(self, result):
        ref = self.reference.get(result.job.name)
        result.ok = (
            ref is not None
            and ref["script_sha256"] == result.job.sha
            and result.code in (0, 2)
            and result.code == ref["exit"]
            and hashlib.sha256(result.stdout.encode()).hexdigest()
            == ref["stdout_sha256"])


def tail(latencies):
    """Latency at the highest percentile with at least ten jobs beyond it:
    the 11th largest.  Returns (value, percentile, sample count)."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(results, busy, setup_s):
    latencies = [r.seconds for r in results]
    cold = [r.seconds for r in results if r.submission == "cold"]
    warm = [r.seconds for r in results if r.submission == "warm"]
    tail_s, pct, n = tail(latencies)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed = sum(1 for r in results if not r.ok)
    print(f"jobs {len(results)}, failed {failed}, failed_frac "
          f"{failed / len(results):.4f}; tail is p{pct:.1f} of {n} jobs; "
          f"{len(cold)} cold, {len(warm)} warm")
    return {
        "jobs_per_s": metric(len(results) / busy, "1/s"),
        "job_p50_s": metric(statistics.median(latencies), "s"),
        "job_tail_s": metric(tail_s, "s"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(rss_mb, "MB"),
        "cold_job_p50_s": metric(statistics.median(cold), "s"),
        "warm_job_p50_s": metric(statistics.median(warm), "s"),
    }


def per_layer(tracer, traced, traced_busy, untraced_busy, cache_bytes):
    # self times are wall times, so the base is the jobs' wall time
    job_wall = sum(r.raw for r in traced)
    out = {}
    for name in tracing.SPAN_NAMES:
        calls, self_s = tracer.stats[name]
        out[f"{name}.calls"] = metric(calls, "count")
        out[f"{name}.self_s"] = metric(self_s, "s")
    gb_calls = tracer.stats["gb.buchberger"][0]
    out["gb.buchberger.repeat_frac"] = metric(
        tracer.gb_calls_repeated / gb_calls if gb_calls else 0.0, "ratio")
    out["gb.buchberger.out_terms"] = metric(tracer.gb_out_terms, "count")
    coh_calls = tracer.stats["resolutions.cohomology_summary"][0]
    out["resolutions.cohomology_summary.repeat_frac"] = metric(
        tracer.cohomology_repeated / coh_calls if coh_calls else 0.0,
        "ratio")
    out["reductions.attempts_per_success"] = metric(
        tracer.search_attempts / tracer.search_successes
        if tracer.search_successes else 0.0, "ratio")
    hits, misses = tracer.cache_counts()
    out["cache.hit_ratio"] = metric(
        hits / (hits + misses) if hits + misses else 0.0, "ratio")
    out["cache.bytes_written"] = metric(cache_bytes, "B")
    for layer in tracing.LAYERS:
        self_s = sum(tracer.stats[n][1] for n in tracing.SPAN_NAMES
                     if n.split(".")[0] == layer)
        out[f"layer.{layer}.share"] = metric(self_s / job_wall, "ratio")
    out["trace.overhead_s"] = metric(traced_busy - untraced_busy, "s")
    out["trace.overhead_frac"] = metric(
        (traced_busy - untraced_busy) / untraced_busy, "ratio")
    out["trace.spans"] = metric(len(tracer.spans), "count")
    return out


def run(args):
    cli = load_program()
    reference = load_reference(args.workload)
    directory = os.path.join(
        WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(directory)
    try:
        setup_s = None
        if not args.trace:
            setup_s = measure_setup(args.workload, directory)
        pool = prepare(args.workload, os.path.join(directory, "scripts"))
        missing = [job.name for job, _ in pool
                   if reference.get(job.name, {}).get("script_sha256")
                   != job.sha]
        if missing:
            raise BenchError(f"pool differs from the reference: {missing}")
        stream = Stream(cli, args.workload, args.seed, pool, reference,
                        directory)
        if not args.trace:
            # two rounds at least: later rounds give the warm latencies of
            # the workloads without a cache
            results, rounds, elapsed = stream.rounds_for(args.seconds, 2)
            scale = statistics.median(stream.scales)
            print(f"{args.workload}: {rounds} rounds of {len(pool)} "
                  f"scripts in {elapsed:.2f} s, {stream.busy:.2f} s at full "
                  f"speed (median scale {scale:.3f})")
            metrics = end_to_end(results, stream.busy, setup_s)
            attempted = results
            correct = all(r.ok for r in results)
        else:
            untraced, rounds, _ = stream.rounds_for(args.seconds / 2, 1)
            untraced_busy = stream.busy
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = stream.replay(untraced, tracer)
                traced_busy = stream.busy
            finally:
                tracer.uninstall()
            same = [a.code == b.code and a.stdout == b.stdout
                    for a, b in zip(untraced, traced)]
            trace_path = os.path.join(
                WORK, f"trace-{args.workload}-{args.seed}.jsonl")
            tracer.write(trace_path)
            print(f"{args.workload}: {rounds} rounds untraced in "
                  f"{untraced_busy:.2f} s, traced in {traced_busy:.2f} s "
                  f"at full speed; "
                  f"{sum(same)}/{len(same)} outputs identical; "
                  f"{len(tracer.spans)} spans in {trace_path}")
            metrics = per_layer(tracer, traced, traced_busy, untraced_busy,
                                stream.cache_bytes)
            attempted = untraced + traced
            correct = all(r.ok for r in attempted) and all(same) \
                and len(untraced) == len(traced)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    for name, m in metrics.items():
        print(f"  {name} = {m['value']} {m['unit']}")
    failed = sum(1 for r in attempted if not r.ok)
    print(json.dumps({"correct": correct, "attempted": len(attempted),
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="DIR",
                        help="internal: time one fresh set-up")
    args = parser.parse_args(argv)
    try:
        if args.setup_probe:
            setup_probe(args.workload, args.setup_probe)
            return 0
        return run(args)
    except BenchError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
