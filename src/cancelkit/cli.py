"""Command-line interface.

    cancelkit run <script> [--field SPEC] [--seed N] [--ncap N]
                  [--attempts N] [--cache-dir PATH] [--json|--text]

`run` is the one subcommand: it reads the script, runs it and prints
the report.  The theorem checks are script commands (cancelcheck,
witness, link, cor213, powerscan), and the worked examples are scripts
under examples/, run like any other.

Exit codes: 0 success, 1 usage/parse/other error, 2 hypothesis failure,
3 resource limit exceeded, 4 theorem violation.
"""

import argparse
import functools
import sys
import time
import warnings

from .cache import GBCache, Store, active_store
from .errors import (BadRegularSequence, CancelkitError, HypothesisFailed,
                     NotReduction, NotSubideal, PreconditionUnmet,
                     RequiresDimensionOne, ResourceExceeded,
                     ScriptSyntaxError, TheoremViolation)
from .script import RunFlags, canonical_json, parse_script, run

_HYPOTHESIS_ERRORS = (HypothesisFailed, PreconditionUnmet, NotSubideal,
                      BadRegularSequence, RequiresDimensionOne,
                      NotReduction)


class _ArgumentParser(argparse.ArgumentParser):
    """A parser whose usage errors exit 1, as every other refused input
    does; exit 2 means a hypothesis failure."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser():
    """The argument parser, built on the first call and reused."""
    parser = _ArgumentParser(
        prog="cancelkit",
        description="polynomial ideal arithmetic and cancellation-theorem "
                    "verification")
    sub = parser.add_subparsers(required=True)
    p = sub.add_parser("run", help="execute a script")
    p.add_argument("script", help="script file")
    p.add_argument("--field", default=None,
                   help="default coefficient field: q or zp:<p> "
                        "(used when the script's ring declaration "
                        "omits the field)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ncap", type=int, default=10,
                   help="reduction-number loop ceiling")
    p.add_argument("--attempts", type=int, default=50,
                   help="randomized search attempt budget")
    p.add_argument("--cache-dir", default=None,
                   help="directory for the Groebner-basis cache")
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", dest="fmt", action="store_const",
                     const="json", default="json")
    fmt.add_argument("--text", dest="fmt", action="store_const",
                     const="text")
    return parser


def _render_text(report, elapsed, store):
    lines = []
    if report.get("ring"):
        ring = report["ring"]
        weights = ring.get("weights")
        decorated = [f"{n}:{w}" for n, w in zip(ring["variables"], weights)] \
            if weights else ring["variables"]
        lines.append(f"ring {report['field']}[{','.join(decorated)}] "
                     f"{ring['order']}")
    for entry in report.get("commands", []):
        lines.append(f"[{entry['index']}] {entry['command']}")
        lines.append(f"    {entry['result']}")
    if store.disk is not None:
        lines.append(f"cache: {store.disk.hits} hits, "
                     f"{store.disk.misses} misses, "
                     f"{store.disk.bytes_written} bytes written")
    lines.append(f"memo: {store.hits} hits, {store.misses} misses")
    lines.append(f"elapsed: {elapsed:.2f}s")
    return "\n".join(lines)


def _flush(disk):
    """Append what the job put to the disk cache, if there is one; False,
    with the error on stderr, when the append failed."""
    if disk is None:
        return True
    try:
        disk.flush()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return False
    return True


def main(argv=None):
    args = build_parser().parse_args(argv)
    flags = RunFlags(field=args.field, seed=args.seed, n_cap=args.ncap,
                     attempts=args.attempts)
    # one store per job, dropped when the job ends however it ends; what
    # it put on disk is appended then, whatever the exit code, and a failed
    # append makes a job that succeeded exit 1
    store = Store(GBCache(args.cache_dir) if args.cache_dir else None)
    token = active_store.set(store)
    start = time.monotonic()
    try:
        with open(args.script, encoding="utf-8") as fh:
            text = fh.read()
        # a job's warnings are one plain line each, in every job of the
        # process, whatever the interpreter's warning filters
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                report = run(parse_script(text), flags)
            finally:
                for message in dict.fromkeys(str(w.message) for w in caught):
                    print(f"warning: {message}", file=sys.stderr)
    except ScriptSyntaxError as exc:
        print(f"syntax error at line {exc.line}, column {exc.col}: "
              f"{exc.message}", file=sys.stderr)
        return 1
    except TheoremViolation as exc:
        print(f"THEOREM VIOLATION: {exc}", file=sys.stderr)
        return 4
    except ResourceExceeded as exc:
        print(f"resource limit exceeded: {exc}", file=sys.stderr)
        return 3
    except _HYPOTHESIS_ERRORS as exc:
        print(f"hypothesis failure: {exc}", file=sys.stderr)
        return 2
    except (CancelkitError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        active_store.reset(token)
        flushed = _flush(store.disk)
    if not flushed:
        return 1
    elapsed = time.monotonic() - start
    if args.fmt == "json":
        print(canonical_json(report))
    else:
        print(_render_text(report, elapsed, store))
    return 0


if __name__ == "__main__":
    sys.exit(main())
