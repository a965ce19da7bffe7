"""Command-line interface.

    cancelkit run <script> [--field SPEC] [--seed N] [--ncap N]
                  [--attempts N] [--allow-long] [--cache-dir PATH]
                  [--json|--text]

Subcommands cancel-check / witness / link / cor213 / power-scan load a
script for its ring and bindings and then run the one theorem command
on named bindings; `cancelkit example 2.5|2.6|2.7` runs a worked
example directly (2.7 needs --allow-long).

Exit codes: 0 success, 1 usage/parse/other error, 2 hypothesis failure,
3 resource limit exceeded, 4 theorem violation.
"""

import argparse
import functools
import sys
import time

from .cache import GBCache, Store, active_store
from .errors import (BadRegularSequence, CancelkitError, HypothesisFailed,
                     NotReduction, NotSubideal, PreconditionUnmet,
                     RequiresDimensionOne, ResourceExceeded,
                     ScriptSyntaxError, TheoremViolation)
from .fields import field_from_spec
from .script import RunFlags, canonical_json, parse_script, run

_HYPOTHESIS_ERRORS = (HypothesisFailed, PreconditionUnmet, NotSubideal,
                      BadRegularSequence, RequiresDimensionOne,
                      NotReduction)


@functools.cache
def build_parser():
    """The argument parser, built on the first call and reused."""
    parser = argparse.ArgumentParser(
        prog="cancelkit",
        description="polynomial ideal arithmetic and cancellation-theorem "
                    "verification")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, script=True):
        if script:
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
        p.add_argument("--allow-long", action="store_true",
                       help="permit known long-running computations")
        p.add_argument("--cache-dir", default=None,
                       help="directory for the Groebner-basis cache")
        fmt = p.add_mutually_exclusive_group()
        fmt.add_argument("--json", dest="fmt", action="store_const",
                         const="json", default="json")
        fmt.add_argument("--text", dest="fmt", action="store_const",
                         const="text")

    common(sub.add_parser("run", help="execute a script"))

    p = sub.add_parser("cancel-check",
                       help="verify K*I in J*I implies K in J")
    common(p)
    p.add_argument("ideal", help="name of the ideal I")
    p.add_argument("sequence",
                   help="name of an ideal whose generators are a_1..a_g")
    p.add_argument("extra", help="expression for a_{g+1}")
    p.add_argument("candidate", help="name of the ideal K")

    p = sub.add_parser("witness", help="replay the proof construction")
    common(p)
    p.add_argument("ideal")
    p.add_argument("sequence")
    p.add_argument("extra")

    p = sub.add_parser("link", help="compute the link (a:I) + I")
    common(p)
    p.add_argument("ideal")
    p.add_argument("sequence")

    p = sub.add_parser("cor213",
                       help="power-membership equivalence check")
    common(p)
    p.add_argument("ideal")
    p.add_argument("sequence")
    p.add_argument("extra")
    p.add_argument("n", type=int)

    p = sub.add_parser("power-scan",
                       help="least n with I^n inside a reduction J")
    common(p)
    p.add_argument("ideal")
    p.add_argument("reduction")
    p.add_argument("nmax", type=int, nargs="?", default=None)

    p = sub.add_parser("example", help="run a worked example")
    common(p, script=False)
    p.add_argument("tag", choices=["2.5", "2.6", "2.7"])
    return parser


def _synthesized_command(args):
    sc = args.subcommand
    if sc == "cancel-check":
        return (f"cancelcheck({args.ideal}, {args.sequence}, "
                f"{args.extra}, {args.candidate});")
    if sc == "witness":
        return f"witness({args.ideal}, {args.sequence}, {args.extra});"
    if sc == "link":
        return f"link({args.ideal}, {args.sequence});"
    if sc == "cor213":
        return (f"cor213({args.ideal}, {args.sequence}, {args.extra}, "
                f"{args.n});")
    if sc == "power-scan":
        nmax = args.nmax if args.nmax is not None else args.ncap
        return f"powerscan({args.ideal}, {args.reduction}, {nmax});"
    return None


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


def main(argv=None):
    args = build_parser().parse_args(argv)
    flags = RunFlags(field=args.field, seed=args.seed, n_cap=args.ncap,
                     attempts=args.attempts, allow_long=args.allow_long)
    # one store per job, dropped when the job ends however it ends
    store = Store(GBCache(args.cache_dir) if args.cache_dir else None)
    token = active_store.set(store)
    start = time.monotonic()
    try:
        if args.subcommand == "example":
            from .fixtures import run_example
            field = field_from_spec(args.field) if args.field else None
            result = run_example(args.tag, seed=args.seed,
                                 attempts=args.attempts, n_cap=args.ncap,
                                 allow_long=args.allow_long, field=field)
            report = {
                "schema": 1,
                "seed": args.seed,
                "commands": [{"index": 0,
                              "command": f"example {args.tag}",
                              "result": result}],
            }
        else:
            with open(args.script, encoding="utf-8") as fh:
                text = fh.read()
            extra_cmd = _synthesized_command(args)
            if extra_cmd:
                text = text.rstrip() + "\n" + extra_cmd + "\n"
            script = parse_script(text)
            report = run(script, flags)
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
    elapsed = time.monotonic() - start
    if args.fmt == "json":
        print(canonical_json(report))
    else:
        print(_render_text(report, elapsed, store))
    return 0


if __name__ == "__main__":
    sys.exit(main())
