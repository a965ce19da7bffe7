"""The package is what `cancelkit run` enters: every `def` in
src/cancelkit is entered by some job of a fixed corpus, run in this
process through `cli.main` under `sys.setprofile`.

The corpus is one job of each family of the benchmark's pools (a
`rerun-q` job cold and then warm on its own cache directory), the
call- and space-style scripts, the worked examples 2.5 and 2.6, and
four small scripts for what those miss: a mixed-degree ideal whose fiber
comes from the valuation sandwich and whose reduction number is decided
on products, a unit ideal and a non-homogeneous ideal over Q, a syntax
error, and a bare `run`.  A def that no job enters is dead code or code
only tests call; the latter lives in tests/.  Dunder methods are called
by the language.  Reads perfbench/ and writes nothing there.
"""

import ast
import contextlib
import io
import pathlib
import sys

import cancelkit
from cancelkit import cli

from test_bench_digests import JOBS
from test_script_cli import CALL_STYLE, SPACE_STYLE
from worked_examples import example_path

SRC = pathlib.Path(cancelkit.__file__).resolve().parent

# (file, qualified name): the reason no job enters it
ALLOWED = {
    ("fixtures.py", "monomial_curve"):
        "perfbench/test_perfbench.py imports it",
    ("script.py", "_takes"): "runs at import, before any job",
    ("script.py", "_takes.<locals>.mark"): "runs at import, before any job",
}

SANDWICH = """\
ring R = zp(32003)[x,y,z] grevlex;
ideal I = (x2, x*y, y3, z3);
ideal J = (x2 + x*y / 2, y3, z3);
rees I;
reduction(I, J);
"""

OVER_Q = """\
ring R = q[x,y] grevlex;
ideal U = (1, x);
ideal I = (x + y2, y3);
rees U;
syzygetic U;
rees I;
syzygetic I;
"""

BROKEN = """\
ring R = zp(32003)[x,y] grevlex;
ideal I = (x2, ;
"""


def _corpus(tmp_path):
    """(argv, expected exit code) of every run, in order."""
    runs = []

    def script(name, text, code, *flags):
        path = tmp_path / f"{name}.ck"
        path.write_text(text)
        runs.append((["run", str(path), *flags], code))

    for workload, make in JOBS.POOLS.items():
        families = {}
        for job in make():
            families.setdefault(job.name.rstrip("0123456789-"), job)
        for family, job in families.items():
            name = f"{workload}-{family}"
            if workload == "rerun-q":
                cache = ["--cache-dir", str(tmp_path / name)]
                script(name, job.text, job.expect, *cache)
                script(name, job.text, job.expect, *cache)
            else:
                script(name, job.text, job.expect)
    script("call", CALL_STYLE, 0)
    script("space", SPACE_STYLE, 0)
    for tag in ("2.5", "2.6"):
        runs.append((["run", str(example_path(tag))], 2))
    script("sandwich", SANDWICH, 0, "--text")
    script("over-q", OVER_Q, 0)
    script("broken", BROKEN, 1)
    runs.append((["run"], 1))
    return runs


def _main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return cli.main(argv)
        except SystemExit as exc:
            return exc.code


def _entered(runs):
    """The (file, first line) of every code object of src/cancelkit that
    the runs enter, with each run's exit code."""
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    # the parser is built on a process's first job; start from none
    cli.build_parser.cache_clear()
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        exits = [_main(argv) for argv, _ in runs]
    finally:
        sys.setprofile(previous)
    entered = {(pathlib.Path(c.co_filename).resolve(), c.co_firstlineno)
               for c in codes}
    return {(path.name, line) for path, line in entered
            if path.parent == SRC}, exits


def _defs():
    """(file, first line, def line, qualified name) of every def in
    src/cancelkit but the dunders; the first line is that of the first
    decorator, as a code object counts it."""
    out = []

    def visit(node, file, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, file, f"{scope}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = child.name
                if not (name.startswith("__") and name.endswith("__")):
                    first = min([child.lineno] + [d.lineno for d in
                                                  child.decorator_list])
                    out.append((file, first, child.lineno,
                                f"{scope}{name}"))
                visit(child, file, f"{scope}{name}.<locals>.")
            else:
                visit(child, file, scope)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path.name, "")
    return out


def test_every_def_is_entered_by_a_job(tmp_path):
    runs = _corpus(tmp_path)
    entered, exits = _entered(runs)
    assert exits == [code for _, code in runs]
    defs = _defs()
    never = [f"{file}:{line} {name}" for file, first, line, name in defs
             if (file, first) not in entered
             and (file, name) not in ALLOWED]
    assert not never, "no job enters:\n" + "\n".join(never)
    # an allowance that no longer holds is stale: its def was deleted,
    # or a job now enters it
    present = {(file, name): (file, first) in entered
               for file, first, _, name in defs}
    stale = [f"{file} {name}" for file, name in ALLOWED
             if present.get((file, name), True)]
    assert not stale, "stale allowances:\n" + "\n".join(stale)
