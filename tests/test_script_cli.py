import json
import os
import re
import subprocess
import sys
import warnings

import pytest

from cancelkit.cache import LOG
from cancelkit.cli import build_parser, main
from cancelkit.errors import ScriptSyntaxError
from cancelkit.fields import PrimeField
from cancelkit.ring import Ring
from cancelkit.script import (MAX_NESTING, Interpreter, RunFlags,
                              canonical_json, parse_script)
from cancelkit.script import run as run_parsed

import oracle
from worked_examples import EXAMPLES, example_path


def run_script(text, flags=None):
    return run_parsed(parse_script(text), flags)


BASIC = """\
ring R = zp(32003)[x,y,z] grevlex;
ideal P = kernel(t3,t4,t5);
dim P;
"""


def test_parse_shape():
    script = parse_script(BASIC)
    assert len(script.statements) == 3


def test_parse_weighted_ring():
    script = parse_script(
        "ring R = zp(101)[x:3,y:4,z:5] grevlex;\npoly f = y2-xz;\n")
    assert len(script.statements) == 2


def test_malformed_statement():
    with pytest.raises(ScriptSyntaxError) as exc:
        parse_script("ring R = zp(32003)[x,y] grevlex;\nideal = ;\n")
    assert exc.value.line == 2


def test_run_basic_script():
    report = run_script(BASIC, RunFlags())
    assert report["schema"] == 1
    assert report["field"] == "zp:32003"
    assert report["ring"]["variables"] == ["x", "y", "z"]
    assert report["ring"]["weights"] is None  # ring was declared unweighted
    [cmd] = report["commands"]
    assert cmd["command"].startswith("dim")
    assert cmd["result"]["dim"] == 1
    assert cmd["result"]["height"] == 2


def test_reports_are_deterministic():
    a = canonical_json(run_script(BASIC, RunFlags(seed=7)))
    b = canonical_json(run_script(BASIC, RunFlags(seed=7)))
    assert a == b


def test_ideal_operations_in_script():
    text = """\
ring R = zp(32003)[x,y] grevlex;
ideal I = (x2, x*y, y2);
ideal J = colon(I, (x));
equal(J, (x, y));
mingens I;
"""
    report = run_script(text, RunFlags())
    results = [c["result"] for c in report["commands"]]
    assert results[0]["equal"] is True
    assert results[1]["min_gens"] == 3


def test_script_seed_flows_to_minreduction():
    text = """\
ring R = zp(32003)[x,y] grevlex;
ideal I = (x2, x*y, y2);
ideal J = minreduction(I);
reduction(I, J);
"""
    r1 = run_script(text, RunFlags(seed=3))
    r2 = run_script(text, RunFlags(seed=3))
    assert canonical_json(r1) == canonical_json(r2)
    assert str(r1["seed"]) == "3"
    assert r1["commands"][0]["result"]["is_reduction"] is True


def test_ideal_operations_nest():
    # an ideal argument is a name, a tuple or an operation call, so
    # operations compose without naming each step
    text = """\
ring R = zp(32003)[x,y] grevlex;
ideal I = (x2, y2);
ideal J = (x*y);
ideal K = colon(sum(I, J), (x));
ideal L = K;
print K;
equal(L, sum(colon(I, (x)), (y)));
"""
    results = [c["result"] for c in run_script(text)["commands"]]
    assert results == [{"generators": ["y", "x"]}, {"equal": True}]


# commands and operations outside the benchmark, in both styles

ALL_FORMS_HEAD = """\
ring R = zp(32003)[x,y,z] grevlex;
ideal I = (x2, x*y, y2);
ideal M = (x, y, z);
ideal A = (x2, y2);
ideal S = sum(I, (z2));
ideal T = product(I, M);
ideal U = intersect(I, (x, z));
ideal C = colon(I, (x, y));
ideal D = saturate(I, M);
ideal E = eliminate((x - z, y - z2), z);
ideal F = minreduction(I);
"""

SPACE_STYLE = ALL_FORMS_HEAD + """\
dim I;
height C;
mingens T;
print S;
print U;
print D;
print E;
print F;
contains I A;
contains C M;
equal C A;
member I x2;
member M z;
radicalmember I x;
cohomology I;
syzygetic I;
minreduction I;
link I [x2, y2];
link I A;
"""

CALL_STYLE = ALL_FORMS_HEAD + """\
dim(I);
height(C);
mingens(T);
print(S);
print(U);
print(D);
print(E);
print(F);
contains(I, A);
contains(C, M);
equal(C, A);
member(I, x2);
member(M, z);
radicalmember(I, x);
cohomology(I);
syzygetic(I);
minreduction(I);
link(I, [x2, y2]);
link(I, A);
contains(I, (x2, y2));
equal(C, (x, y));
member(I, x*y + y2);
member((x, y), z);
radicalmember(I, x + y);
"""

CALL_STYLE_REPORT = (
    '{"commands":[{"command":"dim I","index":11,"result":{"dim":1,"heig'
    'ht":2,"witness":["z"]}},{"command":"height C","index":12,"result":'
    '{"height":2}},{"command":"mingens T","index":13,"result":{"min_gen'
    's":7}},{"command":"print S","index":14,"result":{"generators":["x^'
    '2","x*y","y^2","z^2"]}},{"command":"print U","index":15,"result":{'
    '"generators":["x*y","x^2","y^2*z"]}},{"command":"print D","index":'
    '16,"result":{"generators":["y^2","x*y","x^2"]}},{"command":"print '
    'E","index":17,"result":{"generators":["x^2+32002*y"]}},{"command":'
    '"print F","index":18,"result":{"generators":["10265*x^2+27033*x*y+'
    '17948*y^2","6366*x^2+9644*x*y+27909*y^2"]}},{"command":"contains I'
    ' A","index":19,"result":{"contains":true}},{"command":"contains C '
    'M","index":20,"result":{"contains":false}},{"command":"equal C A",'
    '"index":21,"result":{"equal":false}},{"command":"member I x2","ind'
    'ex":22,"result":{"member":true}},{"command":"member M z","index":2'
    '3,"result":{"member":true}},{"command":"radicalmember I x","index"'
    ':24,"result":{"radical_member":true}},{"command":"cohomology I","i'
    'ndex":25,"result":{"d":1,"depth":1,"ext_vanishes":true,"g":2,"is_C'
    'M":true}},{"command":"syzygetic I","index":26,"result":{"is_syzyge'
    'tic":false,"offenders":["T2^2+32002*T1*T3"]}},{"command":"minreduc'
    'tion I","index":27,"result":{"analytic_spread":2,"attempts":1,"gen'
    'erators":["10265*x^2+27033*x*y+17948*y^2","6366*x^2+9644*x*y+27909'
    '*y^2"],"r":1,"seed":"0"}},{"command":"link I [...]","index":28,"re'
    'sult":{"K":["y","x"],"degenerate":false,"gci":null,"height":2,"unm'
    'ixed":null}},{"command":"link I A","index":29,"result":{"K":["y","'
    'x"],"degenerate":false,"gci":null,"height":2,"unmixed":null}},{"co'
    'mmand":"contains I ( x2 , y2 )","index":30,"result":{"contains":tr'
    'ue}},{"command":"equal C ( x , y )","index":31,"result":{"equal":t'
    'rue}},{"command":"member I x * y + y2","index":32,"result":{"membe'
    'r":true}},{"command":"member ( x , y ) z","index":33,"result":{"me'
    'mber":false}},{"command":"radicalmember I x + y","index":34,"resul'
    't":{"radical_member":true}}],"field":"zp:32003","ring":{"order":"g'
    'revlex","variables":["x","y","z"],"weights":null},"schema":1,"seed'
    '":0}')


def test_every_argument_form_in_both_styles():
    # the commands and ideal operations the benchmark never runs, with
    # an ideal given by name or as (f, g) and a list as [f, g]; the
    # report is pinned byte for byte
    assert canonical_json(run_script(CALL_STYLE)) == CALL_STYLE_REPORT
    # space style takes the same arguments: its report is the call-style
    # one without the five commands that need more than one token
    expected = json.loads(CALL_STYLE_REPORT)
    del expected["commands"][-5:]
    assert canonical_json(run_script(SPACE_STYLE)) == \
        canonical_json(expected)


@pytest.mark.parametrize("style", ["call", "space"])
def test_every_argument_form_in_a_job(tmp_path, capsys, style):
    # the same scripts as jobs (cli.main), with no disk cache and then
    # cold and warm on one fresh cache directory: each prints the
    # library report, and the warm job computes nothing new
    if style == "call":
        text, report = CALL_STYLE, CALL_STYLE_REPORT
    else:
        expected = json.loads(CALL_STYLE_REPORT)
        del expected["commands"][-5:]
        text, report = SPACE_STYLE, canonical_json(expected)
    script = tmp_path / "forms.ck"
    script.write_text(text)
    cached = ["--cache-dir", str(tmp_path / "cache")]
    logged = []
    for flags in ([], cached, cached):
        assert main(["run", str(script), *flags]) == 0
        assert capsys.readouterr().out == report + "\n"
        if flags:
            logged.append((tmp_path / "cache" / LOG).read_bytes())
    assert logged[0] and logged[1] == logged[0]


def _cli(args, **kw):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), "..", "src")
    return subprocess.run(
        [sys.executable, "-m", "cancelkit.cli"] + args,
        capture_output=True, text=True, env=env, **kw)


def test_cli_run_json(tmp_path):
    script = tmp_path / "s.ck"
    script.write_text(BASIC)
    out = _cli(["run", str(script), "--json"])
    assert out.returncode == 0, out.stderr
    report = json.loads(out.stdout)
    assert report["commands"][0]["result"]["dim"] == 1


def test_cli_byte_identical_runs(tmp_path):
    script = tmp_path / "s.ck"
    script.write_text(BASIC)
    a = _cli(["run", str(script), "--json", "--seed", "11"])
    b = _cli(["run", str(script), "--json", "--seed", "11"])
    assert a.stdout == b.stdout


# module bases (intersect, colon, resolution, hypotheses) go through the
# cache as well; over Q they also take the Fraction branch of division
MODULES_Q = """\
ring R = q[x:3,y:4,z:5] grevlex;
ideal P = kernel(t3,t4,t5);
ideal I = (x3 - 2*y*z, x*y);
ideal K = intersect(P, I);
ideal L = colon(P, (x));
gb K;
equal(L, P);
resolution P;
hypotheses(P, [y2-x*z, x3-y*z], x2*y-z2);
"""

CACHE_SCRIPTS = (BASIC, MODULES_Q)


def test_cli_cache_determinism(tmp_path):
    # output bytes agree between a cold run, a warm run, and a run after
    # the cache directory is wiped
    for i, text in enumerate(CACHE_SCRIPTS):
        script = tmp_path / f"s{i}.ck"
        script.write_text(text)
        cache = tmp_path / f"cache{i}"
        args = ["run", str(script), "--json", "--cache-dir", str(cache)]
        cold = _cli(args)
        warm = _cli(args)
        assert any(cache.iterdir())
        for f in cache.glob("**/*"):
            if f.is_file():
                f.unlink()
        evicted = _cli(args)
        assert cold.returncode == 0, cold.stderr
        assert cold.stdout == warm.stdout == evicted.stdout


def test_cli_cache_soundness(tmp_path):
    # cached and uncached answers agree
    for i, text in enumerate(CACHE_SCRIPTS):
        script = tmp_path / f"s{i}.ck"
        script.write_text(text)
        plain = json.loads(_cli(["run", str(script), "--json"]).stdout)
        cache = tmp_path / f"cache{i}"
        args = ["run", str(script), "--json", "--cache-dir", str(cache)]
        cold = json.loads(_cli(args).stdout)
        warm = json.loads(_cli(args).stdout)
        assert plain["commands"] == cold["commands"] == warm["commands"]


# the colon's kernel is C's basis, so `gb I;` logs the second basis
COLON_Q = """\
ring R = q[x,y,z] grevlex;
ideal I = (x*y, x*z, y*z);
ideal C = colon(I, (x, y));
gb C;
contains(C, (z));
gb I;
"""


def test_cli_corrupted_cache_entries(tmp_path):
    # an entry that is not a basis of its own key is a miss: the answer
    # is recomputed and the entry rewritten as a later line of the log,
    # never read back as a basis
    script = tmp_path / "colon.ck"
    script.write_text(COLON_Q)
    cache = tmp_path / "cache"
    args = ["run", str(script), "--json", "--cache-dir", str(cache)]
    cold = _cli(args)
    assert cold.returncode == 0, cold.stderr
    assert json.loads(cold.stdout)["commands"][0]["result"] == {
        "generators": ["z", "x*y"]}
    log = cache / LOG
    assert os.listdir(cache) == [LOG]

    def lines():
        return [line.partition(b" ")[::2]
                for line in log.read_bytes().split(b"\n") if line]

    originals = lines()
    assert len(dict(originals)) == len(originals) >= 2
    keys = [key for key, _ in originals]
    entries = [entry for _, entry in originals]
    corruptions = (
        [b"[]"] * len(entries),
        # each entry holds the bytes of another one
        entries[1:] + entries[:1],
    )
    for corrupt in corruptions:
        log.write_bytes(b"".join(b"\n" + key + b" " + entry
                                 for key, entry in zip(keys, corrupt)))
        rerun = _cli(args)
        assert rerun.returncode == 0, rerun.stderr
        assert rerun.stdout == cold.stdout
        # the misses were rewritten with the true entries, which are now
        # the last line under each key
        after = lines()
        assert after == list(zip(keys, corrupt)) + originals
        assert dict(after) == dict(originals)
        # and read back as hits
        text = _cli(["run", str(script), "--text", "--cache-dir", str(cache)])
        assert f"cache: {len(keys)} hits, 0 misses, 0 bytes written" \
            in text.stdout.splitlines()


def test_cli_exponent_overflow_exit_code(tmp_path):
    # y^66000 does not fit a 16-bit exponent field; it must not come back
    # as a wrong "contains: true"
    script = tmp_path / "big.ck"
    script.write_text("""\
ring R = zp(32003)[x,y] grevlex;
ideal J = power((y200), 330);
ideal K = (x);
contains(K, J);
""")
    out = _cli(["run", str(script)])
    assert out.returncode == 3, out.stdout
    assert "exponent" in out.stderr
    assert out.stdout == ""


def test_cli_exponent_overflow_in_division(tmp_path):
    # reducing x^3 by x - y^22000 under lex reaches x*y^44000; packed, the
    # carry out of y's field used to turn it into a smaller monomial and
    # the answer into a wrong "member: true"
    script = tmp_path / "div.ck"
    script.write_text("""\
ring R = zp(32003)[x,y] lex;
ideal I = (x - y22000);
member(I, x3 - y22464);
""")
    out = _cli(["run", str(script)])
    assert out.returncode == 3, out.stdout
    assert "exponent overflow" in out.stderr
    assert out.stdout == ""


def test_cli_heavy_weight_keeps_the_order(tmp_path):
    # weight 2^40 on x gives the same order as 2^20 on every monomial
    # the ring holds; the intersection runs in Block-ordered rings, whose
    # packed keys must hold the large weighted degree exactly
    script = tmp_path / "heavy.ck"
    script.write_text("""\
ring R = zp(32003)[x:1099511627776,y,z] grevlex;
ideal I = (4*y*z2 + 3*y2, 5*x2*y2*z3 + 2*x2*y*z2 + 5*x, 4*x2*z2);
ideal J = (y*z3 + 5*y3, 5*x2*y*z3 + 5*x*y3*z3 + z);
ideal K = intersect(I, J);
contains(J, K);
""")
    out = _cli(["run", str(script), "--json"], timeout=60)
    assert out.returncode == 0, out.stderr
    assert '"contains":true' in out.stdout


def test_long_expressions_evaluate_without_recursion():
    # a sum of 2000 terms (each a product of factors) is one chain node,
    # evaluated in a loop: it gives the sum built term by term in Python
    R = Ring(PrimeField(32003), ["x", "y", "z"])
    x, y, z = R.gens()
    texts, expected = [], R.zero()
    for k in range(2000):
        i, j, c = k % 13, k // 13, 1 + k % 7
        sign = "-" if k % 3 == 1 else "+"
        texts.append(f"{sign} {c}*x^{i}*y^{j}*z")
        term = R.constant(c) * x ** i * y ** j * z
        expected = expected - term if sign == "-" else expected + term
    text = " ".join(texts).removeprefix("+ ")
    assert oracle.poly(R, text) == expected
    assert oracle.poly(R, "*".join(["x"] * 2000)) == x ** 2000
    # nesting up to the bound still evaluates
    nested = "(" * MAX_NESTING + "x - y" + ")" * MAX_NESTING
    assert oracle.poly(R, nested) == x - y


def test_cli_deep_nesting_is_a_syntax_error(tmp_path, capsys):
    script = tmp_path / "deep.ck"
    script.write_text("ring R = zp(32003)[x,y] grevlex;\n"
                      "poly f = " + "(" * 3000 + "x" + ")" * 3000 + ";\n")
    assert main(["run", str(script)]) == 1
    assert "syntax error at line 2" in capsys.readouterr().err


def test_cli_syntax_error_exit_code(tmp_path):
    script = tmp_path / "bad.ck"
    script.write_text("ring R = zp(32003)[x,y] grevlex;\nideal = ;\n")
    out = _cli(["run", str(script)])
    assert out.returncode == 1
    assert "line 2" in out.stderr


WRONG_ARITY = (
    "contains(I);",
    "member I;",
    "cancelcheck(I, [x], x);",
    "ideal K = colon(I);",
    "ideal K = power(I);",
    "powerscan(I);",
)


def test_cli_wrong_arity_exit_code(tmp_path):
    # a command or ideal operation given too few arguments is a syntax
    # error at its statement, not a crash
    script = tmp_path / "arity.ck"
    for statement in WRONG_ARITY:
        script.write_text("ring R = zp(32003)[x,y] grevlex;\n"
                          f"ideal I = (x, y);\n{statement}\n")
        out = _cli(["run", str(script)])
        assert out.returncode == 1, statement
        assert "syntax error at line 3" in out.stderr, statement
        assert "Traceback" not in out.stderr, statement


def test_cli_kernel_image_names_a_ring_variable(tmp_path):
    # trailing digits in a kernel image are exponent shorthand on a new
    # target variable, so x2 names x and clashes with the ring's x
    script = tmp_path / "kernel.ck"
    for image, code, out_text in (("x2, x3", 1, "must be disjoint"),
                                  ("s2, s3", 0, '["x^3+32002*y^2"]')):
        script.write_text("ring R = zp(32003)[x,y];\n"
                          f"ideal K = kernel({image});\nprint K;\n")
        out = _cli(["run", str(script)])
        assert out.returncode == code, image
        assert out_text in out.stdout + out.stderr, image
        assert "Traceback" not in out.stderr, image


# a height-2 complete intersection, so Cohen-Macaulay; it is not
# homogeneous, so no minimal graded resolution reads its depth off
INHOMOGENEOUS = """\
ring R = zp(32003)[x,y,z] grevlex;
ideal I = (x*y*z + 3*y2*z + 1, 2*x*y - x*z);
"""


def test_cli_refuses_inhomogeneous_resolutions(tmp_path, capsys):
    script = tmp_path / "inhomogeneous.ck"
    for command in ("cohomology I;", "resolution I;",
                    "hypotheses(I, I, 2*x*y - x*z);"):
        script.write_text(INHOMOGENEOUS + command + "\n")
        assert main(["run", str(script)]) == 1, command
        out = capsys.readouterr()
        assert "not homogeneous" in out.err, command
        assert out.out == "", command


def test_mingens_tests_the_ideal_not_its_generators(tmp_path, capsys):
    # x + y2 is not homogeneous, but (x, x + y2) = (x, y2) is
    script = tmp_path / "mingens.ck"
    script.write_text("ring R = zp(32003)[x,y] grevlex;\n"
                      "ideal I = (x, x + y2);\nmingens I;\n")
    assert main(["run", str(script)]) == 0
    assert '"min_gens":2' in capsys.readouterr().out


def test_rees_of_constants(tmp_path, capsys):
    # (2, 3) is the unit ideal: T_i -> c_i*t, so the fiber ideal is the
    # linear relation 3*T1 - 2*T2 and the spread is 1; the generators'
    # degree 0 is not a weight the fiber ring can carry
    script = tmp_path / "constants.ck"
    script.write_text("ring R = q[x,y] grevlex;\nideal I = (2, 3);\n"
                      "rees I;\nideal J = minreduction(I);\n"
                      "minreduction I;\n")
    assert main(["run", str(script)]) == 0
    rees, search = json.loads(capsys.readouterr().out)["commands"]
    assert rees["result"]["analytic_spread"] == 1
    assert rees["result"]["fiber_generators"] == ["T1-2/3*T2"]
    assert search["result"]["analytic_spread"] == 1
    assert search["result"]["r"] == 0
    assert len(search["result"]["generators"]) == 1


@pytest.mark.parametrize("command, result", [
    ("reduction(I, J);", {"is_reduction": True, "r": 1}),
    ("rees I;", {"analytic_deviation": 0, "analytic_spread": 2,
                 "fiber_generators": ["TT2^2+32002*TT1*TT3"]}),
    ("minreduction I;", None),
], ids=["reduction", "rees", "minreduction"])
def test_a_ring_with_a_variable_t1_answers(tmp_path, capsys, command,
                                           result):
    # the Rees presentation names its variables TT1..TT3 here, so no
    # command meets a name collision
    script = tmp_path / "t1.ck"
    script.write_text("ring R = zp(32003)[T1,T2] grevlex;\n"
                      "ideal I = (T1^2, T1*T2, T2^2);\n"
                      f"ideal J = (T1^2, T2^2);\n{command}\n")
    assert main(["run", str(script)]) == 0
    [entry] = json.loads(capsys.readouterr().out)["commands"]
    if result is None:
        assert (entry["result"]["analytic_spread"], entry["result"]["r"],
                len(entry["result"]["generators"])) == (2, 1, 2)
    else:
        assert entry["result"] == result


def test_rees_of_the_unit_ideal_has_no_deviation(tmp_path, capsys):
    # the unit ideal has no height, so spread minus height is undefined:
    # null, not the -2 that the dimension report's height n + 1 gave
    script = tmp_path / "unit.ck"
    script.write_text("ring R = q[x,y] grevlex;\nideal U = (1, x);\n"
                      "ideal C = (2, 3);\nrees U;\nrees C;\n")
    assert main(["run", str(script)]) == 0
    unit, constants = json.loads(capsys.readouterr().out)["commands"]
    assert unit["result"] == {"analytic_deviation": None,
                              "analytic_spread": 1,
                              "fiber_generators": ["T2"]}
    assert constants["result"] == {"analytic_deviation": None,
                                   "analytic_spread": 1,
                                   "fiber_generators": ["T1-2/3*T2"]}


HYPOTHESIS_FAILURES = (
    """\
ring R = zp(32003)[x,y,z] grevlex;
ideal I = (x2, x*y);
ideal A = (x2);
hypotheses(I, [x2], x*y);
cancelcheck(I, [x2], x*y, A);
""",
    # generators of degrees 2 and 3 admit no sampled minimal reduction:
    # exit 2 at once, not exit 1 after the whole attempt budget
    """\
ring R = zp(32003)[x,y];
ideal I = (x2, x*y, y3);
ideal J = minreduction(I);
""",
)


def test_cli_hypothesis_failure_exit_code(tmp_path):
    script = tmp_path / "hyp.ck"
    for text in HYPOTHESIS_FAILURES:
        script.write_text(text)
        out = _cli(["run", str(script)])
        assert out.returncode == 2, out.stderr
    # a malformed statement after the failing one is found first
    script.write_text(HYPOTHESIS_FAILURES[0] + "poly f = x + + y;\n")
    out = _cli(["run", str(script)])
    assert out.returncode == 1, out.stderr
    assert "syntax error at line 6" in out.stderr


def test_cli_cache_dir_that_cannot_be_made(tmp_path):
    """A --cache-dir below a regular file cannot be made: a job that
    would exit 0 ends with `error: ...` and exit 1, a job that fails
    keeps its own exit code and message, and none ends in a traceback."""
    script = tmp_path / "job.ck"
    overflow = ("ring R = zp(32003)[x,y] grevlex;\n"
                "ideal J = power((y200), 330);\ncontains((x), J);\n")
    for text, code, first in (
            (BASIC, 1, "error: "),
            (HYPOTHESIS_FAILURES[0], 2, "hypothesis failure: "),
            (overflow, 3, "resource limit exceeded: "),
            (BASIC + "poly f = x + + y;\n", 1, "syntax error at line 4")):
        script.write_text(text)
        out = _cli(["run", str(script), "--cache-dir",
                    str(script / "sub")])
        assert out.returncode == code, out.stderr
        assert out.stdout == ""
        assert "Traceback" not in out.stderr
        lines = out.stderr.splitlines()
        assert lines[0].startswith(first), out.stderr
        assert lines[-1].startswith("error: "), out.stderr
        assert script.is_file()


POWERSCAN_NCAP = (
    # r(I, J) = 11: inside --ncap 12, J is a reduction and the scan runs
    ("(x12, y12, x*y11)", "(x12, y12)", "12", 0),
    # r(I, J) = 1 lies outside --ncap 0: the reduction is inconclusive
    ("(x2, x*y, y2)", "(x2, y2)", "0", 2),
)


@pytest.mark.parametrize("I, J, ncap, code", POWERSCAN_NCAP)
def test_powerscan_verifies_the_reduction_within_ncap(tmp_path, capsys, I,
                                                      J, ncap, code):
    script = tmp_path / "scan.ck"
    script.write_text(f"ring R = zp(32003)[x,y] grevlex;\nideal I = {I};\n"
                      f"ideal J = {J};\nreduction(I, J);\n"
                      "powerscan(I, J, 12);\n")
    assert main(["run", str(script), "--ncap", ncap]) == code
    out = capsys.readouterr()
    if code:
        assert "not a verified reduction" in out.err
    else:
        reduction, scan = json.loads(out.out)["commands"]
        assert reduction["result"] == {"is_reduction": True, "r": 11}
        assert scan["result"] == {"n": 2, "n_max": 12}

HYPOTHESES_THEN_CANCELCHECK = """\
ring R = zp(32003)[x:3,y:4,z:5] grevlex;
ideal P = kernel(t3,t4,t5);
ideal A = (y2-x*z, x3-y*z);
ideal J = (y2-x*z, x3-y*z, x2*y-z2);
hypotheses(P, A, x2*y-z2);
cancelcheck(P, A, x2*y-z2, J);
"""


def test_cli_text_mode(tmp_path, capsys):
    script = tmp_path / "s.ck"
    script.write_text(BASIC)
    out = _cli(["run", str(script), "--text"])
    assert out.returncode == 0
    assert "dim" in out.stdout
    # the parser is built once per process: --text must not stick
    assert main(["run", str(script), "--text"]) == 0
    assert "dim" in capsys.readouterr().out
    assert main(["run", str(script)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["commands"][0]["result"]["dim"] == 1
    # the job's store reports its counts with --text, without a disk
    # cache too; the JSON report carries none
    script.write_text(HYPOTHESES_THEN_CANCELCHECK)
    assert main(["run", str(script), "--text"]) == 0
    text = capsys.readouterr().out
    memo = re.search(r"^memo: (\d+) hits, \d+ misses$", text, re.M)
    assert memo and int(memo.group(1)) >= 1
    assert "cache:" not in text
    assert main(["run", str(script)]) == 0
    out = capsys.readouterr().out
    assert "hits" not in out and "misses" not in out
    assert json.loads(out)["commands"][1]["result"] == {"holds": True}


def test_cli_small_field_warning_is_one_line_per_job(tmp_path, capsys):
    # the default warning filter shows a warning once per process; the
    # CLI prints it for every job, as one plain line, whatever the
    # filters say
    script = tmp_path / "small.ck"
    script.write_text("ring R = zp(7)[x,y] grevlex;\n"
                      "ideal I = (x2, x*y, y2);\n"
                      "ideal J = minreduction(I);\n"
                      "reduction(I, J);\n")
    outputs = []
    for action in ("default", "ignore"):
        with warnings.catch_warnings():
            warnings.simplefilter(action)
            assert main(["run", str(script)]) == 0
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "warning: small coefficient field: generator count only "
            "heuristically certifies minimality"]
        assert "UserWarning" not in captured.err
        assert ".py" not in captured.err
        outputs.append(captured.out)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["commands"][0]["result"]["is_reduction"]


def test_cli_example_25_refused_before_the_rees_step():
    # the 2.5 prime is generated in mixed weighted degrees, so the
    # reduction search, the script's first command, refuses it at once
    for field in ([], ["--field", "q"]):
        out = _cli(["run", str(example_path("2.5"))] + field, timeout=60)
        assert out.returncode == 2
        assert "one degree" in out.stderr
        assert "35, 38, 39, 42, 48" in out.stderr


def test_cli_example_26_refused_before_the_rees_step():
    # the generators of the 2.6 prime have two degrees, so the reduction
    # search refuses them before any Rees presentation is computed
    for field in ([], ["--field", "q"]):
        out = _cli(["run", str(example_path("2.6"))] + field, timeout=60)
        assert out.returncode == 2
        assert "one degree" in out.stderr
        assert "12, 15" in out.stderr


THEOREM_BINDINGS = """\
ring R = zp(32003)[x:3,y:4,z:5] grevlex;
ideal P = kernel(t3,t4,t5);
ideal A = (y2-x*z, x3-y*z);
ideal I = (x2, x*y, y2);
ideal B = (x2, y2);
"""


def test_cli_witness_steps_all_hold(tmp_path):
    script = tmp_path / "w.ck"
    script.write_text(THEOREM_BINDINGS + "witness(P, A, x2*y-z2);\n")
    out = _cli(["run", str(script), "--json"])
    assert out.returncode == 0, out.stderr
    report = json.loads(out.stdout)
    last = report["commands"][-1]["result"]
    assert last["steps"], last
    assert all(ok for _name, ok in last["steps"])


def test_powerscan_nmax_defaults_to_ncap(tmp_path, capsys):
    script = tmp_path / "scan.ck"
    script.write_text(THEOREM_BINDINGS + "powerscan(I, B);\n")
    assert main(["run", str(script), "--ncap", "3"]) == 0
    result = json.loads(capsys.readouterr().out)["commands"][-1]["result"]
    assert result == {"n": 2, "n_max": 3}


@pytest.mark.parametrize("argv", [
    ["bogus"], ["run"], ["run", "x.ck", "--seed", "abc"],
    # a removed theorem subcommand is a usage error, not exit 2
    ["cancel-check", "x.ck", "P", "A", "x2*y-z2", "J"],
], ids=["unknown-subcommand", "no-script", "seed-not-int",
        "removed-subcommand"])
def test_cli_usage_error_exits_1(tmp_path, capsys, argv):
    script = tmp_path / "x.ck"
    script.write_text(THEOREM_BINDINGS
                      + "ideal J = (y2-x*z, x3-y*z, x2*y-z2);\n")
    argv = [str(script) if a == "x.ck" else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: cancelkit")
    assert "error: " in err


def test_cli_help_exits_0(capsys):
    for argv in (["--help"], ["run", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: cancelkit")


def test_readme_command_line_block_matches_the_parser():
    # README's "Command line" block names exactly the subcommands the
    # parser defines, and the run line exactly the options of `run`
    readme = (EXAMPLES.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```")[1]
    subcommands, run_options, current = [], set(), None
    for line in block.splitlines():
        if line.startswith("cancelkit "):
            current = line.split()[1]
            subcommands.append(current)
        if current == "run":
            run_options.update(re.findall(r"--[a-z][a-z-]*", line))
    parser = build_parser()
    choices = next(action.choices for action in parser._actions
                   if hasattr(action, "choices") and action.choices)
    assert subcommands == list(choices)
    assert run_options == {option
                           for action in choices["run"]._actions
                           for option in action.option_strings
                           if option.startswith("--")} - {"--help"}


def test_readme_script_language_names_every_handler():
    # README's "Script language" section names every command and ideal
    # operation of the interpreter, the theorem checks among them
    readme = (EXAMPLES.parent / "README.md").read_text()
    section = readme.split("## Script language", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"[a-z0-9]+", section))
    handlers = {name.split("_", 1)[1] for name in vars(Interpreter)
                if name.startswith(("cmd_", "op_"))}
    assert handlers and handlers <= named, sorted(handlers - named)
