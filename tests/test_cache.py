"""The per-job store: a repeat within one job is read back, and nothing a
job computed is kept for the next one, however the job ended."""

import contextlib
import io
from fractions import Fraction

from cancelkit import cache, cancellation, gb
from cancelkit.cache import active_store
from cancelkit.cli import main
from cancelkit.fields import PrimeField, RationalField
from cancelkit.ideals import Ideal
from cancelkit.ring import Polynomial, Ring

CURVE = """\
ring R = zp(32003)[x:3,y:4,z:5] grevlex;
ideal P = kernel(t3,t4,t5);
ideal A = (y2-x*z, x3-y*z);
ideal J = (y2-x*z, x3-y*z, x2*y-z2);
hypotheses(P, A, x2*y-z2);
cancelcheck(P, A, x2*y-z2, J);
hypotheses(P, [y2-x*z, x3-y*z], x2*y-z2);
"""

# the same ring and ideals, then a hypothesis failure (exit 2) or an
# exponent overflow (exit 3)
FAILING = {
    2: CURVE + "cancelcheck(P, A, x2*y-z2, (x));\n",
    3: CURVE + "ideal K = power((y200), 330);\ncontains(P, K);\n",
}


def _count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def _run(tmp_path, text, *flags):
    path = tmp_path / "job.ck"
    path.write_text(text)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(["run", str(path), *flags])
    assert active_store.get() is None
    return code, out.getvalue()


def test_repeated_hypothesis_check_runs_once_per_job(tmp_path, monkeypatch):
    summaries = _count_calls(monkeypatch, cancellation, "cohomology_summary")
    code, out = _run(tmp_path, CURVE)
    assert code == 0
    assert '"holds":true' in out
    assert len(summaries) == 1


def test_no_store_outlives_its_job(tmp_path, monkeypatch):
    interreduced = _count_calls(monkeypatch, gb, "_interreduce")
    first = _run(tmp_path, CURVE)
    computed = len(interreduced)
    assert first[0] == 0 and computed > 0
    for code, text in sorted(FAILING.items()):
        assert _run(tmp_path, text)[0] == code
        del interreduced[:]
        # a store left over from an earlier job would answer from memory
        assert _run(tmp_path, CURVE) == first
        assert len(interreduced) == computed


# non-unit leads and fractional coefficients, so the engine's integer
# working forms differ from the Fractions it hands back; the hypotheses
# (a resolution among them) need a homogeneous ideal
Q_JOB = """\
ring R = q[x,y,z] grevlex;
poly f = 3*x*y - 5*z;
poly g = 2/3*y*z - 7*x;
ideal I = (f, g, x^2 + 1/5*y^2 - z);
ideal J = (f, 2*x*z - 3*y*z);
gb I;
gb J;
ideal K = power(J, 2);
contains(I, K);
member(J, 2*x*z - 3*y*z);
poly h = 3*x*y - 5/2*z^2;
ideal H = (h, 2/3*x*z - 7*y^2);
hypotheses(H, [h, 2/3*x*z - 7*y^2], h);
"""


def _coefficients(obj, seen=None):
    """Every coefficient of every polynomial reachable from obj."""
    seen = set() if seen is None else seen
    if id(obj) in seen or isinstance(obj, (Ring, str, int, Fraction)):
        return
    seen.add(id(obj))
    if isinstance(obj, Polynomial):
        yield from obj.terms.values()
    elif isinstance(obj, dict):
        for value in obj.values():
            yield from _coefficients(value, seen)
    elif isinstance(obj, (list, tuple, set, frozenset)):
        for item in obj:
            yield from _coefficients(item, seen)
    elif hasattr(obj, "__dict__"):
        yield from _coefficients(vars(obj), seen)


def test_only_fractions_leave_the_engine_over_q(tmp_path, monkeypatch):
    R = Ring(RationalField(), ["x", "y", "z"])
    f, g = R.poly("3*x*y - 5*z"), R.poly("2/3*y*z - 7*x")
    G = gb.buchberger([f, g, R.poly("x^2 + 1/5*y^2 - z")])
    remainder = gb.normal_form(R.poly("2*x + y*z"), [R.poly("y*z")])
    assert remainder == R.poly("2*x")
    product = Ideal(R, [f, g]) * Ideal(R, [f, R.poly("2*x*z")])
    probe = R.poly("x*y*z + 1/2*y^3 + 4*z^2")
    for obj in (G, gb.normal_form(probe, G), remainder, product):
        coefficients = list(_coefficients(obj))
        assert coefficients
        assert all(type(c) is Fraction for c in coefficients)

    # what the store keeps, whether computed (cold) or read from the
    # disk cache (warm), and the reports of both runs
    kept = []
    recall = cache.Store.recall

    def recording(self, key, compute):
        kept.append(recall(self, key, compute))
        return kept[-1]

    monkeypatch.setattr(cache.Store, "recall", recording)
    flags = ("--cache-dir", str(tmp_path / "cache"))
    cold = _run(tmp_path, Q_JOB, *flags)
    assert cold[0] == 0 and kept
    warm = _run(tmp_path, Q_JOB, *flags)
    assert warm == cold
    coefficients = list(_coefficients(kept))
    assert coefficients
    assert all(type(c) is Fraction for c in coefficients)


def test_only_residues_leave_the_engine_over_fp(tmp_path, monkeypatch):
    """Over F_p the engine works on unreduced, possibly negative
    integers; what it hands back holds canonical residues only."""
    p = 32003
    R = Ring(PrimeField(p), ["x", "y", "z"])
    f, g = R.poly("3*x*y - 5*z"), R.poly("2/3*y*z - 7*x")
    G = gb.buchberger([f, g, R.poly("x^2 + 1/5*y^2 - z")])
    remainder = gb.normal_form(R.poly("2*x - y*z"), [R.poly("3*y*z - x")])
    assert remainder == R.poly("5/3*x")
    product = Ideal(R, [f, g]) * Ideal(R, [f, R.poly("2*x*z")])
    probe = R.poly("x*y*z + 1/2*y^3 - 4*z^2")
    for obj in (G, gb.normal_form(probe, G), remainder, product):
        coefficients = list(_coefficients(obj))
        assert coefficients
        assert all(type(c) is int and 0 < c < p for c in coefficients)

    kept = []
    recall = cache.Store.recall

    def recording(self, key, compute):
        kept.append(recall(self, key, compute))
        return kept[-1]

    monkeypatch.setattr(cache.Store, "recall", recording)
    flags = ("--cache-dir", str(tmp_path / "cache"))
    job = Q_JOB.replace("q[x,y,z]", f"zp({p})[x,y,z]")
    cold = _run(tmp_path, job, *flags)
    assert cold[0] == 0 and kept
    warm = _run(tmp_path, job, *flags)
    assert warm == cold
    coefficients = list(_coefficients(kept))
    assert coefficients
    assert all(type(c) is int and 0 < c < p for c in coefficients)
