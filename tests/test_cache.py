"""The per-job store: a repeat within one job is read back, and nothing a
job computed is kept for the next one, however the job ended."""

import contextlib
import io

from cancelkit import cancellation, gb
from cancelkit.cache import active_store
from cancelkit.cli import main

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
