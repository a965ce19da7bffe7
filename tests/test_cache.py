"""The per-job store: a repeat within one job is read back, and nothing a
job computed is kept for the next one, however the job ended.  The disk
cache behind it: a key stable across processes, and every entry that is
not a basis of its own key and ring is a miss."""

import builtins
import contextlib
import io
import json
import os
import re
import subprocess
import sys
from fractions import Fraction

import pytest

import oracle
from cancelkit import cache, cancellation, cli, gb
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


def _report(out):
    """A --text report without its counts and time."""
    return [line for line in out.splitlines()
            if not line.startswith(("cache:", "memo:", "elapsed:"))]


def _log(directory):
    """The lines of the cache log in directory, in order, as (key, entry)
    byte pairs, leaving out the blank line each append starts with."""
    data = (directory / cache.LOG).read_bytes()
    return [line.partition(b" ")[::2] for line in data.split(b"\n") if line]


def _write_log(directory, lines):
    """Make the cache log in directory hold exactly these (key, entry)
    lines."""
    (directory / cache.LOG).write_bytes(
        b"".join(b"\n" + key + b" " + entry for key, entry in lines))


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
# working forms differ from the canonical forms it hands back, whose
# coefficients leave as Fractions; the hypotheses
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


def _polynomials(obj, seen=None):
    """Every polynomial reachable from obj."""
    seen = set() if seen is None else seen
    if id(obj) in seen or isinstance(obj, (Ring, str, int, Fraction)):
        return
    seen.add(id(obj))
    if isinstance(obj, Polynomial):
        yield obj
    elif isinstance(obj, dict):
        for value in obj.values():
            yield from _polynomials(value, seen)
    elif isinstance(obj, (list, tuple, set, frozenset)):
        for item in obj:
            yield from _polynomials(item, seen)
    elif hasattr(obj, "__dict__"):
        yield from _polynomials(vars(obj), seen)


def _coefficients(obj):
    """Every coefficient of every polynomial reachable from obj, as the
    accessor hands it out."""
    for f in _polynomials(obj):
        yield from (f.coeff(m) for m in f.terms)


def _canonical_fractions(obj):
    """Every polynomial reachable from obj is canonical, its coefficients
    and leading coefficient leave as Fractions, and one of a polynomial
    ring (not of a module ring, whose component names do not parse)
    renders to text that parses back to it; returns how many
    coefficients there are."""
    polys = list(_polynomials(obj))
    assert all(oracle.is_canonical(f) for f in polys)
    coefficients = list(_coefficients(polys))
    assert all(type(c) is Fraction for c in coefficients)
    assert all(type(f.lc()) is Fraction for f in polys if not f.is_zero())
    assert all(oracle.poly(f.ring, str(f)) == f
               for f in polys if f.ring.base is None)
    return len(coefficients)


def test_only_fractions_leave_the_engine_over_q(tmp_path, monkeypatch):
    """Over Q every polynomial the engine, the store and a warm read hand
    back is canonical (integer numerators over one denominator), and a
    coefficient leaves it as a Fraction: through the accessor, the
    leading coefficient and the rendered text."""
    R = Ring(RationalField(), ["x", "y", "z"])
    f, g = oracle.poly(R, "3*x*y - 5*z"), oracle.poly(R, "2/3*y*z - 7*x")
    G = gb.buchberger([f, g, oracle.poly(R, "x^2 + 1/5*y^2 - z")])
    remainder = gb.normal_form(oracle.poly(R, "2*x + y*z"),
                               [oracle.poly(R, "y*z")])
    assert remainder == oracle.poly(R, "2*x")
    product = Ideal(R, [f, g]) * Ideal(R, [f, oracle.poly(R, "2*x*z")])
    probe = oracle.poly(R, "x*y*z + 1/2*y^3 + 4*z^2")
    for obj in (G, gb.normal_form(probe, G), remainder, product):
        assert _canonical_fractions(obj)

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
    assert _canonical_fractions(kept)


def test_only_residues_leave_the_engine_over_fp(tmp_path, monkeypatch):
    """Over F_p the engine works on unreduced, possibly negative
    integers; what it hands back holds canonical residues only."""
    p = 32003
    R = Ring(PrimeField(p), ["x", "y", "z"])
    f, g = oracle.poly(R, "3*x*y - 5*z"), oracle.poly(R, "2/3*y*z - 7*x")
    G = gb.buchberger([f, g, oracle.poly(R, "x^2 + 1/5*y^2 - z")])
    remainder = gb.normal_form(oracle.poly(R, "2*x - y*z"),
                               [oracle.poly(R, "3*y*z - x")])
    assert remainder == oracle.poly(R, "5/3*x")
    product = Ideal(R, [f, g]) * Ideal(R, [f, oracle.poly(R, "2*x*z")])
    probe = oracle.poly(R, "x*y*z + 1/2*y^3 - 4*z^2")
    for obj in (G, gb.normal_form(probe, G), remainder, product):
        assert all(oracle.is_canonical(f) for f in _polynomials(obj))
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
    assert all(oracle.is_canonical(f) for f in _polynomials(kept))
    coefficients = list(_coefficients(kept))
    assert coefficients
    assert all(type(c) is int and 0 < c < p for c in coefficients)


def _key_in_subprocess(seed):
    code = ("import oracle\n"
            "from cancelkit.cache import basis_key\n"
            "from cancelkit.fields import RationalField\n"
            "from cancelkit.ring import Ring\n"
            "R = Ring(RationalField(), ['x', 'y', 'z'])\n"
            "print(basis_key(R, [oracle.poly(R, '3*x*y - 5/2*z'),"
            " oracle.poly(R, 'x^2 + 1/5*y^2 - z')]))\n")
    here = os.path.dirname(__file__)
    env = dict(os.environ, PYTHONHASHSEED=str(seed),
               PYTHONPATH=os.pathsep.join([os.path.join(here, "..", "src"),
                                           here]))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    return out.stdout.strip()


def test_basis_key_is_the_same_in_every_process():
    R = Ring(RationalField(), ["x", "y", "z"])
    here = cache.basis_key(R, [oracle.poly(R, "3*x*y - 5/2*z"),
                               oracle.poly(R, "x^2 + 1/5*y^2 - z")])
    assert re.fullmatch(r"[0-9a-f]{64}", here)
    assert _key_in_subprocess(1) == _key_in_subprocess(2) == here


def test_basis_key_ignores_generator_and_term_order():
    R = Ring(RationalField(), ["x", "y", "z"])
    f = oracle.poly(R, "3*x*y - 5/2*z + y^2")
    g = oracle.poly(R, "2/3*y*z - 7*x")
    backwards = [Polynomial(R, dict(reversed(list(h.terms.items()))), h.den)
                 for h in (g, f)]
    assert list(backwards[1].terms) != list(f.terms)
    assert cache.basis_key(R, [f, g]) == cache.basis_key(R, backwards)


def test_basis_key_tells_scalings_and_fields_apart():
    Q = Ring(RationalField(), ["x", "y", "z"])
    P = Ring(PrimeField(32003), ["x", "y", "z"])
    f = oracle.poly(Q, "3*x*y + 5*z")
    assert cache.basis_key(Q, [f]) != cache.basis_key(Q, [f.scale(2)])
    assert cache.basis_key(Q, [f]) != cache.basis_key(
        Q, [f.scale(Fraction(1, 2))])
    g = oracle.poly(P, "3*x*y + 5*z")
    assert g.terms == f.terms
    assert cache.basis_key(P, [g]) != cache.basis_key(Q, [f])


# a log line written by an earlier version, whose polynomials held
# Fractions and were brought to integers over one denominator on the way
# to disk: the key of the three generators below over q[x,y,z] grevlex,
# then the entry of their reduced basis
OLD_KEY = "cd19a9472ccc1389f6a2327d466ad5e5c97852b815d0b4ea1c37de1b1a8d468c"
OLD_ENTRY = (
    b'{"schema":3,"key":"' + OLD_KEY.encode() + b'","basis":['
    b'[2,65537,2,4294967296,-21],[63,131072,63,2,50,1,-315],'
    b'[3,4295032832,3,1,-5],[63,8589934592,63,2,-10],'
    b'[20,3,20,2,-126,1,441],[20,4294967298,20,4294967297,-126,'
    b'4294967296,441]]}')
OLD_GENERATORS = ("3*x*y - 5*z", "2/3*y*z - 7*x", "x^2 + 1/5*y^2 - z")


def test_a_log_of_an_earlier_version_reads_back(tmp_path):
    """The key and the log line of a fixed Q generator set with
    denominators are those an earlier version wrote, so its log reads
    back as all hits: the basis equal to the one computed, and a job over
    the same ideal reads it and writes nothing."""
    R = Ring(RationalField(), ["x", "y", "z"])
    gens = [oracle.poly(R, text) for text in OLD_GENERATORS]
    assert cache.basis_key(R, gens) == OLD_KEY
    basis = gb.buchberger(gens).generators
    written = cache.GBCache(str(tmp_path / "new"))
    written.put(OLD_KEY, basis)
    written.flush()
    assert _log(tmp_path / "new") == [(OLD_KEY.encode(), OLD_ENTRY)]

    directory = tmp_path / "old"
    directory.mkdir()
    _write_log(directory, [(OLD_KEY.encode(), OLD_ENTRY)])
    disk = cache.GBCache(str(directory))
    read = disk.get(R, OLD_KEY)
    assert read == basis
    assert [hash(g) for g in read] == [hash(g) for g in basis]
    assert all(oracle.is_canonical(g) for g in read)
    assert (disk.hits, disk.misses) == (1, 0)
    job = ("ring R = q[x,y,z] grevlex;\n"
           f"ideal I = ({', '.join(OLD_GENERATORS)});\ngb I;\n")
    code, out = _run(tmp_path, job, "--text", "--cache-dir", str(directory))
    assert code == 0
    assert re.search(r"^cache: 1 hits, 0 misses, 0 bytes written$", out,
                     re.M)
    assert _report(out) == _report(_run(tmp_path, job, "--text")[1])


@pytest.mark.parametrize("field", [RationalField(), PrimeField(32003)],
                         ids=["q", "zp"])
def test_an_element_in_another_form_reads_back_canonical(tmp_path, field):
    """An element written in a form that is not canonical (a factor
    shared by den and every coefficient; over F_p, a coefficient that is
    not a residue) reads back as the canonical polynomial, equal to it
    with the same hash, never as the form it was written in."""
    R = Ring(field, ["x", "y", "z"])
    m = R.encode((1, 1, 0))
    half = oracle.monomial(R, (1, 1, 0), Fraction(1, 2))
    g = cache._element(R, [4, m, 2])
    assert g == half and hash(g) == hash(half)
    assert oracle.is_canonical(g)
    assert (g.terms, g.den) == (half.terms, half.den)
    p = field.characteristic
    if p:
        assert cache._element(R, [1, m, p + 5]) == oracle.monomial(R, (1, 1, 0), 5)
    # the same through a log line: every element of a basis written with
    # den and coefficients doubled (and each coefficient plus p over F_p)
    gens = [oracle.poly(R, text) for text in OLD_GENERATORS]
    basis = gb.buchberger(gens).generators
    key = cache.basis_key(R, gens)
    body = [[2 * g.den] + [v for m in g.sorted_monomials()
                           for v in (m, 2 * g.terms[m] + p)]
            for g in basis]
    entry = json.dumps({"schema": cache.SCHEMA, "key": key, "basis": body},
                       separators=(",", ":")).encode()
    _write_log(tmp_path, [(key.encode(), entry)])
    read = cache.GBCache(str(tmp_path)).get(R, key)
    assert read == basis
    assert all(oracle.is_canonical(g) for g in read)


SCHEMA2_JOB = """\
ring R = q[x,y,z] grevlex;
ideal I = (3*x*y - 5*z, 2/3*y*z - 7*x, x^2 + 1/5*y^2 - z);
gb I;
ideal J = (x*y, 2*x*z - 3*y*z);
gb J;
"""


def test_an_entry_of_schema_2_is_a_miss_and_is_rewritten(tmp_path):
    directory = tmp_path / "cache"
    flags = ("--text", "--cache-dir", str(directory))
    cold = _run(tmp_path, SCHEMA2_JOB, *flags)
    assert cold[0] == 0
    assert os.listdir(directory) == [cache.LOG]
    originals = _log(directory)
    assert len(dict(originals)) == len(originals) == 2
    # the same bases in the schema-2 form (decoded exponents and
    # coefficient strings, terms descending) under the new keys
    R = Ring(RationalField(), ["x", "y", "z"])
    disk = cache.GBCache(str(directory))
    schema2 = []
    for key, _ in originals:
        basis = disk.get(R, key.decode())
        assert basis
        schema2.append((key, json.dumps(
            {"schema": 2, "key": key.decode(),
             "basis": [[[list(R.decode(m)), str(g.coeff(m))]
                        for m in g.sorted_monomials()] for g in basis]},
            separators=(",", ":")).encode()))
    _write_log(directory, schema2)
    warm = _run(tmp_path, SCHEMA2_JOB, *flags)
    assert warm[0] == 0
    assert re.search(r"^cache: 0 hits, 2 misses, \d+ bytes written$",
                     warm[1], re.M)
    assert _report(warm[1]) == _report(cold[1])
    # each miss was rewritten as a later line holding the original entry,
    # which a later reader takes
    assert _log(directory) == schema2 + originals
    disk = cache.GBCache(str(directory))
    assert all(disk.get(R, key.decode()) for key, _ in originals)
    assert (disk.hits, disk.misses) == (2, 0)


def _bad_entries(entry, ring):
    """Entries that each break one rule of a good entry, by the rule."""
    first, rest = entry["basis"][0], entry["basis"][1:]
    den = first[0]
    bad = {
        "another schema": dict(entry, schema=2),
        "another key": dict(entry, key="0" * 64),
        "an empty basis": dict(entry, basis=[]),
    }
    for name, flat in {
        "a zero element": [1],
        "a monomial at 1 << (16 n)": [den, 1 << (16 * ring.n), 1],
        "a negative monomial": [den, -1, 1],
        "a guard bit set": [den, ring._guards & -ring._guards, 1],
        "a zero coefficient": [den, 0, ring.field.characteristic],
        "a repeated monomial": [den, 0, 1, 0, 1],
        "a coefficient that is not an int": [den, 0, 1.5],
        "den 0": [0] + first[1:],
        "den -1": [-1] + first[1:],
        "an odd-length body": first + [7],
    }.items():
        bad[name] = dict(entry, basis=[flat] + rest)
    return bad


@pytest.mark.parametrize("field", [RationalField(), PrimeField(32003)],
                         ids=["q", "zp"])
def test_each_bad_entry_is_a_miss(tmp_path, field):
    R = Ring(field, ["x", "y", "z"])
    gens = [oracle.poly(R, "3*x*y - 5*z"), oracle.poly(R, "2/3*y*z - 7*x")]
    basis = gb.buchberger(gens).generators
    key = cache.basis_key(R, gens)
    disk = cache.GBCache(str(tmp_path))
    disk.put(key, basis)
    disk.flush()
    [(_, good)] = _log(tmp_path)
    disk = cache.GBCache(str(tmp_path))
    assert disk.get(R, key) == basis
    assert (disk.hits, disk.misses) == (1, 0)
    bad = {name: json.dumps(body).encode()
           for name, body in _bad_entries(json.loads(good), R).items()}
    bad["nested too deep for the JSON parser"] = b"[" * 100000
    # each bad entry as the one line of the log under the key
    for name, line in bad.items():
        _write_log(tmp_path, [(key.encode(), line)])
        disk = cache.GBCache(str(tmp_path))
        assert disk.get(R, key) is None, name
        assert (disk.hits, disk.misses) == (0, 1), name
    _write_log(tmp_path, [(key.encode(), good)])
    assert cache.GBCache(str(tmp_path)).get(R, key) == basis


# the syzygies of R/(xy, xz, yz) end after two steps: the kernel of the
# last map is empty
SYZYGY_JOB = """\
ring R = zp(32003)[x,y,z] grevlex;
ideal I = (x*y, x*z, y*z);
resolution I;
"""


def test_an_empty_kernel_is_a_cache_hit(tmp_path, monkeypatch):
    directory = tmp_path / "cache"
    flags = ("--text", "--cache-dir", str(directory))
    cold = _run(tmp_path, SYZYGY_JOB, *flags)
    assert cold[0] == 0
    entries = {key.decode(): json.loads(entry)["basis"]
               for key, entry in _log(directory)}
    empty = [key for key, basis in entries.items() if basis == []]
    assert len(empty) == 1
    loops = _count_calls(monkeypatch, gb, "_basis")
    warm = _run(tmp_path, SYZYGY_JOB, *flags)
    assert loops == []
    assert re.search(rf"^cache: {len(entries)} hits, 0 misses, 0 bytes "
                     "written$", warm[1], re.M)
    # an empty entry is a hit only where the key is a kernel's
    R = Ring(PrimeField(32003), ["x", "y", "z"])
    disk = cache.GBCache(str(directory))
    assert disk.get(R, empty[0], empty=True) == []
    assert disk.get(R, empty[0]) is None


def test_a_kernel_never_passes_for_the_basis(tmp_path):
    """A module kernel basis is kept under store and disk keys that name
    its head components: the full basis of the same vectors, in the same
    job or from the same cache directory, is still the full basis."""
    from cancelkit.modules import components, module_buchberger, vector
    R = Ring(PrimeField(32003), ["x", "y"])
    x, y = R.gens()
    zero = R.zero()
    # the syzygies of (x, y) in the tail block of R^(1 + 2)
    vecs = [vector([x, R.one(), zero]), vector([y, zero, R.one()])]
    head = 1 << vecs[0].ring._shifts[0]
    directory = tmp_path / "cache"
    for _ in range(2):
        store = cache.Store(cache.GBCache(str(directory)))
        token = active_store.set(store)
        try:
            kernel = module_buchberger(vecs, head=head).generators
            full = module_buchberger(vecs).generators
        finally:
            active_store.reset(token)
            store.disk.flush()
        assert [components(g) for g in kernel] == [[zero, y, -x]]
        assert len(full) > len(kernel)
    assert (store.disk.hits, store.disk.misses) == (2, 0)
    # two lines under two keys, written by the first job only
    assert os.listdir(directory) == [cache.LOG]
    assert [key.decode() for key, _ in _log(directory)] == [
        cache.basis_key(vecs[0].ring, vecs, head=head),
        cache.basis_key(vecs[0].ring, vecs)]


def test_generators_never_pass_for_the_reduced_kernel(tmp_path,
                                                     monkeypatch):
    """A kernel kept as generators (reduced=False) is keyed apart from
    the reduced kernel and the full basis of the same vectors, in the
    store and on disk (a line "generators" after "head H"), and a warm
    job reads all three back with no loop; an empty generator kernel is
    a hit."""
    from cancelkit.modules import module_buchberger, vector
    R = Ring(PrimeField(32003), ["x", "y"])
    x, y = R.gens()
    zero, one = R.zero(), R.one()
    # the syzygies of (x, y, x + y) in the tail block of R^(1 + 3)
    vecs = [vector([f] + [one if i == j else zero for i in range(3)])
            for j, f in enumerate([x, y, x + y])]
    head = 1 << vecs[0].ring._shifts[0]
    directory = tmp_path / "cache"
    loops = _count_calls(monkeypatch, gb, "_basis")
    results = []
    for _ in range(2):
        store = cache.Store(cache.GBCache(str(directory)))
        token = active_store.set(store)
        try:
            results.append([
                module_buchberger(vecs, head=head, reduced=False).generators,
                module_buchberger(vecs, head=head).generators,
                module_buchberger(vecs).generators])
        finally:
            active_store.reset(token)
            store.disk.flush()
    assert results[0] == results[1] and len(loops) == 3
    assert (store.disk.hits, store.disk.misses) == (3, 0)
    keys = [cache.basis_key(vecs[0].ring, vecs, head=head, reduced=False),
            cache.basis_key(vecs[0].ring, vecs, head=head),
            cache.basis_key(vecs[0].ring, vecs)]
    assert len(set(keys)) == 3
    assert [key.decode() for key, _ in _log(directory)] == keys
    # an empty entry is a hit under a generator kernel's key too
    disk = cache.GBCache(str(tmp_path / "empty"))
    disk.put(keys[0], [])
    assert disk.get(vecs[0].ring, keys[0], empty=True) == []


def test_text_report_counts_cache_bytes_written(tmp_path):
    directory = tmp_path / "cache"
    flags = ("--cache-dir", str(directory))
    cold = _run(tmp_path, SCHEMA2_JOB, "--text", *flags)
    # the job's one append is the whole log
    assert os.listdir(directory) == [cache.LOG]
    written = (directory / cache.LOG).stat().st_size
    assert written > 0
    assert re.search(rf"^cache: 0 hits, 2 misses, {written} bytes written$",
                     cold[1], re.M)
    warm = _run(tmp_path, SCHEMA2_JOB, "--text", *flags)
    assert re.search(r"^cache: 2 hits, 0 misses, 0 bytes written$",
                     warm[1], re.M)
    # the JSON report carries none of the counts
    report = _run(tmp_path, SCHEMA2_JOB, *flags)[1]
    assert "bytes" not in report and "hits" not in report


# the keys an earlier version hashed for the generators below, over each
# field: their degree-2 part (with a line "degree 2"), and a kernel past
# head components 1 (with a line "head 1")
@pytest.mark.parametrize("field, part_key, kernel_key", [
    (RationalField(),
     "4125c4634665b693c21d4fda329d7eabbbc146a73fbf94427360d060702d3f64",
     "e4ac14451fc976a343fad390490c6d60b7efa98dd8e5fe822d032f94a8df140c"),
    (PrimeField(32003),
     "bf0ae4bd33f79aa438e077a80610ae433344ea84980a520ff9c8d5c9cfea2fb2",
     "2dd1b091dbccee5a9d59e81dfa2224cfa6263325c91c90103f0e5a8aa983d346"),
], ids=["q", "zp"])
def test_a_degree_part_never_passes_for_the_basis(tmp_path, monkeypatch,
                                                  field, part_key,
                                                  kernel_key):
    """A log written by an earlier version holds the degree-2 part of a
    basis, under a key hashed with a line "degree 2", before the full
    basis of the same generators.  The full basis reads back as a hit and
    the part is never asked for: with the full line gone, the basis is a
    miss and is computed.  The schema and the full and kernel keys are
    those that version wrote."""
    R = Ring(field, ["x", "y", "z"])
    gens = [oracle.poly(R, text)
            for text in ("x^2 - y*z", "y^2 - 2*x*z", "3*z^2 - x*y")]
    full = gb.buchberger(gens).generators
    part = [g for g in full if g.degree() == 2]
    assert len(part) == len(gens) < len(full)
    full_key = cache.basis_key(R, gens)
    assert cache.SCHEMA == 3
    assert cache.basis_key(R, gens, head=1) == kernel_key
    assert part_key not in (full_key, kernel_key)
    written = cache.GBCache(str(tmp_path / "earlier"))
    written.put(part_key, part)
    written.put(full_key, full)
    written.flush()
    lines = _log(tmp_path / "earlier")
    assert [key.decode() for key, _ in lines] == [part_key, full_key]
    asked = []
    get = cache.GBCache.get

    def recorded(self, ring, key, **kwargs):
        asked.append(key)
        return get(self, ring, key, **kwargs)

    monkeypatch.setattr(cache.GBCache, "get", recorded)
    loops = _count_calls(monkeypatch, gb, "_basis")
    for kept in (lines, lines[:1]):
        directory = tmp_path / f"log{len(kept)}"
        directory.mkdir()
        _write_log(directory, kept)
        store = cache.Store(cache.GBCache(str(directory)))
        token = active_store.set(store)
        try:
            I = Ideal(R, gens)
            assert I.groebner().generators == full
            assert I.contains(Ideal(R, [gens[0] - gens[1],
                                        R.gens()[0] * gens[2]]))
            assert not I.contains(Ideal(R, [oracle.poly(R, "x*z")]))
        finally:
            active_store.reset(token)
            store.disk.flush()
        # a hit with the full line; a miss, computed, without it
        assert (store.disk.hits, len(loops)) == ((1, 0) if kept == lines
                                                 else (0, 1))
        assert _log(directory) == lines
    assert asked == [full_key, full_key]


def test_a_torn_last_line_costs_only_its_own_entry(tmp_path):
    directory = tmp_path / "cache"
    flags = ("--text", "--cache-dir", str(directory))
    cold = _run(tmp_path, CURVE, *flags)
    assert cold[0] == 0
    lines = _log(directory)
    assert len(dict(lines)) == len(lines) > 2
    # a writer died in the middle of the last entry
    log = directory / cache.LOG
    data = log.read_bytes()
    log.write_bytes(data[:len(data) - len(lines[-1][1]) // 2])
    torn = _run(tmp_path, CURVE, *flags)
    assert torn[0] == 0
    assert _report(torn[1]) == _report(cold[1])
    assert re.search(rf"^cache: {len(lines) - 1} hits, 1 misses, \d+ bytes "
                     "written$", torn[1], re.M)
    # the entry is appended on a line of its own after the torn one
    after = _log(directory)
    assert after[:-2] == lines[:-1] and after[-1] == lines[-1]
    assert after[-2][0] == lines[-1][0] and after[-2][1] != lines[-1][1]
    warm = _run(tmp_path, CURVE, *flags)
    assert _report(warm[1]) == _report(cold[1])
    assert re.search(rf"^cache: {len(lines)} hits, 0 misses, 0 bytes "
                     "written$", warm[1], re.M)


def test_two_caches_on_one_directory_append_in_turn(tmp_path):
    R = Ring(RationalField(), ["x", "y", "z"])
    ideals = [[oracle.poly(R, text) for text in pair]
              for pair in (("3*x*y - 5*z", "2/3*y*z - 7*x"),
                           ("x^2 - y*z", "y^2 - 2*x*z"))]
    keys = [cache.basis_key(R, gens) for gens in ideals]
    bases = [gb.buchberger(gens).generators for gens in ideals]
    # both read the log before either appends to it
    writers = [cache.GBCache(str(tmp_path)) for _ in ideals]
    for disk, key, basis in zip(writers, keys, bases):
        assert disk.get(R, key) is None
        disk.put(key, basis)
    for disk in writers:
        disk.flush()
    assert os.listdir(tmp_path) == [cache.LOG]
    reader = cache.GBCache(str(tmp_path))
    assert [reader.get(R, key) for key in keys] == bases
    assert (reader.hits, reader.misses) == (2, 0)


def test_a_good_line_after_a_bad_line_wins(tmp_path):
    directory = tmp_path / "cache"
    flags = ("--text", "--cache-dir", str(directory))
    cold = _run(tmp_path, SCHEMA2_JOB, *flags)
    lines = _log(directory)
    _write_log(directory, [(key, b"[]") for key, _ in lines] + lines)
    warm = _run(tmp_path, SCHEMA2_JOB, *flags)
    assert warm[0] == 0
    assert _report(warm[1]) == _report(cold[1])
    assert re.search(r"^cache: 2 hits, 0 misses, 0 bytes written$",
                     warm[1], re.M)


def _opened(monkeypatch, directory):
    """The names of the files in directory opened from now on, by `open`
    or by `os.open`."""
    names = []

    def counting(original):
        def counted(file, *args, **kwargs):
            if isinstance(file, (str, os.PathLike)) and \
                    os.path.dirname(os.fspath(file)) == str(directory):
                names.append(os.path.basename(file))
            return original(file, *args, **kwargs)
        return counted

    monkeypatch.setattr(builtins, "open", counting(builtins.open))
    monkeypatch.setattr(os, "open", counting(os.open))
    return names


def test_entries_of_the_file_per_basis_layout_are_never_opened(
        tmp_path, monkeypatch):
    directory = tmp_path / "cache"
    flags = ("--text", "--cache-dir", str(directory))
    cold = _run(tmp_path, SCHEMA2_JOB, *flags)
    lines = _log(directory)
    # the directory as the one-file-per-basis layout left it: each entry
    # of schema 3 in a file named by its key
    (directory / cache.LOG).unlink()
    for key, entry in lines:
        (directory / key.decode()).write_bytes(entry)
    opened = _opened(monkeypatch, directory)
    rerun = _run(tmp_path, SCHEMA2_JOB, *flags)
    assert rerun[0] == 0
    assert _report(rerun[1]) == _report(cold[1])
    assert re.search(r"^cache: 0 hits, 2 misses, \d+ bytes written$",
                     rerun[1], re.M)
    assert set(opened) == {cache.LOG}
    assert _log(directory) == lines
    assert all((directory / key.decode()).read_bytes() == entry
               for key, entry in lines)


def test_a_job_that_exits_2_keeps_its_bases(tmp_path, monkeypatch):
    directory = tmp_path / "cache"
    flags = ("--text", "--cache-dir", str(directory))
    cold = _run(tmp_path, FAILING[2], *flags)
    assert cold == (2, "")
    lines = _log(directory)
    assert lines
    disks = []
    monkeypatch.setattr(cli, "GBCache",
                        lambda path: disks.append(cache.GBCache(path))
                        or disks[-1])
    loops = _count_calls(monkeypatch, gb, "_basis")
    assert _run(tmp_path, FAILING[2], *flags) == cold
    [disk] = disks
    assert (disk.hits, disk.misses, disk.bytes_written) == (len(lines), 0, 0)
    assert loops == []


def test_a_failed_append_fails_only_a_job_that_succeeded(tmp_path):
    directory = tmp_path / "cache"
    # the log cannot be opened for reading or for appending
    (directory / cache.LOG).mkdir(parents=True)
    path = tmp_path / "job.ck"
    for text, code in ((SCHEMA2_JOB, 1), (FAILING[2], 2)):
        path.write_text(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            assert main(["run", str(path), "--cache-dir",
                         str(directory)]) == code
        assert out.getvalue() == ""
        assert err.getvalue().splitlines()[-1].startswith("error: ")
