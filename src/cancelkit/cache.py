"""One content-keyed store per job, with an optional on-disk cache of
reduced Groebner bases behind it.

A `Store` is made fresh for each job and dropped at its end (`cli.main`
installs it in `active_store`).  Only this module reads `active_store`:
`recall` keeps a result in the job's store, and `basis` keeps a reduced
basis there with the disk cache behind it; outside a job both compute
on each call.  The store keeps every result asked for by content key --
reduced bases under (ring, frozenset of generators, None, True), module
kernels (`modules.syzygy_columns`) with the bits of the head components
in the third place and, for a kernel kept as generators rather than as
its reduced basis, False in the fourth, whole hypothesis checks,
reduction reports under their arguments, ideal products, and Rees
presentations under ("rees", ring, generators) -- so a repeat within
the job is read back instead of recomputed.  Only results whose
computation returned are kept; one that raised is computed again on
the next call.

`GBCache` is the disk layer, consulted only when the store misses.  Its
key and its entries are a polynomial's own integers over its
denominator (`ring.Polynomial`), read directly.  Key = hex sha256 of
`ring.describe()` and of each generator's denominator and its packed
monomials (ascending) with their integer coefficients, the generators'
strings sorted, for a kernel a line "head H" after the ring's, and
for a kernel kept as generators a line "generators" after that.
Entry = canonical JSON of the entry schema version, that key, and the
reduced basis (or the kernel's generators), each element one flat int
list [den, m_1, c_1, m_2, c_2, ...] (terms descending) read back by
`fields.from_ints(ints, 1, den)`, so an element written in another form
of the same polynomial reads back canonical.

A cache directory holds one append-only log, `LOG`: one line per entry,
the key, a space, then the entry.  A `GBCache` reads the whole log once,
on first use, and indexes its lines by key, the last line for a key
winning; an entry's JSON is parsed only when its key is asked for.
`put` encodes an entry and keeps it in memory (a later `get` of the same
object reads it); `flush` makes the directory if it is missing and
appends every entry kept since the last flush in one write, each on a
fresh line, so a line torn by a writer that died mid-append costs only
its own entry, and several writers on one directory append in turn.  A
line that is torn, foreign, does not match its key and schema, or does
not read back as a basis of the ring (empty, a zero element, a monomial
outside the ring's packed fields, a coefficient that reads back zero,
den < 1), is a miss, and the entry computed instead is a later line.
Only a kernel may be empty: under a kernel key an empty entry is a hit.
Files other than the log (the one-file-per-basis entries of earlier
versions) are never opened, and the one-degree parts an earlier version
logged (keys hashed with a line "degree D") are never asked for.  There
is no size bound and no compaction.
"""

import contextvars
import hashlib
import json
import os

from .errors import CancelkitError
from .ring import Polynomial

SCHEMA = 3
LOG = "gb.log"

active_store = contextvars.ContextVar("cancelkit_store", default=None)


def recall(key, compute):
    """compute()'s result, kept under key in the job's store when a job
    runs (so computed once per key within it), else computed each call."""
    store = active_store.get()
    return compute() if store is None else store.recall(key, compute)


def basis(ring, gens, compute, head=None, reduced=True):
    """The reduced basis of the nonzero gens, or with a head the kernel
    basis past the head components, or with reduced=False too the
    kernel's generators: compute()'s outside a job; in a job, kept in
    its store, else read from its disk cache, else compute()'s, which is
    put to disk.  Both keys name the head and whether the kernel is
    reduced, so a kernel never answers for the full basis, nor
    generators for a reduced kernel.  Only a kernel may be empty.  The
    disk key is hashed once per miss."""
    store = active_store.get()
    if store is None:
        return compute()
    disk = store.disk

    def load():
        if disk is None:
            return compute()
        key = basis_key(ring, gens, head, reduced)
        found = disk.get(ring, key, empty=head is not None)
        if found is None:
            found = compute()
            disk.put(key, found)
        return found
    return store.recall((ring, frozenset(gens), head, reduced), load)


def basis_key(ring, gens, head=None, reduced=True):
    """The disk key of gens: stable across processes and runs (no
    Python `hash()`), and the same for any order of gens or of their
    terms.  With a head (the bits of the leading component variables of
    a module ring), the key of the kernel basis past those components,
    which differs from the full basis's key; with reduced=False too,
    the key of the kernel's generators, which differs from both."""
    polys = sorted(repr((g.den, sorted(g.terms.items()))) for g in gens)
    if head is not None:
        polys[:0] = [f"head {head}"] + ([] if reduced else ["generators"])
    payload = "\n".join([ring.describe(), *polys])
    return hashlib.sha256(payload.encode()).hexdigest()


class Store:
    """A job's results by content key, with the disk cache (or None)
    behind its reduced bases; counts its own hits and misses."""

    def __init__(self, disk):
        self.disk = disk
        self.hits = 0
        self.misses = 0
        self._results = {}

    def recall(self, key, compute):
        """The result kept under key, or compute()'s, which is then kept."""
        if key in self._results:
            self.hits += 1
        else:
            self.misses += 1
            self._results[key] = compute()
        return self._results[key]


def _flat(g):
    """g as one int list [den, m_1, c_1, m_2, c_2, ...], terms descending."""
    terms = g.terms
    flat = [g.den]
    for m in g.sorted_monomials():
        flat += (m, terms[m])
    return flat


def _element(ring, flat):
    """The nonzero polynomial of ring that _flat wrote as flat; raises
    when flat is not one."""
    if not all(type(v) is int for v in flat):
        raise TypeError("an entry holds a value that is not an integer")
    den, monomials, coeffs = flat[0], flat[1::2], flat[2::2]
    if den < 1 or not monomials or len(monomials) != len(coeffs):
        raise ValueError("an element is zero or malformed")
    if not ring.fits(monomials):
        raise ValueError("a monomial does not fit the ring")
    terms, den = ring.field.from_ints(dict(zip(monomials, coeffs)), 1, den)
    if len(terms) != len(monomials):
        raise ValueError("a term is zero or repeated")
    return Polynomial(ring, terms, den)


class GBCache:
    """The append-only log of the cache directory `path`; counts hits,
    misses and bytes written for reporting."""

    def __init__(self, path):
        self.path = path
        self.hits = 0
        self.misses = 0
        self.bytes_written = 0
        self._entries = None  # key -> entry bytes
        self._pending = []  # lines put since the last flush

    def _index(self):
        """The log's entries by key, the last line for a key winning (with
        the entries put since), read on the first call."""
        if self._entries is None:
            try:
                with open(os.path.join(self.path, LOG), "rb") as fh:
                    data = fh.read()
            except OSError:
                data = b""
            self._entries = {key: entry for key, _, entry in
                             (line.partition(b" ")
                              for line in data.split(b"\n"))}
        return self._entries

    def get(self, ring, key, empty=False):
        """The basis kept under key, or None on a miss; an empty basis
        is a hit only with empty=True (a kernel key)."""
        try:
            entry = json.loads(self._index()[key.encode()])
            if entry["schema"] != SCHEMA or entry["key"] != key:
                raise ValueError("entry of another schema or key")
            basis = [_element(ring, flat) for flat in entry["basis"]]
            if not basis and not empty:
                raise ValueError("entry is not a basis")
        except (ValueError, LookupError, TypeError, ArithmeticError,
                RecursionError, CancelkitError):
            self.misses += 1
            return None
        self.hits += 1
        return basis

    def put(self, key, basis):
        """Keep basis under key until the next flush."""
        entry = json.dumps({"schema": SCHEMA, "key": key,
                            "basis": [_flat(g) for g in basis]},
                           separators=(",", ":")).encode()
        key = key.encode()
        self._index()[key] = entry
        self._pending.append(b"\n" + key + b" " + entry)

    def flush(self):
        """Make the directory if it is missing, then append the entries
        put since the last flush to the log, in one write; raises OSError
        when the directory cannot be made or the write fails or falls
        short."""
        os.makedirs(self.path, exist_ok=True)
        if not self._pending:
            return
        data = b"".join(self._pending)
        self._pending = []
        fd = os.open(os.path.join(self.path, LOG),
                     os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666)
        try:
            written = os.write(fd, data)
        finally:
            os.close(fd)
        self.bytes_written += written
        if written < len(data):
            raise OSError(f"wrote {written} of {len(data)} bytes to the "
                          "cache log")
