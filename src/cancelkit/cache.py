"""One content-keyed store per job, with an optional on-disk cache of
reduced Groebner bases behind it.

A `Store` is made fresh for each job and dropped at its end (`cli.main`
installs it in `active_store`).  It keeps every result asked for by
content key -- reduced bases under (ring, frozenset of generators),
whole hypothesis checks under their arguments -- so a repeat within the
job is read back instead of recomputed.  Only results whose computation
returned are kept; one that raised is computed again on the next call.

`GBCache` is the disk layer, consulted only when the store misses.  One
file per basis: name = hex sha256 of (field, variables, order, weights,
generators), body = canonical JSON of the entry schema version, that
hash, and the reduced basis.  Writes are atomic (tempfile + rename);
there is no index file and no size bound.  An entry that does not match
its name and schema, or does not read back as a basis of the ring, is a
miss and is rewritten.
"""

import contextvars
import hashlib
import json
import os
import tempfile
from fractions import Fraction

from .errors import CancelkitError

SCHEMA = 2

active_store = contextvars.ContextVar("cancelkit_store", default=None)


def serialize_poly(f):
    """Canonical JSON-able form: terms descending, coeffs as strings."""
    ring = f.ring
    return [[list(ring.decode(m)), ring.field.to_str(f.terms[m])]
            for m in f.sorted_monomials()]


def deserialize_poly(ring, data):
    pairs = []
    for exps, cs in data:
        c = Fraction(cs) if "/" in cs or ring.field.kind == "rationals" else int(cs)
        pairs.append((tuple(exps), c))
    return ring.from_terms(pairs)


def basis_key(ring, gens):
    payload = json.dumps(
        [ring.describe(), sorted(json.dumps(serialize_poly(g)) for g in gens)],
        separators=(",", ":"))
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

    def basis(self, ring, gens, compute):
        """The reduced basis of the nonzero gens: kept, else read from
        disk, else compute()'s, which is written to disk.  The disk key is
        hashed once per miss."""
        def load():
            if self.disk is None:
                return compute()
            key = basis_key(ring, gens)
            basis = self.disk.get(ring, key)
            if basis is None:
                basis = compute()
                self.disk.put(key, basis)
            return basis
        return self.recall((ring, frozenset(gens)), load)


class GBCache:
    """File-per-entry cache rooted at `path`; counts hits for reporting."""

    def __init__(self, path):
        self.path = path
        os.makedirs(path, exist_ok=True)
        self.hits = 0
        self.misses = 0

    def get(self, ring, key):
        try:
            with open(os.path.join(self.path, key)) as fh:
                entry = json.load(fh)
            if entry["schema"] != SCHEMA or entry["key"] != key:
                raise ValueError("entry of another schema or key")
            basis = [deserialize_poly(ring, d) for d in entry["basis"]]
            if not basis or any(g.is_zero() for g in basis):
                raise ValueError("entry is not a basis")
        except (OSError, ValueError, LookupError, TypeError, ArithmeticError,
                CancelkitError):
            self.misses += 1
            return None
        self.hits += 1
        return basis

    def put(self, key, basis):
        data = json.dumps({"schema": SCHEMA, "key": key,
                           "basis": [serialize_poly(g) for g in basis]},
                          separators=(",", ":"))
        fd, tmp = tempfile.mkstemp(dir=self.path)
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(data)
            os.replace(tmp, os.path.join(self.path, key))
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
