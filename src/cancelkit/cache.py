"""Deterministic on-disk cache for reduced Groebner bases.

One file per object: name = hex content hash of (field, variables, order,
weights, generators), body = canonical JSON of the entry schema version,
that hash, and the reduced basis.  Writes are atomic (tempfile + rename);
there is no index file.  An entry that does not match its name and schema,
or does not read back as a basis of the ring, is a miss and is rewritten.
"""

import contextvars
import hashlib
import json
import os
import tempfile
from fractions import Fraction

from .errors import CancelkitError

SCHEMA = 2

active_cache = contextvars.ContextVar("cancelkit_gb_cache", default=None)


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


class GBCache:
    """File-per-entry cache rooted at `path`; counts hits for reporting."""

    def __init__(self, path):
        self.path = path
        os.makedirs(path, exist_ok=True)
        self.hits = 0
        self.misses = 0

    def get(self, ring, gens):
        key = basis_key(ring, gens)
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

    def put(self, ring, gens, basis):
        key = basis_key(ring, gens)
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
