"""Spans around the calls into cancelkit's public functions, recorded from
outside the program.

``Tracer.install`` replaces every binding of each traced function in every
loaded ``cancelkit`` module (``buchberger`` alone is bound in ``gb``,
``ideals``, ``rees`` and the package itself) and the traced ``Ideal`` and
``GBCache`` methods; ``uninstall`` puts the originals back.  Spans stay in
memory until ``write``.

``fields``, ``ring`` and ``orders`` are not wrapped: their functions run
millions of times per job, and a wrapper would cost more than the work it
times.  Their time lands in the self time of the traced caller, and their
effect on a whole job shows as the difference between ``rerun-q`` cold
jobs over Q and the same kinds of job over F_p.
"""

import itertools
import json
import sys
import time

# (metric name, module, attribute): every binding of the attribute's value
# in any cancelkit module is wrapped.
FUNCTIONS = [
    ("gb.buchberger", "cancelkit.gb", "buchberger"),
    ("gb.normal_form", "cancelkit.gb", "normal_form"),
    ("modules.module_buchberger", "cancelkit.modules", "module_buchberger"),
    ("modules.syzygy_columns", "cancelkit.modules", "syzygy_columns"),
    ("ideals.kernel_of_map", "cancelkit.ideals", "kernel_of_map"),
    ("ideals.radical_contains", "cancelkit.ideals", "radical_contains"),
    ("resolutions.cohomology_summary", "cancelkit.resolutions",
     "cohomology_summary"),
    ("resolutions.free_resolution", "cancelkit.resolutions",
     "free_resolution"),
    ("rees.rees_presentation", "cancelkit.rees", "rees_presentation"),
    ("reductions.reduction_number", "cancelkit.reductions",
     "reduction_number"),
    ("reductions.find_minimal_reduction", "cancelkit.reductions",
     "find_minimal_reduction"),
    ("cancellation.check_hypotheses", "cancelkit.cancellation",
     "check_hypotheses"),
    ("cancellation.cancel_check", "cancelkit.cancellation", "cancel_check"),
    ("cancellation.link_ideal", "cancelkit.cancellation", "link_ideal"),
    ("cancellation.corollary213_check", "cancelkit.cancellation",
     "corollary213_check"),
    ("cancellation.construct_witness", "cancelkit.cancellation",
     "construct_witness"),
    ("cancellation.power_containment_scan", "cancelkit.cancellation",
     "power_containment_scan"),
    ("script.parse_script", "cancelkit.script", "parse_script"),
    ("script.run", "cancelkit.script", "run"),
    ("cli.main", "cancelkit.cli", "main"),
    ("linalg.rank", "cancelkit.linalg", "rank"),
]

# (metric name, module, class, method)
METHODS = [
    ("ideals.intersect", "cancelkit.ideals", "Ideal", "intersect"),
    ("ideals.colon_poly", "cancelkit.ideals", "Ideal", "colon_poly"),
    ("ideals.saturate", "cancelkit.ideals", "Ideal", "saturate"),
    ("ideals.contains", "cancelkit.ideals", "Ideal", "contains"),
    ("ideals.mul", "cancelkit.ideals", "Ideal", "__mul__"),
    ("ideals.mul", "cancelkit.ideals", "Ideal", "__pow__"),
    ("cache.get", "cancelkit.cache", "GBCache", "get"),
    ("cache.put", "cancelkit.cache", "GBCache", "put"),
]

SPAN_NAMES = sorted({name for name, *_ in FUNCTIONS + METHODS})
LAYERS = sorted({name.split(".")[0] for name in SPAN_NAMES})


def _ideal_key(ring, polys):
    """Order-independent identity of a generator list, as the disk cache
    keys it."""
    return (ring.describe(),
            tuple(sorted(tuple(sorted(f.terms.items())) for f in polys)))


class Tracer:
    """Span recorder.  One instance per traced pass."""

    def __init__(self):
        self.spans = []  # (job, span id, parent id, name, start, end)
        self.stats = {name: [0, 0.0] for name in SPAN_NAMES}
        self.job = None
        self._stack = []  # [span id, time covered by child spans]
        self._ids = itertools.count(1)
        self._patched = []  # (owner, attribute, original)
        self._seen_gb = set()
        self._seen_cohomology = set()
        self.gb_calls_repeated = 0
        self.gb_out_terms = 0
        self.cohomology_repeated = 0
        self.search_attempts = 0
        self.search_successes = 0
        self._caches = {}  # id -> GBCache instance seen by get

    def begin_job(self, job):
        """Spans recorded from now on belong to `job`; repeats are counted
        within one job."""
        self.job = job
        self._seen_gb.clear()
        self._seen_cohomology.clear()

    # -- wrapping --

    def _wrap(self, name, fn, after=None):
        stack = self._stack
        spans = self.spans
        stat = self.stats[name]
        ids = self._ids
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [next(ids), 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stat[0] += 1
                stat[1] += duration - frame[1]
                spans.append((tracer.job, frame[0], parent, name, start, end))
                if stack:
                    stack[-1][1] += duration
            if after is not None:
                # bookkeeping is not the caller's work: count it as a child
                hook_start = clock()
                after(args, kwargs, result)
                if stack:
                    stack[-1][1] += clock() - hook_start
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _after_buchberger(self, args, kwargs, result):
        gens = list(args[0])
        if gens:
            reduced = kwargs.get("reduced", args[2] if len(args) > 2 else True)
            key = (_ideal_key(gens[0].ring, gens), reduced)
            if key in self._seen_gb:
                self.gb_calls_repeated += 1
            else:
                self._seen_gb.add(key)
        self.gb_out_terms += sum(len(g.terms) for g in result.generators)

    def _after_cohomology(self, args, kwargs, result):
        ideal = args[0]
        key = _ideal_key(ideal.ring, ideal.generators)
        if key in self._seen_cohomology:
            self.cohomology_repeated += 1
        else:
            self._seen_cohomology.add(key)

    def _after_search(self, args, kwargs, result):
        if result.attempts:
            self.search_attempts += result.attempts
            self.search_successes += 1

    def _after_cache_get(self, args, kwargs, result):
        self._caches[id(args[0])] = args[0]

    def install(self):
        """Wrap every binding; returns the number of bindings replaced."""
        hooks = {
            "gb.buchberger": self._after_buchberger,
            "resolutions.cohomology_summary": self._after_cohomology,
            "reductions.find_minimal_reduction": self._after_search,
            "cache.get": self._after_cache_get,
        }
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None
                   and (n == "cancelkit" or n.startswith("cancelkit."))]
        for name, module_name, attr in FUNCTIONS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(name, original, hooks.get(name))
            for module in modules:
                for binding, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, binding, original))
                        setattr(module, binding, wrapper)
        for name, module_name, cls_name, attr in METHODS:
            cls = getattr(sys.modules[module_name], cls_name)
            original = cls.__dict__[attr]
            self._patched.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original, hooks.get(name)))
        return len(self._patched)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def bindings_of(self, attr):
        """Owners whose `attr` binding is currently wrapped."""
        return [owner for owner, a, _ in self._patched if a == attr]

    # -- results --

    def cache_counts(self):
        hits = sum(c.hits for c in self._caches.values())
        misses = sum(c.misses for c in self._caches.values())
        return hits, misses

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")
