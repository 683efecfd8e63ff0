"""Per-layer spans recorded from outside the library.

The tracer replaces each traced public function at every place a pbalg module
binds it (``pbalg.core.enumerate_morphisms`` and ``pbalg.colimit.enumerate_morphisms``
are the same object under two names), so calls between modules and calls
inside one module are both recorded.  Each call becomes a span (name, start,
end, parent); spans stay in memory and are summarised into calls, total time
and self time (duration minus the time covered by child spans) per function,
plus the layer counters the benchmark reports.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (module, attribute path) of every traced function; the metric prefix is the
# module name without the package, e.g. "core.enumerate_morphisms"
TRACED = (
    ("cli", "run"),
    ("formats", "parse_algebra_text"),
    ("formats", "parse_rays_text"),
    ("formats", "serialize_algebra"),
    ("core", "validate"),
    ("core", "maximal_cliques"),
    ("core", "enumerate_morphisms"),
    ("core", "check_morphism"),
    ("core", "generated_subalgebra"),
    ("core", "find_isomorphism"),
    ("poset", "boolean_subalgebras"),
    ("colimit", "verify_colimit"),
    ("colimit", "cocones_into"),
    ("colimit", "mediating_morphism"),
    ("colimit", "tensor_product"),
    ("colimit", "tensor_factorization"),
    ("stone", "stone_limit"),
    ("bohr", "BohrFrame.__init__"),
    ("bohr", "BohrFrame.elements"),
    ("bohr", "BohrFrame.check_frame_laws"),
    ("bohr", "FrameMap.report"),
    ("matrixalg", "rays_to_pba"),
)

SPAN_NAMES = tuple(f"{mod}.{attr}" for mod, attr in TRACED)

class Tracer:
    """Records one span per traced call and the raw counts behind the layer
    counters.  Install once per process, before the timed pass."""

    def __init__(self):
        self.names: list[str] = []
        # spans as (name index, start, end, parent span index or -1)
        self.spans: list[tuple[int, float, float, int]] = []
        self._stack: list[int] = []
        self.calls = {name: 0 for name in SPAN_NAMES}
        self.total = {name: 0.0 for name in SPAN_NAMES}
        self.child = {name: 0.0 for name in SPAN_NAMES}
        self.raw = {
            "results": 0, "cutoffs": 0, "cocones": 0, "entries": 0,
            "filtered": 0, "members": 0, "families": 0, "elements": 0,
            "frame_yield": 0, "frame_candidates": 0, "factorizations": 0,
            "factorizes": 0,
        }
        self._caches = {}
        # cache statistics of earlier items, [hits, misses]; the caches are
        # emptied (and their statistics reset) before every item
        self._cache_totals = {"poset": [0, 0], "cliques": [0, 0]}
        self._poset_misses_seen = 0

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        import importlib

        from pbalg.errors import SearchCutoffError

        for mod in {mod for mod, _ in TRACED} | {"corpus"}:
            importlib.import_module(f"pbalg.{mod}")
        self._caches = {"poset": sys.modules["pbalg.poset"].boolean_subalgebras,
                        "cliques": sys.modules["pbalg.core"].maximal_cliques}
        self._cutoff_error = SearchCutoffError
        modules = [m for name, m in sorted(sys.modules.items())
                   if (name == "pbalg" or name.startswith("pbalg.")) and m is not None]
        for (mod, attr), name in zip(TRACED, SPAN_NAMES):
            owner = sys.modules[f"pbalg.{mod}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self._wrap(name, getattr(cls, meth)))
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapped)

    def _wrap(self, name: str, fn):
        count = self._counter(name)
        stack, spans = self._stack, self.spans
        idx = len(self.names)
        self.names.append(name)
        calls, total, child = self.calls, self.total, self.child
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            me = len(spans)
            spans.append((idx, 0.0, 0.0, parent))
            stack.append(me)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                if count is not None:
                    count(args, None, exc)
                raise
            finally:
                end = clock()
                stack.pop()
                spans[me] = (idx, start, end, parent)
                dur = end - start
                calls[name] += 1
                total[name] += dur
                if parent >= 0:
                    child[self.names[spans[parent][0]]] += dur
                if count is not None and result is not None:
                    count(args, result, None)

        return traced

    def _counter(self, name: str):
        raw = self.raw
        if name == "core.enumerate_morphisms":
            def count(args, result, exc):
                if exc is not None:
                    raw["cutoffs"] += isinstance(exc, self._cutoff_error)
                else:
                    raw["results"] += len(result)
        elif name == "colimit.verify_colimit":
            def count(args, result, exc):
                if exc is None:
                    raw["cocones"] += result.cocones_checked
                    raw["entries"] += len(result.entries)
                    raw["filtered"] += sum(
                        e.uniqueness_route == "filtered-enumeration"
                        for e in result.entries)
        elif name == "poset.boolean_subalgebras":
            def count(args, result, exc):
                # members of posets actually built (cache misses), not reused
                misses = self._caches["poset"].cache_info().misses
                if exc is None and misses > self._poset_misses_seen:
                    raw["members"] += len(result.members)
                self._poset_misses_seen = misses
        elif name == "stone.stone_limit":
            def count(args, result, exc):
                if exc is None:
                    raw["families"] += len(result)
        elif name == "matrixalg.rays_to_pba":
            def count(args, result, exc):
                if exc is None:
                    raw["elements"] += result.algebra.n
        elif name == "bohr.BohrFrame.elements":
            def count(args, result, exc):
                if exc is None:
                    raw["frame_yield"] += len(result)
                    raw["frame_candidates"] += args[0].size_bound()
        elif name == "colimit.tensor_factorization":
            def count(args, result, exc):
                if exc is None:
                    raw["factorizations"] += 1
                    raw["factorizes"] += result.factorizes
        else:
            count = None
        return count

    # -- caches --------------------------------------------------------------

    def harvest_caches(self) -> None:
        """Add the caches' statistics to the totals.  Call just before the
        caches are cleared."""
        for key, cached in self._caches.items():
            info = cached.cache_info()
            self._cache_totals[key][0] += info.hits
            self._cache_totals[key][1] += info.misses
        self._poset_misses_seen = 0

    def cache_hit_ratio(self, key: str) -> float:
        info = self._caches[key].cache_info()
        hits = self._cache_totals[key][0] + info.hits
        lookups = hits + self._cache_totals[key][1] + info.misses
        return hits / lookups if lookups else 0.0

    # -- summary -------------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """Calls, total and self seconds per traced function, then the layer
        counters.  Read before anything else calls into the library."""
        out: dict[str, float] = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.total_s"] = self.total[name]
            out[f"{name}.self_s"] = self.total[name] - self.child[name]
        r = self.raw
        out.update({
            "core.enumerate_morphisms.results": r["results"],
            "core.enumerate_morphisms.cutoffs": r["cutoffs"],
            "colimit.verify_colimit.cocones": r["cocones"],
            "colimit.verify_colimit.filtered_share":
                r["filtered"] / r["entries"] if r["entries"] else 0.0,
            "poset.boolean_subalgebras.members": r["members"],
            "poset.boolean_subalgebras.cache_hit_ratio":
                self.cache_hit_ratio("poset"),
            "core.maximal_cliques.cache_hit_ratio":
                self.cache_hit_ratio("cliques"),
            "stone.stone_limit.families": r["families"],
            "matrixalg.rays_to_pba.elements": r["elements"],
            "bohr.BohrFrame.elements.yield":
                r["frame_yield"] / r["frame_candidates"]
                if r["frame_candidates"] else 0.0,
            "colimit.tensor_factorization.positive_share":
                r["factorizes"] / r["factorizations"]
                if r["factorizations"] else 0.0,
        })
        return out

    def write_spans(self, path: str) -> None:
        """One JSON line per span: name, start, end, parent span index."""
        with open(path, "w", encoding="utf-8") as fh:
            for idx, start, end, parent in self.spans:
                fh.write(json.dumps([self.names[idx], start, end, parent]) + "\n")
