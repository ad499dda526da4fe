"""Outside-in span tracer for the gotzmann library.

The tracer never edits library code.  It replaces each traced public function
with a wrapper in every ``gotzmann.*`` namespace that holds the same object,
found by identity.  Rebinding by identity matters because ``theorems``,
``lex`` and ``resolution`` import names with ``from .x import y``,
``monomial_algebra`` calls its own globals, and ``monomial_algebra.rank`` is a
different function from ``linalg.rank``.  Wrappers sit outside each
``lru_cache``, so cache hits count as calls.

Spans are aggregated in memory per layer: call count, inclusive time and self
time (inclusive time minus the time covered by traced child spans).
"""
from __future__ import annotations

import sys
import time
from dataclasses import dataclass

# Shape split for linalg.rank, fixed here rather than read from the library
# so that the layer names keep their meaning if the library's dispatch moves.
RANK_SMALL_DIM = 48
# Generator count above which resolution's Taylor backend hands a component
# to dense Koszul; fixed here for the same reason.
TAYLOR_CAP = 12

OP_SPAN = "bench.op"


@dataclass
class Layer:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Span aggregation plus the extra counters named in the benchmark docs."""

    def __init__(self) -> None:
        self.layers: dict[str, Layer] = {}
        self.counters: dict[str, float] = {
            "linalg.rank.large.entries": 0,
            "lex.lexify.gens_out": 0,
            "numpoly.rep_terms": 0,
            "resolution.over_cap_ideals": 0,
            "monomial_algebra.series_verify_s": 0.0,
        }
        # frames: [layer name, start time, time covered by child spans]
        self._stack: list[list] = []
        self._series_depth = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------

    def enter(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), 0.0])

    def leave(self) -> float:
        end = time.perf_counter()
        name, start, covered = self._stack.pop()
        dur = end - start
        layer = self.layers.get(name)
        if layer is None:
            layer = self.layers[name] = Layer()
        layer.calls += 1
        layer.total_s += dur
        layer.self_s += dur - covered
        if self._stack:
            self._stack[-1][2] += dur
        return dur

    def run_op(self, fn, arg):
        """Run one benchmark op under the root span."""
        self.enter(OP_SPAN)
        try:
            return fn(arg)
        finally:
            self.leave()

    # -- wrappers --------------------------------------------------------

    def _wrap(self, name: str, fn, before=None, after=None):
        tracer = self

        def traced(*args, **kwargs):
            span = before(args, kwargs) if before else name
            tracer.enter(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.leave()
            if after:
                after(result)
            return result

        return traced

    def _wrap_hf_direct(self, fn):
        tracer = self

        def traced(*args, **kwargs):
            tracer.enter("monomial_algebra.hf_direct")
            try:
                return fn(*args, **kwargs)
            finally:
                dur = tracer.leave()
                if tracer._series_depth:
                    tracer.counters["monomial_algebra.series_verify_s"] += dur

        return traced

    def _wrap_series(self, fn):
        tracer = self

        def traced(*args, **kwargs):
            tracer._series_depth += 1
            tracer.enter("monomial_algebra.hilbert_series")
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.leave()
                tracer._series_depth -= 1

        return traced

    def _rank_span(self, args, kwargs) -> str:
        rows = args[0] if args else kwargs["rows"]
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        if nrows <= RANK_SMALL_DIM and ncols <= RANK_SMALL_DIM:
            return "linalg.rank.small"
        self.counters["linalg.rank.large.entries"] += nrows * ncols
        return "linalg.rank.large"

    def _count_over_cap(self, args, kwargs) -> str:
        submodule = args[0] if args else kwargs["submodule"]
        self.counters["resolution.over_cap_ideals"] += sum(
            1 for ideal in submodule.components if len(ideal.gens) > TAYLOR_CAP
        )
        return "resolution.regularity"

    def _count_lex_gens(self, result) -> None:
        self.counters["lex.lexify.gens_out"] += sum(len(c.gens) for c in result.components)

    def _count_rep_terms(self, result) -> None:
        # adjusted_gotzmann_rep builds its remainder through gotzmann_rep, so
        # counting here covers both without double counting
        self.counters["numpoly.rep_terms"] += len(result.a)

    def install(self) -> None:
        """Rebind every traced function in all loaded gotzmann namespaces."""
        from gotzmann import combinatorics, lex, linalg, monomial_algebra, numpoly
        from gotzmann import resolution, theorems

        ma = monomial_algebra
        plan = [
            (ma.hf_direct, self._wrap_hf_direct(ma.hf_direct)),
            (ma.hilbert_series, self._wrap_series(ma.hilbert_series)),
            (linalg.rank, self._wrap("linalg.rank", linalg.rank, before=self._rank_span)),
            (
                resolution.regularity,
                self._wrap("resolution.regularity", resolution.regularity,
                           before=self._count_over_cap),
            ),
            (lex.lexify, self._wrap("lex.lexify", lex.lexify, after=self._count_lex_gens)),
        ]
        plan.append((numpoly.gotzmann_rep,
                     self._wrap("numpoly.gotzmann_rep", numpoly.gotzmann_rep,
                                after=self._count_rep_terms)))
        plan.append((numpoly.adjusted_gotzmann_rep,
                     self._wrap("numpoly.adjusted_gotzmann_rep",
                                numpoly.adjusted_gotzmann_rep)))
        for fn in (
            ma.generic_hyperplane_hf,
            ma.hilbert_polynomial,
            ma.stabilization_degree,
            ma.saturate,
        ):
            plan.append((fn, self._wrap(f"monomial_algebra.{fn.__name__}", fn)))
        for fn in (
            combinatorics.macaulay_rep,
            combinatorics.macaulay_transform,
            combinatorics.green_transform,
        ):
            plan.append((fn, self._wrap("combinatorics.transforms", fn)))
        plan.append((lex.saturated_lex_module,
                     self._wrap("lex.saturated_lex_module", lex.saturated_lex_module)))
        plan.append((resolution.koszul_betti,
                     self._wrap("resolution.koszul_betti", resolution.koszul_betti)))
        for name in CHECKERS:
            fn = getattr(theorems, name)
            plan.append((fn, self._wrap(f"theorems.{name}", fn)))

        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "gotzmann" or key.startswith("gotzmann."))]
        for original, wrapper in plan:
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._restore.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()


CHECKERS = (
    "check_macaulay_adjusted",
    "check_green_adjusted",
    "check_gasharov",
    "check_persistence_adjusted",
    "check_gotzmann_regularity_adjusted",
    "check_sharpness",
)

SPAN_LAYERS = (
    "monomial_algebra.generic_hyperplane_hf",
    "linalg.rank.small",
    "linalg.rank.large",
    "monomial_algebra.hf_direct",
    "monomial_algebra.hilbert_series",
    "monomial_algebra.hilbert_polynomial",
    "monomial_algebra.stabilization_degree",
    "monomial_algebra.saturate",
    "lex.lexify",
    "lex.saturated_lex_module",
    "numpoly.gotzmann_rep",
    "numpoly.adjusted_gotzmann_rep",
    "combinatorics.transforms",
    "resolution.koszul_betti",
    "resolution.regularity",
) + tuple(f"theorems.{name}" for name in CHECKERS)

# (metric prefix, module, attribute) of every lru_cache whose cache_info()
# the traced run reads after its last op.
CACHES = (
    ("monomials_of_degree", "gotzmann.monomial_algebra", "monomials_of_degree"),
    ("quotient_basis", "gotzmann.monomial_algebra", "quotient_basis"),
    ("hf_direct", "gotzmann.monomial_algebra", "hf_direct"),
    ("ideal_numerator", "gotzmann.monomial_algebra", "_ideal_numerator"),
    ("hilbert_series", "gotzmann.monomial_algebra", "hilbert_series"),
    ("hilbert_polynomial", "gotzmann.monomial_algebra", "hilbert_polynomial"),
    ("stabilization_degree", "gotzmann.monomial_algebra", "stabilization_degree"),
    ("linear_section_dim", "gotzmann.monomial_algebra", "_linear_section_dim"),
    ("ideal_basis", "gotzmann.resolution", "ideal_basis"),
)


def cache_metrics() -> dict[str, float]:
    """hits, misses and hit ratio of each cache; zeros where none is exposed.

    Call after ``uninstall`` so that the attributes hold the library's own
    cached functions again.
    """
    out: dict[str, float] = {}
    for label, module_name, attr in CACHES:
        fn = getattr(sys.modules.get(module_name), attr, None)
        info = fn.cache_info() if hasattr(fn, "cache_info") else None
        hits = info.hits if info else 0
        misses = info.misses if info else 0
        out[f"cache.{label}.hits"] = hits
        out[f"cache.{label}.misses"] = misses
        out[f"cache.{label}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    return out
