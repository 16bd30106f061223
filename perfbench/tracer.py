"""Outside-in tracer: wraps walklab's public layer functions in timing spans.

Nothing in walklab changes.  ``Tracer.install`` replaces each declared
function in its defining module and in every walklab module that
imported it by name, and replaces the declared methods on their class.
Each span records its self time (its duration minus the part its child
spans cover) and its inclusive time.  A few spans also add computed
counts: numbers derived from call arguments and return values, which
repeat exactly from run to run and are not measurements.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

# span name -> the workload on which it must fire at least once
SPANS = {
    "cli.main": "analyze-n32",
    "graphs.build_torus": "analyze-n32",
    "graphs.build_grid": "analyze-n32",
    "graphs.build_rect_grid": "search-n128",
    "graphs.partition_torus": "locality-mc",
    "graphs.subgrid_graph": "search-n128",
    "markov.walk_from_graph": "search-n128",
    "markov.stationary": "analyze-n32",
    "markov.discriminant": "analyze-n32",
    "markov.make_absorbing": "search-n48",
    "markov.interpolate": "search-n48",
    "spectral.decompose": "analyze-n32",
    "spectral.hitting_time_spectral": "analyze-n32",
    "spectral.hitting_time_linear": "search-n128",
    "spectral.effective_hitting_time": "search-n128",
    "spectral.escape_time": "analyze-n32",
    "spectral.escape_time_subset": "analyze-n32",
    "spectral.extended_hitting_time": "analyze-n32",
    "spectral.interpolated_hitting_time": "analyze-n32",
    "spectral.extended_hitting_time_limit": "analyze-n32",
    "spectral.analyze_instance": "analyze-n32",
    "szegedy.h_unique": "search-n128",
    "szegedy.cap_estimate": "search-n128",
    "szegedy.estimate_effective_ht": "search-n48",
    "szegedy.build_walk": "search-n128",
    "szegedy.find_via_interpolation": "search-n128",
    "szegedy.SzegedyWalk.step": "search-n128",
    "szegedy.SzegedyWalk.marked_mass": "search-n128",
    "szegedy.SzegedyWalk.vertex_distribution": "search-n48",
    "search.parse_marked_spec": "analyze-n32",
    "search.run_search": "search-n128",
    "locality.line_localization": "locality-mc",
    "locality.grid_localization": "locality-mc",
    "locality.subgrid_coverage": "locality-mc",
    "reporting.write_report": "locality-mc",
    "calibration.load_constants": "search-n48",
}

# The modules whose self times must cover the traced wall time; cli is
# the remainder (argument parsing, printing, envelope assembly).
LAYERS = ("graphs", "markov", "spectral", "szegedy", "search", "locality", "reporting", "calibration")

# per-layer time metric -> the spans whose self time it sums
SELF_TIME_METRICS = {
    "graphs.build_s": [s for s in SPANS if s.startswith("graphs.")],
    "markov.walk_from_graph_s": ["markov.walk_from_graph"],
    "markov.stationary_s": ["markov.stationary"],
    "markov.discriminant_s": ["markov.discriminant"],
    "markov.absorb_interp_s": ["markov.make_absorbing", "markov.interpolate"],
    "spectral.decompose_s": ["spectral.decompose"],
    "spectral.linear_solve_s": ["spectral.hitting_time_linear"],
    "spectral.effective_ht_s": ["spectral.effective_hitting_time"],
    "spectral.eht_limit_s": ["spectral.extended_hitting_time_limit", "spectral.interpolated_hitting_time"],
    "szegedy.estimator_s": ["szegedy.estimate_effective_ht"],
    "szegedy.find_s": ["szegedy.find_via_interpolation"],
    "szegedy.build_walk_s": ["szegedy.build_walk"],
    "szegedy.step_s": ["szegedy.SzegedyWalk.step"],
    "szegedy.marked_mass_s": ["szegedy.SzegedyWalk.marked_mass"],
    "locality.line_s": ["locality.line_localization"],
    "locality.grid_s": ["locality.grid_localization"],
    "locality.subgrid_s": ["locality.subgrid_coverage"],
    "reporting.write_s": ["reporting.write_report"],
    "calibration.load_s": ["calibration.load_constants"],
    **{f"{m}.self_s": [s for s in SPANS if s.startswith(f"{m}.")]
       for m in ("markov", "spectral", "szegedy", "search", "cli")},
}

# h_unique delegates all of its work, so its self time is near zero;
# this one metric is the span's inclusive time.
INCLUSIVE_TIME_METRICS = {"szegedy.h_unique_s": "szegedy.h_unique"}


def _sampled_steps(a, r):
    return {"locality.sampled_steps": a["trials"] * a["T"]}


# span -> function(bound arguments, return value) -> computed counts
COUNTERS = {
    "spectral.decompose": lambda a, r: {
        "spectral.decompose_calls": 1, "spectral.eigh_dim3": a["D"].shape[0] ** 3},
    "spectral.effective_hitting_time": lambda a, r: {"spectral.effective_ht_matvecs": r},
    "szegedy.estimate_effective_ht": lambda a, r: {
        "szegedy.estimator_matvecs": r.probes[-1] if r.probes else 0},
    "szegedy.find_via_interpolation": lambda a, r: {
        "szegedy.find_calls": 1, "szegedy.walk_vertex_steps": a["T"] * a["P"].dim},
    "locality.line_localization": _sampled_steps,
    "locality.grid_localization": _sampled_steps,
    "locality.subgrid_coverage": _sampled_steps,
    "reporting.write_report": lambda a, r: {"reporting.report_bytes": Path(r).stat().st_size},
}

COMPUTED_COUNTS = {
    "spectral.decompose_calls": "number of decompose calls",
    "spectral.eigh_dim3": "sum of dim**3 over decompose arguments",
    "spectral.effective_ht_matvecs": "sum of the step counts effective_hitting_time returns",
    "szegedy.estimator_matvecs": "sum of the last probe estimate_effective_ht returns",
    "szegedy.find_calls": "number of find_via_interpolation calls",
    "szegedy.walk_vertex_steps": "sum of T * P.dim over find_via_interpolation arguments",
    "locality.sampled_steps": "sum of trials * T over locality experiment arguments",
    "reporting.report_bytes": "sum of the sizes of the files write_report returns",
}


class Tracer:
    """Span timings and computed counts of one process."""

    def __init__(self) -> None:
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter({name: 0 for name in COMPUTED_COUNTS})
        self.missing: list[str] = []
        self._stack: list[float] = []

    def _wrap(self, name: str, fn):
        self_s, total_s, calls, stack = self.self_s, self.total_s, self.calls, self._stack
        perf = time.perf_counter
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None
        counts = self.counts

        def span(*args, **kwargs):
            stack.append(0.0)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                self_s[name] += dt - stack.pop()
                total_s[name] += dt
                calls[name] += 1
                if stack:
                    stack[-1] += dt
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counts.update(counter(bound.arguments, result))
            return result

        span.__wrapped__ = fn
        span.__name__ = getattr(fn, "__name__", name)
        return span

    def install(self) -> None:
        """Wrap every declared span that exists in the imported walklab."""
        walklab_modules = [m for n, m in list(sys.modules.items())
                           if n.startswith("walklab.") and m is not None]
        for name in SPANS:
            module_name, _, attr = name.partition(".")
            owner_name, _, fn_name = attr.rpartition(".")
            try:
                module = importlib.import_module(f"walklab.{module_name}")
            except ModuleNotFoundError:
                module = None
            owner = getattr(module, owner_name, None) if owner_name else module
            fn = getattr(owner, fn_name, None)
            if fn is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, fn)
            if owner_name:  # a method: replace it on its class
                setattr(owner, fn_name, wrapper)
                continue
            for mod in walklab_modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapper)

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of this process: self times, counts and coverage."""
        out = {name: sum(self.self_s[s] for s in spans) for name, spans in SELF_TIME_METRICS.items()}
        out.update({name: self.total_s[span] for name, span in INCLUSIVE_TIME_METRICS.items()})
        out.update(self.counts)
        layers = sum(t for s, t in self.self_s.items() if s.partition(".")[0] in LAYERS)
        out["trace.coverage_frac"] = layers / wall_s if wall_s > 0 else 0.0
        return out
