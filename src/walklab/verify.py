"""Acceptance battery: ten executable criteria over the whole pipeline.

Each criterion function computes everything it needs, asserts nothing,
and returns a CriterionResult with a pass flag plus the measured
numbers, so failures come with their evidence attached.  run_suite
groups them into named suites and prints one PASS/FAIL line per
criterion.  Wall-clock runtimes are printed but kept out of the JSON
details so reports stay byte-reproducible.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .calibration import EPS_RATIOS, CalibrationConstants, torus_walk_steps
from .locality import (
    GRID_BOUND,
    LINE_BOUND,
    grid_localization,
    line_localization,
    subgrid_coverage,
)
from .markov import WalkMatrix, lattice_walk, random_reversible_chain, stationary
from .search import SearchConfig, parse_marked_spec, run_search, standard_families, verify_cost_bound
from .spectral import (
    effective_hitting_time,
    escape_time_subset,
    extended_hitting_time,
    hitting_time_linear,
    hitting_time_resolvent,
)
from .szegedy import find_via_interpolation, h_unique

__all__ = [
    "CriterionResult",
    "SUITES",
    "run_suite",
    "criterion_1",
    "criterion_2",
    "criterion_3",
    "criterion_4",
    "criterion_5",
    "criterion_6",
    "criterion_7",
    "criterion_8",
    "criterion_9",
    "criterion_10",
]


@dataclass(frozen=True)
class CriterionResult:
    key: str
    name: str
    passed: bool
    details: dict
    runtime_s: float = field(compare=False, default=0.0)

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"[{self.key}] {tag}  {self.name}  ({self.runtime_s:.1f}s)"

    def to_dict(self) -> dict:
        # runtime deliberately omitted: reports must be byte-reproducible
        return {"key": self.key, "name": self.name, "passed": self.passed, "details": self.details}


@lru_cache(maxsize=None)
def _torus_chain(n: int) -> tuple[WalkMatrix, np.ndarray]:
    """The n-torus walk and its stationary vector, built once per side.

    Every criterion that asks for a side shares one pair: pi is
    read-only, as P's arrays are.
    """
    P = lattice_walk("torus", (n, n))
    pi = stationary(P)
    pi.setflags(write=False)
    return P, pi


def _random_marked(rng: np.random.Generator, N: int) -> np.ndarray:
    size = int(rng.integers(1, max(1, N // 2) + 1))
    return np.sort(rng.choice(N, size=size, replace=False))


# -- c01 ---------------------------------------------------------------

# c01 and c02 compare exact routes, so what they leave is rounding:
# at most 4.2e-15 relative over c01's 58 instances and 4.4e-16 on c02's tori
EXACT_ROUTE_TOL = 1e-12


def criterion_1(seed: int = 1) -> CriterionResult:
    """Resolvent absorption-time sum vs fundamental-matrix solve on shared instances."""
    rng = np.random.default_rng(seed)
    worst_abs = 0.0
    worst_rel = 0.0
    count = 0
    ok = True

    def check(P: WalkMatrix, marked, pi: np.ndarray) -> None:
        nonlocal worst_abs, worst_rel, count, ok
        ht_r = hitting_time_resolvent(P, marked, pi=pi)
        ht_l = hitting_time_linear(P, marked, pi=pi)
        dev = abs(ht_r - ht_l)
        worst_abs = max(worst_abs, dev)
        worst_rel = max(worst_rel, dev / max(1.0, ht_r))
        count += 1
        if dev > EXACT_ROUTE_TOL * max(1.0, ht_r):
            ok = False

    for _ in range(50):
        N = int(rng.integers(4, 33))
        P, pi = random_reversible_chain(N, rng)
        check(P, _random_marked(rng, N), pi=pi)
    for kind in ("torus", "grid"):
        for n in (3, 4, 5, 8):
            P = lattice_walk(kind, (n, n))
            check(P, _random_marked(rng, P.dim), pi=stationary(P))

    details = {"instances": count, "max_abs_deviation": worst_abs, "max_rel_deviation": worst_rel,
               "tolerance": EXACT_ROUTE_TOL}
    return CriterionResult("c01", "hitting time: resolvent route matches linear solve", ok, details)


# -- c02 ---------------------------------------------------------------

def criterion_2() -> CriterionResult:
    """Singleton extended/plain hitting ratio, checked by the exact identity eht = (1 - eps) ht.

    On the torus both come from its spectrum by different routes: ht from
    the Green block of the marked vertex, and eht = E/eps from one FFT of
    the escape form.  The identity fixes the spread of eht/ht across
    sides to the spread of 1 - 1/N (1.038 here).  The extended hitting time
    E/((1 - eps) eps) is eht/(1 - eps) exactly, so on a singleton it is
    ht by the same identity and adds no check of its own.
    """
    rows = []
    for n in (5, 9, 17):
        P, pi = _torus_chain(n)
        marked = [0]
        ht = hitting_time_resolvent(P, marked, pi)
        eht, eps = extended_hitting_time(P, marked, pi)
        rows.append({"n": n, "ht": ht, "eht": eht, "eht_over_ht": eht / ht, "eps": eps,
                     "eht_identity_deviation": abs(eht / ht - (1.0 - eps))})
    ok = all(r["eht_identity_deviation"] <= EXACT_ROUTE_TOL for r in rows)
    details = {"instances": rows, "tolerance": EXACT_ROUTE_TOL}
    return CriterionResult("c02", "extended vs plain hitting time: stable singleton ratio", ok, details)


# -- c03 ---------------------------------------------------------------

def _random_partition(rng: np.random.Generator, items: np.ndarray) -> list[np.ndarray]:
    perm = rng.permutation(items)
    n_parts = int(rng.integers(2, min(4, perm.size) + 1))
    cuts = np.sort(rng.choice(np.arange(1, perm.size), size=n_parts - 1, replace=False))
    return [np.sort(part) for part in np.split(perm, cuts)]


def criterion_3(seed: int = 3) -> CriterionResult:
    """Escape-time inequalities: partition bound, worst-singleton bound, union sub-additivity."""
    rng = np.random.default_rng(seed)
    instances = 200
    slack = 1e-9
    violations = {"partition": 0, "singleton": 0, "union": 0}
    worst_margin = math.inf
    for i in range(instances):
        if i % 2 == 0:
            N = int(rng.integers(6, 25))
            P, pi = random_reversible_chain(N, rng)
        else:
            n = int(rng.integers(3, 7))
            P, pi = _torus_chain(n)
            N = P.dim
        m_size = int(rng.integers(2, min(8, N - 2) + 1))
        M = np.sort(rng.choice(N, size=m_size, replace=False))
        parts = _random_partition(rng, M)

        escapes: dict[tuple[int, ...], float] = {}  # this instance's escape times by subset

        def escape(subset) -> float:
            key = tuple(np.unique(subset).tolist())
            if key not in escapes:
                escapes[key] = escape_time_subset(P, key, pi=pi)
            return escapes[key]

        eht_M, eps_M = extended_hitting_time(P, M, pi=pi, escape=escape(M))
        rhs_partition = 0.0
        for part in parts:
            eht_i, eps_i = extended_hitting_time(P, part, pi=pi, escape=escape(part))
            rhs_partition += (eps_i / eps_M) * eht_i
        rhs_singleton = max(escape([m]) / pi[m] for m in M)
        e_union = escape(np.concatenate([parts[0], parts[1]]))
        e_parts = escape(parts[0]) + escape(parts[1])

        checks = {
            "partition": rhs_partition + slack - eht_M,
            "singleton": rhs_singleton + slack - eht_M,
            "union": e_parts + slack - e_union,
        }
        for name, margin in checks.items():
            worst_margin = min(worst_margin, margin)
            if margin < 0:
                violations[name] += 1

    total = sum(violations.values())
    details = {"instances": instances, "violations": violations, "worst_margin": worst_margin}
    return CriterionResult("c03", "escape time inequality battery", total == 0, details)


# -- c04 ---------------------------------------------------------------

def criterion_4() -> CriterionResult:
    """Escape/log N bands on torus and grid; unique-vertex cost over N log N band."""
    details: dict = {}
    ok = True
    for label in ("torus", "grid"):
        vals = []
        for n in (4, 8, 16, 32):
            P = lattice_walk(label, (n, n))
            e = escape_time_subset(P, [0], stationary(P))
            vals.append({"n": n, "escape": e, "escape_over_logN": e / math.log(n * n)})
        band = max(v["escape_over_logN"] for v in vals) / min(v["escape_over_logN"] for v in vals)
        details[label] = {"values": vals, "band_ratio": band}
        if band > 3.0:
            ok = False
    h_vals = []
    for n in (5, 9, 17, 33):
        N = n * n
        h = h_unique(n)
        h_vals.append({"n": n, "h_unique": h, "h_over_NlogN": h / (N * math.log(N))})
    h_band = max(v["h_over_NlogN"] for v in h_vals) / min(v["h_over_NlogN"] for v in h_vals)
    details["h_unique"] = {"values": h_vals, "band_ratio": h_band}
    if h_band > 3.0:
        ok = False
    details["band_limit"] = 3.0
    return CriterionResult("c04", "escape time and unique-vertex cost scaling bands", ok, details)


# -- c05 ---------------------------------------------------------------

def criterion_5(trials: int = 100_000, seed: int = 1) -> CriterionResult:
    """Line and grid localization: Wilson 99% lower bounds clear the stated floors."""
    rows = []
    ok = True
    for kind, experiment, bound in (
        ("line", line_localization, LINE_BOUND),
        ("grid", grid_localization, GRID_BOUND),
    ):
        for T in (25, 100, 400):
            rep = experiment(T, trials, seed)
            passed = rep.wilson_low >= bound
            ok = ok and passed
            rows.append({**rep.to_dict(), "bound": bound, "passed": passed})
    return CriterionResult("c05", "line and grid walk localization", ok, {"experiments": rows})


# -- c06 ---------------------------------------------------------------

# frozen battery: (side, steps, marked expression), all dense enough that
# the measured visit probability clears 1/74 with many sigma to spare
COVERAGE_INSTANCES: tuple[tuple[int, int, str], ...] = (
    (24, 1, "rows:0"),
    (24, 1, "cols:0,12"),
    (24, 2, "rows:0,12"),
    (24, 2, "half"),
    (24, 1, "random:36:11"),
    (32, 1, "rows:0"),
    (32, 1, "half"),
    (32, 2, "rows:0,16"),
    (32, 2, "random:64:12"),
    (32, 4, "cols:0"),
    (32, 4, "halfchecker"),
    (48, 1, "rows:0,24"),
    (48, 2, "rows:0"),
    (48, 2, "halfchecker"),
    (48, 3, "cols:0,16,32"),
    (48, 4, "random:144:13"),
    (64, 1, "rows:0,21,42"),
    (64, 2, "half"),
    (64, 2, "cols:0,32"),
    (64, 4, "rows:0"),
)


def criterion_6(trials: int = 100_000, seed: int = 6) -> CriterionResult:
    """Marked-sub-grid mass: p_G >= p_hat/5 - 3 sigma, and the chain of visit bounds."""
    rows = []
    ok = True
    for i, (n, T, spec) in enumerate(COVERAGE_INSTANCES):
        marked = parse_marked_spec(spec, n)
        rep = subgrid_coverage(n, marked, T, trials, seed + i)
        s3 = 3.0 * rep.sigma
        checks = {
            "p_hat_floor": rep.p_hat >= 1.0 / 74.0,
            "fifth_bound": rep.p_G >= rep.p_hat / 5.0 - s3,
            "chain_lower": rep.p_hat - 2.0 / 745.0 <= rep.p_ml + s3,
            "chain_middle": rep.p_ml <= rep.p_Gl,
            "chain_upper": rep.p_Gl <= 4.0 * rep.p_G + s3,
        }
        passed = all(checks.values())
        ok = ok and passed
        rows.append({**rep.to_dict(), "spec": spec, "checks": checks, "passed": passed})
    return CriterionResult("c06", "sub-grid coverage bounds", ok, {"instances": rows})


# -- c07 ---------------------------------------------------------------

FIND_INSTANCES: tuple[tuple[int, tuple[int, ...]], ...] = (
    (4, (0,)),
    (5, (0,)),
    (8, (0,)),
    (8, (0, 36)),
    (8, (0, 1, 36)),
    (8, (0, 22, 43, 63)),
)


def criterion_7(constants: CalibrationConstants) -> CriterionResult:
    """Interpolated finding: success >= 1/5 for probability misestimates within 2/3..4/3."""
    rows = []
    ok = True
    for n, marked in FIND_INSTANCES:
        P, pi = _torus_chain(n)
        eht, eps = extended_hitting_time(P, marked, pi=pi)
        T = torus_walk_steps(eht, constants)
        eps_tildes = [min(ratio * eps, 1.0 - 1e-12) for ratio in EPS_RATIOS]
        successes = find_via_interpolation(P, marked, eps_tildes, T, pi=pi)
        for ratio, eps_tilde, success in zip(EPS_RATIOS, eps_tildes, successes):
            passed = success >= 0.2
            ok = ok and passed
            rows.append(
                {"n": n, "marked": list(marked), "eps": eps, "ratio": ratio,
                 "eps_tilde": eps_tilde, "T": T, "success": success, "passed": passed}
            )
    return CriterionResult("c07", "interpolated finding success floor", ok, {"instances": rows, "floor": 0.2})


# -- c08 ---------------------------------------------------------------

def criterion_8(
    constants: CalibrationConstants,
    reports: dict,
    sizes: Sequence[int] = (16, 32),
) -> CriterionResult:
    """End-to-end search: best-k success >= 1/50 on the benchmark families.

    Fills reports with each run's SearchReport, keyed (n, family), for c09.
    """
    instances = [(n, name, parse_marked_spec(name, n)) for n in sizes for name in standard_families(n)]
    rows = []
    ok = True
    for n, name, marked in instances:
        rep = run_search(SearchConfig(n=n, marked=marked, constants=constants, seed=8))
        reports[(n, name)] = rep
        passed = rep.best_success >= 1.0 / 50.0
        ok = ok and passed
        rows.append(
            {"n": n, "family": name, "marked_size": len(rep.config.marked), "h_tilde": rep.h_tilde,
             "d": rep.layout.d, "T_walk": rep.T_walk, "best_k": rep.best_k,
             "best_success": rep.best_success, "ledger_steps": rep.steps,
             "passed": passed}
        )
    return CriterionResult("c08", "end-to-end search success floor", ok, {"instances": rows, "floor": 1.0 / 50.0})


# -- c09 ---------------------------------------------------------------

SEPARATION_SIDES = (8, 16, 32, 64)


def _cost_against_eht(spec: str, sides: Sequence[int], constants: CalibrationConstants) -> list[dict]:
    """Search ledger steps against sqrt(eht) for the marked family spec on each side."""
    rows = []
    for n in sides:
        marked = parse_marked_spec(spec, n)
        rep = run_search(SearchConfig(n=n, marked=marked, constants=constants, seed=9))
        P, pi = _torus_chain(n)
        eht, _ = extended_hitting_time(P, marked, pi)
        rows.append({"n": n, "steps": rep.steps, "eht": eht, "ratio": rep.steps / math.sqrt(eht)})
    return rows


def criterion_9(constants: CalibrationConstants, reports8: dict) -> CriterionResult:
    """Frozen cost bound on every benchmark instance; vanishing steps/sqrt(eht) separation.

    The separation family marks the left half-torus plus the even
    checkerboard of the right half, so every unmarked vertex neighbors
    a marked one: plain hitting stays O(1) while the extended hitting
    time representative grows linearly with N, and the walk cost
    (constant here) falls ever further below sqrt(eht).  The contiguous
    half-torus has no such gap -- both hitting times grow linearly, so
    its ratio is reported for contrast but not asserted.  The cost bound
    is checked on the searches c08 ran, passed in as reports8.
    """
    bound_rows = []
    ok = True
    for (n, name), rep in sorted(reports8.items()):
        P, pi = _torus_chain(n)
        h_eff = effective_hitting_time(P, rep.config.marked, pi)
        chk = verify_cost_bound(rep, h_eff, constants)
        passed = chk["ratio"] <= 1.0
        ok = ok and passed
        bound_rows.append({"n": n, "family": name, "h_eff": h_eff, **chk, "passed": passed})

    separation = _cost_against_eht("halfchecker", SEPARATION_SIDES, constants)
    decreasing = all(
        b["ratio"] < a["ratio"] for a, b in zip(separation, separation[1:])
    )
    ok = ok and decreasing
    contrast = _cost_against_eht("half", (8, 16, 32), constants)

    details = {
        "cost_bound": bound_rows,
        "separation": separation,
        "separation_decreasing": decreasing,
        "contiguous_half_unasserted": contrast,
    }
    return CriterionResult("c09", "total cost bound and separation scaling", ok, details)


# -- c10 ---------------------------------------------------------------

def criterion_10(constants_path: str) -> CriterionResult:
    """Repeating a command with the same seed and constants gives identical bytes."""
    import contextlib
    import io
    import tempfile
    from pathlib import Path

    from . import cli  # deferred: cli imports this module

    commands = [
        ["analyze", "--graph", "torus:5", "--marked", "cells:(0,0)"],
        ["locality", "--experiment", "line", "--T", "25", "--trials", "2000", "--seed", "3"],
        ["search", "--n", "8", "--marked", "rows:0", "--seed", "7", "--sample",
         "--constants", constants_path],
    ]
    rows = []
    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        for i, argv in enumerate(commands):
            payloads = []
            for rep in range(2):
                out = Path(tmp) / f"cmd{i}_rep{rep}.json"
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(argv + ["--out", str(out)])
                payloads.append(out.read_bytes())
                if code != 0:
                    ok = False
            identical = payloads[0] == payloads[1] and len(payloads[0]) > 0
            ok = ok and identical
            rows.append(
                {"command": " ".join(argv), "bytes": len(payloads[0]), "identical": identical}
            )
    return CriterionResult("c10", "byte-identical reports under fixed seed", ok, {"commands": rows})


# -- suites ------------------------------------------------------------

SUITES: dict[str, tuple[str, ...]] = {
    "theorems": ("c01", "c02", "c03", "c04"),
    "locality": ("c05", "c06"),
    "search": ("c07", "c08", "c09"),
    "determinism": ("c10",),
    "all": ("c01", "c02", "c03", "c04", "c05", "c06", "c07", "c08", "c09", "c10"),
}


def run_suite(
    suite: str,
    constants: CalibrationConstants,
    constants_path: str,
    trials: int = 100_000,
    seed: int = 1,
    search_sizes: Sequence[int] | None = None,
) -> tuple[bool, list[CriterionResult]]:
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {sorted(SUITES)}")
    shared8: dict = {}
    sizes = tuple(search_sizes) if search_sizes else (16, 32)
    runners: dict[str, Callable[[], CriterionResult]] = {
        "c01": lambda: criterion_1(seed=seed),
        "c02": criterion_2,
        "c03": lambda: criterion_3(seed=seed + 2),
        "c04": criterion_4,
        "c05": lambda: criterion_5(trials=trials, seed=seed),
        "c06": lambda: criterion_6(trials=trials, seed=seed + 5),
        "c07": lambda: criterion_7(constants),
        "c08": lambda: criterion_8(constants, reports=shared8, sizes=sizes),
        "c09": lambda: criterion_9(constants, reports8=shared8),
        "c10": lambda: criterion_10(constants_path=constants_path),
    }
    results = []
    for key in SUITES[suite]:
        t0 = time.perf_counter()
        result = replace(runners[key](), runtime_s=time.perf_counter() - t0)
        print(result.line())
        results.append(result)
    return all(r.passed for r in results), results
