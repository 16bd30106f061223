"""Calibrated constants for walk step counts, frozen in a plain config file.

The asymptotic theory fixes step counts only up to constants, so three
of them are pinned down empirically, once, on a frozen sweep of small
instances, and then trusted everywhere:

  c_detect: steps ceil(c_detect * sqrt(HT_eff)) of the absorbing walk
      drive the initial-state overlap to at most 0.9 (calibrated to
      0.88 for headroom) on single-marked tori.
  c_find:   the interpolated-walk finding scheme reaches success >= 1/5
      (calibrated to 0.21) within ceil(c_find * sqrt(HT_plus)) steps on
      tori and within ceil(c_find * side * sqrt(max(1, ln side))) steps
      on grids, for probability estimates off by a factor in [2/3, 4/3].
  c_bound:  the end-to-end search ledger stays below
      c_bound * max(1, min(sqrt(H ln H), sqrt(N ln N))), measured on the
      full instance battery at n in {8, 16} and given 25% headroom.

The file format is deliberately trivial (sorted "key = value" lines, no
timestamps) so that recalibration is byte-identical when nothing
changed; reports embed a hash of the file content.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from .markov import lattice_walk, stationary
from .spectral import effective_hitting_time, extended_hitting_time
from .szegedy import find_via_interpolation, h_unique, simulate_detection

__all__ = [
    "CalibrationConstants",
    "DEFAULT_CONSTANTS_PATH",
    "load_constants",
    "save_constants",
    "calibrate_constants",
    "torus_walk_steps",
    "grid_walk_steps",
]

DEFAULT_CONSTANTS_PATH = Path("calibration.cfg")

HEADER = "# walklab calibration constants; regenerate with: walklab calibrate\n"

DETECT_TARGET = 0.88
FIND_TARGET = 0.21
BOUND_HEADROOM = 1.25
CANDIDATE_GRID = [round(0.05 * i, 2) for i in range(1, 201)]
EPS_RATIOS = (2.0 / 3.0, 1.0, 4.0 / 3.0)
CALIBRATION_SIDES = tuple(range(4, 17))


def _check_positive(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be positive and finite, got {value}")


@dataclass(frozen=True)
class CalibrationConstants:
    c_detect: float
    c_find: float
    c_bound: float

    def __post_init__(self) -> None:
        for name, value in asdict(self).items():
            _check_positive(name, value)

    def to_text(self) -> str:
        return HEADER + "".join(f"{name} = {value!r}\n" for name, value in sorted(asdict(self).items()))

    def to_dict(self) -> dict:
        return asdict(self)

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.to_text().encode()).hexdigest()[:16]


def save_constants(constants: CalibrationConstants, path: Path | str = DEFAULT_CONSTANTS_PATH) -> Path:
    path = Path(path)
    path.write_text(constants.to_text())
    return path


def load_constants(path: Path | str = DEFAULT_CONSTANTS_PATH) -> CalibrationConstants:
    path = Path(path)
    if not path.is_file():
        raise ValueError(f"constants file {path} not found; run 'walklab calibrate' first")
    values: dict[str, float] = {}
    where: dict[str, int] = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, val = (part.strip() for part in line.partition("="))
        if key in values:
            raise ValueError(f"{path}:{lineno}: {key} given twice")
        try:
            values[key] = float(val)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: {key} = {val!r} is not a number") from None
        where[key] = lineno
    names = {f.name for f in fields(CalibrationConstants)}
    missing = names - values.keys()
    if missing:
        raise ValueError(f"{path}: missing constants {sorted(missing)}")
    extra = values.keys() - names
    if extra:
        raise ValueError(f"{path}: unknown constants {sorted(extra)}")
    for key, lineno in where.items():
        try:
            _check_positive(key, values[key])
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    return CalibrationConstants(**values)


def torus_walk_steps(ht_plus: float, constants: CalibrationConstants) -> int:
    return math.ceil(constants.c_find * math.sqrt(max(ht_plus, 1.0)))


def grid_walk_steps(side: int, constants: CalibrationConstants) -> int:
    return math.ceil(constants.c_find * side * math.sqrt(max(1.0, math.log(side))))


def _detection_instances():
    for n in CALIBRATION_SIDES:
        P = lattice_walk("torus", (n, n))
        yield n, P, stationary(P), h_unique(n)


def _calibrate_detect() -> float:
    instances = list(_detection_instances())
    for c in CANDIDATE_GRID:
        ok = True
        for n, P, pi, ht_eff in instances:
            T_q = math.ceil(c * math.sqrt(max(ht_eff, 1.0)))
            if simulate_detection(P, [0], T_q, pi=pi) > DETECT_TARGET:
                ok = False
                break
        if ok:
            return c
    raise RuntimeError("no candidate constant achieves the detection overlap target")


def _find_instances():
    """(chain, pi, marked, eps, step-scale) battery for the finding constant."""
    for n in CALIBRATION_SIDES:
        P = lattice_walk("torus", (n, n))
        pi = stationary(P)
        ht_plus, eps = extended_hitting_time(P, [0], pi=pi)
        yield f"torus:{n}", P, pi, (0,), eps, math.sqrt(max(ht_plus, 1.0))
    for n in CALIBRATION_SIDES:
        P = lattice_walk("grid", (n, n))
        pi = stationary(P)
        eps = float(pi[0])
        yield f"grid:{n}", P, pi, (0,), eps, n * math.sqrt(max(1.0, math.log(n)))
    P8 = lattice_walk("torus", (8, 8))
    pi8 = stationary(P8)
    for name, marked in (
        ("torus:8+corners", (0, 4 * 8 + 4)),
        ("torus:8+triple", (0, 1, 4 * 8 + 4)),
        ("torus:8+quad", (0, 2 * 8 + 6, 5 * 8 + 3, 7 * 8 + 7)),
    ):
        eps = float(pi8[list(marked)].sum())
        ht_plus, _ = extended_hitting_time(P8, marked, pi=pi8)
        yield name, P8, pi8, marked, eps, math.sqrt(max(ht_plus, 1.0))


def _calibrate_find() -> float:
    instances = list(_find_instances())
    for c in CANDIDATE_GRID:
        if all(
            min(find_via_interpolation(P, marked, [min(r * eps, 1.0 - 1e-9) for r in EPS_RATIOS],
                                       math.ceil(c * scale), pi=pi)) >= FIND_TARGET
            for _name, P, pi, marked, eps, scale in instances
        ):
            return c
    raise RuntimeError("no candidate constant achieves the finding success target")


def _calibrate_bound(constants_so_far: CalibrationConstants) -> float:
    from .search import SearchConfig, parse_marked_spec, run_search, standard_families, verify_cost_bound

    worst = 0.0
    for n in (8, 16):
        P = lattice_walk("torus", (n, n))
        pi = stationary(P)
        for name in standard_families(n):
            config = SearchConfig(n=n, marked=parse_marked_spec(name, n), seed=0, constants=constants_so_far)
            report = run_search(config)
            h_eff = effective_hitting_time(P, config.marked, pi)
            check = verify_cost_bound(report, h_eff, constants_so_far)
            worst = max(worst, check["steps"] / check["scale"])
    if worst <= 0:
        raise RuntimeError("cost-bound calibration sweep produced no ratios")
    return round(BOUND_HEADROOM * worst, 4)


def calibrate_constants() -> CalibrationConstants:
    """Run the full frozen sweep; exact computations, so byte-reproducible."""
    c_detect = _calibrate_detect()
    c_find = _calibrate_find()
    partial = CalibrationConstants(c_detect=c_detect, c_find=c_find, c_bound=1.0)
    c_bound = _calibrate_bound(partial)
    return CalibrationConstants(c_detect=c_detect, c_find=c_find, c_bound=c_bound)
