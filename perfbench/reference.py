"""Reference reports and the output check.

A reference file ``reference/<workload>.json`` holds the full reports of
the base seed and, for every recorded seed, the SHA-256 of each report's
bytes and its difference from the base report, so seed-independent jobs
cost nothing per extra seed.

The check is value-level: floats match within 1e-6 relative with an
absolute floor of 1e-6 (the tolerance HittingTimes uses for ht against
ht_linear), everything else (integers, strings, booleans, list lengths,
key sets) exactly.  Monte Carlo fractions are compared as the integer hit
counts behind them.  Byte identity is reported, not required, because a
different but equally exact algorithm may move the last digits.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
from pathlib import Path

REF_DIR = Path(__file__).resolve().parent / "reference"
BASE_SEED = 1
REL_TOL = 1e-6
# report fields that are hit counts divided by trials
COUNT_FIELDS = {"locality": ("localized_fraction", "end_tail_fraction", "p_hat", "p_ml", "p_Gl")}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def diff(base, obj, path=()) -> list:
    """[path, value] pairs that turn ``base`` into ``obj``."""
    if isinstance(base, dict) and isinstance(obj, dict) and base.keys() == obj.keys():
        return [d for k in sorted(base) for d in diff(base[k], obj[k], path + (k,))]
    if isinstance(base, list) and isinstance(obj, list) and len(base) == len(obj):
        return [d for i, (b, o) in enumerate(zip(base, obj)) for d in diff(b, o, path + (i,))]
    if type(base) is type(obj) and base == obj:
        return []
    return [[list(path), obj]]


def patch(base, changes: list):
    """Inverse of ``diff``: a copy of ``base`` with the changes applied."""
    out = copy.deepcopy(base)
    for path, value in changes:
        if not path:
            return copy.deepcopy(value)
        node = out
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = copy.deepcopy(value)
    return out


def load(workload: str, seed: int, ref_dir: Path = REF_DIR) -> list[tuple[dict, str]] | None:
    """(report, sha256) per job for ``seed``, or None when it was not recorded."""
    path = ref_dir / f"{workload}.json"
    if not path.exists():
        return None
    doc = json.loads(path.read_text())
    entries = doc["seeds"].get(str(seed))
    if entries is None:
        return None
    return [(patch(base, e["delta"]), e["sha256"]) for base, e in zip(doc["base"], entries)]


def store(workload: str, seed: int, reports: list[bytes], ref_dir: Path = REF_DIR, commit=None) -> None:
    """Add one seed's job reports to the workload's reference file."""
    path = ref_dir / f"{workload}.json"
    objs = [json.loads(r) for r in reports]
    if path.exists():
        doc = json.loads(path.read_text())
    elif seed == BASE_SEED:
        doc = {"workload": workload, "base_seed": BASE_SEED, "base": objs, "seeds": {}, "commits": []}
    else:
        raise ValueError(f"record the base seed {BASE_SEED} before seed {seed}")
    if len(objs) != len(doc["base"]):
        raise ValueError(f"{workload}: {len(objs)} reports, reference has {len(doc['base'])} jobs")
    doc["seeds"][str(seed)] = [
        {"sha256": sha256(r), "delta": diff(base, o)} for base, o, r in zip(doc["base"], objs, reports)
    ]
    doc["seeds"] = dict(sorted(doc["seeds"].items(), key=lambda kv: int(kv[0])))
    if commit and commit not in doc["commits"]:
        doc["commits"].append(commit)
    ref_dir.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
    tmp.replace(path)


def _close(ref: float, got: float) -> bool:
    """Within tolerance; a NaN or infinity matches only the same non-finite value."""
    if not (math.isfinite(ref) and math.isfinite(got)):
        return ref == got or (math.isnan(ref) and math.isnan(got))
    return abs(got - ref) <= REL_TOL * max(1.0, abs(ref))


def _compare(ref, got, path: str, out: list[str]) -> None:
    if isinstance(ref, bool) or isinstance(got, bool) or ref is None or isinstance(ref, str):
        if type(ref) is not type(got) or ref != got:
            out.append(f"{path}: expected {ref!r}, got {got!r}")
    elif isinstance(ref, int):
        if type(got) is not int or ref != got:
            out.append(f"{path}: expected integer {ref!r}, got {got!r}")
    elif isinstance(ref, float):
        if not isinstance(got, (int, float)) or not _close(ref, got):
            out.append(f"{path}: expected {ref!r} within {REL_TOL:g} relative, got {got!r}")
    elif isinstance(ref, dict):
        if not isinstance(got, dict) or ref.keys() != got.keys():
            out.append(f"{path}: keys differ")
            return
        for k in sorted(ref):
            _compare(ref[k], got[k], f"{path}/{k}", out)
    elif isinstance(ref, list):
        if not isinstance(got, list) or len(ref) != len(got):
            out.append(f"{path}: list lengths differ")
            return
        for i, (r, g) in enumerate(zip(ref, got)):
            _compare(r, g, f"{path}/{i}", out)
    else:
        out.append(f"{path}: unexpected reference value {ref!r}")


def mismatches(ref: dict, got: dict) -> list[str]:
    """Every way ``got`` fails to match the reference report ``ref``; empty when it matches."""
    out: list[str] = []
    _compare(ref, got, "", out)
    fields = COUNT_FIELDS.get(ref.get("spec", {}).get("command"), ())
    results = ref.get("results", {})
    if fields and not out:
        trials = results["trials"]
        for f in (f for f in fields if f in results):
            want, have = round(results[f] * trials), round(got["results"][f] * trials)
            if want != have:
                out.append(f"/results/{f}: expected {want} hits of {trials}, got {have}")
    return out
