"""walklab benchmark: end-to-end metrics of four CLI workloads, per-layer metrics from a traced run.

    python3 perfbench/run.py --workload search-n128 --seed 1 --seconds 15 --trace 0

Run from anywhere; the repository root is the parent of this directory,
and walklab is imported from its ``src/``.  The seed selects the input
set seed mod 64 (workloads.py).  A run repeats the workload in fresh
interpreters (one closed-loop caller: each job starts when the previous
one returned) until ``--seconds`` seconds have passed and, untraced, at
least twice.  It checks every report against the recorded
reference and prints as its last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The line before it holds the
machine block and run details.

``--trace 0`` reports the end-to-end metrics (medians over the untraced
repetitions): ``wall_s`` (jobs after set-up), ``setup_s`` (interpreter
spawn until walklab.cli is imported and calibration.cfg loaded; at least
six set-ups per run) and ``peak_rss_mb``.  The two times are in nominal
seconds: on a shared machine the core speed drifts by up to 2x within
minutes, so each job and each set-up is scaled by the core speed sampled
while it ran (speed.py).  The measured seconds are in the second-last
line.  ``--trace 1`` alternates
untraced and traced repetitions and reports the per-layer metrics: self
times per span group, computed counts, ``failed_frac``,
``reporting.identical_frac`` and ``trace.overhead_s``; its second-last
line also holds the end-to-end metrics, so it prints every metric.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
from machine import nproc  # noqa: E402
from tracer import COMPUTED_COUNTS  # noqa: E402
from workloads import WHY, instance  # noqa: E402

ROOT = HERE.parent
MIN_SETUPS = 6
MIN_REPS = 2
CHILD_TIMEOUT_S = 120.0
# No repetition starts if the last one suggests it would end past this.
HARD_LIMIT_S = 150.0

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def per_layer_units() -> dict[str, str]:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc["per_layer"]}


def child_env() -> dict[str, str]:
    """The environment of every measured process: default worker count, BLAS threads <= nproc."""
    env = dict(os.environ)
    cores = nproc()
    blas = env.get("OPENBLAS_NUM_THREADS", "")
    env["OPENBLAS_NUM_THREADS"] = str(min(int(blas), cores) if blas.isdigit() and int(blas) > 0 else cores)
    env["WALKLAB_WORKERS"] = "1"
    return env


def spawn(root: Path, tmp: Path, workload: str, seed: int,
          trace: bool = False, setup_only: bool = False) -> dict:
    """Run child.py in one fresh interpreter and return its result; RuntimeError if it failed."""
    out = Path(tempfile.mkdtemp(prefix="rep", dir=tmp))
    cmd = [sys.executable, str(HERE / "child.py"), "--root", str(root),
           "--workload", workload, "--seed", str(seed), "--out", str(out)]
    cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
    cmd += ["--spawned", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=root, env=child_env(), stdout=subprocess.DEVNULL,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"{workload} timed out after {CHILD_TIMEOUT_S:g} s") from None
    result_path = out / "result.json"
    if proc.returncode != 0 or not result_path.exists():
        raise RuntimeError(f"{workload} child exited with {proc.returncode}")
    result = json.loads(result_path.read_text())
    result["dir"] = out
    return result


class Runner:
    """Runs the repetitions of one benchmark run and checks their reports."""

    def __init__(self, root: Path, tmp: Path, workload: str, instance: int, ref_dir: Path):
        self.root, self.tmp, self.workload, self.instance = root, tmp, workload, instance
        self.reference = reference.load(workload, instance, ref_dir)
        if self.reference is None:
            raise RuntimeError(
                f"no recorded reference for {workload} instance {instance}; run "
                f"`python3 perfbench/record.py --seeds {instance}` at the parent commit "
                "of the change under test")
        self.count = 0
        self.attempted = 0
        self.failed = 0
        self.identical = 0
        self.messages: list[str] = []

    def repetition(self, trace: bool) -> dict | None:
        """Run the workload once and check each report; None if the process failed."""
        self.count += 1
        self.attempted += len(self.reference)
        try:
            result = spawn(self.root, self.tmp, self.workload, self.instance, trace=trace)
        except RuntimeError as exc:
            self.failed += len(self.reference)
            self.messages.append(f"rep{self.count}: {exc}")
            return None
        result["sha256"] = []
        for i, (job, (ref, ref_digest)) in enumerate(zip(result["jobs"], self.reference)):
            path = result["dir"] / f"job{i}.json"
            data = path.read_bytes() if path.exists() else None
            digest = reference.sha256(data) if data is not None else None
            result["sha256"].append(digest)
            if job["rc"] != 0:
                problems = [f"exit code {job['rc']}"]
            elif data is None:
                problems = ["no report written"]
            else:
                try:
                    problems = reference.mismatches(ref, json.loads(data))
                except ValueError:
                    problems = ["report is not JSON"]
                self.identical += digest == ref_digest
            if problems:
                self.failed += 1
                self.messages.append(f"rep{self.count} job{i}: " + "; ".join(problems[:3]))
        return result


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 root: Path = ROOT, ref_dir: Path = reference.REF_DIR) -> dict:
    """One benchmark run; returns the result line, the run details and the repetitions."""
    inst = instance(seed)
    tmp = root / ".perfbench_tmp" / str(os.getpid())
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    try:
        runner = Runner(root, tmp, workload, inst, ref_dir)
        plain: list[dict] = []
        traced: list[dict] = []
        start = time.monotonic()
        for loop in itertools.count(1):
            t_rep = time.monotonic()
            for is_traced in ((False, True) if trace else (False,)):
                result = runner.repetition(is_traced)
                if result is not None:
                    (traced if is_traced else plain).append(result)
            elapsed = time.monotonic() - start
            rep_s = time.monotonic() - t_rep
            enough = trace or loop >= MIN_REPS
            if (enough and elapsed >= seconds) or elapsed + rep_s > HARD_LIMIT_S:
                break
        if not plain or (trace and not traced):
            raise RuntimeError("no repetition finished: " + "; ".join(runner.messages[:5]))

        setups = list(plain)
        while len(setups) < MIN_SETUPS:
            setups.append(spawn(root, tmp, workload, inst, setup_only=True))
        end_to_end = {
            "wall_s": statistics.median(r["wall_s"] for r in plain),
            "setup_s": statistics.median(r["setup_s"] for r in setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
        if trace:
            metrics, units = layer_metrics(plain, traced, runner), per_layer_units()
        else:
            metrics, units = end_to_end, END_TO_END_UNITS
        line = {
            "correct": runner.failed == 0,
            "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        }
        info = {
            "workload": workload,
            "why": WHY[workload],
            "seed": seed,
            "seconds": seconds,
            "trace": int(trace),
            "repetitions": {"untraced": len(plain), "traced": len(traced)},
            "machine": {**plain[0]["machine"], "workload_seed": seed, "workload_instance": inst},
            "failures": runner.messages[:20],
        }
        info["measured"] = {
            "wall_s": statistics.median(r["measured"]["wall_s"] for r in plain),
            "setup_s": statistics.median(r["measured"]["setup_s"] for r in setups),
            "probe_s": statistics.median(r["measured"]["probe_s"] for r in plain),
        }
        if trace:
            info["end_to_end"] = {name: {"value": end_to_end[name], "unit": unit}
                                  for name, unit in END_TO_END_UNITS.items()}
            info["computed_counts"] = {
                name: f"computed from call arguments and return values, not measured: {how}"
                for name, how in COMPUTED_COUNTS.items()
            }
            info["missing_spans"] = traced[0]["trace"]["missing"]
        return {"line": line, "info": info, "plain": plain, "traced": traced}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass


def layer_metrics(plain: list[dict], traced: list[dict], runner: Runner) -> dict:
    """Per-layer metrics: medians over the traced repetitions, plus run-level ratios."""
    names = traced[0]["trace"]["metrics"].keys()
    metrics = {n: statistics.median_low(r["trace"]["metrics"][n] for r in traced) for n in names}
    metrics["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                   - statistics.median(r["wall_s"] for r in plain))
    metrics["failed_frac"] = runner.failed / runner.attempted
    metrics["reporting.identical_frac"] = runner.identical / runner.attempted
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WHY))
    parser.add_argument("--seed", type=int, default=reference.BASE_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [p for p in ("src/walklab/cli.py", "calibration.cfg", "BENCHMARK.json")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"error: {ROOT} lacks {', '.join(missing)}; run from a walklab checkout",
              file=sys.stderr)
        return 2
    try:
        out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(out["info"], sort_keys=True))
    print(json.dumps(out["line"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
