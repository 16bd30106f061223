"""One fresh interpreter: set walklab up, run one workload's jobs, report timings.

Started by run.py and record.py, never imported.  Each process starts
cold (no lru_cache entries, no lazily imported scipy submodules), as a
``walklab`` user's process does.  Times are reported as measured and at
nominal core speed (see speed.py).  The result goes to
``<out>/result.json``; the job reports to ``<out>/job<i>.json``.

    python3 perfbench/child.py --root . --workload search-n48 --seed 1 \
        --out DIR --spawned <time.monotonic() before the spawn> [--trace] [--setup-only]
"""

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from speed import SpeedSampler


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    root = Path(args.root).resolve()
    out = Path(args.out)
    sampler = SpeedSampler()
    sampler.start()

    sys.path.insert(0, str(root / "src"))
    import walklab.cli as cli
    from walklab.calibration import DEFAULT_CONSTANTS_PATH, load_constants

    load_constants(DEFAULT_CONSTANTS_PATH)
    setup_raw, setup_s = sampler.scaled(args.spawned, time.monotonic())
    result = {"setup_s": setup_s, "measured": {"setup_s": setup_raw}}
    if args.setup_only:
        sampler.stop()
        (out / "result.json").write_text(json.dumps(result))
        return 0

    from machine import machine_info
    from workloads import jobs

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    job_results = []
    elapsed = 0.0  # job time with the probes, which the span self times include
    for i, argv in enumerate(jobs(args.workload, args.seed)):
        t_job = time.monotonic()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(argv + ["--out", str(out / f"job{i}.json")])
        except SystemExit as exc:
            rc = exc.code
        except Exception:
            traceback.print_exc()
            rc = None
        t_end = time.monotonic()
        elapsed += t_end - t_job
        seconds, scaled_s = sampler.scaled(t_job, t_end)
        job_results.append({"rc": rc, "seconds": seconds, "scaled_s": scaled_s})
    sampler.stop()
    wall_raw = sum(job["seconds"] for job in job_results)
    result.update(
        wall_s=sum(job["scaled_s"] for job in job_results),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        jobs=job_results,
        machine=machine_info(root),
    )
    result["measured"].update(
        wall_s=wall_raw, probe_s=sorted(sampler.durations or [0.0])[len(sampler.durations) // 2])
    if tracer is not None:
        result["trace"] = {
            "metrics": tracer.metrics(elapsed),
            "calls": dict(tracer.calls),
            "missing": tracer.missing,
        }
    (out / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
