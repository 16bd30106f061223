"""Record reference reports for the benchmark's output check.

    python3 perfbench/record.py --seeds 0-63

Runs every workload once per input set (a workload seed selects the set
seed mod 64, see workloads.py) in a fresh interpreter, from the checkout
this file sits in, and adds the reports to ``reference/<workload>.json``.
The base seed is recorded first.  Record at the parent of the change
under test, never at the change itself, so the reference is the code the
change is compared against.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys

from run import ROOT, spawn
import reference
from workloads import INSTANCES, WHY


def parse_seeds(text: str) -> list[int]:
    seeds: set[int] = set()
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.update(range(int(lo), int(hi or lo) + 1))
    return sorted(seeds, key=lambda s: (s != reference.BASE_SEED, s))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default=str(reference.BASE_SEED))
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    if not all(0 <= s < INSTANCES for s in seeds):
        parser.error(f"seeds name input sets, 0 to {INSTANCES - 1}")
    tmp = ROOT / ".perfbench_tmp" / f"record-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    try:
        for workload in WHY:
            for seed in seeds:
                result = spawn(ROOT, tmp, workload, seed)
                if any(job["rc"] != 0 for job in result["jobs"]):
                    print(f"error: {workload} seed {seed}: {result['jobs']}", file=sys.stderr)
                    return 1
                reports = [(result["dir"] / f"job{i}.json").read_bytes()
                           for i in range(len(result["jobs"]))]
                reference.store(workload, seed, reports, commit=result["machine"]["git_commit"])
                print(f"{workload} seed {seed}: {result['measured']['wall_s']:.2f} s", flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
