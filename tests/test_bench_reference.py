"""The benchmark's workloads still pass its output check.

perfbench/run.py checks every report it times against the references in
perfbench/reference/, and a run whose reports fail counts as incorrect.
That check otherwise runs only inside the minutes-long benchmark; here
the jobs of all four workloads run in process, at two seeds, and their
reports go through the same comparison.  Nothing under perfbench/ is
written.
"""

import contextlib
import importlib.util
import io
import json
from pathlib import Path

import pytest

from walklab.cli import main

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


reference = _load("reference")
workloads = _load("workloads")


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("workload", sorted(workloads.WHY))
def test_reports_match_the_reference(workload, seed, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)  # the jobs read calibration.cfg from the working directory
    inst = workloads.instance(seed)
    refs = reference.load(workload, inst)
    assert refs is not None, f"no reference recorded for {workload} instance {inst}"
    jobs = workloads.jobs(workload, inst)
    assert len(jobs) == len(refs)
    for i, (argv, (ref, _)) in enumerate(zip(jobs, refs)):
        out = tmp_path / f"job{i}.json"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv + ["--out", str(out)]) == 0, argv
        assert reference.mismatches(ref, json.loads(out.read_text())) == [], argv
