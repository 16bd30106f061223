"""Self-tests of the benchmark: the output check, the tracer and the computed counts.

    python3 -m pytest perfbench -q

The traced tests run every workload twice (about three minutes on two cores).
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys

import pytest

import reference
import run
from tracer import COMPUTED_COUNTS, SPANS
from workloads import INSTANCES, WHY


def test_diff_patch_round_trip():
    base = {"a": [1, 2.5, {"b": None}], "c": "x"}
    obj = {"a": [1, 3.5, {"b": True}], "c": "x"}
    changes = reference.diff(base, obj)
    assert changes == [[["a", 1], 3.5], [["a", 2, "b"], True]]
    assert reference.patch(base, changes) == obj
    assert reference.patch(base, reference.diff(base, {"a": []})) == {"a": []}
    assert base == {"a": [1, 2.5, {"b": None}], "c": "x"}


def test_mismatches_tolerance_and_exact_integers():
    ref = {"spec": {"command": "analyze"}, "results": {"ht": 100.0, "ht_eff": 7, "gap": 1e-9}}
    close = {"spec": {"command": "analyze"}, "results": {"ht": 100.00005, "ht_eff": 7, "gap": 2e-9}}
    assert reference.mismatches(ref, close) == []
    far = {"spec": {"command": "analyze"}, "results": {"ht": 100.001, "ht_eff": 7, "gap": 1e-9}}
    assert reference.mismatches(ref, far)
    off_by_one = {"spec": {"command": "analyze"}, "results": {"ht": 100.0, "ht_eff": 8, "gap": 1e-9}}
    assert reference.mismatches(ref, off_by_one)
    as_float = {"spec": {"command": "analyze"}, "results": {"ht": 100.0, "ht_eff": 7.0, "gap": 1e-9}}
    assert reference.mismatches(ref, as_float)
    for bad in (float("nan"), float("inf")):
        not_finite = {"spec": {"command": "analyze"}, "results": {"ht": bad, "ht_eff": 7, "gap": 1e-9}}
        assert reference.mismatches(ref, not_finite)
    nan_ref = {"spec": {"command": "analyze"}, "results": {"ht": float("nan")}}
    assert reference.mismatches(nan_ref, {"spec": {"command": "analyze"}, "results": {"ht": float("nan")}}) == []
    assert reference.mismatches(nan_ref, {"spec": {"command": "analyze"}, "results": {"ht": 1.0}})


def test_monte_carlo_hits_compared_exactly():
    ref = {"spec": {"command": "locality"}, "results": {"trials": 10_000_000, "p_hat": 0.0718440}}
    one_more = {"spec": {"command": "locality"}, "results": {"trials": 10_000_000, "p_hat": 0.0718441}}
    # one hit in ten million is inside the float tolerance but must still fail
    assert reference.mismatches(ref, one_more) == [
        "/results/p_hat: expected 718440 hits of 10000000, got 718441"
    ]


def test_every_workload_has_a_base_reference():
    for workload in WHY:
        assert reference.load(workload, reference.BASE_SEED) is not None, workload


def test_perturbed_reference_makes_jobs_fail(tmp_path):
    doc = json.loads((reference.REF_DIR / "locality-mc.json").read_text())
    base = doc["base"]
    base[0]["results"]["wilson_low"] *= 1.0 + 1e-3
    base[2]["results"]["p_hat"] += 1.0 / base[2]["results"]["trials"]
    (tmp_path / "locality-mc.json").write_text(json.dumps(doc))
    out = run.run_workload("locality-mc", reference.BASE_SEED, 0, trace=True, ref_dir=tmp_path)
    line = out["line"]
    assert line["failed"] == 4 and line["attempted"] == 6 and line["correct"] is False
    assert line["metrics"]["failed_frac"]["value"] == pytest.approx(4 / 6)


def test_every_instance_has_a_recorded_reference():
    for workload in WHY:
        for inst in range(INSTANCES):
            assert reference.load(workload, inst) is not None, (workload, inst)


def test_unrecorded_instance_is_refused(tmp_path):
    doc = json.loads((reference.REF_DIR / "search-n48.json").read_text())
    del doc["seeds"]["5"]
    (tmp_path / "search-n48.json").write_text(json.dumps(doc))
    with pytest.raises(RuntimeError, match="record.py --seeds 5`"):
        run.run_workload("search-n48", 5 + INSTANCES, 0, trace=False, ref_dir=tmp_path)


def test_probe_reads_the_same_across_footprints(tmp_path):
    """The speed probe, and so the nominal scale, does not follow the program's footprint.

    search-n48 streams a dense 2304 x 2304 matrix, locality-mc works on
    vectors; alternating them keeps the machine's drift out of the comparison.
    """
    ratios = []
    for _ in range(4):
        dense, vectors = (run.spawn(run.ROOT, tmp_path, w, reference.BASE_SEED)["measured"]["probe_s"]
                          for w in ("search-n48", "locality-mc"))
        ratios.append(dense / vectors)
    assert 0.9 <= statistics.median(ratios) <= 1.1, ratios


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "search-n48", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


@pytest.fixture(scope="module")
def traced_runs():
    """Two traced runs of every workload at the base seed."""
    return {w: [run.run_workload(w, reference.BASE_SEED, 0, trace=True) for _ in range(2)]
            for w in WHY}


def test_traced_runs_pass_the_output_check(traced_runs):
    for workload, runs in traced_runs.items():
        for out in runs:
            assert out["line"]["failed"] == 0, (workload, out["info"]["failures"])


def test_every_declared_span_fires_on_its_workload(traced_runs):
    for span, workload in SPANS.items():
        for out in traced_runs[workload]:
            assert out["traced"][0]["trace"]["calls"].get(span, 0) >= 1, (span, workload)
            assert out["info"]["missing_spans"] == []


def test_traced_reports_are_byte_identical_to_untraced(traced_runs):
    for workload, runs in traced_runs.items():
        for out in runs:
            assert out["traced"][0]["sha256"] == out["plain"][0]["sha256"], workload
            assert out["line"]["metrics"]["reporting.identical_frac"]["value"] == 1.0


def test_computed_counts_repeat_exactly(traced_runs):
    for workload, (first, second) in traced_runs.items():
        a, b = first["line"]["metrics"], second["line"]["metrics"]
        for name in COMPUTED_COUNTS:
            assert a[name]["value"] == b[name]["value"], (workload, name)
            assert isinstance(a[name]["value"], int)


def test_layer_self_times_cover_the_traced_wall_time(traced_runs):
    for workload, runs in traced_runs.items():
        for out in runs:
            metrics = out["line"]["metrics"]
            assert metrics["trace.coverage_frac"]["value"] >= 0.9, workload
            assert "trace.overhead_s" in metrics
