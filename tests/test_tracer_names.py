"""The benchmark tracer's names still exist in walklab, and its spans fire.

perfbench/tracer.py wraps walklab functions by name and reads some of
their arguments by name.  A rename shows up there only in the
minutes-long benchmark self-test; these checks read the tracer's tables
(without installing it) and fail at once.  One check installs the tracer
in a fresh interpreter and runs the two quickest workloads' jobs, so a
span that stops firing on them shows up in seconds too.  The names in
DROPPED are the known exceptions: their functions left walklab, so they
must not resolve, and the tracer must report exactly them as missing,
until the benchmark is re-recorded without them.
"""

import importlib
import importlib.util
import inspect
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TRACER_PATH = ROOT / "perfbench" / "tracer.py"
# the workloads whose jobs run in about a second together
QUICK_WORKLOADS = ("analyze-n32", "search-n48")
# Names in SPANS (and, for decompose, COUNTERS) whose functions left
# walklab: every number analyze, c01 and c02 report has one exact route
# there, and the dense eigh and the closed-form P(s) curve are test
# oracles.  No modified chain is built either: D(P') is read from P
# restricted, the walks of P(s) from D(P) scaled, and the frame walk's
# own step and vertex distribution are test oracles.  Every lattice
# chain, a block's included, is built from its kind and shape by
# markov.lattice_walk, so no edge list is built (the graphs builders and
# subgrid_graph) or turned into a chain (walk_from_graph); the edge-list
# route is a test oracle.  Dropping them changes perfbench/, which waits
# on the benchmark's re-record (ROADMAP item 1).
DROPPED = (
    "spectral.decompose", "spectral.hitting_time_spectral", "spectral.interpolated_hitting_time",
    "markov.make_absorbing", "markov.interpolate", "szegedy.SzegedyWalk.step",
    "szegedy.SzegedyWalk.vertex_distribution", "graphs.subgrid_graph",
    "graphs.build_torus", "graphs.build_grid", "graphs.build_rect_grid", "markov.walk_from_graph",
)


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


def _resolve(name: str):
    """The function a span name wraps, looked up as Tracer.install does; None if absent."""
    module_name, _, attr = name.partition(".")
    owner_name, _, fn_name = attr.rpartition(".")
    module = importlib.import_module(f"walklab.{module_name}")
    owner = getattr(module, owner_name, None) if owner_name else module
    return getattr(owner, fn_name, None)


def _strings(consts):
    for c in consts:
        if isinstance(c, str):
            yield c
        elif isinstance(c, tuple):
            yield from _strings(c)


def _arguments_read(counter) -> set[str]:
    """The argument names a counter reads: its string constants that are not count names."""
    return set(_strings(counter.__code__.co_consts)) - set(tracer.COMPUTED_COUNTS)


@pytest.mark.parametrize("name", sorted(tracer.SPANS))
def test_span_resolves(name):
    if name in DROPPED:
        assert _resolve(name) is None, f"{name} is back in walklab"
    else:
        assert callable(_resolve(name)), f"{name} no longer exists"


@pytest.mark.parametrize("name", sorted(tracer.COUNTERS))
def test_counter_arguments_exist(name):
    if name in DROPPED:  # no function left to read arguments from
        assert _resolve(name) is None, f"{name} is back in walklab"
        return
    params = inspect.signature(_resolve(name)).parameters
    missing = _arguments_read(tracer.COUNTERS[name]) - set(params)
    assert not missing, f"{name} lost the arguments {sorted(missing)}"


def test_counter_arguments_are_found():
    read = {name: _arguments_read(c) for name, c in tracer.COUNTERS.items()}
    assert read["spectral.decompose"] == {"D"}
    assert read["szegedy.find_via_interpolation"] == {"P", "T"}
    for name in ("line_localization", "grid_localization", "subgrid_coverage"):
        assert read[f"locality.{name}"] == {"T", "trials"}


SPAN_RUN = """
import contextlib, io, json, sys, tempfile
sys.path[:0] = [{src!r}, {perfbench!r}]
import walklab.cli as cli
from tracer import Tracer
from workloads import jobs

tracer = Tracer()
tracer.install()
fired = {{}}
with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
    for workload in {workloads!r}:
        before = dict(tracer.calls)
        for i, argv in enumerate(jobs(workload, 1)):
            assert cli.main(argv + ["--out", f"{{out}}/job{{i}}.json"]) == 0, argv
        fired[workload] = sorted(n for n, c in tracer.calls.items() if c > before.get(n, 0))
print(json.dumps({{"missing": tracer.missing, "fired": fired}}))
"""


def test_spans_fire_on_the_quick_workloads():
    probe = SPAN_RUN.format(src=str(ROOT / "src"), perfbench=str(ROOT / "perfbench"), workloads=QUICK_WORKLOADS)
    run = subprocess.run([sys.executable, "-B", "-c", probe], cwd=ROOT, capture_output=True, text=True, check=True)
    out = json.loads(run.stdout)
    assert sorted(out["missing"]) == sorted(DROPPED)
    for workload in QUICK_WORKLOADS:
        expected = {span for span, w in tracer.SPANS.items() if w == workload} - set(DROPPED)
        assert expected - set(out["fired"][workload]) == set(), workload
