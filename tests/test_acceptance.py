"""Acceptance suite: one test per shipped guarantee, printed pass/fail lines.

Run with -s to see the per-criterion lines; `walklab verify all` runs the
same checks from the command line.  The Monte Carlo criteria (5 and 6)
run at their full 100k trial count here, so this module is the slow one.
"""

import pytest

from walklab.verify import (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
)

pytestmark = pytest.mark.slow

TRIALS = 100_000


def _check(result):
    print(result.line())
    assert result.passed, f"{result.key} failed: {result.details}"
    return result


@pytest.fixture(scope="session")
def search_reports(constants):
    reports = {}
    result = criterion_8(constants, reports=reports)
    return reports, result


def test_criterion_01_hitting_time_routes_agree():
    details = _check(criterion_1()).details
    assert details["tolerance"] == 1e-12
    assert details["max_rel_deviation"] <= 1e-12


def test_criterion_02_extended_vs_plain_hitting_time_singletons():
    details = _check(criterion_2()).details
    assert details["tolerance"] == 1e-12
    assert max(r["eht_identity_deviation"] for r in details["instances"]) <= 1e-12


def test_criterion_03_escape_time_inequalities():
    _check(criterion_3())


def test_criterion_04_escape_and_unique_ht_scaling_bands():
    _check(criterion_4())


def test_criterion_05_walk_localization_bounds():
    _check(criterion_5(trials=TRIALS, seed=1))


def test_criterion_06_subgrid_coverage_chain():
    _check(criterion_6(trials=TRIALS, seed=6))


def test_criterion_07_finding_under_misestimated_fraction(constants):
    _check(criterion_7(constants))


def test_criterion_08_search_success_floor(search_reports):
    _, result = search_reports
    _check(result)


def test_criterion_09_cost_bound_and_separation(constants, search_reports):
    reports, _ = search_reports
    _check(criterion_9(constants, reports8=reports))


def test_criterion_10_byte_reproducible_reports(constants_file):
    _check(criterion_10(constants_path=str(constants_file)))
