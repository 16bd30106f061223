import math

import pytest

from walklab.calibration import (
    CalibrationConstants,
    calibrate_constants,
    grid_walk_steps,
    load_constants,
    save_constants,
    torus_walk_steps,
)
from walklab.markov import lattice_walk, stationary
from walklab.spectral import effective_hitting_time
from walklab.szegedy import simulate_detection

FROZEN = CalibrationConstants(c_detect=0.3, c_find=1.85, c_bound=7.9131)


def detection_steps(ht_eff: float, constants: CalibrationConstants) -> int:
    """Oracle: the absorbing-walk step count c_detect was calibrated for."""
    return math.ceil(constants.c_detect * math.sqrt(max(ht_eff, 1.0)))


class TestFrozenValues:
    def test_repo_file_matches(self, constants):
        assert constants == FROZEN

    def test_digest_is_stable(self):
        assert FROZEN.digest == "03153f56db5ce2b9"

    def test_to_text_is_sorted_and_reprd(self):
        text = FROZEN.to_text()
        lines = text.splitlines()
        assert lines[0].startswith("#")
        assert lines[1:] == ["c_bound = 7.9131", "c_detect = 0.3", "c_find = 1.85"]


class TestFileFormat:
    def test_round_trip(self, tmp_path):
        p = save_constants(FROZEN, tmp_path / "c.cfg")
        assert load_constants(p) == FROZEN
        # a second save is byte-identical
        q = save_constants(load_constants(p), tmp_path / "c2.cfg")
        assert p.read_bytes() == q.read_bytes()

    def test_missing_key_rejected(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("c_detect = 0.3\nc_find = 1.85\n")
        with pytest.raises(ValueError, match="missing"):
            load_constants(p)

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text(FROZEN.to_text() + "c_magic = 1.0\n")
        with pytest.raises(ValueError, match="unknown"):
            load_constants(p)

    def test_garbage_line_rejected(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("c_detect 0.3\n")
        with pytest.raises(ValueError, match="key = value"):
            load_constants(p)

    def test_repeated_key_rejected(self, tmp_path):
        # the digest hashes the parsed values, so a silently overridden key would not show
        p = tmp_path / "bad.cfg"
        p.write_text("c_detect = 0.3\nc_find = 1.85\nc_bound = 20.0\nc_find = 9.0\n")
        with pytest.raises(ValueError, match=r"bad\.cfg:4: c_find given twice"):
            load_constants(p)

    def test_bad_number_names_file_and_line(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("# constants\nc_detect = 0.3\nc_find = abc\nc_bound = 20.0\n")
        with pytest.raises(ValueError, match=r"bad\.cfg:3: c_find = 'abc' is not a number"):
            load_constants(p)

    @pytest.mark.parametrize("bad", ["nan", "0", "-1", "inf"])
    def test_out_of_range_value_names_file_and_line(self, tmp_path, bad):
        p = tmp_path / "bad.cfg"
        p.write_text(f"# constants\nc_detect = 0.3\nc_find = {bad}\nc_bound = 20.0\n")
        with pytest.raises(ValueError, match=rf"bad\.cfg:3: c_find must be positive and finite, got {float(bad)}$"):
            load_constants(p)

    def test_comments_and_blanks_ignored(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("# hi\n\n" + FROZEN.to_text())
        assert load_constants(p) == FROZEN


class TestValidation:
    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(ValueError):
            CalibrationConstants(c_detect=bad, c_find=1.0, c_bound=1.0)


class TestStepFormulas:
    def test_detection(self, constants):
        assert detection_steps(100.0, constants) == math.ceil(0.3 * 10.0)
        assert detection_steps(0.5, constants) == 1  # floor at HT_eff = 1

    def test_torus_walk(self, constants):
        assert torus_walk_steps(100.0, constants) == math.ceil(1.85 * 10.0)
        assert torus_walk_steps(0.0, constants) == 2

    def test_grid_walk(self, constants):
        assert grid_walk_steps(8, constants) == math.ceil(1.85 * 8 * math.sqrt(math.log(8)))
        assert grid_walk_steps(2, constants) == math.ceil(1.85 * 2)  # ln 2 < 1 clamps


class TestDetectionHeadroom:
    def test_calibrated_steps_push_overlap_down(self, constants):
        # the c_detect guarantee, spot-checked on fresh singleton tori
        for n in (4, 7, 11, 16):
            P = lattice_walk("torus", (n, n))
            pi = stationary(P)
            ht_eff = effective_hitting_time(P, [0], pi=pi)
            T = detection_steps(ht_eff, constants)
            assert simulate_detection(P, [0], T, pi=pi) <= 0.88


@pytest.mark.slow
def test_recalibration_reproduces_repo_file(constants_file):
    fresh = calibrate_constants()
    assert fresh.to_text() == constants_file.read_text()
