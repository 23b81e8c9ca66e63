import hashlib
import json
import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from plimpton.enumeration import (
    DEFAULT_MAX_COL_I_PLACES,
    DEFAULT_MAX_GENERATOR,
    EmptyInput,
    EnumerationConfig,
    cadence_map,
    col_i_places_of,
    gap_analysis,
    generate,
    tablet_positions,
)

# Golden values frozen from the standalone brute-force oracle
# (scripts/oracle_counts.py) run before this module was written.
ORACLE_DEFAULT_COUNT = 245
ORACLE_DEFAULT_DIGEST = "0c52cf06297e4c98f718c452c013b24a4113ceac5792fb86ae8f60fadaf10bb8"
ORACLE_PLACES9_COUNT = 194
ORACLE_PLACES9_DIGEST = "391f5d57d77f59ece860e956452afe5223a3b44962bc6eb7516681b642247623"
ORACLE_MEAN_GAP_ARCMIN = 20.124193296377598
ORACLE_MAX_GAP_ARCMIN = 82.26693669582801
ORACLE_TABLET_SPAN_ROWS = 28
ORACLE_TABLET_SPAN_MEAN = 28.598840671274306


def triple_digest(rows):
    text = "\n".join(
        f"{r.triangle.width},{r.triangle.diagonal},{r.triangle.base}" for r in rows
    )
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(scope="module")
def default_rows():
    return generate()


def test_default_caps():
    config = EnumerationConfig()
    assert config.max_generator == DEFAULT_MAX_GENERATOR == 1000
    assert config.max_col_i_places == DEFAULT_MAX_COL_I_PLACES == 11


def test_frozen_count_and_digest(default_rows):
    assert len(default_rows) == ORACLE_DEFAULT_COUNT
    assert triple_digest(default_rows) == ORACLE_DEFAULT_DIGEST


def test_places9_frozen_count():
    rows = generate(EnumerationConfig(max_col_i_places=9))
    assert len(rows) == ORACLE_PLACES9_COUNT
    assert triple_digest(rows) == ORACLE_PLACES9_DIGEST


def test_tablet_rows_present_in_order(default_rows):
    positions = tablet_positions(default_rows)
    assert None not in positions
    assert positions == sorted(positions)


def test_rows_sorted_descending_and_unique(default_rows):
    values = [r.col_i for r in default_rows]
    assert all(a > b for a, b in zip(values, values[1:]))
    pairs = {(r.triangle.tan_fv, r.triangle.sec_fv) for r in default_rows}
    assert len(pairs) == len(default_rows)


def test_every_row_satisfies_invariants(default_rows):
    for row in default_rows:
        row.triangle.check()
        assert row.triangle.sec_fv ** 2 < 60
        assert row.col_i == (60 * row.triangle.sec_fv) ** 2
        assert row.col_i_places <= 11
        assert row.col_i_places == col_i_places_of(row.col_i)


def test_generation_is_deterministic(default_rows):
    assert triple_digest(generate()) == triple_digest(default_rows)


def test_narrow_window_contains_only_line_1():
    rows = generate(EnumerationConfig(range_min_deg=44.7, range_max_deg=44.8))
    assert [r.triangle.triple for r in rows] == [(119, 169, 120)]


def test_place_cap_semantics():
    rows = generate(EnumerationConfig(max_col_i_places=4))
    assert rows
    assert all(r.col_i_places <= 4 for r in rows)


def test_degenerate_row_flag():
    config = EnumerationConfig(max_generator=10, include_degenerate=True)
    rows = generate(config)
    assert rows[-1].triangle.triple == (0, 60, 60)
    assert all(r.triangle.width > 0 for r in rows[:-1])
    without = generate(EnumerationConfig(max_generator=10))
    assert all(r.triangle.width > 0 for r in without)


def test_line_15_orientation_is_generated():
    # the odd-base gradient 28/45 comes from the both-odd pair (9, 5)
    rows = generate(EnumerationConfig(max_generator=10))
    pairs = {(r.triangle.tan_fv, r.triangle.sec_fv) for r in rows}
    assert (Fraction(28, 45), Fraction(53, 45)) in pairs


def test_angles_within_definition_range(default_rows):
    boundary = math.degrees(math.acos(1 / math.sqrt(60)))
    for row in default_rows:
        assert 0 < row.angle_deg < boundary


def test_every_row_round_trips_through_the_pipeline(default_rows):
    # feeding each row's exsecant back through column 0 reproduces it
    from plimpton.reconstruction import ArrowValue, col0_to_col_i, reconstruct_line

    for row in default_rows[::7]:
        two_p = 60 * (row.triangle.sec_fv - 1)
        arrow = ArrowValue(two_p)
        assert col0_to_col_i(arrow) == row.col_i
        assert reconstruct_line(arrow) == row.triangle


def test_bases_start_at_sixty(default_rows):
    # unshortened rows always sit on a base of 60 * X
    assert all(r.triangle.base >= 60 for r in default_rows)


def test_oracle_rederives_frozen_goldens():
    """The standalone oracle, run fresh, still agrees with the frozen values."""
    script = Path(__file__).resolve().parent.parent / "scripts" / "oracle_counts.py"
    result = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, check=True
    )
    report = json.loads(result.stdout)
    default, places9 = report["gen1000_places11"], report["gen1000_places9"]
    assert default["total_rows"] == ORACLE_DEFAULT_COUNT
    assert default["triple_digest"] == ORACLE_DEFAULT_DIGEST
    assert default["mean_gap_arcmin"] == round(ORACLE_MEAN_GAP_ARCMIN, 4)
    assert default["max_gap_arcmin"] == round(ORACLE_MAX_GAP_ARCMIN, 4)
    assert default["tablet_span_rows"] == ORACLE_TABLET_SPAN_ROWS
    assert default["tablet_span_mean_gap_arcmin"] == round(ORACLE_TABLET_SPAN_MEAN, 4)
    assert places9["total_rows"] == ORACLE_PLACES9_COUNT
    assert places9["triple_digest"] == ORACLE_PLACES9_DIGEST


class TestGapAnalysis:
    def test_full_enumeration_statistics(self, default_rows):
        gaps, summary = gap_analysis(default_rows)
        assert summary.count == ORACLE_DEFAULT_COUNT - 1
        assert abs(summary.mean_arcmin - ORACLE_MEAN_GAP_ARCMIN) < 1e-9
        assert abs(summary.max_arcmin - ORACLE_MAX_GAP_ARCMIN) < 1e-9
        assert summary.tablet_span_count == ORACLE_TABLET_SPAN_ROWS
        assert abs(summary.tablet_span_mean_arcmin - ORACLE_TABLET_SPAN_MEAN) < 1e-9
        assert summary.mean_arcmin <= 36

    def test_gap_entries_pair_neighbours(self, default_rows):
        gaps, _ = gap_analysis(default_rows)
        first_a, first_b, arcmin = gaps[0]
        assert first_a is default_rows[0] and first_b is default_rows[1]
        assert arcmin == (first_a.angle_deg - first_b.angle_deg) * 60

    def test_single_row_has_no_gaps(self, default_rows):
        gaps, summary = gap_analysis(default_rows[:1])
        assert gaps == []
        assert summary.count == 0

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            gap_analysis([])


class TestCadence:
    def test_twenty_five_steps(self):
        cm = cadence_map(25, 150)
        assert cm.total_seconds == 3600
        assert cm.entries[0] == (1, 0)
        assert cm.entries[-1] == (25, 3600)

    def test_single_row(self):
        cm = cadence_map(1, 150)
        assert cm.total_seconds == 0

    def test_observed_subset(self):
        assert cadence_map(15, 150).total_seconds == 2100

    def test_bad_inputs(self):
        with pytest.raises(EmptyInput):
            cadence_map(0, 150)
        with pytest.raises(ValueError):
            cadence_map(5, 0)
        for seconds in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                cadence_map(5, seconds)


def test_config_validation():
    with pytest.raises(ValueError):
        EnumerationConfig(max_col_i_places=3)
    with pytest.raises(ValueError):
        EnumerationConfig(range_min_deg=50, range_max_deg=40)
    # tan is negative past 90 degrees and the window would filter nothing
    # or everything; NaN and infinite ends are no window either
    for lo, hi in [(80, 95), (100, None), (-1, 10), (1, float("inf")), (float("nan"), 10)]:
        with pytest.raises(ValueError, match="0 <= lo < hi <= 90"):
            EnumerationConfig(range_min_deg=lo, range_max_deg=hi)
    with pytest.raises(ValueError):
        EnumerationConfig(max_generator=1)
