import hashlib
import json
import math
import random
from fractions import Fraction

import pytest

from plimpton import enumeration, numerics, reconstruction, sexagesimal
from plimpton.enumeration import (
    DEFAULT_MAX_COL_I_PLACES,
    DEFAULT_MAX_GENERATOR,
    EmptyInput,
    EnumerationConfig,
    _col_i_places,
    _row,
    _tan_bound,
    cadence_map,
    col_i_places_of,
    gap_analysis,
    generate,
    tablet_positions,
)
from plimpton.numerics import factor_regular, regular_numbers
from plimpton.tablet import load_dataset

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


def test_oracle_rederives_frozen_goldens(oracle, capsys):
    """The standalone oracle, run fresh, still agrees with the frozen values."""
    oracle.main()
    report = json.loads(capsys.readouterr().out)
    default, places9 = report["gen1000_places11"], report["gen1000_places9"]
    assert default["total_rows"] == ORACLE_DEFAULT_COUNT
    assert default["triple_digest"] == ORACLE_DEFAULT_DIGEST
    assert default["mean_gap_arcmin"] == round(ORACLE_MEAN_GAP_ARCMIN, 4)
    assert default["max_gap_arcmin"] == round(ORACLE_MAX_GAP_ARCMIN, 4)
    assert default["tablet_span_rows"] == ORACLE_TABLET_SPAN_ROWS
    assert default["tablet_span_mean_gap_arcmin"] == round(ORACLE_TABLET_SPAN_MEAN, 4)
    assert places9["total_rows"] == ORACLE_PLACES9_COUNT
    assert places9["triple_digest"] == ORACLE_PLACES9_DIGEST


ORACLE_CAP = 10**5
UNCAPPED_PLACES = 1000  # far above any column I under ORACLE_CAP
BOUNDARY_DEG = math.degrees(math.acos(1 / math.sqrt(60)))


@pytest.fixture(scope="module")
def oracle_rows(oracle):
    """The brute-force oracle's rows at the largest cap; smaller caps filter them."""
    return oracle.enumerate_rows(ORACLE_CAP, UNCAPPED_PLACES)


def oracle_select(rows, cap, places, lo_deg=0.0, hi_deg=None):
    # the exact bounds generate() takes from an angle window
    lower = Fraction(math.tan(math.radians(lo_deg))) if lo_deg > 0 else None
    upper = Fraction(math.tan(math.radians(hi_deg))) if hi_deg is not None else None
    return [
        ((r["width"], r["diagonal"], r["base"]), r["col_i"], r["places"])
        for r in rows
        if r["p"] <= cap and r["places"] <= places
        and (lower is None or r["tan"] > lower) and (upper is None or r["tan"] < upper)
    ]


def generated(cap, places, lo_deg=0.0, hi_deg=None):
    config = EnumerationConfig(
        max_generator=cap, max_col_i_places=places, range_min_deg=lo_deg, range_max_deg=hi_deg
    )
    return [(r.triangle.triple, r.col_i, r.col_i_places) for r in generate(config)]


_caps = random.Random(322)
SEEDED_CAPS = sorted({int(10 ** _caps.uniform(1, 5)) for _ in range(5)} | {ORACLE_CAP})


@pytest.mark.parametrize("places", [9, 11, UNCAPPED_PLACES])
@pytest.mark.parametrize("cap", SEEDED_CAPS)
def test_generate_matches_oracle(oracle_rows, cap, places):
    assert generated(cap, places) == oracle_select(oracle_rows, cap, places)


def edge_windows(rows, rng):
    """Windows with a bound on, or 1e-12 degrees either side of, a row's own angle."""
    windows = [(0.0, BOUNDARY_DEG), (0.0, None), (0.0, 1e-9), (82.5, BOUNDARY_DEG), (82.55, 90.0)]
    # a float bound can equal a tan exactly only when its denominator is a power of 2
    binary = [r for r in rows if r["tan"].denominator & (r["tan"].denominator - 1) == 0]
    for row in binary + rng.sample(rows, 12):
        a = row["angle_deg"]
        windows += [
            (a, a + 0.5), (max(0.0, a - 0.5), a), (0.0, a), (a, BOUNDARY_DEG),
            (a - 1e-12, a + 1e-12), (a + 1e-12, a + 0.5), (max(0.0, a - 0.5), a - 1e-12),
        ]
    return windows


def test_generate_matches_oracle_on_windows(oracle_rows):
    rng = random.Random(60)
    windows = [(lo, lo + 0.5) for lo in (rng.uniform(0, 82) for _ in range(20))]
    windows += edge_windows(oracle_rows, rng)
    for lo, hi in windows:
        assert generated(ORACLE_CAP, UNCAPPED_PLACES, lo, hi) == oracle_select(
            oracle_rows, ORACLE_CAP, UNCAPPED_PLACES, lo, hi
        ), (lo, hi)


def assert_strictly_ordered(rows):
    values = [r.col_i for r in rows]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert len({(r.triangle.tan_fv, r.triangle.sec_fv) for r in rows}) == len(rows)


def test_large_caps_stay_strictly_ordered():
    # 2,635 rows at 10^9: the float-keyed sort must keep column I strictly
    # descending and each gradient once, with no frozen digest to lean on
    rows = generate(EnumerationConfig(max_generator=10**9, max_col_i_places=UNCAPPED_PLACES))
    assert len(rows) == 2635
    assert_strictly_ordered(rows)


def test_closed_form_places_match_the_digit_count():
    rows = generate(EnumerationConfig(max_generator=10**9, max_col_i_places=UNCAPPED_PLACES))
    assert len(rows) == 2635
    assert all(r.col_i_places == col_i_places_of(r.col_i) for r in rows)


def digit_counted_places(d, b):
    """Places of column I = (60 d / b)^2, counted from its numeral, not from b's exponents."""
    return col_i_places_of((60 * Fraction(d, b)) ** 2)


def test_closed_form_places_for_every_regular_base():
    # column I's places depend only on the reduced base b, given a diagonal
    # coprime to it.  A b dividing 60 makes column I an integer with
    # trailing zeros trimmed.
    bases_dividing_60 = []
    for b in regular_numbers(10**4):
        assert _col_i_places(*factor_regular(b)) == digit_counted_places(b + 1, b), b
        if 60 % b == 0:
            bases_dividing_60.append(b)
    assert bases_dividing_60 == [1, 2, 3, 4, 5, 6, 10, 12, 15, 20, 30, 60]


def test_emit_neither_counts_digits_nor_stretches(monkeypatch):
    def refuse(*args):
        raise AssertionError("generate took the Fraction path")

    for module in (enumeration, sexagesimal):
        monkeypatch.setattr(module, "from_rational", refuse)
    for module in (enumeration, reconstruction):
        monkeypatch.setattr(module, "stretch_to_integers", refuse, raising=False)
    config = EnumerationConfig(max_generator=10**9, max_col_i_places=UNCAPPED_PLACES,
                               include_degenerate=True)
    assert len(generate(config)) == 2636


BRUTE_CAPS = sorted({c for r in regular_numbers(10**4) for c in (r - 1, r, r + 1) if c >= 2})


@pytest.fixture(scope="module")
def brute_rows():
    """(p, row) of every coprime regular p > q <= the largest cap with sec^2 < 60."""
    regs = regular_numbers(BRUTE_CAPS[-1])
    out = []
    for i, p in enumerate(regs):
        for q in regs[:i]:
            w, d, b = p * p - q * q, p * p + q * q, 2 * p * q
            if math.gcd(p, q) == 1 and d * d < 60 * b * b:
                g = 1 + (p & q & 1)
                out.append((p, _row(w // g, d // g, b // g, digit_counted_places(d, b))))
    return out


def brute_select(brute_rows, cap, lo_deg=0.0, hi_deg=None):
    lower = _tan_bound(lo_deg)
    upper = _tan_bound(hi_deg) if hi_deg is not None else None
    rows = [
        r for p, r in brute_rows
        if p <= cap and (lower is None or r.triangle.tan_fv > lower)
        and (upper is None or r.triangle.tan_fv < upper)
    ]
    return sorted(rows, key=lambda r: r.col_i, reverse=True)


def test_walk_matches_brute_force_at_every_regular_cap(brute_rows):
    # a cap on, or one either side of, each regular up to 10^4 moves the
    # walk's p <= cap edge across every generator that can be a row's p
    rng = random.Random(45)
    for cap in BRUTE_CAPS:
        config = EnumerationConfig(max_generator=cap, max_col_i_places=UNCAPPED_PLACES)
        assert generate(config) == brute_select(brute_rows, cap), cap
        lo = rng.uniform(0, 82)
        window = config._replace(range_min_deg=lo, range_max_deg=lo + 0.5)
        assert generate(window) == brute_select(brute_rows, cap, lo, lo + 0.5), (cap, lo)


def test_generate_lists_no_regulars(monkeypatch):
    def refuse(*args):
        raise AssertionError("generate listed the regulars")

    monkeypatch.setattr(numerics, "regular_numbers", refuse)
    monkeypatch.setattr(enumeration, "regular_numbers", refuse, raising=False)
    config = EnumerationConfig(max_generator=10**9, max_col_i_places=UNCAPPED_PLACES)
    assert len(generate(config)) == 2635


def test_walk_visits_only_cells_within_the_cap(monkeypatch):
    # p = 2^x P and q = 2^y Q with coprime odd regular parts P, Q <= cap;
    # over the full ratio window, about 4 wide in log2, every such cell
    # gets a non-empty a-range, so the walk's range() runs once per cell
    ranges = []

    def counted_range(*args):
        ranges.append(args)
        return range(*args)

    monkeypatch.setattr(enumeration, "range", counted_range, raising=False)
    cap = 10**12
    generate(EnumerationConfig(max_generator=cap, max_col_i_places=UNCAPPED_PLACES))
    odd = [n for n in regular_numbers(cap) if n % 2]
    coprime = [(p, q) for p in odd for q in odd if math.gcd(p, q) == 1]
    assert len(ranges) == len(coprime) == 1325
    # 11 places allow 3^5 and 5^5 at most in P * Q, which is b's odd part
    ranges.clear()
    generate(EnumerationConfig(max_generator=cap, max_col_i_places=11))
    within = [f for f in (factor_regular(p * q) for p, q in coprime) if f.e3 <= 5 and f.e5 <= 5]
    assert len(ranges) == len(within) == 121


@pytest.mark.parametrize("cap", [10**3, 10**6, 10**12])
def test_places_cap_equals_the_filtered_uncapped_table(cap):
    # the walk prunes cells and a-ranges by the cap; dropping rows from the
    # uncapped table afterwards must give the same rows in the same order
    for lo, hi in [(0.0, None), (44.7, 44.8), (80.0, None)]:
        for degenerate in (False, True):
            config = EnumerationConfig(max_generator=cap, max_col_i_places=UNCAPPED_PLACES,
                                       range_min_deg=lo, range_max_deg=hi,
                                       include_degenerate=degenerate)
            uncapped = generate(config)
            for places in (4, 5, 9, 11, 15):
                capped = generate(config._replace(max_col_i_places=places))
                assert capped == [r for r in uncapped if r.col_i_places <= places], (lo, places)


def test_walk_keeps_order_and_uniqueness_at_10_18():
    rows = generate(EnumerationConfig(max_generator=10**18, max_col_i_places=UNCAPPED_PLACES))
    assert len(rows) == 11061
    assert_strictly_ordered(rows)


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


def fraction_keyed_positions(rows):
    """tablet_positions keyed on the Fraction pair, as it was before integer keys."""
    index = {(r.triangle.tan_fv, r.triangle.sec_fv): i for i, r in enumerate(rows)}
    return [index.get((line.tan_fv, line.sec_fv)) for line in load_dataset().lines]


@pytest.mark.parametrize("config", [
    EnumerationConfig(),
    EnumerationConfig(max_generator=10**9, max_col_i_places=UNCAPPED_PLACES, include_degenerate=True),
], ids=["defaults", "1e9-uncapped"])
def test_integer_keyed_positions_match_fraction_keys(config):
    rows = generate(config)
    positions = tablet_positions(rows)
    assert positions == fraction_keyed_positions(rows)
    assert None not in positions
