import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from aqsim.analysis import (
    BOUNDED,
    CONVERGENT,
    DIVERGENT,
    GrowthLabel,
    RecurrenceDomainError,
    classify_growth,
    line_delivery_bound,
    line_phase_time_bound,
    line_phase_time_limit,
    nonforward_k_series,
    theorem_phase_packet_bound,
    theorem_phase_packet_limit,
    theorem_phase_time_bound,
    theorem_phase_time_limit,
    tree_phase_time_bound,
    tree_phase_time_limit,
)

REL = 1e-9


def close(a, b):
    return abs(a - b) <= REL * max(1.0, abs(a), abs(b))


# ---- line bounds ---------------------------------------------------------------


def test_line_first_phase_is_burst_plus_drain():
    assert line_phase_time_bound(1, 0.5, 4, 4) == pytest.approx(4 + 4)
    assert line_phase_time_bound(1, 0.3, 7, 2) == pytest.approx(7 + 2)


def test_line_bound_golden_values():
    # r=1/2, b=4, d=4: every phase needs at most 8 steps, which is the limit
    for i in range(1, 40):
        assert line_phase_time_bound(i, 0.5, 4, 4) == pytest.approx(8.0)
    assert line_phase_time_limit(0.5, 4) == pytest.approx(8.0)


def test_line_bound_matches_recurrence():
    rng = random.Random(1)
    for _ in range(100):
        r = rng.uniform(0.05, 0.95)
        b = rng.randint(1, 32)
        d = rng.randint(1, 32)
        t = b + d
        for i in range(1, 60):
            assert close(line_phase_time_bound(i, r, b, d), t)
            t = r * t + d


def test_line_bound_tends_to_its_limit():
    r, b, d = 0.7, 9, 3
    limit = line_phase_time_limit(r, d)
    assert abs(line_phase_time_bound(200, r, b, d) - limit) < 1e-12
    # approach is monotone once the burst term is dominated
    diffs = [abs(line_phase_time_bound(i, r, b, d) - limit) for i in range(1, 40)]
    assert all(a >= b_ for a, b_ in zip(diffs, diffs[1:]))


def test_line_delivery_bound_values():
    assert line_delivery_bound(0.5, 4) == pytest.approx(16.0)
    assert line_delivery_bound(0.9, 10) == pytest.approx(200.0)
    # vanishing injection rate leaves just the two-phase pipeline cost
    assert line_delivery_bound(1e-12, 5) == pytest.approx(10.0)


def test_limits_are_exact_and_read_a_float_rate_as_its_shortest_decimal():
    # 0.7 is read as 7/10, so d/(1-r) = 3/(3/10) is exactly 10, where the
    # float formula gave 9.999999999999998; a finite limit past the float
    # range is infinite
    assert line_phase_time_limit(0.7, 3) == 10.0
    assert line_delivery_bound(0.7, 3) == 20.0
    assert theorem_phase_time_limit(Fraction(2, 3), 4, 0.5, 1, 0) == 6.0
    assert theorem_phase_packet_limit(0.7, 3, 1, 1, 0) == 7.0
    assert line_phase_time_limit(0.5, 1e308) == math.inf


def test_line_bound_rejects_bad_domain():
    for bad in ({"i": 0}, {"i": True}, {"r": 0.0}, {"r": 1.0}, {"b": 0}, {"d": 0}):
        kw = {"i": 1, "r": 0.5, "b": 4, "d": 4, **bad}
        with pytest.raises(ValueError):
            line_phase_time_bound(kw["i"], kw["r"], kw["b"], kw["d"])


# ---- tree bounds ------------------------------------------------------------------


def test_tree_first_phase_is_burst_times_depth():
    assert tree_phase_time_bound(1, 0.5, 4, 4) == pytest.approx(16.0)
    assert tree_phase_time_bound(1, 0.3, 2, 5) == pytest.approx(10.0)


def test_tree_bound_is_geometric_in_rd():
    # ratio between consecutive phases is exactly r*d
    for r, d in ((0.5, 4), (0.25, 2), (0.75, 8)):
        for i in range(1, 25):
            ratio = tree_phase_time_bound(i + 1, r, 3, d) / tree_phase_time_bound(i, r, 3, d)
            assert close(ratio, r * d)


def test_tree_bound_constant_when_rd_is_one():
    # dyadic parameters keep the floats exact: 0.25 * 2 * 4^i stays at 8
    vals = [tree_phase_time_bound(i, 0.25, 2, 4) for i in range(1, 31)]
    assert set(vals) == {8.0}
    assert classify_growth(vals).label == BOUNDED


def test_tree_bound_doubles_when_rd_is_two():
    vals = [tree_phase_time_bound(i, 0.5, 1, 4) for i in range(1, 12)]
    assert vals == [4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0, 2048.0, 4096.0]
    assert classify_growth(vals).label == DIVERGENT


def test_tree_limit_trichotomy():
    assert tree_phase_time_limit(0.2, 7, 4) == 0.0
    assert tree_phase_time_limit(0.25, 7, 4) == 28.0
    assert tree_phase_time_limit(0.3, 7, 4) == math.inf


def test_tree_limit_decides_rd_equal_one_exactly():
    assert tree_phase_time_limit(Fraction(1, 49), 3, 49.0) == 147.0
    assert tree_phase_time_limit(Fraction(1, 3), 2, 3) == 6.0
    assert tree_phase_time_limit(Fraction(1, 3), 2, 2.9) == 0.0


def test_tree_bound_reads_a_float_rate_as_its_shortest_decimal():
    # the float 0.1 is read as 1/10, as `as_rate` reads it, so r*d = 1 at
    # d = 10; its binary value lies a hair above 1/10 and would give inf
    assert tree_phase_time_limit(0.1, 4, 10) == 40.0
    assert [tree_phase_time_bound(i, 0.1, 4, 10) for i in range(1, 21)] == [40.0] * 20


@settings(max_examples=100)
@given(
    st.sampled_from([0.125, 0.25, 0.5, 0.75, 0.9]),
    st.integers(1, 8),
    st.integers(1, 10),
)
def test_tree_series_direction_follows_sign_of_rd_minus_one(r, b, d):
    vals = [tree_phase_time_bound(i, r, b, d) for i in range(1, 12)]
    if r * d > 1:
        assert all(x < y for x, y in zip(vals, vals[1:]))
    elif r * d < 1:
        assert all(x > y for x, y in zip(vals, vals[1:]))
    else:
        assert all(close(x, vals[0]) for x in vals)


# ---- non-forward-looking k-sequence --------------------------------------------------


def test_nonforward_first_terms():
    assert nonforward_k_series(1, 0.5, 4, 5)[-1] == pytest.approx(8.0)  # 4*(5-1)/log2(4)
    assert nonforward_k_series(2, 0.5, 4, 5)[-1] == pytest.approx(16 / 3)  # 8*(0.5*4)/log2(8)


def test_nonforward_series_prefix_consistency():
    s = nonforward_k_series(10, 0.7, 8, 6)
    for i in range(1, 11):
        assert nonforward_k_series(i, 0.7, 8, 6)[-1] == s[i - 1]


def test_nonforward_domain_requirements():
    with pytest.raises(ValueError):
        nonforward_k_series(1, 0.5, 1, 5)  # b must be >= 2 so log b > 0
    with pytest.raises(ValueError):
        nonforward_k_series(1, 0.5, 4, 1)  # d must be >= 2
    with pytest.raises(ValueError):
        nonforward_k_series(1, 0.5, 4, 5, log_base=1.0)


def test_nonforward_exits_domain_when_k_drops_below_one():
    # b=2, d=2: k1 = 2, k2 = 2r < 1, so k3 cannot be formed
    with pytest.raises(RecurrenceDomainError, match="k_2"):
        nonforward_k_series(3, 0.3, 2, 2)
    assert nonforward_k_series(2, 0.3, 2, 2)[-1] == pytest.approx(0.6)


def test_nonforward_window_divergence_for_large_rd():
    # heavy load far from the recurrence fixed point keeps the ratio large
    s = nonforward_k_series(50, 0.9, 4, 1000)
    assert s[-1] > s[0] * 1e40
    assert classify_growth(s).label == DIVERGENT


def test_nonforward_settles_when_near_fixed_point():
    # r*(d-1) = 1.2 with a small start: the recurrence walks to base^(r*(d-1))
    s = nonforward_k_series(50, 0.6, 4, 3)
    assert s[-1] == pytest.approx(2 ** 1.2, rel=1e-6)
    assert classify_growth(s).label == BOUNDED


def test_nonforward_divergence_label_is_base_independent():
    for base in (2.0, math.e, 10.0):
        s = nonforward_k_series(50, 0.9, 4, 1000, log_base=base)
        assert classify_growth(s).label == DIVERGENT


# ---- scheduler-family bounds -----------------------------------------------------------


def test_theorem_first_phase():
    assert theorem_phase_time_bound(1, 0.5, 4, 4, 1.0, 1.0, 0.0) == pytest.approx(8.0)
    assert theorem_phase_time_bound(1, 0.5, 4, 4, 0.5, 2.0, 3.0) == pytest.approx(
        0.5 * 4 + 2.0 * 4 + 3.0)


def test_theorem_reduces_to_line_bound():
    rng = random.Random(2)
    for _ in range(50):
        r = rng.uniform(0.05, 0.95)
        b = rng.randint(1, 16)
        d = rng.randint(1, 16)
        for i in (1, 2, 3, 7, 20):
            assert close(
                theorem_phase_time_bound(i, r, b, d, 1.0, 1.0, 0.0),
                line_phase_time_bound(i, r, b, d),
            )
        assert close(theorem_phase_time_limit(r, d, 1.0, 1.0, 0.0),
                     line_phase_time_limit(r, d))


def test_theorem_time_matches_recurrence():
    rng = random.Random(3)
    for _ in range(100):
        r = rng.uniform(0.05, 0.95)
        b = rng.randint(1, 32)
        d = rng.randint(1, 32)
        c1 = rng.uniform(0.0, 1.0)
        c2 = rng.uniform(0.0, 8.0)
        c3 = rng.uniform(0.0, 8.0)
        t = c1 * b + c2 * d + c3
        for i in range(1, 60):
            assert close(theorem_phase_time_bound(i, r, b, d, c1, c2, c3), t)
            t = c1 * (r * t) + c2 * d + c3


def test_theorem_packets_match_recurrence():
    rng = random.Random(4)
    for _ in range(100):
        r = rng.uniform(0.05, 0.95)
        b = rng.randint(1, 32)
        d = rng.randint(1, 32)
        c1 = rng.uniform(0.0, 1.0)
        c2 = rng.uniform(0.0, 8.0)
        c3 = rng.uniform(0.0, 8.0)
        p = float(b)
        for i in range(1, 60):
            assert close(theorem_phase_packet_bound(i, r, b, d, c1, c2, c3), p)
            p = r * (c1 * p + c2 * d + c3)


def test_theorem_time_is_affine_in_packets():
    # each phase drains its packet load within c1*load + c2*d + c3 steps
    rng = random.Random(5)
    for _ in range(50):
        r = rng.uniform(0.05, 0.95)
        b = rng.randint(1, 16)
        d = rng.randint(1, 16)
        c1 = rng.uniform(0.0, 1.0)
        c2 = rng.uniform(0.0, 4.0)
        c3 = rng.uniform(0.0, 4.0)
        for i in (1, 2, 5, 12, 30):
            t = theorem_phase_time_bound(i, r, b, d, c1, c2, c3)
            p = theorem_phase_packet_bound(i, r, b, d, c1, c2, c3)
            assert close(t, c1 * p + c2 * d + c3)


def test_theorem_limits_are_fixed_points():
    for r, d, c1, c2, c3 in ((0.5, 4, 1.0, 1.0, 0.0), (0.3, 7, 0.8, 2.0, 1.5)):
        t_star = theorem_phase_time_limit(r, d, c1, c2, c3)
        p_star = theorem_phase_packet_limit(r, d, c1, c2, c3)
        assert close(t_star, c1 * r * t_star + c2 * d + c3)
        assert close(p_star, r * (c1 * p_star + c2 * d + c3))


def test_theorem_rejects_bad_domain():
    with pytest.raises(ValueError):
        theorem_phase_time_bound(1, 0.5, 4, 4, 1.5, 1.0, 0.0)  # c1 > 1
    with pytest.raises(ValueError):
        theorem_phase_time_bound(1, 0.5, 4, 4, 1.0, -1.0, 0.0)
    with pytest.raises(ValueError):
        theorem_phase_packet_bound(0, 0.5, 4, 4, 1.0, 1.0, 0.0)


# ---- growth classifier --------------------------------------------------------------------


def test_classifier_labels_plain_series():
    assert classify_growth([2.0 ** i for i in range(12)]).label == DIVERGENT
    assert classify_growth([5.0] * 12).label == BOUNDED
    assert classify_growth([100.0 * 0.8 ** i for i in range(12)]).label == CONVERGENT
    assert classify_growth([0.0] * 12).label == BOUNDED


def test_classifier_reports_the_trailing_ratio():
    out = classify_growth([3.0 ** i for i in range(12)])
    assert out == GrowthLabel(DIVERGENT, pytest.approx(3.0))
    # growth from zero is an infinite ratio
    assert classify_growth([0] * 9 + [5]) == GrowthLabel(DIVERGENT, math.inf)


def test_classifier_requires_enough_data():
    with pytest.raises(ValueError):
        classify_growth([1.0] * 9)  # needs 2 * window = 10
    with pytest.raises(ValueError):
        classify_growth([1.0, -1.0] * 6)


def test_classifier_ignores_a_tall_head():
    # a spike early on must not read as divergence later
    series = [100.0] + [1.0] * 11
    assert classify_growth(series).label == BOUNDED


@settings(max_examples=60)
@given(
    st.lists(st.floats(0.1, 10.0), min_size=10, max_size=24),
    st.sampled_from([0.25, 0.5, 2.0, 4.0, 8.0]),
)
def test_classifier_is_scale_invariant(series, c):
    # powers of two scale floats exactly, so the ratios are bit-identical
    scaled = [c * v for v in series]
    assert classify_growth(series).label == classify_growth(scaled).label
