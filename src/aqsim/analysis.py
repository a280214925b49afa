"""Closed-form worst-case bounds for the phased protocol, their limits, and
an empirical growth-trend classifier for phase series.

Every limit is exact: it is formed from the parameters as typed, the rate
read by `as_rate` (a float as its shortest decimal form) and b, d and the
c's as the rationals they hold, and rounded to a float once. The terms are
the paper's closed forms in double precision, except that the in-tree terms
form r*d exactly, so r*d = 1 is decided exactly. The simulator never feeds
back into these functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .adversary import as_rate

CONVERGENT = "CONVERGENT"
BOUNDED = "BOUNDED"
DIVERGENT = "DIVERGENT"

_EPSILON = 0.01  # fixed dead zone around ratio 1 for the classifier
_WINDOW = 5  # terms in the classifier's leading and trailing windows
MIN_GROWTH_TERMS = 2 * _WINDOW  # the shortest series classify_growth labels

Rate = float | Fraction  # a float is read as its shortest decimal form, as `as_rate` reads it


class RecurrenceDomainError(ValueError):
    """The k-sequence left its domain (some k_j <= 1, so log k_j is not positive)."""


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValueError(msg)


def _check_domain(r: Rate, b=1, d=1, c1=0, c2=0, c3=0) -> None:
    """The bounds' domain: 0 < r < 1, b >= 1, d >= 1, 0 <= c1 <= 1 and
    c2, c3 >= 0. A parameter a formula does not take keeps its default,
    which passes."""
    _require(0 < r < 1, f"need 0 < r < 1, got r={r}")
    _require(b >= 1, f"need b >= 1, got b={b}")
    _require(d >= 1, f"need d >= 1, got d={d}")
    _require(0 <= c1 <= 1, f"need 0 <= c1 <= 1, got c1={c1}")
    _require(c2 >= 0, f"need c2 >= 0, got c2={c2}")
    _require(c3 >= 0, f"need c3 >= 0, got c3={c3}")


def _check_phase(i: int) -> None:
    ok = isinstance(i, int) and not isinstance(i, bool) and i >= 1
    _require(ok, f"phase index must be an integer >= 1, got {i}")


def _limit(ratio: Fraction, step: Fraction, first: Fraction = Fraction(0)) -> float:
    """Limit of the affine series T_1 = first, T_i = ratio*T_{i-1} + step,
    for ratio >= 0 and step >= 0, rounded once: step/(1 - ratio) when
    ratio < 1, first when the series is constant (ratio = 1 and step = 0),
    and infinity otherwise. A finite limit past the float range is infinity
    too. Only the tree can reach ratio = 1, so only it passes `first`."""
    if ratio > 1 or ratio == 1 and step != 0:  # the series grows without bound
        return math.inf
    try:  # step/(1 - ratio), or the constant series' first term
        return float(step / (1 - ratio) if ratio < 1 else first)
    except OverflowError:  # Fraction -> float raises where float arithmetic gives inf
        return math.inf


# ---- one-way line ----------------------------------------------------------


def line_phase_time_bound(i: int, r: float, b: float, d: float) -> float:
    """Steps the i-th phase can need on a line: r^(i-1)*b + sum_{j<i} r^j*d,
    the scheduler-family bound with c1 = c2 = 1 and c3 = 0."""
    return theorem_phase_time_bound(i, r, b, d, 1, 1, 0)


def line_phase_time_limit(r: Rate, d: float) -> float:
    """Limit of line_phase_time_bound as i grows: d/(1-r), exact, rounded once."""
    return theorem_phase_time_limit(r, d, 1, 1, 0)


def line_delivery_bound(r: Rate, d: float) -> float:
    """Worst packet system time on a line under the phased protocol: 2d/(1-r),
    twice the line's phase limit."""
    return 2 * line_phase_time_limit(r, d)


# ---- in-trees ---------------------------------------------------------------


def tree_phase_time_bound(i: int, r: Rate, b: float, d: float) -> float:
    """Steps the i-th phase can need on a tree: r^(i-1)*b*d^i, evaluated as
    (r*d)^(i-1)*b*d with r*d formed exactly before it is rounded to a float.
    The rate is read by `as_rate`, a float as its shortest decimal form, so
    0.1 means 1/10; d is read as the rational it holds. So a `Fraction` rate
    of 1/49 with d = 49 gives b*d at every i, and the terms of r*d < 1 fall
    to 0 rather than overflow in d^i."""
    _check_phase(i)
    _check_domain(r, b, d)
    return float(as_rate(r) * Fraction(d)) ** (i - 1) * b * d


def tree_phase_time_limit(r: Rate, b: float, d: float) -> float:
    """0, b*d, or infinity depending on the sign of r*d - 1, decided exactly:
    the rate is read by `as_rate` (a float as its shortest decimal form) and
    d as the rational it holds. So a `Fraction` rate of 1/49 with d = 49
    gives b*d, where the float product of 1/49 and 49 falls short of 1, and
    a float rate of 0.1 with d = 10 gives b*d too. The series is affine with
    first term b*d, ratio r*d and step 0."""
    _check_domain(r, b, d)
    return _limit(as_rate(r) * Fraction(d), Fraction(0), Fraction(b) * Fraction(d))


# ---- non-forward-looking inner schedulers -----------------------------------


def nonforward_k_series(
    i_max: int, r: float, b: float, d: float, log_base: float = 2.0
) -> list[float]:
    """k_1..k_{i_max}, the k-sequence for phases run by a non-forward-looking
    scheduler: k_1 = b*(d-1)/log(b), k_i = k_{i-1} * r*(d-1)/log(k_{i-1}).

    Raises RecurrenceDomainError once any k_j <= 1 (its logarithm stops being
    positive and the recurrence leaves its domain).
    """
    _check_phase(i_max)
    _check_domain(r)
    _require(b >= 2, f"need b >= 2 (log b must be positive), got b={b}")
    _require(d >= 2, f"need d >= 2, got d={d}")
    _require(log_base > 1, f"log base must exceed 1, got {log_base}")
    k = b * (d - 1) / math.log(b, log_base)
    series = [k]
    for j in range(2, i_max + 1):
        if k <= 1:
            raise RecurrenceDomainError(
                f"k_{j - 1} = {k:.6g} <= 1: log k_{j - 1} is not positive"
            )
        k = k * r * (d - 1) / math.log(k, log_base)
        series.append(k)
    return series


# ---- the c1*n + c2*d + c3 scheduler family -----------------------------------


def theorem_phase_time_bound(
    i: int, r: float, b: float, d: float, c1: float, c2: float, c3: float
) -> float:
    """Steps the i-th phase can need when static routing finishes within
    c1*n + c2*d + c3: r^(i-1)*c1^i*b + (c2*d+c3)*((r*c1)^i - 1)/(r*c1 - 1)."""
    _check_phase(i)
    _check_domain(r, b, d, c1, c2, c3)
    rc1 = r * c1
    return r ** (i - 1) * c1**i * b + (c2 * d + c3) * (rc1**i - 1) / (rc1 - 1)


def theorem_phase_time_limit(r: Rate, d: float, c1: float, c2: float, c3: float) -> float:
    """Limit of theorem_phase_time_bound, (c2*d + c3)/(1 - r*c1): the series
    has ratio r*c1 and step c2*d + c3."""
    _check_domain(r, d=d, c1=c1, c2=c2, c3=c3)
    return _limit(as_rate(r) * Fraction(c1), Fraction(c2) * Fraction(d) + Fraction(c3))


def theorem_phase_packet_bound(
    i: int, r: float, b: float, d: float, c1: float, c2: float, c3: float
) -> float:
    """Packets the i-th phase can hold:
    (r*c1)^(i-1)*b + sum_{j=1}^{i-1} r^j*c1^(j-1)*(c2*d+c3); closed form uses
    the geometric sum. Satisfies time_bound(i) = c1*packet_bound(i) + c2*d + c3.
    """
    _check_phase(i)
    _check_domain(r, b, d, c1, c2, c3)
    rc1 = r * c1
    return rc1 ** (i - 1) * b + r * (c2 * d + c3) * (rc1 ** (i - 1) - 1) / (rc1 - 1)


def theorem_phase_packet_limit(r: Rate, d: float, c1: float, c2: float, c3: float) -> float:
    """Limit of theorem_phase_packet_bound, r*(c2*d + c3)/(1 - r*c1): the
    series has ratio r*c1 and step r*(c2*d + c3)."""
    _check_domain(r, d=d, c1=c1, c2=c2, c3=c3)
    rate = as_rate(r)
    return _limit(rate * Fraction(c1), rate * (Fraction(c2) * Fraction(d) + Fraction(c3)))


# ---- growth classification ---------------------------------------------------


@dataclass(frozen=True)
class GrowthLabel:
    label: str  # CONVERGENT | BOUNDED | DIVERGENT
    ratio: float  # mean successive ratio over the trailing window


def classify_growth(series: Sequence[float]) -> GrowthLabel:
    """Label a per-phase series by its trailing trend.

    Mean successive ratio over the last 5 terms: DIVERGENT if the ratio is
    >= 1.01 and the max of those terms exceeds the max of the first 5;
    CONVERGENT if <= 0.99; otherwise BOUNDED. The series needs at least
    MIN_GROWTH_TERMS = 10 terms. An empirical heuristic — it flags trends,
    it does not decide stability.
    """
    _require(
        len(series) >= MIN_GROWTH_TERMS,
        f"series of length {len(series)} too short for window {_WINDOW}",
    )
    _require(all(v >= 0 for v in series), "series values must be non-negative")

    tail = list(series[-_WINDOW:])
    head = list(series[:_WINDOW])
    ratios = []
    for prev, cur in zip(tail, tail[1:]):
        if prev > 0:
            ratios.append(cur / prev)
        elif cur == 0:
            ratios.append(1.0)
        else:
            ratios.append(math.inf)
    rho = sum(ratios) / len(ratios)

    if rho >= 1 + _EPSILON and max(tail) > max(head):
        return GrowthLabel(DIVERGENT, rho)
    if rho <= 1 - _EPSILON:
        return GrowthLabel(CONVERGENT, rho)
    return GrowthLabel(BOUNDED, rho)
