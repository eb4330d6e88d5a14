"""Two-train encounter: channel-inversion rates and the achievable region.

Train 1 enters a station's stretch first; train 2 enters from the other
side once train 1 has already covered ``entry_offset`` times the half
stretch. While both are served, successive decoding splits the overlap in
two: an early part where train 2 is decoded last (clean) and a late part
where train 1 is. Each train transmits at a constant rate via channel
inversion, so its power profile follows the path loss, scaled up by the
interferer's (1 + SNR) wherever it is decoded first. The split time and
train 1's rate are pinned by driving both average-power budgets to
equality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum
from typing import Callable

import numpy as np

from .numerics import CumulativeIntegral

LN2 = math.log(2.0)


class EncounterWindowError(ValueError):
    """Time outside the encounter window."""


class InfeasibleRateError(ValueError):
    """Requested rate exceeds what the train can sustain alone."""


class ConvergenceError(ArithmeticError):
    """A root search ran out of iterations."""


class DecodePriority(Enum):
    H1_FIRST = "H1_first"
    H2_FIRST = "H2_first"
    SINGLE = "single"


@dataclass(frozen=True)
class EncounterScenario:
    """Geometry, power budget and beam gains of a two-train encounter."""

    half_coverage: float  # L, m
    speed: float  # v0, m/s
    perpendicular_distance: float  # d0, m
    antenna_height: float  # h0, m
    path_loss_exponent: float  # in [2, 5]
    avg_power: float  # p0, W
    noise_power: float  # W
    entry_offset: float  # eta, in [0, 2]
    beam_weight_1: float
    beam_weight_2: float

    def __post_init__(self):
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")
        if not (self.half_coverage > 0 and self.speed > 0):
            raise ValueError("half_coverage and speed must be positive")
        if not self.perpendicular_distance > 0:
            raise ValueError("perpendicular_distance must be positive")
        if not self.antenna_height >= 0:
            raise ValueError("antenna_height must be >= 0")
        if not 2.0 <= self.path_loss_exponent <= 5.0:
            raise ValueError("path_loss_exponent must lie in [2, 5]")
        if not (self.avg_power > 0 and self.noise_power > 0):
            raise ValueError("avg_power and noise_power must be positive")
        if not 0.0 <= self.entry_offset <= 2.0:
            raise ValueError("entry_offset must lie in [0, 2]")
        if not (self.beam_weight_1 > 0 and self.beam_weight_2 > 0):
            raise ValueError("beam weights must be positive")

    @property
    def entry_time(self) -> float:
        """Train 1's entry, the start of the encounter window."""
        return -self.entry_offset * self.half_coverage / self.speed

    @property
    def overlap_end(self) -> float:
        """End of the joint-service interval (train 1's exit)."""
        return (2.0 - self.entry_offset) * self.half_coverage / self.speed

    @property
    def exit_time(self) -> float:
        """Train 2's exit, the end of the encounter window."""
        return 2.0 * self.half_coverage / self.speed

    @property
    def pass_duration(self) -> float:
        """Time either train spends inside the stretch."""
        return 2.0 * self.half_coverage / self.speed

    @property
    def power_budget(self) -> float:
        """Average power times pass duration (energy per pass)."""
        return self.avg_power * self.pass_duration


@dataclass(frozen=True)
class RateRegion:
    """Sampled boundary (R1, R2) pairs plus the single-train anchors."""

    pairs: tuple[tuple[float, float], ...]
    r_max: float
    r_prime_max: float


def train_distance(sc: EncounterScenario, train: int, t: float) -> float:
    """Slant distance of one train's relay to the station antenna."""
    along = sc.speed * t - sc.half_coverage
    if train == 1:
        along += sc.entry_offset * sc.half_coverage
    elif train != 2:
        raise ValueError("train must be 1 or 2")
    return math.sqrt(
        sc.perpendicular_distance**2 + sc.antenna_height**2 + along**2
    )


def _integrals(sc: EncounterScenario) -> tuple[CumulativeIntegral, CumulativeIntegral]:
    base = sc.perpendicular_distance**2 + sc.antenna_height**2
    shift1 = sc.half_coverage - sc.entry_offset * sc.half_coverage
    return (
        CumulativeIntegral(base, sc.speed, shift1, sc.path_loss_exponent),
        CumulativeIntegral(base, sc.speed, sc.half_coverage, sc.path_loss_exponent),
    )


def _serving_window(sc: EncounterScenario, train: int) -> tuple[float, float]:
    if train == 1:
        return sc.entry_time, sc.overlap_end
    if train == 2:
        return 0.0, sc.exit_time
    raise ValueError("train must be 1 or 2")


def _weight(sc: EncounterScenario, train: int) -> float:
    return sc.beam_weight_1 if train == 1 else sc.beam_weight_2


_MAX_ITERATIONS = 100


def _false_position(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray], lo: float, hi: float, f_lo, f_hi, tol: float
) -> np.ndarray:
    """Zeros in ``[lo, hi]`` of a batch of functions; ``f(x, i)`` evaluates those numbered ``i``.

    ``f_lo != 0`` and ``f_hi`` are their values at the ends; where ``f_hi`` is zero or has
    ``f_lo``'s sign the zero is ``hi``. Illinois false position: the zero stays bracketed and an
    end kept twice in a row has its value halved, until ``|f| <= tol`` or the bracket has shrunk
    to rounding. No element reads another's, so its bits do not depend on the batch.
    """
    out = np.full(f_lo.shape, hi)
    i = np.flatnonzero((f_hi != 0.0) & ((f_hi > 0.0) != (f_lo > 0.0)))
    f_lo, f_hi = f_lo[i], f_hi[i]
    kept = 0.0  # -1: lo survived the last step, +1: hi did
    for _ in range(_MAX_ITERATIONS):
        if not i.size:
            return out
        x = lo + (hi - lo) * f_lo / (f_lo - f_hi)
        fx = f(x, i)
        done = (np.abs(fx) <= tol) | ~((lo < x) & (x < hi))
        out[i[done]] = x[done]
        same = (fx > 0.0) == (f_lo > 0.0)
        f_lo = np.where(same, fx, np.where(kept < 0.0, 0.5 * f_lo, f_lo))
        f_hi = np.where(same, np.where(kept > 0.0, 0.5 * f_hi, f_hi), fx)
        lo, hi = np.where(same, x, lo), np.where(same, hi, x)
        kept = np.where(same, 1.0, -1.0)
        go = ~done
        i, lo, hi, f_lo, f_hi, kept = i[go], lo[go], hi[go], f_lo[go], f_hi[go], kept[go]
    if i.size:
        raise ConvergenceError(
            f"|f| > {tol:g} after {_MAX_ITERATIONS} steps for {i.size} of {out.size} elements"
        )
    return out


def single_train_rmax(sc: EncounterScenario, train: int) -> float:
    """Constant rate a train sustains alone over its pass.

    Channel inversion spends the whole power budget holding the received
    SNR flat, so the pass-long rate is a single logarithm of the inverted
    path-gain integral.
    """
    cum = _integrals(sc)[train - 1]
    a, b = _serving_window(sc, train)
    inv = sc.noise_power * cum.between(a, b) / _weight(sc, train)
    return math.log1p(sc.power_budget / inv) / LN2


def _priority_noise_factor(sc: EncounterScenario, priority_holder: int) -> float:
    """1 + SNR of the priority train over the shared interval."""
    cum = _integrals(sc)[priority_holder - 1]
    shared = cum.between(0.0, sc.overlap_end)
    inv = sc.noise_power * shared / _weight(sc, priority_holder)
    return 1.0 + sc.power_budget / inv


def priority_rate(sc: EncounterScenario, priority_holder: int) -> float:
    """Best constant rate of the train without decoding priority.

    The priority train is decoded last and sees a clean channel; the other
    train is decoded first over the whole shared interval, so its inverted
    noise there is amplified by the priority train's (1 + SNR). With no
    overlap the result degenerates to the solo rate.
    """
    if priority_holder not in (1, 2):
        raise ValueError("priority_holder must be 1 or 2")
    other = 1 if priority_holder == 2 else 2
    if sc.overlap_end <= 0.0:
        return single_train_rmax(sc, other)
    cum = _integrals(sc)[other - 1]
    if other == 1:
        solo = cum.between(sc.entry_time, 0.0)
    else:
        solo = cum.between(sc.overlap_end, sc.exit_time)
    shared = cum.between(0.0, sc.overlap_end)
    factor = _priority_noise_factor(sc, priority_holder)
    inv = sc.noise_power * (factor * shared + solo) / _weight(sc, other)
    return math.log1p(sc.power_budget / inv) / LN2


@dataclass(frozen=True)
class AllocationProfile:
    """Channel-inversion excitation profiles realizing one rate pair.

    ``rate_1`` rides on train 1 over its whole serving window, ``rate_2``
    on train 2; ``split_parameter`` places the decode-order switch inside
    the shared interval. ``h2_budget_slack`` marks the flat part of the
    region where train 2 meets its rate without exhausting its power.
    """

    scenario: EncounterScenario
    rate_1: float
    rate_2: float
    split_parameter: float
    h2_budget_slack: bool = False

    @property
    def _split_time(self) -> float:
        return self.split_parameter * self.scenario.half_coverage / self.scenario.speed

    def decode_priority(self, t: float) -> DecodePriority:
        sc = self.scenario
        if not sc.entry_time <= t <= sc.exit_time:
            raise EncounterWindowError(f"t={t:.6g} outside encounter window")
        if t < 0.0 or t > sc.overlap_end:
            return DecodePriority.SINGLE
        if t < self._split_time:
            return DecodePriority.H1_FIRST
        return DecodePriority.H2_FIRST

    def _inversion(self, train: int, t: float) -> float:
        sc = self.scenario
        gain = train_distance(sc, train, t) ** sc.path_loss_exponent
        return gain * sc.noise_power / (_weight(sc, train) * sc.avg_power)

    def f1(self, t: float) -> float:
        """Train 1's normalized excitation at ``t`` (0 outside its window)."""
        sc = self.scenario
        if not sc.entry_time <= t <= sc.overlap_end:
            return 0.0
        value = self._inversion(1, t) * (2.0**self.rate_1 - 1.0)
        if 0.0 <= t < self._split_time:
            value *= 2.0**self.rate_2
        return value

    def f2(self, t: float) -> float:
        """Train 2's normalized excitation at ``t`` (0 outside its window)."""
        sc = self.scenario
        if not 0.0 <= t <= sc.exit_time:
            return 0.0
        value = self._inversion(2, t) * (2.0**self.rate_2 - 1.0)
        if self._split_time <= t <= sc.overlap_end:
            value *= 2.0**self.rate_1
        return value

    def snr_1(self, t: float) -> float:
        """Received power of train 1 over noise (interference excluded)."""
        inv = self._inversion(1, t)
        return self.f1(t) / inv if inv > 0 else 0.0

    def snr_2(self, t: float) -> float:
        inv = self._inversion(2, t)
        return self.f2(t) / inv if inv > 0 else 0.0

    def mac_slacks(self, t: float) -> tuple[float, float, float]:
        """Slack of the three multiple-access constraints at ``t``.

        Returns (individual-1, individual-2, sum) slacks in bits; a
        constraint that does not apply at ``t`` reports +inf. Nonnegative
        slacks mean the carried rates are decodable.
        """
        sc = self.scenario
        in1 = sc.entry_time <= t <= sc.overlap_end
        in2 = 0.0 <= t <= sc.exit_time
        s1 = s2 = s12 = math.inf
        if in1:
            s1 = math.log1p(self.snr_1(t)) / LN2 - self.rate_1
        if in2:
            s2 = math.log1p(self.snr_2(t)) / LN2 - self.rate_2
        if in1 and in2:
            s12 = math.log1p(self.snr_1(t) + self.snr_2(t)) / LN2 - (
                self.rate_1 + self.rate_2
            )
        return s1, s2, s12

    def power_use(self, train: int) -> float:
        """Average-power usage of one train, 1.0 means the budget binds."""
        sc = self.scenario
        a, b = _serving_window(sc, train)
        cum = _integrals(sc)[train - 1]
        coeff = sc.noise_power / (_weight(sc, train) * sc.avg_power)
        t_split = min(max(self._split_time, 0.0), sc.overlap_end)
        if train == 1:
            gain = 2.0**self.rate_1 - 1.0
            plain = cum.between(a, 0.0) + cum.between(t_split, sc.overlap_end)
            boosted = cum.between(0.0, t_split) * 2.0**self.rate_2
        else:
            gain = 2.0**self.rate_2 - 1.0
            plain = cum.between(sc.overlap_end, b) + cum.between(0.0, t_split)
            boosted = cum.between(t_split, sc.overlap_end) * 2.0**self.rate_1
        integral = coeff * gain * (plain + boosted)
        return integral * sc.speed / (2.0 * sc.half_coverage)


def _allocate(sc: EncounterScenario, rate_2: np.ndarray) -> tuple[np.ndarray, ...]:
    """``(rate_1, rate_2, split_parameter, h2_budget_slack)`` at each of ``rate_2``.

    ``no_priority_allocation`` for a whole batch: train 2's solo maximum
    (which clips ``rate_2``) and the fixed window integrals are taken once.
    """
    r_max_2 = single_train_rmax(sc, 2)
    if not np.all(rate_2 >= 0.0):
        raise InfeasibleRateError("rate_2 must be >= 0")
    if not np.all(rate_2 <= r_max_2 * (1.0 + 1e-9)):
        raise InfeasibleRateError(f"rate_2={rate_2.max():.6g} exceeds the solo maximum {r_max_2:.6g}")
    rate_2 = np.minimum(rate_2, r_max_2)
    span = 2.0 - sc.entry_offset

    cum1, cum2 = _integrals(sc)
    w1, w2, noise, budget = sc.beam_weight_1, sc.beam_weight_2, sc.noise_power, sc.power_budget
    t_ov = sc.overlap_end
    solo1, full1 = cum1.between([sc.entry_time, 0.0], [0.0, t_ov])
    full2, solo2 = cum2.between([0.0, t_ov], [t_ov, sc.exit_time])
    boost2 = 2.0**rate_2

    def rate_1_from_budget(lam, boost2):
        early1 = cum1.between(0.0, lam * sc.half_coverage / sc.speed)
        inv = noise * (solo1 + boost2 * early1 + (full1 - early1)) / w1
        return np.log1p(budget / inv) / LN2

    def h2_usage(lam, rate_1, boost2):
        late2 = cum2.between(lam * sc.half_coverage / sc.speed, t_ov)
        weighted = solo2 + (full2 - late2) + 2.0**rate_1 * late2
        return (boost2 - 1.0) * noise * weighted / (w2 * budget)

    rate_1 = rate_1_from_budget(0.0, boost2)
    split = np.zeros_like(rate_2)
    if t_ov <= 0.0:
        return rate_1, rate_2, split, np.ones(rate_2.shape, dtype=bool)
    usage_at_zero = h2_usage(0.0, rate_1, boost2)
    slack = (rate_2 == 0.0) | (usage_at_zero <= 1.0)
    bound = np.flatnonzero(~slack)
    boost = boost2[bound]

    def log_usage(lam, i):
        return np.log(h2_usage(lam, rate_1_from_budget(lam, boost[i]), boost[i]))

    # Train 2's usage at the far end is 1 only at its solo maximum; rounding
    # may leave it a hair above, and then the split sits at the end.
    at_end = log_usage(np.full(bound.size, span), np.arange(bound.size))
    lam = _false_position(log_usage, 0.0, span, np.log(usage_at_zero[bound]), at_end, 1e-14)
    split[bound] = lam
    rate_1[bound] = rate_1_from_budget(lam, boost)
    return rate_1, rate_2, split, slack


def no_priority_allocation(sc: EncounterScenario, rate_2: float) -> tuple[float, float, AllocationProfile]:
    """Best rate for train 1 given train 2 sustains ``rate_2``.

    Returns ``(rate_1, split_parameter, profile)``. The split and the rate
    solve both average-power equalities simultaneously: a bracketed root
    search moves the split while each trial inverts train 1's power
    equality in closed form and checks train 2's budget. Below the
    threshold where train 2 can hold its rate decoded-first everywhere,
    its budget goes slack and train 1 keeps its full solo rate (flat
    region boundary).
    """
    rate_1, rate_2, split, slack = (v[0].item() for v in _allocate(sc, np.array([rate_2], dtype=float)))
    return rate_1, split, AllocationProfile(sc, rate_1, rate_2, split, h2_budget_slack=slack)


def rate_region(sc: EncounterScenario, grid_size: int) -> RateRegion:
    """Boundary of the achievable (R1, R2) set on a uniform R2 grid."""
    if grid_size < 2:
        raise ValueError("grid_size must be >= 2")
    r_max_2 = single_train_rmax(sc, 2)
    r2s = [r_max_2 * j / (grid_size - 1) for j in range(grid_size)]
    pairs = tuple(zip(_allocate(sc, np.array(r2s))[0].tolist(), r2s))
    return RateRegion(pairs=pairs, r_max=r_max_2, r_prime_max=priority_rate(sc, 2))


def tfds_baseline(sc: EncounterScenario, grid_size: int) -> RateRegion:
    """Orthogonal time/frequency sharing between the two solo optima."""
    if grid_size < 2:
        raise ValueError("grid_size must be >= 2")
    r1_max = single_train_rmax(sc, 1)
    r2_max = single_train_rmax(sc, 2)
    shares = [j / (grid_size - 1) for j in range(grid_size)]
    pairs = tuple((share * r1_max, (1.0 - share) * r2_max) for share in shares)
    return RateRegion(pairs=pairs, r_max=r2_max, r_prime_max=r1_max)


def _common_rates(sc: EncounterScenario) -> Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """Largest rate each train's budget allows when both carry it, against the split.

    Fix the split; let ``x1`` be the share of train 1's window integral before
    it, ``g2`` the share of train 2's between it and the overlap end, and
    ``c_i`` train i's solo SNR. With both rates at ``R`` and ``z = 2**R - 1``,
    train 1's budget binds when ``z*(1 + z*x1) = c1`` and train 2's when
    ``z*(1 + z*g2) = c2``; each positive root is taken in a form that does not cancel.
    """
    cum1, cum2 = _integrals(sc)
    t_ov = sc.overlap_end
    whole1, whole2 = cum1.between(sc.entry_time, t_ov), cum2.between(0.0, sc.exit_time)
    c1 = sc.power_budget * sc.beam_weight_1 / (sc.noise_power * whole1)
    c2 = sc.power_budget * sc.beam_weight_2 / (sc.noise_power * whole2)

    def rates(lam):
        t_split = lam * sc.half_coverage / sc.speed
        x1 = cum1.between(0.0, t_split) / whole1
        g2 = cum2.between(t_split, t_ov) / whole2
        z1 = 2.0 * c1 / (1.0 + np.sqrt(1.0 + 4.0 * c1 * x1))
        z2 = 2.0 * c2 / (1.0 + np.sqrt(1.0 + 4.0 * c2 * g2))
        return np.log1p(z1) / LN2, np.log1p(z2) / LN2

    return rates


def symmetric_rate(sc: EncounterScenario) -> float:
    """Largest common rate both trains can sustain simultaneously.

    As the split moves later, train 1's common rate falls and train 2's
    rises: the answer is where they cross, or train 1's at split 0 when
    train 2's already reaches it there. Both solo maxima cap the result.
    """
    rates = _common_rates(sc)

    def gap(lam, _=None):
        return np.subtract(*rates(lam))

    lam, end = np.zeros(1), np.full(1, 2.0 - sc.entry_offset)
    gap_at_zero = gap(lam)
    if gap_at_zero[0] > 0.0:
        lam = _false_position(gap, 0.0, end[0], gap_at_zero, gap(end), 1e-13)
    r1, r2 = rates(lam)
    return min(r1.item(), r2.item(), single_train_rmax(sc, 1), single_train_rmax(sc, 2))
