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
import operator
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .geometry import _check_finite
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
        _check_finite(self)
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
    """Sampled boundary (R1, R2) pairs."""

    pairs: tuple[tuple[float, float], ...]


def _row(train: int) -> int:
    """The train's row in ``_trains``: 0 for train 1, 1 for train 2."""
    if train not in (1, 2):
        raise ValueError("train must be 1 or 2")
    return train - 1


def _serving_window(sc: EncounterScenario, train: int) -> tuple[float, float]:
    return (sc.entry_time, sc.overlap_end) if _row(train) == 0 else (0.0, sc.exit_time)


class _Trains(NamedTuple):
    """Both trains' path-gain integral, one row each, with their fixed window integrals and solo rates.

    Every field but ``cum`` is a pair: train 1's value, then train 2's.
    """

    cum: CumulativeIntegral  # shift column [[shift_1], [shift_2]]
    weight: tuple[float, float]
    whole: tuple[float, float]  # over the serving window
    solo: tuple[float, float]  # over the part of that window where the train is served alone
    shared: tuple[float, float]  # over the overlap [0, overlap_end]
    snr: tuple[float, float]  # solo SNR c_i: the whole budget spent on channel inversion alone
    rmax: tuple[float, float]  # single_train_rmax, log2(1 + snr)

    @property
    def end_shares(self) -> tuple[tuple[float, float], tuple[float, float]]:
        """``_shares``' ``(x1, g2)`` at split 0 and at the overlap end, read off the fixed integrals.

        Train 1 is never decoded first at split 0 and train 2 never at the overlap end, so
        one share is exactly 0.0 there and the other is the train's overlap over its window.
        """
        return (0.0, self.shared[1] / self.whole[1]), (self.shared[0] / self.whole[0], 0.0)


def _trains(sc: EncounterScenario) -> _Trains:
    base, t_ov = sc.perpendicular_distance**2 + sc.antenna_height**2, sc.overlap_end
    shift = [[sc.half_coverage - sc.entry_offset * sc.half_coverage], [sc.half_coverage]]
    cum = CumulativeIntegral(base, sc.speed, shift, sc.path_loss_exponent)
    (a1, b1), (a2, b2) = _serving_window(sc, 1), _serving_window(sc, 2)
    # whole, solo (before the overlap, or after it) and shared, both trains in one call
    rows = cum.between([[a1, a1, 0.0], [a2, t_ov, 0.0]], [[b1, 0.0, t_ov], [b2, b2, t_ov]]).tolist()
    whole, solo, shared = zip(*rows)
    weight = sc.beam_weight_1, sc.beam_weight_2
    snr = tuple(sc.power_budget / (sc.noise_power * w / k) for w, k in zip(whole, weight))
    for train, c in enumerate(snr, 1):
        # the solves square terms as large as a solo SNR (z**2, b*b): an inf there turns rates into NaN
        if not c * c < math.inf:
            raise ValueError(f"train {train}'s solo SNR {c:.6g} is too large: its square overflows")
    return _Trains(cum, weight, whole, solo, shared, snr, tuple(math.log1p(c) / LN2 for c in snr))


def _shares(sc: EncounterScenario, trains: _Trains) -> Callable[[np.ndarray], tuple]:
    """``shares(lam) -> (x1, g2, dx1, dg2)``: the solves' only reading of the decode-first split.

    ``x1`` is train 1's share of its window integral before the split ``t = lam*L/v``, ``g2``
    train 2's share between it and the overlap end, ``dx1`` and ``dg2`` their slopes in ``lam``.
    Each call takes one stacked integral and one stacked path gain for both trains; at the
    overlap ends ``_Trains.end_shares`` gives ``x1`` and ``g2`` with none.
    """
    dt, t_ov = sc.half_coverage / sc.speed, sc.overlap_end  # dt/dlam
    whole = np.array(trains.whole)[:, None]
    # train 1 over [0, t], train 2 over [t, overlap_end]
    from_t, to_t = np.array([[0.0], [1.0]]), np.array([[True], [False]])

    def shares(lam):
        t = lam * sc.half_coverage / sc.speed  # overlap_end's order: lam = 2 - eta lands on it
        lo, hi = t * from_t, np.where(to_t, t, t_ov)
        (x1, g2), (dx1, dg2) = trains.cum.between(lo, hi) / whole, trains.cum.gain(t) * dt / whole
        return x1, g2, dx1, -dg2

    return shares


_TABLE = 128  # equal cells of the split table that each region root starts from


def _split_table(sc: EncounterScenario, trains: _Trains, shares: Callable) -> np.ndarray:
    """Rows ``lam, x1, g2, dx1, dg2`` at the ``_TABLE + 1`` ends of equal cells on ``[0, 2 - eta]``.

    The interior takes one ``shares`` call. The ends read ``_Trains.end_shares``, and their
    slopes the path gains at ``t = 0`` and the overlap end, so they take no integral. The
    cell ends are ``(2 - eta) * (j / _TABLE)``: ``_TABLE`` is a power of two, so ``j / _TABLE``
    is exact, each end is the correctly rounded ``j``-th multiple of the cell width, and the
    last is ``2 - eta`` itself. With 128 cells the cubic start of most roots is close enough
    for ``_newton`` to certify the step after its first evaluation.
    """
    table = np.empty((5, _TABLE + 1))
    lam = table[0] = (2.0 - sc.entry_offset) * (np.arange(_TABLE + 1) / _TABLE)
    table[1:, 1:-1] = shares(lam[1:-1])
    (_, g2_at_zero), (x1_at_end, _) = trains.end_shares
    table[1:3, ::_TABLE] = (0.0, x1_at_end), (g2_at_zero, 0.0)
    gain = trains.cum.gain(np.array([0.0, sc.overlap_end])) * (sc.half_coverage / sc.speed)
    table[3:, ::_TABLE] = gain / np.array(trains.whole)[:, None] * [[1.0], [-1.0]]  # dx1, -dg2: exact flip
    return table


def _thresholds(table: np.ndarray, trains: _Trains, tol: float) -> np.ndarray:
    """The ``z2 = 2**R2 - 1`` above which each point of ``_split_table`` has log usage above ``tol``.

    Usage rises with ``z2`` and falls along the split, so the thresholds rise along the table.
    Each is the positive root of ``x1*z**2 + (1 + c1*g2 - c*x1)*z - c`` with ``c = c2*exp(tol)``,
    taken in a form that does not cancel for either sign of the middle coefficient. It is
    accurate to rounding, so a ``z2`` within a few ulps of one may sit on its wrong side.
    """
    (c1, c2), (x1, g2) = trains.snr, table[1:3]
    c = c2 * math.exp(tol)
    b = 1.0 + c1 * g2 - c * x1
    root = np.sqrt(b * b + 4.0 * c * x1)
    with np.errstate(divide="ignore", invalid="ignore"):  # x1 is 0 at split 0, where b > 0
        return np.where(b >= 0.0, 2.0 * c / (b + root), (root - b) / (2.0 * x1))


_MAX_ITERATIONS = 100


def _newton(
    f: Callable[[np.ndarray, np.ndarray], tuple], lo, hi, f_lo, f_hi, tol: float, x0=None
) -> np.ndarray:
    """Zeros in ``[lo, hi]`` of a batch of functions; ``f(x, i)`` is values and slopes of those in ``i``.

    ``lo`` and ``hi`` are each element's bracket (scalars or arrays like ``f_lo``), ``f_lo != 0``
    and ``f_hi`` the values at its ends; where ``f_hi`` is zero or has ``f_lo``'s sign the zero is
    ``hi``. Safeguarded Newton from ``x0``, or from the false-position point of the ends where
    ``x0`` is not given, not finite or not strictly inside the bracket. It bisects where a step
    would leave the bracket, and a step forms the bisections and the bracket check only if some
    element needs them. It stops at ``|f| <= tol``, where the Newton step rounds back onto ``x``,
    or once the bracket has shrunk to rounding. Where ``f`` also returns the curvatures ``f''``,
    an element also stops one Newton step ``d`` past ``x``, without evaluating there, when the
    step stays in its bracket, ``|d| <= 1e-7`` and ``|f''|*d*d <= tol/2``, so that Taylor's
    remainder ``f''*d*d/2`` is within ``tol/4``, and ``|f'|*ulp(x) <= tol/4``, so that rounding
    ``x + d`` to a float costs no more than that.
    No element reads another's, and each zero is the last point its function was evaluated at
    (``hi`` where it takes no step) or one certified step past it, so a caller may keep what
    ``f`` computed there, carried along that step.
    """
    out = np.full(f_lo.shape, hi)
    i = np.flatnonzero((f_hi != 0.0) & ((f_hi > 0.0) != (f_lo > 0.0)))
    f_lo, f_hi, lo, hi = f_lo[i], f_hi[i], np.full(f_lo.shape, lo)[i], out[i]
    x = lo + (hi - lo) * f_lo / (f_lo - f_hi)
    if x0 is not None:
        x0 = x0[i]
        x = np.where((lo < x0) & (x0 < hi), x0, x)
    positive = f_lo > 0.0
    inside = False  # every x is strictly inside its bracket: true after a step that took no bisection
    for _ in range(_MAX_ITERATIONS):
        if not i.size:
            return out
        fx, slope, *curvature = f(x, i)
        out[i] = x  # each zero is the last x written here
        done = np.abs(fx) <= tol
        if not inside:
            done |= ~((lo < x) & (x < hi))
        same = (fx > 0.0) == positive
        lo, hi = np.where(same, x, lo), np.where(same, hi, x)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            guess = x - fx / slope
            ok = (lo < guess) & (guess < hi)
            # a Newton step that rounds back onto x is within half an ulp: no float lies nearer its root
            done |= guess == x
            if curvature:  # certify the step from the curvature instead of evaluating after it
                step = guess - x
                short = (np.abs(step) <= 1e-7) & (np.abs(curvature[0]) * (step * step) <= 0.5 * tol)
                sure = short & ok & ~done & (np.abs(slope * np.spacing(x)) <= 0.25 * tol)
                if np.count_nonzero(sure):
                    out[i[sure]] = guess[sure]
                    done |= sure
        inside = np.count_nonzero(ok) == ok.size
        # bisect where a step would leave the bracket
        x = guess if inside else np.where(ok, guess, 0.5 * (lo + hi))
        if np.count_nonzero(done):
            go = np.flatnonzero(~done)
            i, x, lo, hi, positive = (v[go] for v in (i, x, lo, hi, positive))
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
    row = _row(train)
    return _trains(sc).rmax[row]


def priority_rate(sc: EncounterScenario, priority_holder: int) -> float:
    """Best constant rate of the train without decoding priority.

    The holder is decoded last throughout the overlap and keeps its solo
    rate; its solo SNR is ``c_h``. The other train, solo SNR ``c``, is decoded
    first there, so its budget binds at ``2**R - 1 = c/(1 + c_h*share)``, where
    ``share`` is its overlap integral over its window integral
    (``_Trains.end_shares``). This is a corner of the rate region: its last
    point for holder 2, the end of its flat part for holder 1. With no
    overlap the share is 0 and the result is the solo rate.
    """
    h = _row(priority_holder)
    trains, o = _trains(sc), 1 - h
    c = trains.snr
    return math.log1p(c[o] / (1.0 + c[h] * trains.end_shares[h][o])) / LN2


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

    def __post_init__(self):
        for name in ("rate_1", "rate_2"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0")
        if not math.isfinite(self.split_parameter):
            raise ValueError("split_parameter must be finite")

    @cached_property
    def _trains(self) -> _Trains:
        # excitation runs once per instant and power_use once per train; the path
        # gains and fixed integrals are built once per profile
        return _trains(self.scenario)

    @property
    def _split_time(self) -> float:
        return self.split_parameter * self.scenario.half_coverage / self.scenario.speed

    def decode_priority(self, t: float) -> DecodePriority:
        """Which train is decoded first at ``t``; ``EncounterWindowError`` outside the window, NaN too."""
        sc = self.scenario
        if not sc.entry_time <= t <= sc.exit_time:
            raise EncounterWindowError(f"t={t:.6g} outside encounter window")
        if t < 0.0 or t > sc.overlap_end:
            return DecodePriority.SINGLE
        if t < self._split_time:
            return DecodePriority.H1_FIRST
        return DecodePriority.H2_FIRST

    def snr(self, train: int, t: float) -> float:
        """Received power of one train over noise at ``t`` (interference excluded).

        Channel inversion holds it at ``2**rate - 1``, times the other train's
        ``2**rate`` where ``decode_priority`` decodes this train first; it is 0
        outside the train's serving window.
        """
        a, b = _serving_window(self.scenario, train)
        order = self.decode_priority(t)
        if not a <= t <= b:
            return 0.0
        own, other = (self.rate_1, self.rate_2) if train == 1 else (self.rate_2, self.rate_1)
        first = DecodePriority.H1_FIRST if train == 1 else DecodePriority.H2_FIRST
        return (2.0**own - 1.0) * (2.0**other if order is first else 1.0)

    def excitation(self, train: int, t: float) -> float:
        """One train's transmit power over ``p0`` at ``t``: ``snr * noise * d**exponent / weight``."""
        sc = self.scenario
        snr = self.snr(train, t)  # checks train and t before any lookup
        trains, row = self._trains, train - 1
        return snr * trains.cum.gain(t)[row].item() * sc.noise_power / (trains.weight[row] * sc.avg_power)

    def mac_slacks(self, t: float) -> tuple[float, float, float]:
        """Slack of the three multiple-access constraints at ``t``.

        Returns (individual-1, individual-2, sum) slacks in bits; a
        constraint that does not apply at ``t`` reports +inf. Nonnegative
        slacks mean the carried rates are decodable.
        """
        snr1, snr2 = self.snr(1, t), self.snr(2, t)
        in1, in2 = (a <= t <= b for a, b in (_serving_window(self.scenario, k) for k in (1, 2)))
        s1 = math.log1p(snr1) / LN2 - self.rate_1 if in1 else math.inf
        s2 = math.log1p(snr2) / LN2 - self.rate_2 if in2 else math.inf
        s12 = math.log1p(snr1 + snr2) / LN2 - (self.rate_1 + self.rate_2) if in1 and in2 else math.inf
        return s1, s2, s12

    def power_use(self, train: int) -> float:
        """Average-power usage of one train, 1.0 means the budget binds."""
        sc, row = self.scenario, _row(train)
        trains = self._trains
        coeff = sc.noise_power / (trains.weight[row] * sc.avg_power)
        t_split = min(max(self._split_time, 0.0), sc.overlap_end)
        # the overlap before and after the split in one array call (same bits as two)
        early, late = trains.cum.between([0.0, t_split], [t_split, sc.overlap_end])[row].tolist()
        own, other = (self.rate_1, self.rate_2) if train == 1 else (self.rate_2, self.rate_1)
        boosted, plain = (early, late) if train == 1 else (late, early)
        integral = coeff * (2.0**own - 1.0) * (trains.solo[row] + plain + boosted * 2.0**other)
        return integral * sc.speed / (2.0 * sc.half_coverage)


def _allocate(sc: EncounterScenario, rate_2: np.ndarray, trains: _Trains) -> tuple[np.ndarray, ...]:
    """``(rate_1, rate_2, split_parameter, h2_budget_slack)`` at each of ``rate_2``.

    ``no_priority_allocation`` for a batch; train 2's solo maximum clips ``rate_2``. With
    ``z_i = 2**R_i - 1``, train 1's budget binds at ``z1 = c1/(1 + z2*x1)`` and train 2 uses
    ``z2*(1 + z1*g2)/c2`` of its own (solo SNRs ``c_i`` from ``_trains``, the rest from ``_shares``).
    Once a point is bound, ``_split_table`` gives the shares at ``_TABLE + 1`` splits, and log
    usage falls along the split: each root lies in the cell that ends at the first table point
    not above tolerance. One ``searchsorted`` of ``z2`` in ``_thresholds`` finds that cell, and
    the log usage at the cell's two ends, by the search's own expression, confirms it; the few
    points that a rounded threshold puts one cell off are re-decided from their log usage at
    every table point. The search starts from the inverse cubic Hermite interpolant across the
    cell, and its function also gives the curvature of log usage, so ``_newton`` may certify a
    root one step ``d`` past its last evaluation. Train 1's rate is then read at ``x1 + (dx1 +
    ddx1*d/2)*d``, from the shares recorded at that evaluation; at an evaluated root ``d`` is 0.0
    and ``x1`` keeps its bits. A table point within tolerance is its own root. The table depends
    only on ``sc``, so a point has the same bits in any batch.
    """
    (rmax_1, rmax_2), (c1, c2) = trains.rmax, trains.snr
    if not np.all(rate_2 >= 0.0):
        raise InfeasibleRateError("rate_2 must be >= 0")
    if not np.all(rate_2 <= rmax_2 * (1.0 + 1e-9)):
        raise InfeasibleRateError(f"rate_2={rate_2.max():.6g} exceeds the solo maximum {rmax_2:.6g}")
    rate_2 = np.minimum(rate_2, rmax_2)
    rate_1, split = np.full(rate_2.shape, rmax_1), np.zeros_like(rate_2)
    if sc.overlap_end <= 0.0:
        return rate_1, rate_2, split, np.ones(rate_2.shape, dtype=bool)
    z = 2.0**rate_2 - 1.0
    # at split 0 train 1 is never decoded first (x1 = 0) and keeps its solo rate
    (_, g2_at_zero), _ = trains.end_shares
    usage_at_zero = z * (1.0 + c1 * g2_at_zero) / c2
    slack = (rate_2 == 0.0) | (usage_at_zero <= 1.0)
    bound = np.flatnonzero(~slack)
    if not bound.size:  # every point slack: no split to solve for
        return rate_1, rate_2, split, slack
    z, shares, tol, dt = z[bound], _shares(sc, trains), 1e-14, sc.half_coverage / sc.speed
    table = _split_table(sc, trains, shares)

    def usage(z2, x1, g2, dx1, dg2):  # log usage, its slope, and z1 and 1 + z1*g2 on the way
        z1 = c1 / (1.0 + z2 * x1)
        a = 1.0 + z1 * g2
        # dz1 = -z1**2 * z2 * dx1 / c1; no integral is taken
        return np.log(z2 * a / c2), z1 * (dg2 - z1 * z2 * dx1 * g2 / c1) / a, z1, a

    def log_usage(lam, i):  # usage's value and slope, and the curvature that certifies a root
        x1, g2, dx1, dg2 = shares(lam)
        z2 = z[i]
        value, slope, z1, a = usage(z2, x1, g2, dx1, dg2)
        # the shares' curvatures are their slopes times d log gain/dlam
        log_1, log_2 = trains.cum.log_gain_slope(lam * sc.half_coverage / sc.speed) * dt
        ddx1, ddg2 = dx1 * log_1, dg2 * log_2
        seen[:, i] = lam, x1, dx1, ddx1  # each root is this point or one certified step past it
        # with k = z1*z2/c1: d2z1 = z1*(2*k**2*dx1**2 - k*ddx1), and the curvature of
        # log usage is d2(1 + z1*g2)/(1 + z1*g2) - slope**2
        k = z1 * z2 / c1
        curve = z1 * (ddg2 - k * (2.0 * dx1 * dg2 + (ddx1 - 2.0 * k * dx1 * dx1) * g2)) / a
        return value, slope, curve - slope * slope

    def cell(hi):  # the cell that ends at table point hi: both ends, their log usage and slopes
        cells = np.array((np.maximum(hi - 1, 0), hi))
        return cells, *usage(z, *table[1:, cells])[:2]

    # Each root lies in the cell that ends at the first table point not above tol.
    # At the overlap end train 2 is never decoded first (g2 = 0), so its usage
    # there is z/c2: 1 only at its solo maximum. Rounding may leave it a hair
    # above, and then the split sits at the end.
    hi = np.minimum(np.searchsorted(_thresholds(table, trains, tol), z), _TABLE)
    cells, (f_lo, f_hi), (d_lo, d_hi) = cell(hi)
    # a threshold rounded to the wrong side of z puts a point one cell off: the
    # table's own values decide those points
    off = np.flatnonzero(((f_hi > tol) & (hi < _TABLE)) | ((f_lo <= tol) & (hi > 0)))
    if off.size:
        above = usage(z[off, None], *table[1:])[0] > tol
        hi[off] = np.where(above[:, -1], _TABLE, above.argmin(axis=1))
        cells, (f_lo, f_hi), (d_lo, d_hi) = cell(hi)
    f_hi[np.abs(f_hi) <= tol] = 0.0  # a table point within tol is its root: the search leaves it
    # split, x1, dx1 and ddx1 where each search last evaluated; a root the search leaves is
    # its table point, read with d = 0.0
    seen = np.zeros((4, z.size))
    seen[:2] = table[:2, hi]
    lo, hi = table[0, cells]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # the cubic through lam(log usage) at both ends, with slopes 1/d_lo and 1/d_hi, at 0
        s = f_lo / (f_lo - f_hi)
        bend = (f_hi - f_lo) * s * (1.0 - s) * ((1.0 - s) / d_lo - s / d_hi)
        x0 = lo + s * s * (3.0 - 2.0 * s) * (hi - lo) + bend
    split[bound] = root = _newton(log_usage, lo, hi, f_lo, f_hi, tol, x0)
    at, x1, dx1, ddx1 = seen
    d = root - at  # 0.0 at an evaluated root, where x1 keeps its bits
    x1 = x1 + (dx1 + ddx1 * d / 2.0) * d
    rate_1[bound] = np.log1p(c1 / (1.0 + z * x1)) / LN2
    return rate_1, rate_2, split, slack


def no_priority_allocation(sc: EncounterScenario, rate_2: float) -> tuple[float, float, AllocationProfile]:
    """Best rate for train 1 given train 2 sustains ``rate_2``.

    Returns ``(rate_1, split_parameter, profile)``. The split and the rate
    solve both average-power equalities simultaneously: each trial split
    inverts train 1's power equality in closed form, and a safeguarded
    Newton search on train 2's log usage, with its slope from the path
    gains at the split, moves the split. The search starts inside one cell
    of a per-scenario table of splits, from the inverse cubic Hermite
    interpolant of its log usage there. Below the threshold where train 2
    can hold its rate decoded-first everywhere, its budget goes slack and
    train 1 keeps its full solo rate (flat region boundary).
    """
    batch = _allocate(sc, np.array([rate_2], dtype=float), _trains(sc))
    rate_1, rate_2, split, slack = (v[0].item() for v in batch)
    return rate_1, split, AllocationProfile(sc, rate_1, rate_2, split, h2_budget_slack=slack)


def rate_region(sc: EncounterScenario, grid_size: int) -> RateRegion:
    """Boundary of the achievable (R1, R2) set on a uniform R2 grid."""
    if grid_size < 2:
        raise ValueError("grid_size must be >= 2")
    trains = _trains(sc)
    # the bits of rmax * j / (grid_size - 1); operator.index raises TypeError as range does
    r2 = trains.rmax[1] * np.arange(operator.index(grid_size)) / (grid_size - 1)
    pairs = tuple(zip(_allocate(sc, r2, trains)[0].tolist(), r2.tolist()))
    return RateRegion(pairs=pairs)


def tfds_baseline(sc: EncounterScenario, grid_size: int) -> RateRegion:
    """Orthogonal time/frequency sharing between the two solo optima."""
    if grid_size < 2:
        raise ValueError("grid_size must be >= 2")
    r1_max, r2_max = _trains(sc).rmax
    shares = [j / (grid_size - 1) for j in range(grid_size)]
    pairs = tuple((share * r1_max, (1.0 - share) * r2_max) for share in shares)
    return RateRegion(pairs=pairs)


def _common_rates(trains: _Trains) -> Callable[..., tuple]:
    """Largest rate each train's budget allows when both carry it, at a split's shares.

    With both rates at ``R``, ``z = 2**R - 1``, solo SNRs ``c_i`` and the split's
    ``_shares``, train 1's budget binds when ``z*(1 + z*x1) = c1`` and train 2's
    when ``z*(1 + z*g2) = c2``; each positive root is taken in a form that does not
    cancel. ``rates(x1, g2, dx1, dg2)`` gives both rates and the slope of ``R1 - R2``
    in the split, from ``dz/dx = -z**2/(1 + 2*z*x)`` and the shares' slopes.
    """
    c1, c2 = trains.snr

    def rates(x1, g2, dx1, dg2):
        z1 = 2.0 * c1 / (1.0 + np.sqrt(1.0 + 4.0 * c1 * x1))
        z2 = 2.0 * c2 / (1.0 + np.sqrt(1.0 + 4.0 * c2 * g2))
        # dR/dlam = dz/dx * dx/dlam / ((1 + z) ln 2)
        d1 = z1**2 / (1.0 + 2.0 * z1 * x1) * dx1 / (1.0 + z1)
        d2 = z2**2 / (1.0 + 2.0 * z2 * g2) * dg2 / (1.0 + z2)
        return np.log1p(z1) / LN2, np.log1p(z2) / LN2, (d2 - d1) / LN2

    return rates


def symmetric_rate(sc: EncounterScenario) -> float:
    """Largest common rate both trains can sustain simultaneously.

    As the split moves later, train 1's common rate falls and train 2's
    rises: the answer is where they cross, found by the same safeguarded
    Newton search as the region with the gap's closed-form slope, or train
    1's at split 0 when train 2's already reaches it there. Both solo maxima
    cap the result.
    """
    trains = _trains(sc)
    shares, rates = _shares(sc, trains), _common_rates(trains)
    # the rates at both overlap ends from their shares in one call, elementwise as
    # the search's; no slope is needed there
    r1, r2, _ = rates(*np.array(trains.end_shares).T, 0.0, 0.0)
    end_gap, found = r1 - r2, (r1[:1], r2[:1])
    if end_gap[0] > 0.0:
        found = r1[1:], r2[1:]  # a root the search does not move sits at the end

        def gap(lam, _=None):
            nonlocal found
            found = rates(*shares(lam))  # the search's last step is at its root
            r1, r2, slope = found
            return r1 - r2, slope

        _newton(gap, 0.0, 2.0 - sc.entry_offset, end_gap[:1], end_gap[1:], 1e-13)
    return min(found[0].item(), found[1].item(), *trains.rmax)
