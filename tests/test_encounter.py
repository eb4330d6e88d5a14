import dataclasses
import math
import random
from decimal import Decimal, localcontext
import tracemalloc

import numpy as np
import pytest

from railbeam import encounter
from railbeam.config import load_config
from railbeam.encounter import (
    AllocationProfile,
    ConvergenceError,
    DecodePriority,
    EncounterScenario,
    EncounterWindowError,
    InfeasibleRateError,
    _common_rates,
    no_priority_allocation,
    priority_rate,
    rate_region,
    single_train_rmax,
    symmetric_rate,
    tfds_baseline,
)
from railbeam.numerics import CumulativeIntegral, adaptive_simpson
from test_numerics import exact_antiderivative, exact_between

NOISE = 10.0 ** (-13.4)
P0 = 10.0 ** 1.3  # 43 dBm


def three_call_power_use(profile, train):
    """``AllocationProfile.power_use`` as three scalar ``between`` calls."""
    sc = profile.scenario
    a, b = encounter._serving_window(sc, train)
    trains, row = encounter._trains(sc), train - 1

    def between(lo, hi):  # this train's row of the stacked integral
        return trains.cum.between(lo, hi)[row].item()

    coeff = sc.noise_power / (trains.weight[row] * sc.avg_power)
    t_split = min(max(profile._split_time, 0.0), sc.overlap_end)
    if train == 1:
        gain = 2.0**profile.rate_1 - 1.0
        plain = between(a, 0.0) + between(t_split, sc.overlap_end)
        boosted = between(0.0, t_split) * 2.0**profile.rate_2
    else:
        gain = 2.0**profile.rate_2 - 1.0
        plain = between(sc.overlap_end, b) + between(0.0, t_split)
        boosted = between(t_split, sc.overlap_end) * 2.0**profile.rate_1
    return coeff * gain * (plain + boosted) * sc.speed / (2.0 * sc.half_coverage)


def scenario(eta=0.0, p0=P0, noise=NOISE, weight=128.0, alpha0=3.0):
    """Declared default geometry: d0=50 m, h0=20 m, L=800 m, v0=100 m/s."""
    return EncounterScenario(
        half_coverage=800.0,
        speed=100.0,
        perpendicular_distance=50.0,
        antenna_height=20.0,
        path_loss_exponent=alpha0,
        avg_power=p0,
        noise_power=noise,
        entry_offset=eta,
        beam_weight_1=weight,
        beam_weight_2=weight,
    )


def gain_integral(sc, train, a, b, n=200001):
    """Trapezoid oracle for the path-gain integral, independent of the library."""
    t = np.linspace(a, b, n)
    shift = sc.half_coverage - (sc.entry_offset * sc.half_coverage if train == 1 else 0.0)
    d = np.sqrt(
        sc.perpendicular_distance**2 + sc.antenna_height**2 + (sc.speed * t - shift) ** 2
    )
    return float(np.trapezoid(d**sc.path_loss_exponent, t))


def simpson_r1(sc, r2):
    """Train 1's best rate at ``r2`` by bisection over adaptive-Simpson budgets."""
    base = sc.perpendicular_distance**2 + sc.antenna_height**2

    def gain(train, a, b):
        shift = sc.half_coverage - (sc.entry_offset * sc.half_coverage if train == 1 else 0.0)
        f = lambda t: (base + (sc.speed * t - shift) ** 2) ** (sc.path_loss_exponent / 2)
        return adaptive_simpson(f, a, b, rel_tol=1e-13)

    t_ov = sc.overlap_end
    solo1, full1 = gain(1, sc.entry_time, 0.0), gain(1, 0.0, t_ov)
    solo2, full2 = gain(2, t_ov, sc.exit_time), gain(2, 0.0, t_ov)
    budget = sc.power_budget / sc.noise_power

    def rate_1(ts):
        early1 = gain(1, 0.0, ts)
        inverted = solo1 + 2.0**r2 * early1 + full1 - early1
        return math.log2(1.0 + budget * sc.beam_weight_1 / inverted)

    def usage_2(ts):
        early2 = gain(2, 0.0, ts)
        weighted = solo2 + early2 + 2.0 ** rate_1(ts) * (full2 - early2)
        return (2.0**r2 - 1.0) * weighted / (sc.beam_weight_2 * budget)

    lo, hi = 0.0, t_ov
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if usage_2(mid) > 1.0 else (lo, mid)
    return rate_1(0.5 * (lo + hi))


def exact_usage(sc, rate_1, rate_2, split):
    """Both trains' power usage at ``(rate_1, rate_2, split)``, every integral from ``exact_between``."""
    base = sc.perpendicular_distance**2 + sc.antenna_height**2
    t_s, t_ov = split * sc.half_coverage / sc.speed, sc.overlap_end
    shift_1, shift_2 = sc.half_coverage - sc.entry_offset * sc.half_coverage, sc.half_coverage

    def gain(shift, a, b):
        return exact_between(base, sc.speed, shift, int(sc.path_loss_exponent), a, b)

    # train 1 is decoded first (boosted) before the split, train 2 after it
    energy_1 = gain(shift_1, sc.entry_time, 0.0) + 2.0**rate_2 * gain(shift_1, 0.0, t_s)
    energy_1 += gain(shift_1, t_s, t_ov)
    energy_2 = gain(shift_2, t_ov, sc.exit_time) + gain(shift_2, 0.0, t_s)
    energy_2 += 2.0**rate_1 * gain(shift_2, t_s, t_ov)
    coeff = sc.noise_power / (sc.avg_power * sc.pass_duration)
    return (
        coeff * (2.0**rate_1 - 1.0) * energy_1 / sc.beam_weight_1,
        coeff * (2.0**rate_2 - 1.0) * energy_2 / sc.beam_weight_2,
    )


def exact_region(sc, grid):
    """Train 1's best rate at each R2 of ``grid``, from exact integrals and a search of its own.

    The one-split model of ``no_priority_allocation``, in 60-digit ``decimal`` from the
    scenario's float fields: every integral is ``exact_antiderivative`` (an integer exponent),
    and the windows, shifts and split times are exact. Below train 2's decoded-first threshold
    R1 is the solo rate. Otherwise the split ``lam`` is bisected in floats on the sign of train
    2's usage minus 1 until no float lies inside its bracket, and R1 is read at the root
    interpolated linearly across that last bracket; a usage still above 1 at the overlap end
    puts the split there.
    """
    exponent = int(sc.path_loss_exponent)
    assert exponent == sc.path_loss_exponent
    with localcontext() as ctx:
        ctx.prec = 60
        big_b = Decimal(sc.perpendicular_distance) ** 2 + Decimal(sc.antenna_height) ** 2
        v, half, eta = Decimal(sc.speed), Decimal(sc.half_coverage), Decimal(sc.entry_offset)
        shifts, to_time = (half - eta * half, half), half / v

        def integral(row, t):  # an antiderivative in t of the train's path gain
            return exact_antiderivative(big_b, v * t - shifts[row], exponent) / v

        t_ov = (2 - eta) * to_time
        ends = [(integral(row, a), integral(row, 0), integral(row, t_ov), integral(row, b))
                for row, (a, b) in enumerate(((-eta * to_time, t_ov), (0, 2 * to_time)))]
        whole = [end - start for start, _, _, end in ends]
        budget = Decimal(sc.avg_power) * 2 * to_time / Decimal(sc.noise_power)
        c1, c2 = (budget * Decimal(w) / i for w, i in zip((sc.beam_weight_1, sc.beam_weight_2), whole))
        ln2 = Decimal(2).ln()

        def state(lam, z2):  # train 2's usage minus 1, and train 1's z1, at the split lam
            t = Decimal(lam) * to_time
            x1 = (integral(0, t) - ends[0][1]) / whole[0]
            g2 = (ends[1][2] - integral(1, t)) / whole[1]
            z1 = c1 / (1 + z2 * x1)
            return z2 * (1 + z1 * g2) / c2 - 1, z1

        rates = []
        for r2 in grid:
            z2 = (Decimal(r2) * ln2).exp() - 1
            lo, hi = 0.0, 2.0 - sc.entry_offset
            (f_lo, z_lo), (f_hi, z_hi) = state(lo, z2), state(hi, z2)
            if r2 == 0.0 or f_lo <= 0:  # slack: train 2 holds its rate decoded first throughout
                z1 = c1
            elif f_hi >= 0:
                z1 = z_hi
            else:
                while lo < 0.5 * (lo + hi) < hi:
                    mid = 0.5 * (lo + hi)
                    f, z = state(mid, z2)
                    if f > 0:
                        lo, f_lo, z_lo = mid, f, z
                    else:
                        hi, f_hi, z_hi = mid, f, z
                z1 = z_lo + (z_hi - z_lo) * f_lo / (f_lo - f_hi)
            rates.append(float((1 + z1).ln() / ln2))
        return rates


def rate_2_at_split(sc, split):
    """The R2 whose bound solve puts the split at ``split``: both budgets bind there."""
    trains = encounter._trains(sc)
    x1, g2, _, _ = encounter._shares(sc, trains)(np.array([split]))
    return math.log2(1.0 + encounter._thresholds(np.array([[split], x1, g2]), trains, 0.0).item())


def recorded(records):
    """A ``hook_search`` wrap: each search appends its elements' evaluation counts and last ``|f|``."""

    def wrap(f, n):
        count, last = np.zeros(n, dtype=int), np.full(n, np.nan)
        records.append((count, last))

        def g(x, i):
            out = f(x, i)
            np.add.at(count, i, 1)
            last[i] = np.abs(out[0])
            return out

        return g

    return wrap


def region_roots(monkeypatch, sc, grid):
    """The bound points of ``rate_region(sc, grid)``, with everything re-evaluated at their splits.

    Returns log usage evaluated afresh at each split, R1 from a fresh ``x1`` there, the R1 that
    ``rate_region`` returned, and which roots the search certified one step past its last
    evaluation instead of evaluating them.
    """
    allocate, newton, found = encounter._allocate, encounter._newton, {}

    def spied_allocate(*args):
        found["allocation"] = allocate(*args)
        return found["allocation"]

    def spied_newton(f, lo, hi, f_lo, f_hi, tol, x0=None):
        last = found["last"] = np.full(f_lo.shape, np.nan)

        def g(x, i):
            last[i] = x
            return f(x, i)

        return newton(g, lo, hi, f_lo, f_hi, tol, x0)

    with monkeypatch.context() as m:
        m.setattr(encounter, "_allocate", spied_allocate)
        m.setattr(encounter, "_newton", spied_newton)
        returned = [r1 for r1, _ in rate_region(sc, grid).pairs]
    rate_1, rate_2, split, slack = found["allocation"]
    assert rate_1.tolist() == returned
    trains = encounter._trains(sc)
    (c1, c2), bound = trains.snr, ~slack
    z, root = 2.0 ** rate_2[bound] - 1.0, split[bound]
    x1, g2 = encounter._shares(sc, trains)(root)[:2]
    z1 = c1 / (1.0 + z * x1)
    last = found.get("last", root)  # NaN where the search never evaluated: a table point
    sure = np.isfinite(last) & (last != root)
    return np.log(z * (1.0 + z1 * g2) / c2), np.log1p(z1) / math.log(2.0), rate_1[bound], sure


def readme_scenario(index):
    """Scenario ``index`` (from 0) of README's 7,500-scenario draw from ``random.Random(7500)``."""
    rng = random.Random(7500)
    for j in range(index + 1):
        eta = rng.uniform(1.95, 2.0) if j % 5 == 4 else rng.uniform(0.0, 2.0)
        geometry = [rng.uniform(lo, hi) for lo, hi in ((200.0, 1500.0), (20.0, 150.0), (10.0, 100.0), (5.0, 50.0))]
        exponent, dbm, noise = rng.uniform(2.0, 5.0), rng.uniform(37.0, 47.0), 10.0 ** rng.uniform(-14.0, -12.5)
        weights = rng.uniform(1.0, 512.0), rng.uniform(1.0, 512.0)
    return EncounterScenario(*geometry, exponent, 10.0 ** ((dbm - 30.0) / 10.0), noise, eta, *weights)


def floor_scenario():
    """An overlap of 0.0066 half stretches: there ``t*slope`` is small beside each train's shift."""
    return scenario(eta=1.9934050851470186, p0=10.0 ** ((45.05467100775345 - 30.0) / 10.0), alpha0=4.0)


def steepest_scenario():
    """The scenario where the boundary turns most steeply at train 2's solo maximum."""
    p0 = 10.0 ** ((41.16918414140295 - 30.0) / 10.0)
    return scenario(eta=0.9410102672655193, p0=p0, alpha0=4.0)


def seeded_scenarios(seed, count):
    """``count`` seeded scenarios over every path-loss exponent, each with an R2 in its range."""
    rng = random.Random(seed)
    for j in range(count):
        sc = scenario(
            eta=rng.uniform(0.0, 1.9),
            p0=10.0 ** ((rng.uniform(37.0, 47.0) - 30.0) / 10.0),
            alpha0=(2.0, 2.5, 3.0, 3.5, 4.0, 5.0)[j % 6],
        )
        yield sc, rng.uniform(0.1, 0.99) * single_train_rmax(sc, 2)


@pytest.fixture
def hook_search(monkeypatch):
    """``hook_search(wrap)``: each root search then runs on ``wrap(f, n)`` for its ``n`` functions."""
    newton = encounter._newton

    def install(wrap):
        def hooked(f, lo, hi, f_lo, f_hi, tol, x0=None):
            return newton(wrap(f, f_lo.size), lo, hi, f_lo, f_hi, tol, x0)

        monkeypatch.setattr(encounter, "_newton", hooked)

    return install


@pytest.fixture
def between_calls(monkeypatch):
    """A list that gains one entry per ``CumulativeIntegral.between`` call from then on."""
    calls = []
    between = CumulativeIntegral.between

    def counted(self, a, b):
        calls.append(1)
        return between(self, a, b)

    monkeypatch.setattr(CumulativeIntegral, "between", counted)
    return calls


def central_difference(f, x, h=1e-6):
    return (f(x + h) - f(x - h)) / (2.0 * h)


# The difference quotient carries the rounding of values up to ~30 (bits, or
# log usage) over h = 1e-6, about 7e-9, beside its relative match.
SLOPE_ABS = 1e-8


def train_distance(sc, train, t):
    """Slant distance of one train's relay to the station, from its path gain ``d**exponent``."""
    return encounter._trains(sc).cum.gain(t)[train - 1].item() ** (1.0 / sc.path_loss_exponent)


class TestDistances:
    def test_closest_approach(self):
        sc = scenario(eta=0.4)
        t_close = (1.0 - 0.4) * 800.0 / 100.0
        assert train_distance(sc, 1, t_close) == pytest.approx(53.85164807134504, rel=1e-12)

    def test_window_endpoints(self):
        sc = scenario(eta=0.5)
        edge = math.sqrt(50.0**2 + 20.0**2 + 800.0**2)
        assert train_distance(sc, 1, sc.entry_time) == pytest.approx(edge, rel=1e-12)
        assert train_distance(sc, 2, sc.exit_time) == pytest.approx(edge, rel=1e-12)

    def test_trains_meet_midway_at_zero_offset(self):
        sc = scenario(eta=0.0)
        for t in (0.0, 3.0, 8.0, 16.0):
            assert train_distance(sc, 1, t) == train_distance(sc, 2, t)

    def test_rejects_bad_train(self):
        # every per-train lookup reads the train's window before its position
        with pytest.raises(ValueError, match="train must be 1 or 2"):
            encounter._serving_window(scenario(eta=0.5), 3)


class TestSingleTrainRate:
    def test_matches_quadrature_oracle(self):
        sc = scenario()
        integral = gain_integral(sc, 2, 0.0, 16.0, n=2_000_001)
        oracle = math.log2(1.0 + sc.power_budget / (NOISE * integral / 128.0))
        assert single_train_rmax(sc, 2) == pytest.approx(oracle, rel=1e-6)

    def test_monotone_in_beam_weight(self):
        rates = [single_train_rmax(scenario(weight=w), 1) for w in (1.0, 8.0, 64.0, 512.0)]
        assert rates == sorted(rates)
        assert single_train_rmax(scenario(weight=1e-12), 1) < 1e-3

    def test_power_doubling_identity(self):
        base = single_train_rmax(scenario(), 2)
        doubled = single_train_rmax(scenario(p0=2 * P0), 2)
        assert doubled == pytest.approx(math.log2(1 + 2 * (2**base - 1)), rel=1e-12)

    def test_trains_share_pass_statistics_at_zero_offset(self):
        sc = scenario(eta=0.0)
        assert single_train_rmax(sc, 1) == pytest.approx(single_train_rmax(sc, 2), rel=1e-12)


class TestPriorityRate:
    def test_decoded_first_never_beats_solo(self):
        # the holder's interference only costs the other train rate, and costs
        # nothing once the holder's power vanishes
        sc = scenario(eta=0.5)
        assert priority_rate(sc, 2) <= single_train_rmax(sc, 1)
        tiny = scenario(p0=1e-16)
        assert priority_rate(tiny, 2) == pytest.approx(single_train_rmax(tiny, 1), rel=1e-6)

    def test_rates_are_the_region_corners(self):
        # holder 2 gives the region's last R1; holder 1 gives the R2 where its
        # flat part ends, at which train 1 still keeps its solo rate
        rng = random.Random(2528)
        for _ in range(200):
            sc = scenario(
                eta=rng.uniform(0.0, 2.0),
                p0=10.0 ** ((rng.uniform(37.0, 47.0) - 30.0) / 10.0),
                alpha0=rng.uniform(2.0, 5.0),
            )
            assert priority_rate(sc, 2) == pytest.approx(rate_region(sc, 5).pairs[-1][0], rel=1e-12), sc
            rate_1, _, _ = no_priority_allocation(sc, priority_rate(sc, 1))
            assert rate_1 == pytest.approx(single_train_rmax(sc, 1), rel=1e-12), sc

    @pytest.mark.parametrize("holder", [1, 2])
    def test_takes_one_integral_call(self, between_calls, holder):
        priority_rate(load_config(None).encounter_scenario(eta=0.8), holder)
        assert len(between_calls) == 1

    def test_no_overlap_degenerates_to_solo(self):
        sc = scenario(eta=2.0)
        assert priority_rate(sc, 2) == single_train_rmax(sc, 1)
        assert priority_rate(sc, 1) == single_train_rmax(sc, 2)

    def test_full_overlap_against_decoding_oracle(self):
        # priority train runs clean inversion with its budget binding; the other
        # sees that constant (1 + SNR) as extra noise everywhere
        sc = scenario(eta=0.0)
        i2 = gain_integral(sc, 2, 0.0, 16.0, n=2_000_001)
        snr2 = sc.power_budget / (NOISE * i2 / 128.0)
        i1 = gain_integral(sc, 1, 0.0, 16.0, n=2_000_001)
        oracle = math.log2(1.0 + sc.power_budget / ((1.0 + snr2) * NOISE * i1 / 128.0))
        assert priority_rate(sc, 2) == pytest.approx(oracle, rel=1e-4)

    def test_lower_than_solo(self):
        sc = scenario(eta=0.8)
        assert priority_rate(sc, 2) < single_train_rmax(sc, 1)

    def test_rejects_bad_holder(self):
        with pytest.raises(ValueError, match="train must be 1 or 2"):
            priority_rate(scenario(), 3)


class TestNoPriorityAllocation:
    def test_zero_rate_recovers_solo_maximum(self):
        sc = scenario(eta=0.8)
        rate_1, lam, profile = no_priority_allocation(sc, 0.0)
        assert rate_1 == pytest.approx(single_train_rmax(sc, 1), rel=1e-12)
        assert lam == 0.0
        for t in (0.0, 2.0, 9.0, 15.0):
            assert profile.excitation(2, t) == 0.0

    def test_all_slack_batch_solves_nothing(self, between_calls):
        # one fixed-window call for both trains, whose shares at split 0 decide
        # that every point is slack; no usage at the far end, no final shares
        rate_1, lam, _ = no_priority_allocation(load_config(None).encounter_scenario(eta=0.8), 0.0)
        assert len(between_calls) == 1
        assert lam == 0.0

    def test_no_overlap_keeps_solo_rate_everywhere(self):
        sc = scenario(eta=2.0)
        solo = single_train_rmax(sc, 1)
        for fraction in (0.2, 0.6, 0.95):
            rate_1, _, _ = no_priority_allocation(sc, fraction * single_train_rmax(sc, 2))
            assert rate_1 == pytest.approx(solo, rel=1e-12)

    def test_power_budgets_bind(self):
        for eta in (0.0, 0.8, 1.6):
            sc = scenario(eta=eta)
            r2 = 0.5 * single_train_rmax(sc, 2)
            _, _, profile = no_priority_allocation(sc, r2)
            assert profile.power_use(1) == pytest.approx(1.0, rel=1e-7)
            assert profile.power_use(2) == pytest.approx(1.0, rel=1e-7)
            assert not profile.h2_budget_slack

    def test_budgets_bind_to_rounding(self):
        rng = random.Random(409)
        worst, bound = 0.0, 0
        for _ in range(12):
            sc = scenario(
                eta=rng.uniform(0.0, 1.9),
                p0=10.0 ** ((rng.uniform(37.0, 47.0) - 30.0) / 10.0),
                alpha0=rng.choice((2.0, 2.5, 3.0, 3.5, 4.0, 5.0)),
            )
            r_max_2 = single_train_rmax(sc, 2)
            for fraction in (0.1, 0.4, 0.7, 0.9, 0.99, 1.0):
                _, _, profile = no_priority_allocation(sc, fraction * r_max_2)
                for train in (1, 2):
                    # its array calls have the bits of three scalar calls
                    assert profile.power_use(train) == three_call_power_use(profile, train)
                if not profile.h2_budget_slack:
                    bound += 1
                    for train in (1, 2):
                        worst = max(worst, abs(profile.power_use(train) - 1.0))
        assert bound >= 48
        assert worst <= 1e-11

    def test_budgets_bind_against_the_exact_integrals(self):
        # independent of between: at the splits of seeded scenarios, of overlaps
        # shorter than 1e-6 half stretches, and near split 0, where a width taken
        # as the difference of the ends' arcsinh cancels
        rng = random.Random(410)
        cases = []
        for _ in range(12):
            eta, dbm = rng.uniform(0.0, 2.0), rng.uniform(37.0, 47.0)
            sc = scenario(eta=eta, p0=10.0 ** ((dbm - 30.0) / 10.0), alpha0=rng.choice((2.0, 3.0, 4.0, 5.0)))
            cases.append((sc, rng.uniform(0.02, 0.98) * (2.0 - eta)))
        for k in (6, 7, 9):
            for alpha0, share in ((3.0, 0.1), (3.0, 0.6), (4.0, 0.1), (4.0, 0.6)):
                cases.append((scenario(eta=2.0 - 10.0**-k, alpha0=alpha0), share * 10.0**-k))
        cases += [(scenario(eta=1.86, alpha0=4.0), 1.1e-3), (scenario(eta=0.039), 3.3e-4)]
        worst = 0.0
        for sc, split in cases:
            rate_2 = rate_2_at_split(sc, split)
            rate_1, found, profile = no_priority_allocation(sc, rate_2)
            assert not profile.h2_budget_slack and found == pytest.approx(split, rel=1e-6), sc
            for usage in exact_usage(sc, rate_1, rate_2, found):
                worst = max(worst, abs(usage - 1.0))
        assert worst <= 1e-12

    def test_steepest_boundary_point_matches_direct_quadrature(self):
        # At R2 = train 2's solo maximum the boundary is nearly vertical: a
        # solve that stops at |usage - 1| <= 1e-8 leaves R1 off by 7.7e-5
        # here, and a 1e-14 relative error in the path-gain integrals still
        # moves it by about 2.5e-10.
        sc = steepest_scenario()
        r2 = single_train_rmax(sc, 2)
        rate_1, _, _ = no_priority_allocation(sc, r2)
        assert rate_1 == pytest.approx(simpson_r1(sc, r2), abs=1e-9)

    def test_unconverged_solve_raises(self, monkeypatch):
        # a certified root can stop at the first evaluation, so the search gets none
        monkeypatch.setattr(encounter, "_MAX_ITERATIONS", 0)
        sc = scenario(eta=0.8)
        with pytest.raises(ConvergenceError) as info:
            no_priority_allocation(sc, 0.5 * single_train_rmax(sc, 2))
        assert isinstance(info.value, ArithmeticError)

    def test_split_point_solves_both_budgets_independently(self):
        # rebuild both budget integrals with the trapezoid oracle at the
        # returned (rate_1, split) and check they sit at the budget
        sc = scenario(eta=0.8)
        r2 = 0.5 * single_train_rmax(sc, 2)
        rate_1, lam, profile = no_priority_allocation(sc, r2)
        ts = lam * 8.0
        g1 = 2.0**rate_1 - 1.0
        g2 = 2.0**r2 - 1.0
        coeff = NOISE / (128.0 * sc.avg_power)
        use1 = (
            coeff
            * g1
            * (
                gain_integral(sc, 1, sc.entry_time, 0.0)
                + 2.0**r2 * gain_integral(sc, 1, 0.0, ts)
                + gain_integral(sc, 1, ts, sc.overlap_end)
            )
            / 16.0
        )
        use2 = (
            coeff
            * g2
            * (
                gain_integral(sc, 2, sc.overlap_end, 16.0)
                + gain_integral(sc, 2, 0.0, ts)
                + 2.0**rate_1 * gain_integral(sc, 2, ts, sc.overlap_end)
            )
            / 16.0
        )
        assert use1 == pytest.approx(1.0, rel=1e-6)
        assert use2 == pytest.approx(1.0, rel=1e-6)

    def test_constant_rate_structure(self):
        # effective post-decoding SINR is flat across each serving window
        sc = scenario(eta=0.8)
        r2 = 0.6 * single_train_rmax(sc, 2)
        rate_1, lam, profile = no_priority_allocation(sc, r2)
        for t in np.linspace(sc.entry_time + 1e-9, sc.overlap_end - 1e-9, 41):
            order = profile.decode_priority(t)
            snr1 = profile.snr(1, t)
            if order is DecodePriority.H1_FIRST:
                sinr = snr1 / (1.0 + profile.snr(2, t))
            else:
                sinr = snr1
            assert math.log2(1.0 + sinr) == pytest.approx(rate_1, abs=1e-9)
        for t in np.linspace(1e-9, 16.0 - 1e-9, 41):
            order = profile.decode_priority(t)
            snr2 = profile.snr(2, t)
            if order is DecodePriority.H2_FIRST:
                sinr = snr2 / (1.0 + profile.snr(1, t))
            else:
                sinr = snr2
            assert math.log2(1.0 + sinr) == pytest.approx(r2, abs=1e-9)

    def test_mac_constraints_hold_pointwise(self):
        sc = scenario(eta=0.8)
        r2 = 0.5 * single_train_rmax(sc, 2)
        _, _, profile = no_priority_allocation(sc, r2)
        for t in np.linspace(sc.entry_time, sc.exit_time, 400):
            s1, s2, s12 = profile.mac_slacks(float(t))
            assert s1 >= -1e-9 and s2 >= -1e-9 and s12 >= -1e-9

    def test_decode_priority_segments(self):
        sc = scenario(eta=0.8)
        r2 = 0.5 * single_train_rmax(sc, 2)
        _, lam, profile = no_priority_allocation(sc, r2)
        ts = lam * 8.0
        assert profile.decode_priority(sc.entry_time / 2) is DecodePriority.SINGLE
        assert profile.decode_priority(ts / 2) is DecodePriority.H1_FIRST
        assert profile.decode_priority((ts + sc.overlap_end) / 2) is DecodePriority.H2_FIRST
        assert profile.decode_priority((sc.overlap_end + 16.0) / 2) is DecodePriority.SINGLE
        # exact boundaries: the overlap holds both its ends, and at the split train 2 is decoded first
        z1, z2 = 2.0**profile.rate_1 - 1.0, 2.0**profile.rate_2 - 1.0
        assert profile.snr(1, 0.0) == z1 * 2.0**profile.rate_2
        assert profile.decode_priority(0.0) is DecodePriority.H1_FIRST
        assert profile.decode_priority(profile._split_time) is DecodePriority.H2_FIRST
        assert profile.snr(1, profile._split_time) == z1
        assert profile.snr(2, profile._split_time) == z2 * 2.0**profile.rate_1
        assert profile.decode_priority(sc.overlap_end) is DecodePriority.H2_FIRST

    def test_full_rate_pushes_split_to_boundary(self):
        sc = scenario(eta=0.8)
        r2max = single_train_rmax(sc, 2)
        _, lam, _ = no_priority_allocation(sc, r2max)
        assert lam == pytest.approx(2.0 - 0.8, abs=1e-6)

    def test_excessive_rate_rejected(self):
        sc = scenario(eta=0.8)
        with pytest.raises(InfeasibleRateError):
            no_priority_allocation(sc, single_train_rmax(sc, 2) * 1.01)
        with pytest.raises(InfeasibleRateError):
            no_priority_allocation(sc, -0.1)

    def test_nan_rate_rejected(self):
        with pytest.raises(InfeasibleRateError):
            no_priority_allocation(scenario(eta=0.8), math.nan)

    def test_profiles_nonnegative(self):
        sc = scenario(eta=0.8)
        _, _, profile = no_priority_allocation(sc, 2.0)
        for t in np.linspace(sc.entry_time, sc.exit_time, 101):
            assert profile.excitation(1, float(t)) >= 0.0
            assert profile.excitation(2, float(t)) >= 0.0


class TestProfileSchedule:
    @pytest.mark.parametrize("alpha0", [2.0, 3.5, 5.0])
    @pytest.mark.parametrize("eta", [0.0, 0.4, 0.8, 1.6, 1.99, 2.0])
    def test_excitation_integrates_to_power_use(self, eta, alpha0):
        # The per-time profile and power_use state one schedule. A fixed
        # Gauss-Legendre rule on each piece between the schedule's breakpoints
        # evaluates no breakpoint: at eta = 2 the overlap is the single boosted
        # point t = 0, which an endpoint rule such as Simpson's would weigh.
        sc = scenario(eta=eta, alpha0=alpha0)
        nodes, weights = np.polynomial.legendre.leggauss(16)
        r_max_2 = single_train_rmax(sc, 2)
        for fraction in (0.0, 0.3, 0.7, 1.0):
            _, _, profile = no_priority_allocation(sc, fraction * r_max_2)
            cuts = sorted({sc.entry_time, 0.0, profile._split_time, sc.overlap_end, sc.exit_time})
            for train in (1, 2):
                a, b = encounter._serving_window(sc, train)
                total = 0.0
                for lo, hi in zip(cuts, cuts[1:]):
                    if not a <= lo < hi <= b:
                        continue
                    edges = np.linspace(lo, hi, 17)  # 16 panels
                    for start, half in zip(edges[:-1], 0.5 * np.diff(edges)):
                        ts = (start + half * (1.0 + nodes)).tolist()
                        total += half * sum(w * profile.excitation(train, t) for t, w in zip(ts, weights))
                used = total * sc.speed / (2.0 * sc.half_coverage)
                assert used == pytest.approx(profile.power_use(train), rel=1e-11), (fraction, train)

    @pytest.mark.parametrize(
        "call",
        [
            lambda p, t: p.snr(1, t),
            lambda p, t: p.snr(2, t),
            lambda p, t: p.excitation(1, t),
            lambda p, t: p.excitation(2, t),
            lambda p, t: p.mac_slacks(t),
        ],
        ids=["snr-1", "snr-2", "excitation-1", "excitation-2", "mac_slacks"],
    )
    def test_time_outside_window_raises(self, call):
        sc = scenario(eta=0.8)
        _, _, profile = no_priority_allocation(sc, 0.5 * single_train_rmax(sc, 2))
        before, after = math.nextafter(sc.entry_time, -math.inf), math.nextafter(sc.exit_time, math.inf)
        for t in (math.nan, -100.0, before, after, -math.inf, math.inf):
            with pytest.raises(EncounterWindowError):
                call(profile, t)
        call(profile, sc.entry_time)
        call(profile, sc.exit_time)

    @pytest.mark.parametrize("train", [0, 3])
    @pytest.mark.parametrize(
        "call",
        [
            lambda p, k: single_train_rmax(p.scenario, k),
            lambda p, k: p.power_use(k),
            lambda p, k: p.snr(k, 1.0),
            lambda p, k: p.excitation(k, 1.0),
        ],
        ids=["single_train_rmax", "power_use", "snr", "excitation"],
    )
    def test_bad_train_rejected(self, call, train):
        profile = AllocationProfile(scenario(eta=0.8), 1.0, 1.0, 0.5)
        with pytest.raises(ValueError, match="train must be 1 or 2"):
            call(profile, train)

    @pytest.mark.parametrize(
        "fields, name",
        [
            ((1.0, 1.0, math.nan), "split_parameter"),
            ((1.0, 1.0, -math.inf), "split_parameter"),
            ((math.nan, -1.0, 0.5), "rate_1"),
            ((math.inf, 1.0, 0.5), "rate_1"),
            ((1.0, -1.0, 0.5), "rate_2"),
            ((1.0, math.nan, 0.5), "rate_2"),
        ],
    )
    def test_bad_field_rejected(self, fields, name):
        # a nan split used to read as decodable in mac_slacks while power_use
        # raised from inside between; a nan rate gave nan power use
        with pytest.raises(ValueError, match=name):
            AllocationProfile(scenario(eta=0.8), *fields)

    def test_edge_fields_accepted(self):
        # zero rates, and splits outside the overlap, which power_use clamps
        sc = scenario(eta=0.8)
        for split in (-1.0, 0.0, 5.0):
            profile = AllocationProfile(sc, 0.0, 0.0, split)
            assert profile.power_use(1) == profile.power_use(2) == 0.0

    def test_per_time_methods_take_no_integral_per_instant(self, between_calls):
        sc = scenario(eta=0.8)
        profile = AllocationProfile(sc, 1.0, 2.0, 0.5)
        times = np.linspace(sc.entry_time, sc.exit_time, 50).tolist()
        for t in times:
            profile.mac_slacks(t)
        assert len(between_calls) == 0
        for t in times:
            profile.excitation(1, t)
            profile.excitation(2, t)
        # at most both trains' fixed windows, once per profile
        assert len(between_calls) <= 1


class TestNewtonSearch:
    def test_log_usage_slope_matches_central_difference(self, hook_search):
        searches = []
        hook_search(lambda f, n: searches.append(f) or f)
        checked = 0
        for sc, r2 in seeded_scenarios(1901, 36):
            searches.clear()
            _, root, profile = no_priority_allocation(sc, r2)
            if profile.h2_budget_slack:
                continue
            checked += 1
            (f,) = searches
            span = 2.0 - sc.entry_offset
            lam = np.array([0.25 * span, 0.5 * span, 0.75 * span, root])
            i = np.zeros(lam.size, dtype=int)
            _, slope, curvature = f(lam, i)
            numeric = central_difference(lambda x: f(x, i)[0], lam)
            np.testing.assert_allclose(slope, numeric, rtol=1e-6, atol=SLOPE_ABS)
            numeric = central_difference(lambda x: f(x, i)[1], lam)
            np.testing.assert_allclose(curvature, numeric, rtol=1e-6, atol=SLOPE_ABS)
        assert checked >= 30

    def test_gap_slope_matches_central_difference(self):
        for sc, _ in seeded_scenarios(1902, 36):
            trains = encounter._trains(sc)
            shares, rates = encounter._shares(sc, trains), _common_rates(trains)
            lam = np.linspace(0.05, 0.95, 7) * (2.0 - sc.entry_offset)
            slope = rates(*shares(lam))[2]
            numeric = central_difference(lambda x: np.subtract(*rates(*shares(x))[:2]), lam)
            np.testing.assert_allclose(slope, numeric, rtol=1e-6, atol=SLOPE_ABS)

    @pytest.mark.parametrize(
        "sc",
        [steepest_scenario(), scenario(eta=0.8), scenario(eta=1.0, p0=10.0**1.7, alpha0=5.0)],
        ids=["steepest", "default", "eta1-alpha5"],
    )
    def test_near_end_roots_converge_and_bind(self, sc):
        # the roots sit by the far end, where log usage is flat: a Newton step
        # from the first point there leaves the bracket and is bisected
        r_max_2 = single_train_rmax(sc, 2)
        for k in range(3, 10):
            _, lam, profile = no_priority_allocation(sc, r_max_2 * (1.0 - 10.0**-k))
            assert not profile.h2_budget_slack
            assert 0.0 < lam < 2.0 - sc.entry_offset
            for train in (1, 2):
                assert abs(profile.power_use(train) - 1.0) <= 1e-11, (k, train)

    @pytest.mark.parametrize("bad", [lambda s: 0.0 * s, lambda s: -s, lambda s: s * np.nan])
    def test_useless_slope_falls_back_to_bisection(self, hook_search, bad):
        # zero, wrong-signed or nan slopes: the search bisects and finds the
        # same split, with no numpy warning (the suite makes those errors). The
        # curvature still reaches the search, whose certificate must refuse each
        sc = steepest_scenario()
        r2 = 0.999 * single_train_rmax(sc, 2)
        _, good, _ = no_priority_allocation(sc, r2)

        def spoiled(f, n):
            def g(x, i):
                value, slope, *rest = f(x, i)
                return value, bad(slope), *rest

            return g

        hook_search(spoiled)
        _, lam, profile = no_priority_allocation(sc, r2)
        assert lam == pytest.approx(good, abs=1e-13)
        for train in (1, 2):
            assert abs(profile.power_use(train) - 1.0) <= 1e-11

    @pytest.mark.parametrize(
        "sc, grid",
        [
            # Newton alone cycles between two points inside the bracket
            (
                scenario(eta=0.7206172105124768, p0=10.0 ** ((42.05122250567635 - 30.0) / 10.0)),
                201,
            ),
            # log usage is flat on its rounding floor, 1.6e-14 above tol,
            # for hundreds of ulps before it changes sign
            (
                scenario(
                    eta=1.9934050851470186, p0=10.0 ** ((45.05467100775345 - 30.0) / 10.0), alpha0=4.0
                ),
                201,
            ),
            # the same over some 45,000 ulps of a 7.7e-5 bracket
            (
                EncounterScenario(
                    half_coverage=569.5372608544059,
                    speed=73.85304690375852,
                    perpendicular_distance=86.46463330659445,
                    antenna_height=45.88388123357775,
                    path_loss_exponent=3.646047927472141,
                    avg_power=25.998606899863017,
                    noise_power=2.3811299693168544e-17,
                    entry_offset=1.9999231812572094,
                    beam_weight_1=408.1438587358179,
                    beam_weight_2=167.52138112606033,
                ),
                1001,
            ),
        ],
        ids=["cycle", "floor", "wide-floor"],
    )
    def test_hard_roots_take_few_steps(self, hook_search, sc, grid):
        counts = []

        def counted(f, n):
            count = np.zeros(n, dtype=int)
            counts.append(count)

            def g(x, i):
                np.add.at(count, i, 1)
                return f(x, i)

            return g

        hook_search(counted)
        rate_region(sc, grid)
        assert max(count.max(initial=0) for count in counts) <= 40

    def test_short_overlap_roots_end_within_tolerance(self, hook_search, monkeypatch):
        # each searched root stops at |log usage| <= tol, evaluated there or certified one
        # Newton step past its last evaluation, none on a collapsed bracket
        records = []
        hook_search(recorded(records))
        value = region_roots(monkeypatch, floor_scenario(), 201)[0]
        ((count, _),) = records
        assert count.sum() > 0
        assert (np.abs(value) <= 1e-14).all()  # the region search's stop, evaluated afresh

    def test_roots_evaluated_afresh_stay_within_tolerance(self, monkeypatch):
        # a certified root is not evaluated by the search; afresh, its log usage is still
        # within the 1e-14 stop (9.99e-15 at worst here), and R1 from the x1 carried along
        # the certified step is R1 from a fresh x1 to the integrals' rounding (2.0e-15 here)
        rng, certified = random.Random(1501), 0
        for j in range(60):
            eta = (rng.uniform(0.0, 1e-9), 2.0 - rng.uniform(0.0, 1e-9), rng.uniform(0.0, 2.0))[j % 3]
            dbm = rng.uniform(30.0, 50.0)
            sc = scenario(eta=eta, p0=10.0 ** ((dbm - 30.0) / 10.0), alpha0=rng.uniform(2.0, 5.0))
            value, fresh, returned, sure = region_roots(monkeypatch, sc, 201)
            assert (np.abs(value) <= 1e-14).all(), sc
            np.testing.assert_allclose(returned, fresh, rtol=4e-15, atol=0.0)
            certified += np.count_nonzero(sure)
        assert certified >= 5000

    def test_steep_roots_are_never_certified_above_tolerance(self, monkeypatch):
        # scenario 3881 of README's draw: where one ulp of the split moves log usage by more
        # than the stop, roots end above it where Newton's step rounds onto x (170 here).
        # The certificate refuses steps where that ulp moves it by more than tol/4, so the
        # roots it certifies all end within tolerance afresh
        value, fresh, returned, sure = region_roots(monkeypatch, readme_scenario(3881), 361)
        assert np.count_nonzero(np.abs(value) > 1e-14) > 100
        assert np.count_nonzero(sure) >= 10
        assert (np.abs(value[sure]) <= 1e-14).all()
        np.testing.assert_allclose(returned, fresh, rtol=4e-15, atol=0.0)

    def test_steep_roots_stop_where_newton_rounds_onto_x(self, hook_search):
        # log usage so steep that one ulp of the split moves it by more than the 1e-14
        # stop, so no float meets it: each such root ends where Newton's step rounds
        # back onto x, not by bisecting its bracket down to adjacent floats (53 evaluations)
        sc = EncounterScenario(
            half_coverage=1176.9920424505285,
            speed=43.22160998090743,
            perpendicular_distance=70.90439737767346,
            antenna_height=5.782130537938071,
            path_loss_exponent=4.344184659277651,
            avg_power=39.68065712879311,
            noise_power=2.203473275597475e-13,
            entry_offset=0.2084336998943772,
            beam_weight_1=201.99272741763357,
            beam_weight_2=2.1087007309007086,
        )
        counts, steep = [], []

        def wrap(f, n):
            count, ulp_step = np.zeros(n, dtype=int), np.zeros(n)
            counts.append(count)
            steep.append(ulp_step)

            def g(x, i):
                out = f(x, i)
                np.add.at(count, i, 1)
                ulp_step[i] = np.abs(out[1]) * np.spacing(x)
                return out

            return g

        hook_search(wrap)
        rate_region(sc, 201)
        assert max(step.max(initial=0.0) for step in steep) > 1e-14
        assert max(count.max(initial=0) for count in counts) <= 13

    def test_random_scenarios_take_few_steps(self, hook_search):
        # a third each with eta within 1e-9 of 0, within 1e-9 of 2 and uniform
        rng = random.Random(1500)
        records = []
        hook_search(recorded(records))
        for j in range(200):
            eta = (rng.uniform(0.0, 1e-9), 2.0 - rng.uniform(0.0, 1e-9), rng.uniform(0.0, 2.0))[j % 3]
            dbm = rng.uniform(30.0, 50.0)
            sc = scenario(eta=eta, p0=10.0 ** ((dbm - 30.0) / 10.0), alpha0=rng.uniform(2.0, 5.0))
            rate_region(sc, 361)
            symmetric_rate(sc)
        assert sum(count.sum() for count, _ in records) > 0
        assert max(count.max(initial=0) for count, _ in records) <= 8

    def test_bisection_steps_stay_bracketed_per_element(self):
        # a true, a zero and a wrong-signed slope in one batch, each in its own
        # bracket, from a start inside it, a nan start and one past its end:
        # each element keeps its bracket and has the bits of its lone search
        roots = np.array([0.3, 1.0 / 3.0, 0.7])
        slopes = np.array([1.0, 0.0, -1.0])
        lo, hi = np.array([0.25, 0.0, 0.5]), np.array([0.5, 1.0, 0.75])
        starts = np.array([0.31, np.nan, 0.9])
        seen = []

        def search(j):
            def f(x, i):
                seen.append((x, i))
                return x - roots[j][i], slopes[j][i]

            return encounter._newton(f, lo[j], hi[j], lo[j] - roots[j], hi[j] - roots[j], 1e-14, starts[j])

        lam = search(slice(None))
        np.testing.assert_allclose(lam, roots, rtol=0.0, atol=1e-14)
        for x, i in seen:
            assert ((lo[i] < x) & (x < hi[i])).all()
        assert lam.tolist() == [search([j]).item() for j in range(3)]


class TestRateRegion:
    @pytest.mark.parametrize("eta", [0.0, 0.4, 0.8, 1.2, 1.6])
    def test_default_grid_takes_few_integral_calls(self, between_calls, eta):
        # a work-count guard: one call for both trains' fixed windows, one for
        # the split table and one per pass make 3-4 here (5-6 with the last Newton
        # step evaluated instead of certified); starts at the false-position point
        # of the whole overlap took 8-10, and two calls per step, integrals at the
        # overlap ends and a final call at the roots 22-26
        rate_region(load_config(None).encounter_scenario(eta=eta), 201)
        assert len(between_calls) <= 4

    def test_default_grid_takes_few_steps_per_point(self, hook_search):
        # roots started from the split table take about 1.26 evaluations each here,
        # with the last Newton step certified from the curvature instead of evaluated;
        # 2.56 when each is evaluated, and about 5.5 from the false-position point of
        # the whole overlap. The bound leaves 0.24 of margin
        counts = []

        def counted(f, n):
            count = np.zeros(n, dtype=int)
            counts.append(count)

            def g(x, i):
                np.add.at(count, i, 1)
                return f(x, i)

            return g

        hook_search(counted)
        for eta in (0.0, 0.4, 0.8, 1.2, 1.6):
            rate_region(load_config(None).encounter_scenario(eta=eta), 201)
        assert len(counts) == 5
        assert sum(c.sum() for c in counts) / sum(c.size for c in counts) <= 1.5

    @pytest.mark.parametrize("eta", [0.0, 0.4, 0.8, 1.2, 1.6])
    def test_default_grid_takes_at_most_two_passes(self, hook_search, eta):
        # each pass is one batched evaluation of every unfinished point: 3-4 when the
        # last Newton step of each root is evaluated, 1-2 when it is certified
        passes = []

        def counted(f, n):
            def g(x, i):
                passes.append(i.size)
                return f(x, i)

            return g

        hook_search(counted)
        rate_region(load_config(None).encounter_scenario(eta=eta), 201)
        assert 1 <= len(passes) <= 2

    def test_corner_is_the_priority_rate(self):
        # a root within tolerance at the overlap end stays there: walking
        # inward, where log usage is nearly flat, moves the corner by 1e-12
        rng = random.Random(2529)
        for _ in range(300):
            sc = scenario(
                eta=rng.uniform(0.0, 2.0),
                p0=10.0 ** ((rng.uniform(37.0, 47.0) - 30.0) / 10.0),
                alpha0=rng.uniform(2.0, 5.0),
            )
            assert rate_region(sc, 201).pairs[-1][0] == pytest.approx(priority_rate(sc, 2), rel=1e-14), sc

    def test_table_brackets_every_root(self, monkeypatch):
        # log usage falls along the split at every table point, and each search
        # runs between adjacent table points whose values change sign, or ends
        # at a table point within tolerance
        brackets, newton = [], encounter._newton

        def spied(f, lo, hi, f_lo, f_hi, tol, x0=None):
            brackets.append((lo, hi, f_lo, f_hi))
            return newton(f, lo, hi, f_lo, f_hi, tol, x0)

        monkeypatch.setattr(encounter, "_newton", spied)
        rng = random.Random(2530)
        for _ in range(60):
            sc = scenario(
                eta=rng.uniform(0.0, 2.0),
                p0=10.0 ** ((rng.uniform(37.0, 47.0) - 30.0) / 10.0),
                alpha0=rng.uniform(2.0, 5.0),
            )
            trains = encounter._trains(sc)
            (c1, c2), r_max_2 = trains.snr, trains.rmax[1]
            lam, x1, g2, _, _ = encounter._split_table(sc, trains, encounter._shares(sc, trains))
            z = 2.0 ** np.linspace(0.0, r_max_2, 101)[:, None] - 1.0
            usage = z * (1.0 + c1 / (1.0 + z * x1) * g2) / c2
            bound = usage[:, 0] > 1.0
            assert (np.diff(np.log(usage[bound]), axis=1) <= 0.0).all(), sc
            brackets.clear()
            rate_region(sc, 101)
            if not bound.any():
                assert brackets == []
                continue
            ((lo, hi, f_lo, f_hi),) = brackets
            k_lo, k_hi = np.searchsorted(lam, lo), np.searchsorted(lam, hi)
            assert (lam[k_lo] == lo).all() and (lam[k_hi] == hi).all(), sc
            assert np.isin(k_hi - k_lo, (0, 1)).all(), sc
            tiny = (np.abs(f_lo) <= 1e-14) | (np.abs(f_hi) <= 1e-14)
            assert (((f_lo > 0.0) != (f_hi > 0.0)) | tiny).all(), sc

    def test_threshold_lookup_brackets_as_the_dense_rule(self, monkeypatch):
        # each bound point's cell is the one that ends at the first table point
        # whose log usage is not above tol, on a regular grid and on R2s planted
        # within a few ulps of every table point's threshold, where the lookup
        # alone puts some points one cell off
        brackets, newton, tol = [], encounter._newton, 1e-14

        def spied(f, lo, hi, f_lo, f_hi, tol, x0=None):
            brackets.append((lo, hi))
            return newton(f, lo, hi, f_lo, f_hi, tol, x0)

        monkeypatch.setattr(encounter, "_newton", spied)
        rng, off = random.Random(2531), 0
        for _ in range(40):
            sc = scenario(
                eta=rng.uniform(0.0, 1.95),
                p0=10.0 ** ((rng.uniform(37.0, 47.0) - 30.0) / 10.0),
                alpha0=rng.uniform(2.0, 5.0),
            )
            trains = encounter._trains(sc)
            (c1, c2), r_max_2 = trains.snr, trains.rmax[1]
            table = encounter._split_table(sc, trains, encounter._shares(sc, trains))
            thresholds = encounter._thresholds(table, trains, tol)
            r2 = [r_max_2 * j / 100 for j in range(101)]
            for r in np.log2(1.0 + thresholds).tolist():
                for k in range(-3, 4):
                    r2.append(r)
                    for _ in range(abs(k)):
                        r2[-1] = math.nextafter(r2[-1], math.copysign(math.inf, k))
            r2 = np.array([r for r in r2 if 0.0 < r <= r_max_2])
            z = 2.0**r2 - 1.0
            bound = z * (1.0 + c1 * trains.end_shares[0][1]) / c2 > 1.0
            z = z[bound, None]
            above = np.log(z * (1.0 + c1 / (1.0 + z * table[1]) * table[2]) / c2) > tol
            hi = np.where(above[:, -1], encounter._TABLE, above.argmin(axis=1))
            off += np.count_nonzero(np.minimum(np.searchsorted(thresholds, z[:, 0]), encounter._TABLE) != hi)
            brackets.clear()
            encounter._allocate(sc, r2, trains)
            ((lo, hi_lam),) = brackets
            assert lo.tolist() == table[0, np.maximum(hi - 1, 0)].tolist(), sc
            assert hi_lam.tolist() == table[0, hi].tolist(), sc
        assert off >= 100  # the fix-up ran

    @pytest.mark.parametrize("eta", [0.0, 0.8, 1.6])
    def test_dense_grid_allocates_little(self, eta):
        # the bracket lookup builds no (grid, table) matrix: at 1001 points the
        # traced peak was 1.34-1.38 MiB with one, about 0.83 MiB without
        sc = load_config(None).encounter_scenario(eta=eta)
        rate_region(sc, 1001)  # anything built once per process is not the solve's
        tracemalloc.start()
        try:
            rate_region(sc, 1001)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2**20

    @pytest.mark.parametrize("eta, most", [(0.0, 2), (0.8, 2), (1.6, 2), (2.0, 1)])
    def test_default_symmetric_rate_takes_few_integral_calls(self, between_calls, eta, most):
        # the solo caps, both end gaps and the rates at the root take no more
        # calls than the fixed window integrals and the Newton steps
        symmetric_rate(load_config(None).encounter_scenario(eta=eta))
        assert len(between_calls) <= most

    @pytest.mark.parametrize("eta", [0.0, 0.8, 2.0])
    def test_allocation_takes_its_fixed_windows_in_one_call(self, monkeypatch, between_calls, eta):
        sc = load_config(None).encounter_scenario(eta=eta)
        r2 = 0.5 * single_train_rmax(sc, 2)
        trains, inside = encounter._trains, []

        def counted(sc):
            before = len(between_calls)
            out = trains(sc)
            inside.append(len(between_calls) - before)
            return out

        monkeypatch.setattr(encounter, "_trains", counted)
        no_priority_allocation(sc, r2)
        assert inside == [1]

    @pytest.mark.parametrize("eta", [0.0, 0.8, 1.6, 2.0])
    def test_no_solve_integrates_at_the_overlap_ends(self, monkeypatch, eta):
        # the shares at split 0 and at the overlap end are the fixed window
        # integrals' ratios, so only _trains takes an interval there
        sc = load_config(None).encounter_scenario(eta=eta)
        t_ov, r2, intervals = sc.overlap_end, 0.5 * single_train_rmax(sc, 2), []
        between = CumulativeIntegral.between

        def spied(self, a, b):
            intervals.append(np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float)))
            return between(self, a, b)

        monkeypatch.setattr(CumulativeIntegral, "between", spied)
        solves = [
            lambda: rate_region(sc, 201),
            lambda: no_priority_allocation(sc, 0.0),
            lambda: no_priority_allocation(sc, r2),
            lambda: symmetric_rate(sc),
        ]
        for solve in solves:
            intervals.clear()
            solve()
            fixed, *steps = intervals
            assert fixed[0].shape == (2, 3)  # _trains: both trains' fixed windows
            windows = set(zip(fixed[0].ravel().tolist(), fixed[1].ravel().tolist()))
            for lo, hi in steps:
                at_zero = (lo == 0.0) & (hi == 0.0)
                at_end = (lo == t_ov) & (hi == t_ov)
                assert not (at_zero | at_end).any(), (eta, solve)
                assert not set(zip(lo.ravel().tolist(), hi.ravel().tolist())) & windows, (eta, solve)

    def test_boundary_monotone_and_endpoints(self):
        sc = scenario(eta=0.8)
        region = rate_region(sc, 9)
        r1s = [p[0] for p in region.pairs]
        assert r1s == sorted(r1s, reverse=True)
        assert region.pairs[0][0] == pytest.approx(single_train_rmax(sc, 1), rel=1e-12)
        assert region.pairs[0][1] == 0.0
        assert region.pairs[-1][1] == pytest.approx(single_train_rmax(sc, 2), rel=1e-15)

    def test_no_overlap_gives_rectangle(self):
        region = rate_region(scenario(eta=2.0), 7)
        r1s = {p[0] for p in region.pairs}
        assert max(r1s) - min(r1s) < 1e-9

    def test_r1_matches_exact_integrals(self):
        # judged against exact_region, which shares no integral and no search with the
        # library: README's steep scenarios with the exponent rounded, and seeded ones with
        # the entry offset within 1e-9 of 0 and of 2. At R2 = train 2's solo maximum the
        # boundary is vertical, so there R1 must be exact at an R2 within 4e-15 relative
        rng = random.Random(1802)
        scenarios = [
            dataclasses.replace(sc, path_loss_exponent=float(round(sc.path_loss_exponent)))
            for sc in map(readme_scenario, (3823, 4158, 5521, 6553))
        ]
        for j in range(12):
            eta = (rng.uniform(0.0, 1e-9), 2.0 - rng.uniform(0.0, 1e-9), rng.uniform(0.0, 2.0))[j % 3]
            p0 = 10.0 ** ((rng.uniform(37.0, 47.0) - 30.0) / 10.0)
            scenarios.append(scenario(eta=eta, p0=p0, alpha0=(2.0, 3.0, 4.0)[j // 4]))
        worst, bound = 0.0, 0
        for sc in scenarios:
            rate_1, rate_2 = np.array(rate_region(sc, 11).pairs).T
            exact = np.array(exact_region(sc, rate_2[:-1]))
            solved = rate_1[:-1] < rate_1[0]  # below the flat part, where the budgets bind
            bound += np.count_nonzero(solved)
            worst = max(worst, np.max(np.abs(rate_1[:-1] - exact) / exact))
            late, early = exact_region(sc, [rate_2[-1] * (1.0 + 4e-15), rate_2[-1] * (1.0 - 4e-15)])
            assert late * (1.0 - 3e-14) <= rate_1[-1] <= early * (1.0 + 3e-14), sc
        assert bound >= 100
        assert worst <= 3e-14

    def test_worst_case_nested_in_late_entry(self):
        # full-overlap boundary sits inside the eta=1.6 boundary pointwise
        r0 = rate_region(scenario(eta=0.0), 9)
        r16 = rate_region(scenario(eta=1.6), 9)
        for (a, _), (b, _) in zip(r0.pairs, r16.pairs):
            assert a <= b + 1e-9

    def test_grid_size_validated(self):
        with pytest.raises(ValueError):
            rate_region(scenario(), 1)
        with pytest.raises(TypeError):
            rate_region(scenario(), 201.0)

    @pytest.mark.parametrize("n", [2, 3, 101, 201, 1001])
    def test_r2_column_is_the_uniform_grid(self, n):
        rng = random.Random(n)
        for _ in range(5):
            sc = scenario(eta=rng.uniform(0.0, 2.0), alpha0=rng.uniform(2.0, 5.0))
            r_max_2 = single_train_rmax(sc, 2)
            assert [r2 for _, r2 in rate_region(sc, n).pairs] == [r_max_2 * j / (n - 1) for j in range(n)]

    def test_flat_part_is_the_solo_rate(self):
        # R2 = 0 and every slack point carry train 1's solo maximum itself, not
        # a restatement of it that rounds differently
        rng = random.Random(2525)
        slack = 0
        for _ in range(200):
            sc = scenario(
                eta=rng.uniform(0.0, 2.0),
                p0=10.0 ** ((rng.uniform(37.0, 47.0) - 30.0) / 10.0),
                alpha0=rng.uniform(2.0, 5.0),
            )
            solo = single_train_rmax(sc, 1)
            region = rate_region(sc, 5)
            assert region.pairs[0][0] == solo
            r_max_2 = single_train_rmax(sc, 2)
            for fraction in (0.0, 0.001, 0.01, 0.03, 0.1, 0.25):
                rate_1, _, profile = no_priority_allocation(sc, fraction * r_max_2)
                if profile.h2_budget_slack:
                    slack += 1
                    assert rate_1 == solo, (sc, fraction)
        assert slack >= 800

    def test_split_shares_vanish_at_the_overlap_ends(self):
        # the split's time is lam*L/v in overlap_end's order, so lam = 2 - eta is overlap_end
        rng = random.Random(2526)
        for _ in range(200):
            sc = dataclasses.replace(
                scenario(eta=rng.uniform(0.0, 2.0)),
                half_coverage=rng.uniform(200.0, 1500.0),
                speed=rng.uniform(20.0, 150.0),
            )
            trains = encounter._trains(sc)
            shares = encounter._shares(sc, trains)
            at_zero, at_end = trains.end_shares
            assert at_zero[0] == 0.0 and at_end[1] == 0.0
            # the closed-form end shares have the bits of the integrals they replace
            assert shares(np.zeros(1))[0][0] == 0.0
            assert shares(np.zeros(1))[1][0] == at_zero[1], sc
            assert shares(np.full(1, 2.0 - sc.entry_offset))[0][0] == at_end[0], sc
            assert shares(np.full(1, 2.0 - sc.entry_offset))[1][0] == 0.0, sc

    def test_grid_point_has_the_bits_of_a_lone_solve(self):
        sc = scenario(eta=0.8, alpha0=3.5)
        region = rate_region(sc, 1001)
        slack = 0
        for r1, r2 in region.pairs:
            alone, _, profile = no_priority_allocation(sc, r2)
            assert alone == r1, r2
            slack += profile.h2_budget_slack
        assert 0 < slack < 1000


class TestTfdsBaseline:
    def test_takes_one_integral_call(self, between_calls):
        tfds_baseline(load_config(None).encounter_scenario(eta=0.8), 201)
        assert len(between_calls) == 1

    def test_segment_endpoints_and_midpoint(self):
        sc = scenario(eta=0.0)
        base = tfds_baseline(sc, 5)
        r1max = single_train_rmax(sc, 1)
        r2max = single_train_rmax(sc, 2)
        assert base.pairs[-1] == (pytest.approx(r1max), pytest.approx(0.0))
        assert base.pairs[0] == (pytest.approx(0.0), pytest.approx(r2max))
        assert base.pairs[2][0] == pytest.approx(r1max / 2, rel=1e-12)
        assert base.pairs[2][1] == pytest.approx(r2max / 2, rel=1e-12)

    def test_entry_offset_changes_no_pair(self):
        # each solo maximum integrates one train's whole pass, which the offset only shifts
        # in time, so the rate-region runner takes its baseline at offset 0
        scenarios = [sc for sc, _ in seeded_scenarios(1601, 12)] + [readme_scenario(j) for j in (5, 17, 3823)]
        for sc in scenarios:
            at_zero, *shifted = (
                tfds_baseline(dataclasses.replace(sc, entry_offset=eta), 21).pairs
                for eta in (0.0, 0.37, 0.8, 1.6, 2.0)
            )
            np.testing.assert_allclose(shifted, [at_zero] * 4, rtol=2e-15, atol=0.0)

    def test_dominated_by_full_overlap_region(self):
        sc = scenario(eta=0.0)
        grid = 9
        region = rate_region(sc, grid)
        r1max = single_train_rmax(sc, 1)
        r2max = single_train_rmax(sc, 2)
        for r1, r2 in region.pairs:
            sharing = r1max * (1.0 - r2 / r2max)
            assert r1 >= sharing - 1e-9


class TestSymmetricRate:
    def test_rectangle_case(self):
        sc = scenario(eta=2.0)
        expected = min(single_train_rmax(sc, 1), single_train_rmax(sc, 2))
        assert symmetric_rate(sc) == pytest.approx(expected, rel=1e-12)

    def test_fixed_point_property(self):
        sc = scenario(eta=0.8)
        r0 = symmetric_rate(sc)
        rate_1, _, _ = no_priority_allocation(sc, r0)
        assert rate_1 == pytest.approx(r0, abs=1e-6)
        above, _, _ = no_priority_allocation(sc, min(r0 * 1.01, single_train_rmax(sc, 2)))
        assert above < r0 * 1.01

    def test_common_rate_roots_bind_their_budgets(self):
        # at any split, each train's closed-form common rate spends exactly
        # that train's budget when both trains carry it
        rng = random.Random(2024)
        worst = 0.0
        for _ in range(40):
            sc = scenario(
                eta=rng.uniform(0.0, 1.9),
                p0=10.0 ** ((rng.uniform(37.0, 47.0) - 30.0) / 10.0),
                alpha0=rng.choice((2.0, 2.5, 3.0, 3.5, 4.0, 5.0)),
            )
            lams = [rng.uniform(0.0, 2.0 - sc.entry_offset) for _ in range(5)]
            trains = encounter._trains(sc)
            shares, rates = encounter._shares(sc, trains), _common_rates(trains)
            r1s, r2s, _ = rates(*shares(np.array(lams)))
            for lam, r1, r2 in zip(lams, r1s.tolist(), r2s.tolist()):
                use1 = AllocationProfile(sc, r1, r1, lam).power_use(1)
                use2 = AllocationProfile(sc, r2, r2, lam).power_use(2)
                worst = max(worst, abs(use1 - 1.0), abs(use2 - 1.0))
        assert worst <= 1e-12

    def test_matches_nested_solve(self):
        # the largest R with no_priority_allocation(R) >= R, by bisection
        rng = random.Random(77)
        for _ in range(8):
            sc = scenario(
                eta=rng.uniform(0.0, 2.0),
                p0=10.0 ** ((rng.uniform(37.0, 47.0) - 30.0) / 10.0),
                alpha0=rng.choice((2.0, 3.0, 4.0)),
            )
            lo, hi = 0.0, min(single_train_rmax(sc, 1), single_train_rmax(sc, 2))
            if no_priority_allocation(sc, hi)[0] >= hi:
                lo = hi
            while hi - lo > 1e-14 * hi:
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if no_priority_allocation(sc, mid)[0] >= mid else (lo, mid)
            assert symmetric_rate(sc) == pytest.approx(lo, rel=1e-10)

    def test_end_rates_in_one_call_have_the_bits_of_one_call_each(self):
        rng = random.Random(2532)
        for j in range(200):
            sc = scenario(
                eta=2.0 if j % 20 == 0 else rng.uniform(0.0, 2.0),
                p0=10.0 ** ((rng.uniform(37.0, 47.0) - 30.0) / 10.0),
                alpha0=rng.uniform(2.0, 5.0),
            )
            trains = encounter._trains(sc)
            rates = _common_rates(trains)
            r1, r2, _ = rates(*np.array(trains.end_shares).T, 0.0, 0.0)
            for k, (x1, g2) in enumerate(trains.end_shares):
                alone = rates(np.full(1, x1), np.full(1, g2), 0.0, 0.0)
                assert (alone[0][0], alone[1][0]) == (r1[k], r2[k]), sc
            if r1[0] <= r2[0]:  # the answer sits at split 0
                assert symmetric_rate(sc) == min(r1[0], r2[0], *trains.rmax), sc

    def test_increases_with_power(self):
        values = [
            symmetric_rate(scenario(eta=0.8, p0=10 ** ((dbm - 30) / 10)))
            for dbm in (37.0, 43.0, 47.0)
        ]
        assert values[0] < values[1] < values[2]


class TestScenarioValidation:
    def test_ranges(self):
        with pytest.raises(ValueError):
            scenario(eta=2.1)
        with pytest.raises(ValueError):
            scenario(alpha0=1.5)
        with pytest.raises(ValueError):
            scenario(p0=0.0)
        with pytest.raises(ValueError):
            scenario(weight=0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(EncounterScenario)])
    def test_non_finite_field_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            dataclasses.replace(scenario(), **{field: value})

    def test_window_properties(self):
        sc = scenario(eta=0.8)
        assert sc.entry_time == pytest.approx(-6.4)
        assert sc.overlap_end == pytest.approx(9.6)
        assert sc.exit_time == pytest.approx(16.0)
        assert sc.pass_duration == pytest.approx(16.0)
