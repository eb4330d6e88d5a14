import dataclasses
import math
import random

import numpy as np
import pytest

from railbeam import encounter
from railbeam.encounter import (
    AllocationProfile,
    ConvergenceError,
    DecodePriority,
    EncounterScenario,
    EncounterWindowError,
    InfeasibleRateError,
    _common_rates,
    _priority_noise_factor,
    no_priority_allocation,
    priority_rate,
    rate_region,
    single_train_rmax,
    symmetric_rate,
    tfds_baseline,
    train_distance,
)
from railbeam.numerics import adaptive_simpson

NOISE = 10.0 ** (-13.4)
P0 = 10.0 ** 1.3  # 43 dBm


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
        with pytest.raises(ValueError):
            train_distance(scenario(eta=0.5), 3, 1.0)


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
    def test_noise_factor_at_least_one(self):
        assert _priority_noise_factor(scenario(eta=0.5), 2) >= 1.0
        tiny = scenario(p0=1e-16)
        assert _priority_noise_factor(tiny, 2) == pytest.approx(1.0, abs=1e-6)

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
        with pytest.raises(ValueError):
            priority_rate(scenario(), 3)


class TestNoPriorityAllocation:
    def test_zero_rate_recovers_solo_maximum(self):
        sc = scenario(eta=0.8)
        rate_1, lam, profile = no_priority_allocation(sc, 0.0)
        assert rate_1 == pytest.approx(single_train_rmax(sc, 1), rel=1e-12)
        assert lam == 0.0
        for t in (0.0, 2.0, 9.0, 15.0):
            assert profile.f2(t) == 0.0

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
                if not profile.h2_budget_slack:
                    bound += 1
                    for train in (1, 2):
                        worst = max(worst, abs(profile.power_use(train) - 1.0))
        assert bound >= 48
        assert worst <= 1e-11

    def test_steepest_boundary_point_matches_direct_quadrature(self):
        # At R2 = train 2's solo maximum the boundary is nearly vertical: a
        # solve that stops at |usage - 1| <= 1e-8 leaves R1 off by 7.7e-5
        # here, and a 1e-14 relative error in the path-gain integrals still
        # moves it by about 2.5e-10.
        p0 = 10.0 ** ((41.16918414140295 - 30.0) / 10.0)
        sc = scenario(eta=0.9410102672655193, p0=p0, alpha0=4.0)
        r2 = single_train_rmax(sc, 2)
        rate_1, _, _ = no_priority_allocation(sc, r2)
        assert rate_1 == pytest.approx(simpson_r1(sc, r2), abs=1e-9)

    def test_unconverged_solve_raises(self, monkeypatch):
        monkeypatch.setattr(encounter, "_MAX_ITERATIONS", 2)
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
            snr1 = profile.snr_1(t)
            if order is DecodePriority.H1_FIRST:
                sinr = snr1 / (1.0 + profile.snr_2(t))
            else:
                sinr = snr1
            assert math.log2(1.0 + sinr) == pytest.approx(rate_1, abs=1e-9)
        for t in np.linspace(1e-9, 16.0 - 1e-9, 41):
            order = profile.decode_priority(t)
            snr2 = profile.snr_2(t)
            if order is DecodePriority.H2_FIRST:
                sinr = snr2 / (1.0 + profile.snr_1(t))
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
            assert profile.f1(float(t)) >= 0.0
            assert profile.f2(float(t)) >= 0.0


class TestRateRegion:
    def test_boundary_monotone_and_endpoints(self):
        sc = scenario(eta=0.8)
        region = rate_region(sc, 9)
        r1s = [p[0] for p in region.pairs]
        assert r1s == sorted(r1s, reverse=True)
        assert region.pairs[0][0] == pytest.approx(single_train_rmax(sc, 1), rel=1e-12)
        assert region.pairs[0][1] == 0.0
        assert region.pairs[-1][1] == pytest.approx(region.r_max, rel=1e-15)
        assert region.r_prime_max == pytest.approx(priority_rate(sc, 2), rel=1e-12)

    def test_no_overlap_gives_rectangle(self):
        region = rate_region(scenario(eta=2.0), 7)
        r1s = {p[0] for p in region.pairs}
        assert max(r1s) - min(r1s) < 1e-9

    def test_worst_case_nested_in_late_entry(self):
        # full-overlap boundary sits inside the eta=1.6 boundary pointwise
        r0 = rate_region(scenario(eta=0.0), 9)
        r16 = rate_region(scenario(eta=1.6), 9)
        for (a, _), (b, _) in zip(r0.pairs, r16.pairs):
            assert a <= b + 1e-9

    def test_grid_size_validated(self):
        with pytest.raises(ValueError):
            rate_region(scenario(), 1)

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
    def test_segment_endpoints_and_midpoint(self):
        sc = scenario(eta=0.0)
        base = tfds_baseline(sc, 5)
        r1max = single_train_rmax(sc, 1)
        r2max = single_train_rmax(sc, 2)
        assert base.pairs[-1] == (pytest.approx(r1max), pytest.approx(0.0))
        assert base.pairs[0] == (pytest.approx(0.0), pytest.approx(r2max))
        assert base.pairs[2][0] == pytest.approx(r1max / 2, rel=1e-12)
        assert base.pairs[2][1] == pytest.approx(r2max / 2, rel=1e-12)

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
            r1s, r2s = _common_rates(sc)(np.array(lams))
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
