import math
import random
from dataclasses import fields, replace

import pytest

from railbeam.geometry import (
    ArrayConfig,
    _grid,
    OutOfCoverageError,
    RailGeometry,
    beam_bounds_on_rail,
    coverage_interval,
    directivity,
)
from railbeam.numerics import adaptive_simpson
from railbeam.positioning import (
    PositioningModel,
    SearchResult,
    effective_probability,
    gaussian_tail,
    search_beam_count,
)

CFG = ArrayConfig(element_count=128, spacing=0.0625, wavelength=0.125)


def tail_oracle(x: float) -> float:
    """Quadrature of the standard normal density from x outward."""
    density = lambda t: math.exp(-t * t / 2.0) / math.sqrt(2.0 * math.pi)
    return adaptive_simpson(density, x, 40.0, rel_tol=1e-13)


class TestGaussianTail:
    def test_symmetry_point(self):
        assert gaussian_tail(0.0) == 0.5

    def test_unit_argument_against_quadrature(self):
        # oracle value 0.15865525393145707, frozen from tail_oracle(1.0)
        assert abs(tail_oracle(1.0) - 0.15865525393145707) <= 1e-12
        assert abs(gaussian_tail(1.0) - 0.15865525393145707) <= 1e-10

    def test_random_arguments_against_quadrature(self):
        rng = random.Random(2)
        for _ in range(40):
            x = rng.uniform(-4.0, 6.0)
            assert abs(gaussian_tail(x) - tail_oracle(x)) <= 1e-10

    def test_limits(self):
        assert gaussian_tail(math.inf) == 0.0
        assert gaussian_tail(-math.inf) == 1.0
        assert gaussian_tail(40.0) < 1e-300

    def test_reflection_and_monotonicity(self):
        rng = random.Random(4)
        xs = sorted(rng.uniform(-6.0, 6.0) for _ in range(50))
        for a, b in zip(xs, xs[1:]):
            assert gaussian_tail(a) >= gaussian_tail(b)
        for x in xs:
            assert gaussian_tail(-x) == pytest.approx(1.0 - gaussian_tail(x), abs=1e-15)


class TestEffectiveProbability:
    def test_station_on_both_bounds(self):
        assert effective_probability(0.0, 0.0, 1.0) == 0.5

    def test_bounds_equal_to_sigma(self):
        assert effective_probability(2.5, 2.5, 2.5) == pytest.approx(
            0.8413447460685429, abs=1e-12
        )

    def test_wide_beam_is_certain(self):
        assert effective_probability(100.0, 80.0, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_zero_sigma_is_exact_one(self):
        assert effective_probability(0.3, 0.0, 0.0) == 1.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            effective_probability(-0.1, 1.0, 1.0)
        with pytest.raises(ValueError):
            effective_probability(1.0, 1.0, -1.0)

    @pytest.mark.parametrize("args", [(math.nan, 1.0, 1.0), (1.0, math.nan, 1.0), (1.0, 1.0, math.nan)])
    def test_rejects_nan(self, args):
        with pytest.raises(ValueError):
            effective_probability(*args)


def model(sigma=1.0, threshold=0.9, cap=128):
    return PositioningModel(error_stddev=sigma, threshold=threshold, max_beam_count=cap)


def exhaustive_scan(cfg, geo, mdl):
    """Oracle: every count up to the cap; returns the largest one meeting the threshold."""
    best = None
    for n in range(1, mdl.max_beam_count + 1):
        left, right, _ = beam_bounds_on_rail(geo, cfg, n)
        prob = effective_probability(left, right, mdl.error_stddev)
        if prob >= mdl.threshold:
            best = (n, prob)
    return best


def exhaustive_doubling(cfg, geo, mdl):
    """Oracle: evaluate the whole doubling ladder and keep the best count."""
    best = None
    best_prob = None
    n = 1
    while n <= mdl.max_beam_count:
        left, right, _ = beam_bounds_on_rail(geo, cfg, n)
        prob = effective_probability(left, right, mdl.error_stddev)
        if prob >= mdl.threshold and (best is None or n > best):
            best, best_prob = n, prob
        n *= 2
    if best is None:
        left, right, _ = beam_bounds_on_rail(geo, cfg, 1)
        return 1, effective_probability(left, right, mdl.error_stddev), False
    return best, best_prob, True


def ladder_reference(cfg, geo, mdl):
    """The search as a walk over public per-count calls, stopping at the first miss."""

    def prob(n):
        return effective_probability(*beam_bounds_on_rail(geo, cfg, n)[:2], mdl.error_stddev)

    n, p = 1, prob(1)
    if p < mdl.threshold:
        return SearchResult(1, p, directivity(cfg, 1), False)
    while 2 * n <= mdl.max_beam_count and prob(2 * n) >= mdl.threshold:
        n, p = 2 * n, prob(2 * n)
    return SearchResult(n, p, directivity(cfg, n), True)


def random_array(rng, cap):
    """A random array of at least ``cap`` elements: a power of two or not, either array type."""
    n = max(cap, 2 ** rng.randrange(0, 9) if rng.random() < 0.5 else rng.randrange(1, 300))
    return ArrayConfig(
        element_count=n, spacing=10.0 ** rng.uniform(-3.0, 0.0), wavelength=10.0 ** rng.uniform(-2.0, 0.0),
        design_constant=rng.uniform(0.5, 5.0), array_type_factor=rng.choice([2, 4]), bs_coverage_angle=1e-9,
    )


def outcome(search, *args):
    """A search's result, or its error as ``(type, message)``."""
    try:
        return search(*args)
    except ValueError as exc:
        return type(exc), str(exc)


class TestSearch:
    def test_vanishing_error_takes_the_cap(self):
        geo = RailGeometry(50.0, 20.0, 1.2)
        result = search_beam_count(CFG, geo, model(sigma=1e-12))
        assert result.optimal_beam_count == 128
        assert result.feasible

    def test_huge_error_is_infeasible_at_one_beam(self):
        geo = RailGeometry(50.0, 20.0, 1.2)
        result = search_beam_count(CFG, geo, model(sigma=1e6))
        assert result.optimal_beam_count == 1
        assert not result.feasible
        assert result.achieved_probability < 0.9

    def test_out_of_coverage_raises(self):
        from railbeam.geometry import OutOfCoverageError

        with pytest.raises(OutOfCoverageError):
            search_beam_count(CFG, RailGeometry(50.0, 20.0, math.pi / 6), model())

    def test_known_case_matches_brute_force(self):
        geo = RailGeometry(50.0, 20.0, math.pi / 2 - 0.3)
        result = search_beam_count(CFG, geo, model(sigma=1.0, threshold=0.9))
        n, prob, feasible = exhaustive_doubling(CFG, geo, model(sigma=1.0, threshold=0.9))
        assert (result.optimal_beam_count, result.feasible) == (n, feasible)
        assert result.optimal_beam_count == 32
        assert result.achieved_probability == pytest.approx(0.9208840992820704, rel=1e-12)
        assert result.directivity_at_optimum == 32.0

    def test_matches_exhaustive_on_random_inputs(self):
        rng = random.Random(20)
        lo, hi = coverage_interval(CFG)
        for _ in range(100):
            geo = RailGeometry(50.0, 20.0, rng.uniform(lo + 1e-4, hi - 1e-4))
            mdl = model(
                sigma=10.0 ** rng.uniform(-2.0, 1.5),
                threshold=rng.uniform(0.5, 0.99),
            )
            got = search_beam_count(CFG, geo, mdl)
            n, prob, feasible = exhaustive_doubling(CFG, geo, mdl)
            assert got.optimal_beam_count == n
            assert got.feasible == feasible

    @pytest.mark.parametrize("cap", [128, 100, 3, 1])
    def test_matches_per_count_reference_exactly(self, cap):
        rng = random.Random(26)
        lo, hi = coverage_interval(CFG)
        feasible = 0
        for _ in range(200):
            geo = RailGeometry(rng.uniform(5.0, 150.0), 20.0, rng.uniform(lo + 1e-4, hi - 1e-4))
            mdl = model(sigma=10.0 ** rng.uniform(-2.0, 1.5), threshold=rng.uniform(0.5, 0.99), cap=cap)
            got = search_beam_count(CFG, geo, mdl)
            assert got == ladder_reference(CFG, geo, mdl), (geo, mdl)
            feasible += got.feasible
        assert 0 < feasible < 200
        # random arrays, with angles on every level's cell edges and one ulp either side
        # of them: the search reads one grid and a width per level, the reference a grid each
        outcomes = set()
        for _ in range(60):
            cfg = random_array(rng, cap)
            lo, hi = coverage_interval(cfg)
            thetas = [rng.uniform(lo, hi)]
            n = 1
            while n <= cap:
                width, _, _, origin, half = _grid(cfg, n)
                for cell in {0, rng.randrange(n + 1), n}:
                    edge = origin + (cell - half) * width
                    thetas += [math.nextafter(edge, -math.inf), edge, math.nextafter(edge, math.inf)]
                n *= 2
            for theta in thetas:
                geo = RailGeometry(rng.uniform(5.0, 150.0), 20.0, theta)
                sigma = 0.0 if rng.random() < 0.2 else 10.0 ** rng.uniform(-3.0, 1.5)
                mdl = model(sigma=sigma, threshold=rng.uniform(0.5, 0.99), cap=cap)
                got = outcome(search_beam_count, cfg, geo, mdl)
                assert got == outcome(ladder_reference, cfg, geo, mdl), (cfg, geo, mdl)
                outcomes.add(got[0] if isinstance(got, tuple) else got.feasible)
        assert outcomes >= {True, False, OutOfCoverageError}

    def test_cap_is_checked_before_the_coverage(self):
        with pytest.raises(ValueError, match="exceeds element_count") as info:
            search_beam_count(CFG, RailGeometry(50.0, 20.0, math.pi / 6), model(cap=256))
        assert not isinstance(info.value, OutOfCoverageError)

    def test_probability_monotone_along_doubling(self):
        rng = random.Random(21)
        lo, hi = coverage_interval(CFG)
        for _ in range(100):
            theta = rng.uniform(lo + 1e-4, hi - 1e-4)
            sigma = 10.0 ** rng.uniform(-1.0, 1.0)
            geo = RailGeometry(50.0, 20.0, theta)
            previous = None
            n = 1
            while n <= 128:
                left, right, _ = beam_bounds_on_rail(geo, CFG, n)
                prob = effective_probability(left, right, sigma)
                if previous is not None:
                    assert prob <= previous + 1e-12
                previous = prob
                n *= 2

    def test_gain_nonincreasing_in_sigma_and_threshold(self):
        geo = RailGeometry(50.0, 20.0, 1.25)
        gains = [
            search_beam_count(CFG, geo, model(sigma=s)).directivity_at_optimum
            for s in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0)
        ]
        assert gains == sorted(gains, reverse=True)
        gains_th = [
            search_beam_count(CFG, geo, model(sigma=1.0, threshold=t)).directivity_at_optimum
            for t in (0.7, 0.8, 0.9, 0.95)
        ]
        assert gains_th == sorted(gains_th, reverse=True)

    def test_exhaustive_scan_beats_or_matches_doubling(self):
        geo = RailGeometry(50.0, 20.0, 1.25)
        mdl = model(sigma=1.0, threshold=0.85, cap=100)
        doubling = search_beam_count(CFG, geo, mdl)
        assert doubling.feasible
        every, prob = exhaustive_scan(CFG, geo, mdl)
        assert every >= doubling.optimal_beam_count
        assert prob >= mdl.threshold

    def test_cap_above_elements_rejected(self):
        geo = RailGeometry(50.0, 20.0, 1.2)
        with pytest.raises(ValueError):
            search_beam_count(CFG, geo, model(cap=256))

    def test_boresight_tie_break_is_deterministic(self):
        geo = RailGeometry(50.0, 20.0, math.pi / 2)
        left, right, _ = beam_bounds_on_rail(geo, CFG, 128)
        assert left == 0.0 and right > 0.0
        result = search_beam_count(CFG, geo, model(sigma=0.5))
        repeat = search_beam_count(CFG, geo, model(sigma=0.5))
        assert result == repeat


class TestModelValidation:
    def test_ranges(self):
        with pytest.raises(ValueError):
            PositioningModel(error_stddev=-1.0, threshold=0.9, max_beam_count=8)
        with pytest.raises(ValueError):
            PositioningModel(error_stddev=1.0, threshold=1.0, max_beam_count=8)
        with pytest.raises(ValueError):
            PositioningModel(error_stddev=1.0, threshold=0.9, max_beam_count=0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field", [f.name for f in fields(PositioningModel)])
    def test_non_finite_field_rejected(self, field, value):
        # a NaN deviation used to reach the search and come back as a feasible N* with P = nan
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            replace(model(), **{field: value})
