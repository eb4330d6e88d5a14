import math
import os
import random
import subprocess
import sys
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest

import railbeam
from railbeam.numerics import _RULE, CumulativeIntegral, adaptive_simpson


class TestGaussLegendreRule:
    def test_even_moments(self):
        # 24 nodes integrate every polynomial up to degree 47 exactly
        assert len(_RULE) == 24
        for k in range(24):
            exact = 2.0 / (2 * k + 1)
            got = sum(w * x ** (2 * k) for x, w in _RULE)
            assert abs(got - exact) <= 2e-14 * exact, k

    def test_symmetric_and_ascending(self):
        nodes = [x for x, _ in _RULE]
        assert nodes == sorted(nodes)
        for (x, w), (y, v) in zip(_RULE, reversed(_RULE)):
            assert (x, w) == (-y, v)

    def test_import_leaves_numpy_polynomial_out(self):
        code = "import sys, railbeam; print(any(m.startswith('numpy.polynomial') for m in sys.modules))"
        # the child imports the same railbeam as this process
        env = dict(os.environ, PYTHONPATH=str(Path(railbeam.__file__).parents[1]))
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "False"


class TestAdaptiveSimpson:
    def test_polynomial_is_exact(self):
        assert adaptive_simpson(lambda x: x**3, 0.0, 2.0) == pytest.approx(4.0, rel=1e-12)

    def test_smooth_transcendental(self):
        value = adaptive_simpson(math.sin, 0.0, math.pi, rel_tol=1e-12)
        assert value == pytest.approx(2.0, rel=1e-10)

    def test_empty_interval(self):
        assert adaptive_simpson(math.exp, 1.5, 1.5) == 0.0

    def test_reversed_interval_flips_sign(self):
        forward = adaptive_simpson(math.exp, 0.0, 1.0)
        assert adaptive_simpson(math.exp, 1.0, 0.0) == pytest.approx(-forward, rel=1e-12)

    def test_peaked_integrand(self):
        value = adaptive_simpson(lambda x: math.exp(-x * x / 2), -8.0, 8.0, rel_tol=1e-11)
        assert value == pytest.approx(math.sqrt(2 * math.pi), rel=1e-9)


def path_gain(base, speed, shift, exponent):
    return lambda t: (base + (speed * t - shift) ** 2) ** (exponent / 2.0)


def geometry_grid():
    """Seeded (base, speed, shift, exponent, a, b) cases, worst case first."""
    h0 = 20.0
    cases = [(1.0 + h0 * h0, 100.0, 5000.0, 5.0, 0.0, 100.0)]
    rng = random.Random(2017)
    for d0 in (1.0, 50.0, 200.0):
        for half_coverage in (100.0, 800.0, 5000.0):
            for exponent in (2.0, 2.5, 3.0, 3.5, 4.0, 5.0):
                speed = rng.uniform(30.0, 140.0)
                eta = rng.uniform(0.0, 2.0)
                shift = half_coverage * (1.0 - eta)
                a = -eta * half_coverage / speed
                b = a + rng.uniform(0.05, 2.0) * half_coverage / speed
                cases.append((d0 * d0 + h0 * h0, speed, shift, exponent, a, b))
    return cases


def exact_antiderivative(big_b, u, exponent):
    """``F(u)``, an antiderivative of ``(B + u**2)**(n/2)`` in ``u`` for n = 2 to 5, in ``decimal``.

    Gradshteyn & Ryzhik 2.271; ``ln(u + sqrt(B + u**2))`` is ``asinh(u/sqrt(B))`` up to a
    constant. ``big_b`` and ``u`` are ``Decimal``s, taken at the context's precision.
    """
    if exponent == 2:
        return big_b * u + u**3 / 3
    if exponent == 4:
        return big_b**2 * u + 2 * big_b * u**3 / 3 + u**5 / 5
    root = (big_b + u * u).sqrt()
    log = (u + root).ln()
    if exponent == 3:
        return u * (2 * u**2 + 5 * big_b) * root / 8 + 3 * big_b**2 / 8 * log
    if exponent == 5:
        return u * (8 * u**4 + 26 * big_b * u**2 + 33 * big_b**2) * root / 48 + 5 * big_b**3 / 16 * log
    raise ValueError("no closed form for this exponent")


def exact_between(base, speed, shift, exponent, a, b):
    """``between(a, b)`` from ``exact_antiderivative`` in 60-digit ``decimal``.

    ``u = speed*t - shift`` is formed exactly from the float inputs, and ``dt = du/speed``.
    """
    with localcontext() as ctx:
        ctx.prec = 60
        big_b, v, s = Decimal(base), Decimal(speed), Decimal(shift)

        def antiderivative(t):
            return exact_antiderivative(big_b, v * Decimal(t) - s, exponent)

        return float((antiderivative(b) - antiderivative(a)) / v)


def stacked(base, speed, shifts, exponent):
    """One ``CumulativeIntegral`` with a row per shift."""
    return CumulativeIntegral(base, speed, [[shift] for shift in shifts], exponent)


class TestCumulativeIntegral:
    def test_matches_direct_quadrature(self):
        for base, speed, shift, exponent, a, b in geometry_grid():
            cum = CumulativeIntegral(base, speed, shift, exponent)
            gain = path_gain(base, speed, shift, exponent)
            direct = adaptive_simpson(gain, a, b, rel_tol=1e-13)
            assert cum.between(a, b) == pytest.approx(direct, rel=1e-12), (base, shift, exponent)

    @pytest.mark.parametrize("base, u", [(2900.0, 800.0), (2900.0, -37.5), (401.0, 5000.0)])
    def test_n3_recurrence(self, base, u):
        # I_n(u) = u (b + u^2)^(n/2) / (n + 1) + n b / (n + 1) I_{n-2}(u), down to
        # I_{-1}(u) = asinh(u / sqrt(b)) (Gradshteyn & Ryzhik 2.271)
        i_m1 = math.asinh(u / math.sqrt(base))
        i_1 = u * math.sqrt(base + u * u) / 2.0 + base / 2.0 * i_m1
        i_3 = u * (base + u * u) ** 1.5 / 4.0 + 3.0 * base / 4.0 * i_1
        speed = 80.0
        cum = CumulativeIntegral(base, speed, 0.0, 3.0)
        assert cum.value(u / speed) * speed == pytest.approx(i_3, rel=1e-13)

    def test_additive_over_splits(self):
        cum = CumulativeIntegral(2900.0, 100.0, 800.0, 3.5)
        total = cum.between(-4.0, 14.0)
        assert cum.between(-4.0, 6.5) + cum.between(6.5, 14.0) == pytest.approx(total, rel=1e-13)

    def test_negative_direction(self):
        cum = CumulativeIntegral(2900.0, 100.0, 800.0, 2.5)
        assert cum.between(3.0, 3.0) == 0.0
        assert cum.between(3.0, -2.0) < 0.0
        assert cum.between(3.0, -2.0) == pytest.approx(-cum.between(-2.0, 3.0), rel=1e-15)
        assert cum.value(-2.0) == cum.between(0.0, -2.0) < 0.0

    def test_same_bits_whatever_was_queried_before(self):
        fresh = CumulativeIntegral(2900.0, 100.0, 800.0, 3.0).value(7.3)
        cum = CumulativeIntegral(2900.0, 100.0, 800.0, 3.0)
        for t in (1.0, 2.5, 4.0, 7.0, 7.5, 9.0, 15.0):
            cum.value(t)
        assert cum.value(7.3) == fresh

    def test_batch_size_leaves_bits_alone(self):
        # 1001 seeded intervals of one geometry, some needing two or three
        # panels: each element has the same bits alone, as a scalar and in the batch
        cum = CumulativeIntegral(1.0, 100.0, 5000.0, 5.0)
        rng = np.random.default_rng(1001)
        a = rng.uniform(0.0, 100.0, 1001)
        b = rng.uniform(0.0, 500.0, 1001)
        sa, sb = np.arcsinh(100.0 * a - 5000.0), np.arcsinh(100.0 * b - 5000.0)
        assert set(np.ceil(np.abs(sb - sa) * 6.0 / 60.0).tolist()) == {1.0, 2.0, 3.0}
        batch = cum.between(a, b)
        for i in range(1001):
            alone = cum.between(a[i : i + 1], b[i : i + 1])
            assert alone.shape == (1,) and alone[0] == batch[i], i
            assert cum.between(float(a[i]), float(b[i])) == batch[i], i

    def test_scalar_bounds_give_a_float(self):
        cum = CumulativeIntegral(2900.0, 100.0, 800.0, 3.0)
        assert type(cum.between(0.0, 4.0)) is float
        assert cum.between(0.0, np.array([4.0, 5.0])).shape == (2,)

    def test_gain_is_the_path_gain_and_the_slope_of_between(self):
        for base, speed, shift, exponent, a, b in geometry_grid():
            cum = CumulativeIntegral(base, speed, shift, exponent)
            t = np.linspace(a, b, 5)
            gain = cum.gain(t)
            np.testing.assert_allclose(gain, path_gain(base, speed, shift, exponent)(t), rtol=1e-13)
            h = 1e-6  # central difference of the integral, as the mean over [t - h, t + h]
            np.testing.assert_allclose(gain, cum.between(t - h, t + h) / (2.0 * h), rtol=1e-6)

    def test_matches_the_exact_reference(self):
        # every integer exponent of the grid, alone and as the first of two stacked
        # rows; the second row passes its closest approach mid-interval
        checked = 0
        for base, speed, shift, exponent, a, b in geometry_grid():
            if exponent not in (2.0, 3.0, 4.0, 5.0):
                continue
            shifts = (shift, 0.5 * speed * (a + b))
            rows = stacked(base, speed, shifts, exponent).between(a, b)
            for k, row_shift in enumerate(shifts):
                exact = exact_between(base, speed, row_shift, int(exponent), a, b)
                assert rows[k, 0] == pytest.approx(exact, rel=1e-14, abs=0.0), (base, row_shift, exponent)
            exact = exact_between(base, speed, shift, int(exponent), a, b)
            alone = CumulativeIntegral(base, speed, shift, exponent).between(a, b)
            assert alone == pytest.approx(exact, rel=1e-14, abs=0.0), (base, shift, exponent)
            checked += 1
        assert checked == 1 + 4 * 9

    def test_stacked_rows_have_the_bits_of_scalar_shifts(self):
        # the worst case comes first: two of its rows mix one and two panels, and
        # the third needs one panel throughout while the batch takes two
        for base, speed, shift, exponent, a, b in geometry_grid():
            shifts = (shift, 0.5 * speed * (a + b), -shift)
            cum = stacked(base, speed, shifts, exponent)
            lo, hi = np.linspace(a, b, 9), np.linspace(b, a + 3.0 * (b - a), 9)
            rows, gains = cum.between(lo, hi), cum.gain(hi)
            assert rows.shape == gains.shape == (3, 9)
            for k, row_shift in enumerate(shifts):
                alone = CumulativeIntegral(base, speed, row_shift, exponent)
                assert rows[k].tolist() == alone.between(lo, hi).tolist(), (base, row_shift, exponent)
                assert gains[k].tolist() == alone.gain(hi).tolist(), (base, row_shift, exponent)

    def test_two_dimensional_batch_has_the_bits_of_each_row(self):
        base, speed, shift, exponent, a, b = geometry_grid()[0]
        rng = np.random.default_rng(27)
        lo, hi = rng.uniform(a, b, (2, 50)), rng.uniform(a, 5.0 * b, (2, 50))
        cum = stacked(base, speed, (shift, 0.5 * shift), exponent)
        rows = cum.between(lo, hi)
        alone = CumulativeIntegral(base, speed, shift, exponent)
        for k in range(2):
            assert rows[k].tolist() == cum.between(lo[k], hi[k])[k].tolist()
            assert alone.between(lo, hi)[k].tolist() == alone.between(lo[k], hi[k]).tolist()

    def test_scalar_ends_of_stacked_rows_give_a_column(self):
        cum = stacked(2900.0, 100.0, (800.0, 0.0), 3.0)
        out = cum.between(0.0, 4.0)
        assert out.shape == (2, 1)
        assert out[:, 0].tolist() == [CumulativeIntegral(2900.0, 100.0, s, 3.0).between(0.0, 4.0) for s in (800.0, 0.0)]

    @pytest.mark.parametrize("a, b", [(math.nan, 4.0), (0.0, math.nan), (0.0, math.inf), (-math.inf, 4.0)])
    def test_non_finite_ends_raise(self, a, b):
        for cum in (CumulativeIntegral(2900.0, 100.0, 800.0, 3.0), stacked(2900.0, 100.0, (800.0, 0.0), 3.0)):
            with pytest.raises((ValueError, OverflowError)):
                cum.between(a, b)
            with pytest.raises((ValueError, OverflowError)):
                cum.between([0.0, a], [1.0, b])


def encounter_rows(eta, exponent):
    """Both trains' integral in the default encounter geometry (d0 50 m, h0 20 m, L 800 m,
    v 100 m/s) at entry offset ``eta``, and the overlap end."""
    return stacked(2900.0, 100.0, (800.0 - eta * 800.0, 800.0), exponent), (2.0 - eta) * 8.0


class TestShortOverlaps:
    # In a short overlap (eta near 2) t*slope is small beside the shift, so a width
    # taken as the difference of the two ends' arcsinh would cancel.

    def test_width_resolves_consecutive_floats(self):
        # the "floor" scenario of the encounter tests; such a difference took 3
        # distinct values per train over these 2,000 consecutive floats
        cum, t_ov = encounter_rows(1.9934050851470186, 4.0)
        start = 0.5 * t_ov
        t = start + np.spacing(start) * np.arange(2000)  # exact: one binade
        assert np.unique(t).size == 2000
        for row in cum.between(t, t_ov):
            assert np.unique(row).size >= 1000

    @pytest.mark.parametrize("exponent", [3, 4])
    def test_overlap_integral_matches_the_exact_reference(self, exponent):
        for k in range(1, 10):
            eta = 2.0 - 10.0**-k
            cum, t_ov = encounter_rows(eta, float(exponent))
            rows = cum.between(0.0, t_ov)[:, 0].tolist()
            for got, shift in zip(rows, (800.0 - eta * 800.0, 800.0)):
                exact = exact_between(2900.0, 100.0, shift, exponent, 0.0, t_ov)
                assert got == pytest.approx(exact, rel=1e-14, abs=0.0), (k, shift)
