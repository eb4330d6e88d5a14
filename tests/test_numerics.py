import math
import os
import random
import subprocess
import sys
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
        cum = CumulativeIntegral(2900.0, 100.0, 800.0, 2.5, origin=3.0)
        assert cum.value(3.0) == 0.0
        assert cum.value(-2.0) == cum.between(3.0, -2.0)
        assert cum.value(-2.0) == pytest.approx(-cum.between(-2.0, 3.0), rel=1e-15)

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
