import math
import random
from dataclasses import fields, replace

import pytest

from railbeam.geometry import (
    ArrayConfig,
    OutOfCoverageError,
    RailGeometry,
    SingularGeometryError,
    beam_bounds_on_rail,
    beam_geometry,
    beam_index,
    beamwidth,
    coverage_interval,
    directivity,
    index_offset,
    rail_coordinate,
    total_coverage,
    wavelength_from_frequency,
)

CANONICAL = ArrayConfig(element_count=128, spacing=0.0625, wavelength=0.125)


def vi_array_config(**kwargs):
    lam = wavelength_from_frequency(2.4e9)
    defaults = dict(element_count=128, spacing=lam / 2, wavelength=lam)
    defaults.update(kwargs)
    return ArrayConfig(**defaults)


def random_config(rng, max_elements=512):
    n = rng.randrange(1, max_elements + 1)
    lam = 10.0 ** rng.uniform(-2.0, 0.0)
    d = 10.0 ** rng.uniform(-3.0, 0.0)
    t = rng.choice([2, 4])
    return ArrayConfig(
        element_count=n, spacing=d, wavelength=lam, array_type_factor=t,
        bs_coverage_angle=1e-9,
    ), n


class TestBeamwidth:
    def test_canonical_value(self):
        # direct evaluation of the closed form at lambda=0.125, d=lambda/2, N=128
        value = beamwidth(CANONICAL, 128)
        assert value == pytest.approx(0.013836532865051652, rel=1e-15)
        assert abs(value - 0.013836) <= 1e-6

    def test_single_beam_covers_everything(self):
        assert beamwidth(CANONICAL, 1) == pytest.approx(total_coverage(CANONICAL), rel=1e-15)

    def test_doubling_beams_halves_width(self):
        for n in (1, 2, 8, 32, 64):
            assert beamwidth(CANONICAL, 2 * n) == pytest.approx(
                beamwidth(CANONICAL, n) / 2, rel=1e-14
            )

    def test_doubling_halves_the_width_bit_for_bit(self):
        # spacing*N scales by a power of two, so pi*(spacing*N) and the quotient scale exactly
        rng = random.Random(31)
        for _ in range(2000):
            n = 2 ** rng.randrange(0, 12) if rng.random() < 0.5 else rng.randrange(1, 3000)
            cfg = ArrayConfig(
                element_count=n, spacing=10.0 ** rng.uniform(-3.0, 0.0),
                wavelength=10.0 ** rng.uniform(-2.0, 0.0), design_constant=rng.uniform(0.5, 5.0),
                array_type_factor=rng.choice([2, 4]), bs_coverage_angle=1e-9,
            )
            k = 0
            while 2**k <= n:
                assert beamwidth(cfg, 2**k) == beamwidth(cfg, 1) * 0.5**k, (cfg, k)
                k += 1

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            beamwidth(CANONICAL, 0)
        with pytest.raises(ValueError):
            beamwidth(CANONICAL, 129)


class TestDirectivity:
    def test_half_wavelength_spacing_gives_n(self):
        assert directivity(CANONICAL, 128) == 128.0

    def test_end_fire_doubles_broadside(self):
        broad = CANONICAL
        fire = ArrayConfig(
            element_count=128, spacing=0.0625, wavelength=0.125, array_type_factor=4
        )
        for n in (1, 16, 128):
            assert directivity(fire, n) == pytest.approx(2 * directivity(broad, n), rel=1e-15)

    def test_gain_width_identity_value(self):
        # configuration whose beamwidth is exactly 0.1 rad; identity gives the gain
        lam = 1.0
        n = 10
        d = 2.782 * lam / (math.pi * n * 0.1)
        cfg = ArrayConfig(element_count=n, spacing=d, wavelength=lam, bs_coverage_angle=0.05)
        assert beamwidth(cfg, n) == pytest.approx(0.1, rel=1e-12)
        assert directivity(cfg, n) == pytest.approx(17.710762067266113, rel=1e-12)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            directivity(CANONICAL, 0)


class TestGainWidthIdentity:
    def test_product_is_invariant(self):
        rng = random.Random(7)
        for _ in range(300):
            cfg, n = random_config(rng)
            target = cfg.array_type_factor * cfg.design_constant / math.pi
            product = directivity(cfg, n) * beamwidth(cfg, n)
            assert abs(product - target) / target <= 1e-12

    def test_spacing_count_duality_bit_identical(self):
        rng = random.Random(11)
        for _ in range(200):
            # dyadic spacing keeps the integer rescaling exact in binary64
            d = rng.randrange(1, 1 << 20) / float(1 << 22)
            lam = 10.0 ** rng.uniform(-2.0, 0.0)
            scale = rng.choice([2, 3, 4, 5, 6, 8])
            n = scale * rng.randrange(1, 64)
            a = ArrayConfig(element_count=n, spacing=d, wavelength=lam, bs_coverage_angle=1e-12)
            b = ArrayConfig(
                element_count=n, spacing=scale * d, wavelength=lam, bs_coverage_angle=1e-12
            )
            assert beamwidth(a, n) == beamwidth(b, n // scale)
            assert directivity(a, n) == directivity(b, n // scale)


class TestBeamIndex:
    def test_boresight_maps_to_middle(self):
        for n in (2, 8, 64, 128):
            # broadside is the shared edge of the two middle cells: the higher beam
            assert beam_index(math.pi / 2, CANONICAL, n) == n // 2 + 1

    def test_even_grid_is_index_offset_from_broadside(self):
        # even counts anchor the cell grid at broadside: away from the clamped
        # outer edges, beam b's cell b-1 is index_offset + N/2, bit for bit
        rng = random.Random(17)
        lo, hi = coverage_interval(CANONICAL)
        for n in (2, 6, 32, 128):
            width = beamwidth(CANONICAL, n)
            thetas = [rng.uniform(lo, hi) for _ in range(500)]
            for k in range(-n // 2, n // 2 + 1):
                edge = math.pi / 2 + k * width
                thetas += [edge, math.nextafter(edge, -math.inf), math.nextafter(edge, math.inf)]
            for theta in thetas:
                if lo <= theta <= hi:
                    cell = index_offset(theta, CANONICAL, n) + n // 2
                    assert beam_index(theta, CANONICAL, n) - 1 == min(max(cell, 0), n - 1), (n, theta)

    def test_half_width_offset(self):
        theta = math.pi / 2 + beamwidth(CANONICAL, 128) / 2
        assert beam_index(theta, CANONICAL, 128) == 65
        assert index_offset(theta, CANONICAL, 128) == 0

    def test_left_edge_clamps_to_one(self):
        lo, hi = coverage_interval(CANONICAL)
        assert beam_index(lo, CANONICAL, 128) == 1
        assert beam_index(hi, CANONICAL, 128) == 128

    def test_out_of_coverage_raises(self):
        cfg = vi_array_config()
        with pytest.raises(OutOfCoverageError):
            beam_index(math.pi / 6, cfg, 128)
        # pi/4 lies inside the computed coverage interval for half-wave spacing
        lo, hi = coverage_interval(cfg)
        assert lo < math.pi / 4 < hi
        assert 1 <= beam_index(math.pi / 4, cfg, 128) <= 128

    def test_piecewise_constant_and_nondecreasing(self):
        n = 32
        lo, hi = coverage_interval(CANONICAL)
        width = beamwidth(CANONICAL, n)
        samples = [lo + (hi - lo) * k / 4000 for k in range(4001)]
        indices = [beam_index(t, CANONICAL, n) for t in samples]
        assert indices == sorted(indices)
        # plateaus change only at the uniform cell boundaries
        for prev_t, prev_i, t, i in zip(samples, indices, samples[1:], indices[1:]):
            if i != prev_i:
                boundary_cell = round((t - lo) / width)
                assert abs((lo + boundary_cell * width) - t) <= (hi - lo) / 4000 + 1e-12


class TestBeamBounds:
    def test_boresight_example(self):
        geo = RailGeometry(perpendicular_distance=50.0, antenna_height=20.0, train_angle=math.pi / 2)
        left, right, total = beam_bounds_on_rail(geo, CANONICAL, 128)
        width = beamwidth(CANONICAL, 128)
        assert left == 0.0
        assert right == pytest.approx(width * 50.0, rel=1e-12)
        assert total == pytest.approx(width * 50.0, rel=1e-12)

    def test_matches_small_beam_approximation_everywhere(self):
        rng = random.Random(3)
        lo, hi = coverage_interval(CANONICAL)
        for _ in range(300):
            n = rng.choice([64, 128])  # keeps the width below 0.05 rad
            theta = rng.uniform(lo + 1e-6, hi - 1e-6)
            geo = RailGeometry(50.0, 20.0, theta)
            _, _, total = beam_bounds_on_rail(geo, CANONICAL, n)
            approx = 50.0 * beamwidth(CANONICAL, n) / math.sin(theta)
            assert abs(total - approx) / total <= 0.05

    def test_orientation_agrees_with_rail_projection_near_boresight(self):
        # the lower angular edge projects to the larger rail coordinate
        rng = random.Random(5)
        for _ in range(100):
            theta = math.pi / 2 + rng.uniform(-0.1, 0.1)
            geo = RailGeometry(50.0, 20.0, theta)
            left, right, _ = beam_bounds_on_rail(geo, CANONICAL, 128)
            width = beamwidth(CANONICAL, 128)
            chi = index_offset(theta, CANONICAL, 128)
            edge_low = math.pi / 2 + chi * width
            edge_high = edge_low + width
            x_low = rail_coordinate(edge_low, 50.0)
            x_high = rail_coordinate(edge_high, 50.0)
            x_here = rail_coordinate(theta, 50.0)
            assert x_low + 1e-12 >= x_here >= x_high - 1e-12
            assert left == pytest.approx(abs(x_low - x_here), rel=0.02, abs=1e-4)
            assert right == pytest.approx(abs(x_high - x_here), rel=0.02, abs=1e-4)

    def test_total_positive_and_halves_when_count_doubles(self):
        rng = random.Random(9)
        lo, hi = coverage_interval(CANONICAL)
        for _ in range(100):
            theta = rng.uniform(lo + 1e-6, hi - 1e-6)
            geo = RailGeometry(50.0, 20.0, theta)
            for n in (1, 2, 4, 8, 16, 32, 64):
                _, _, a = beam_bounds_on_rail(geo, CANONICAL, n)
                _, _, b = beam_bounds_on_rail(geo, CANONICAL, 2 * n)
                assert a > 0 and b > 0
                assert b == pytest.approx(a / 2, rel=1e-9)

    def test_total_stable_within_one_beam(self):
        width = beamwidth(CANONICAL, 128)
        lo, _ = coverage_interval(CANONICAL)
        for cell in (5, 40, 90):
            center = lo + (cell + 0.5) * width
            values = []
            for frac in (-0.4, -0.1, 0.2, 0.45):
                geo = RailGeometry(50.0, 20.0, center + frac * width)
                values.append(beam_bounds_on_rail(geo, CANONICAL, 128)[2])
            assert max(values) / min(values) <= 1.03

    def test_sum_identity(self):
        geo = RailGeometry(50.0, 20.0, 1.1)
        left, right, total = beam_bounds_on_rail(geo, CANONICAL, 128)
        assert total == left + right

    def test_edge_and_singular_errors(self):
        lo, hi = coverage_interval(CANONICAL)
        with pytest.raises(OutOfCoverageError):
            beam_bounds_on_rail(RailGeometry(50.0, 20.0, lo - 1e-9), CANONICAL, 128)
        with pytest.raises(OutOfCoverageError):
            beam_bounds_on_rail(RailGeometry(50.0, 20.0, hi), CANONICAL, 128)
        wide = ArrayConfig(element_count=8, spacing=0.2, wavelength=1.0)
        assert coverage_interval(wide)[0] < 0
        with pytest.raises(SingularGeometryError):
            beam_bounds_on_rail(RailGeometry(50.0, 20.0, 1e-18), wide, 8)


class TestValidation:
    def test_array_type_factor(self):
        with pytest.raises(ValueError):
            ArrayConfig(element_count=4, spacing=0.1, wavelength=0.3, array_type_factor=3)

    def test_coverage_must_exceed_station_angle(self):
        with pytest.raises(ValueError):
            ArrayConfig(element_count=4, spacing=0.5, wavelength=0.3, bs_coverage_angle=1.0)

    def test_positive_dimensions(self):
        with pytest.raises(ValueError):
            ArrayConfig(element_count=0, spacing=0.1, wavelength=0.3)
        with pytest.raises(ValueError):
            RailGeometry(perpendicular_distance=0.0)
        with pytest.raises(ValueError):
            RailGeometry(perpendicular_distance=10.0, antenna_height=-1.0)

    @pytest.mark.parametrize("angle", [0.0, -1.0])
    def test_station_angle_must_be_positive(self, angle):
        # a non-positive angle would leave the coverage check above void
        with pytest.raises(ValueError, match="bs_coverage_angle must be positive"):
            ArrayConfig(element_count=4, spacing=0.5, wavelength=1.0, bs_coverage_angle=angle)

    def test_extreme_array_names_the_overflow(self):
        # pi*spacing*element_count overflows, so the finest width would round to 0: a later
        # cell lookup divided by it and raised a bare ZeroDivisionError
        with pytest.raises(ValueError, match=r"pi \* spacing \* element_count overflows"):
            ArrayConfig(element_count=2**70, spacing=1e290, wavelength=1e154, design_constant=1e154)

    @pytest.mark.parametrize(
        "params",
        [
            # finest width subnormal (3.2e-321 rad)
            dict(element_count=10**30, spacing=1e-10, wavelength=1e-300, design_constant=1.0, bs_coverage_angle=1e-320),
            # total coverage overflows to inf
            dict(element_count=4, spacing=1e-300, wavelength=1e300, design_constant=1e5),
        ],
    )
    def test_widths_must_be_positive_normal_floats(self, params):
        with pytest.raises(ValueError, match="not all positive normal floats"):
            ArrayConfig(**params)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize(
        "params, field",
        [(CANONICAL, f.name) for f in fields(ArrayConfig)]
        + [(RailGeometry(50.0, 20.0, 1.2), f.name) for f in fields(RailGeometry)],
    )
    def test_non_finite_field_rejected(self, params, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            replace(params, **{field: value})

    def test_wavelength_helper(self):
        assert wavelength_from_frequency(2.4e9) == pytest.approx(0.12491666666666666, rel=1e-15)
        with pytest.raises(ValueError):
            wavelength_from_frequency(0.0)


def test_beam_geometry_bundle():
    geo = RailGeometry(50.0, 20.0, 1.2)
    bundle = beam_geometry(CANONICAL, geo, 64)
    assert bundle.beam_count == 64
    assert bundle.beamwidth == beamwidth(CANONICAL, 64)
    assert bundle.directivity == directivity(CANONICAL, 64)
    assert bundle.beam_index == beam_index(1.2, CANONICAL, 64)
    assert bundle.coverage_length == pytest.approx(
        bundle.left_bound + bundle.right_bound, rel=1e-15
    )
