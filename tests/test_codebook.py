import csv
import inspect
import math
import os
import random
import shutil
import subprocess
import sys
import tempfile
from array import array

import numpy as np
import pytest
from numpy.testing import assert_allclose

from railbeam import codebook
from railbeam.cli import main
from railbeam.codebook import (
    PHASE_TABLE_HEADER,
    NotYetEnteredError,
    PhaseMapper,
    TraverseSample,
    _beam_centers,
    build_phase_mapper,
    array_factor,
    export_phase_mapper,
    export_traverse,
    phase_table_text,
    select_beam,
    simulate_traverse,
    steering_vector,
    wavenumber,
)
from railbeam.csvout import row_format, write_csv
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
    total_coverage,
    wavelength_from_frequency,
)

CFG8 = ArrayConfig(element_count=8, spacing=0.0625, wavelength=0.125)
CFG64 = ArrayConfig(element_count=64, spacing=0.0625, wavelength=0.125)
CFG128 = ArrayConfig(element_count=128, spacing=0.0625, wavelength=0.125)


def load_phase_mapper(path, cfg):
    """Rebuild a mapper from its CSV export; centers come from ``cfg``."""
    rows = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            rows[(int(row["beam_id"]), int(row["element_id"]))] = float(row["phase_rad"])
    n_beams = max(beam for beam, _ in rows)
    n_elem = max(element for _, element in rows)
    phases = np.empty((n_elem, n_beams))
    for (beam, element), phase in rows.items():
        phases[element - 1, beam - 1] = phase
    return PhaseMapper(phases=phases, beam_centers=_beam_centers(cfg, n_beams))


def pattern_argmax(mapper, cfg, beam, resolution=1e-4):
    """Grid search of the power pattern over the whole covered range."""
    lo, hi = coverage_interval(cfg)
    thetas = np.arange(lo, hi, resolution)
    m = np.arange(cfg.element_count)
    k = wavenumber(cfg)
    phase = np.outer(m, k * cfg.spacing * np.cos(thetas)) + mapper.phases[:, beam - 1][:, None]
    power = np.abs(np.exp(1j * phase).sum(axis=0)) ** 2 / cfg.element_count**2
    return thetas[int(np.argmax(power))]


class TestMapperConstruction:
    def test_shape_and_distinct_columns(self):
        mapper = build_phase_mapper(CFG8, 8)
        assert mapper.phases.shape == (8, 8)
        assert not np.allclose(mapper.phases[:, 0], mapper.phases[:, -1])

    def test_centers_are_cell_midpoints(self):
        mapper = build_phase_mapper(CFG8, 4)
        lo, hi = coverage_interval(CFG8)
        cell = (hi - lo) / 4
        assert_allclose(mapper.beam_centers, lo + cell * (np.arange(4) + 0.5), rtol=1e-12)

    def test_broadside_beam_has_zero_phases(self):
        # odd count puts one beam center exactly at broadside
        mapper = build_phase_mapper(CFG8, 7)
        middle = mapper.beam_centers[3]
        assert middle == pytest.approx(math.pi / 2, abs=1e-12)
        assert np.max(np.abs(mapper.phases[:, 3])) < 1e-9

    def test_progressive_phase_formula(self):
        mapper = build_phase_mapper(CFG8, 8)
        k = wavenumber(CFG8)
        for i in (0, 3, 7):
            expected = -np.arange(8) * k * CFG8.spacing * np.cos(mapper.beam_centers[i])
            assert_allclose(mapper.phases[:, i], expected, rtol=1e-12, atol=1e-15)

    def test_first_element_row_is_zero(self):
        mapper = build_phase_mapper(CFG64, 64)
        assert np.all(mapper.phases[0] == 0.0)

    def test_rejects_more_beams_than_elements(self):
        with pytest.raises(ValueError):
            build_phase_mapper(CFG8, 9)

    @pytest.mark.parametrize("elements", [1, 16, 128, 1024])
    def test_table_bytes_match_outer_product_reference(self, elements):
        # tobytes() makes the sign of every zero count, and the strides must agree too
        cfg = ArrayConfig(element_count=elements, spacing=0.0625, wavelength=0.125)
        lo, _ = coverage_interval(cfg)
        for beams in sorted({1, max(1, elements // 3), elements}):
            mapper = build_phase_mapper(cfg, beams)
            centres = lo + (np.arange(1, beams + 1) - 0.5) * (total_coverage(cfg) / beams)
            phases = np.outer(np.arange(elements), -wavenumber(cfg) * cfg.spacing * np.cos(centres))
            assert mapper.beam_centers.tobytes() == centres.tobytes()
            assert mapper.phases.tobytes() == phases.tobytes()
            assert mapper.phases.strides == phases.strides


class TestSteeringVector:
    def test_coherent_at_own_center(self):
        mapper = build_phase_mapper(CFG64, 64)
        for beam in (1, 17, 32, 64):
            vec = steering_vector(mapper.beam_centers[beam - 1], beam, mapper, CFG64)
            assert abs(np.abs(vec.entries.sum()) - 64.0) < 1e-9

    def test_unit_modulus_and_leading_one(self):
        mapper = build_phase_mapper(CFG8, 8)
        vec = steering_vector(1.1, 5, mapper, CFG8)
        assert_allclose(np.abs(vec.entries), 1.0, rtol=1e-12)
        assert vec.entries[0] == 1.0 + 0.0j
        assert vec.wavenumber == pytest.approx(2 * math.pi / 0.125, rel=1e-15)

    def test_single_element(self):
        cfg = ArrayConfig(element_count=1, spacing=0.0625, wavelength=0.125)
        mapper = build_phase_mapper(cfg, 1)
        vec = steering_vector(1.3, 1, mapper, cfg)
        assert vec.entries.shape == (1,)
        assert vec.entries[0] == 1.0 + 0.0j

    def test_half_power_at_half_width_offset(self):
        for cfg, n in ((ArrayConfig(16, 0.0625, 0.125), 16), (CFG64, 64)):
            mapper = build_phase_mapper(cfg, n)
            beam = n // 2 + 1
            center = mapper.beam_centers[beam - 1]
            off = center + beamwidth(cfg, n) / 2
            vec = steering_vector(off, beam, mapper, cfg).entries
            level = np.abs(vec.sum()) ** 2 / n**2
            assert abs(level - 0.5) <= 0.15 * 0.5

    def test_rejects_bad_beam(self):
        mapper = build_phase_mapper(CFG8, 8)
        with pytest.raises(ValueError):
            steering_vector(1.1, 0, mapper, CFG8)
        with pytest.raises(ValueError):
            steering_vector(1.1, 9, mapper, CFG8)


def cfg16():
    return ArrayConfig(16, 0.0625, 0.125)


class TestArrayFactor:
    def test_unity_at_center(self):
        mapper = build_phase_mapper(CFG8, 8)
        for beam in (1, 4, 8):
            value = array_factor(mapper.beam_centers[beam - 1], beam, mapper, CFG8)
            assert value == pytest.approx(1.0, abs=1e-12)

    def test_measured_width_matches_closed_form(self):
        # -3 dB width of the near-broadside beam against the design formula
        for cfg, n in ((cfg16(), 16), (CFG64, 64)):
            mapper = build_phase_mapper(cfg, n)
            beam = n // 2 + 1
            center = mapper.beam_centers[beam - 1]
            width = beamwidth(cfg, n)
            thetas = np.linspace(center - width, center + width, 4001)
            values = np.array([array_factor(t, beam, mapper, cfg) for t in thetas])
            above = np.where(values >= 0.5)[0]
            measured = thetas[above[-1]] - thetas[above[0]]
            assert abs(measured - width) / width <= 0.15

    def test_symmetric_about_broadside_center(self):
        mapper = build_phase_mapper(ArrayConfig(15, 0.0625, 0.125), 15)
        center = mapper.beam_centers[7]
        assert center == pytest.approx(math.pi / 2, abs=1e-12)
        for delta in (0.002, 0.005, 0.009):
            a = array_factor(center + delta, 8, mapper, ArrayConfig(15, 0.0625, 0.125))
            b = array_factor(center - delta, 8, mapper, ArrayConfig(15, 0.0625, 0.125))
            assert a == pytest.approx(b, rel=1e-6)

    def test_argmax_stays_in_cell(self):
        mapper = build_phase_mapper(CFG8, 8)
        lo, hi = coverage_interval(CFG8)
        cell = (hi - lo) / 8
        for beam in range(1, 9):
            peak = pattern_argmax(mapper, CFG8, beam)
            assert lo + (beam - 1) * cell - 1e-4 <= peak <= lo + beam * cell + 1e-4

    def test_custom_amplitudes_normalize(self):
        mapper = build_phase_mapper(CFG8, 8)
        amps = np.linspace(1.0, 2.0, 8)
        value = array_factor(mapper.beam_centers[2], 3, mapper, CFG8, amplitudes=amps)
        assert value == pytest.approx(1.0, abs=1e-12)


class TestSelectBeam:
    def test_first_cell(self):
        mapper = build_phase_mapper(CFG128, 128)
        lo, _ = coverage_interval(CFG128)
        beam, column = select_beam(lo + 1e-9, mapper, CFG128)
        assert beam == 1
        assert np.array_equal(column, mapper.phases[:, 0])

    def test_boundary_belongs_to_higher_cell(self):
        mapper = build_phase_mapper(CFG128, 128)
        lo, hi = coverage_interval(CFG128)
        cell = (hi - lo) / 128
        boundary = lo + 40 * cell
        below = np.nextafter(boundary, -np.inf)
        above = np.nextafter(boundary, np.inf)
        assert select_beam(below, mapper, CFG128)[0] == 40
        assert select_beam(above, mapper, CFG128)[0] == 41

    def test_boresight_maps_to_upper_middle(self):
        mapper = build_phase_mapper(CFG128, 128)
        beam, _ = select_beam(math.pi / 2, mapper, CFG128)
        assert beam == 65  # boundary angle, higher-indexed cell

    def test_past_coverage_resets_to_first_beam(self):
        mapper = build_phase_mapper(CFG128, 128)
        _, hi = coverage_interval(CFG128)
        beam, column = select_beam(hi + 0.2, mapper, CFG128)
        assert beam == 1
        assert np.array_equal(column, mapper.phases[:, 0])

    def test_before_coverage_raises(self):
        mapper = build_phase_mapper(CFG128, 128)
        lo, _ = coverage_interval(CFG128)
        with pytest.raises(NotYetEnteredError):
            select_beam(lo - 1e-6, mapper, CFG128)

    def test_center_round_trip(self):
        mapper = build_phase_mapper(CFG64, 64)
        for beam in range(1, 65):
            got, _ = select_beam(mapper.beam_centers[beam - 1], mapper, CFG64)
            assert got == beam

    def test_no_channel_state_in_signature(self):
        params = set(inspect.signature(select_beam).parameters)
        assert params == {"theta_b", "mapper", "cfg"}


class TestGeometryAgreement:
    """``geometry`` and ``codebook`` name the same beam, and its cell holds the angle."""

    LAMBDA = wavelength_from_frequency(2.4e9)
    CONFIGS = [
        CFG128,
        ArrayConfig(element_count=128, spacing=LAMBDA / 2, wavelength=LAMBDA),
    ]

    @staticmethod
    def angles(rng, lo, hi, n):
        """Uniform angles plus every cell edge and its neighbours, inside [lo, hi)."""
        thetas = [rng.uniform(lo, hi) for _ in range(20)]
        for k in range(n + 1):
            edge = lo + k * (hi - lo) / n
            thetas += [np.nextafter(edge, -np.inf), edge, np.nextafter(edge, np.inf)]
        return [float(t) for t in thetas if lo <= t < hi]

    @pytest.mark.parametrize("cfg", CONFIGS, ids=["dyadic", "2.4GHz"])
    def test_same_beam_and_its_cell_holds_the_angle(self, cfg):
        rng = random.Random(31)
        counts = sorted(set(rng.sample(range(1, 129), 24)) | {2**k for k in range(8)})
        assert any(n % 2 for n in counts)
        lo, hi = coverage_interval(cfg)
        d0 = 50.0
        for n in counts:
            mapper = build_phase_mapper(cfg, n)
            width = beamwidth(cfg, n)
            tol = 1e-12 * width
            for theta in self.angles(rng, lo, hi, n):
                beam = beam_index(theta, cfg, n)
                assert beam == select_beam(theta, mapper, cfg)[0], (n, theta)
                if theta == lo:
                    continue  # beam_bounds_on_rail takes the open interval
                left, right, _ = beam_bounds_on_rail(RailGeometry(d0, 20.0, theta), cfg, n)
                s = math.sin(theta)
                low, high = theta - left * s / d0, theta + right * s / d0
                # the implied cell is beam b's cell b-1 of the equal grid
                assert abs(low - (lo + (beam - 1) * width)) <= tol, (n, theta, beam)
                assert abs(high - low - width) <= tol, (n, theta, beam)
                assert low - tol <= theta < high + tol

    def test_upper_coverage_edge(self):
        # hi closes beam N in geometry; the codebook resets to beam 1 there
        mapper = build_phase_mapper(CFG128, 32)
        _, hi = coverage_interval(CFG128)
        assert beam_index(hi, CFG128, 32) == 32
        assert select_beam(hi, mapper, CFG128)[0] == 1


    @pytest.mark.parametrize("cfg", CONFIGS, ids=["dyadic", "2.4GHz"])
    @pytest.mark.parametrize("n", [1, 3, 7, 32, 64, 128])
    def test_beam_geometry_is_its_public_parts(self, cfg, n):
        lo, hi = coverage_interval(cfg)
        thetas = [t for t in TestTraverse.edge_angles(cfg, n) if lo < t < hi]
        assert len(thetas) >= n
        for theta in thetas:
            geo = RailGeometry(50.0, 20.0, theta)
            got = beam_geometry(cfg, geo, n)
            assert (got.beam_count, got.beamwidth) == (n, beamwidth(cfg, n))
            assert got.directivity == directivity(cfg, n)
            assert got.beam_index == beam_index(theta, cfg, n), (n, theta)
            assert got.index_offset == index_offset(theta, cfg, n), (n, theta)
            bounds = (got.left_bound, got.right_bound, got.coverage_length)
            assert bounds == beam_bounds_on_rail(geo, cfg, n), (n, theta)

    def test_beam_geometry_error_precedence(self):
        # the count, then the open coverage, then the singular sine
        lo, _ = coverage_interval(CFG128)
        with pytest.raises(ValueError, match="exceeds element_count") as info:
            beam_geometry(CFG128, RailGeometry(50.0, 20.0, lo - 0.1), 129)
        assert not isinstance(info.value, OutOfCoverageError)
        wide = ArrayConfig(element_count=8, spacing=0.03, wavelength=0.125)  # coverage above pi
        lo, _ = coverage_interval(wide)
        assert lo < 0.0
        with pytest.raises(OutOfCoverageError):
            beam_geometry(wide, RailGeometry(50.0, 20.0, lo - 0.1), 4)
        with pytest.raises(SingularGeometryError):
            beam_geometry(wide, RailGeometry(50.0, 20.0, 0.0), 4)


class TestTraverse:
    def test_empty_trajectory(self):
        mapper = build_phase_mapper(CFG8, 8)
        log = simulate_traverse([], mapper, CFG8)
        assert log.samples == ()

    def test_constant_angle_never_switches(self):
        mapper = build_phase_mapper(CFG8, 8)
        log = simulate_traverse([(t * 0.1, 1.2) for t in range(50)], mapper, CFG8)
        assert log.switch_count() == 0

    def test_monotone_pass_switches_once_per_boundary(self):
        mapper = build_phase_mapper(CFG64, 64)
        lo, hi = coverage_interval(CFG64)
        thetas = np.linspace(lo + 1e-9, hi - 1e-9, 20000)
        log = simulate_traverse(
            [(i * 1e-3, float(t)) for i, t in enumerate(thetas)], mapper, CFG64
        )
        assert log.switch_count() == 63
        ids = [s.beam_id for s in log.samples]
        assert ids == sorted(ids)

    def test_switches_cluster_near_boresight(self):
        # angular rate peaks at boresight: v0 * sin(theta)^2 / d0
        mapper = build_phase_mapper(CFG128, 128)
        lo, hi = coverage_interval(CFG128)
        d0, v0 = 50.0, 100.0
        u_start = d0 / math.tan(lo + 1e-6)
        trajectory = []
        t = 0.0
        while True:
            u = u_start - v0 * t
            theta = math.atan2(d0, u)
            if theta >= hi - 1e-6:
                break
            trajectory.append((t, theta))
            t += 0.0005
        log = simulate_traverse(trajectory, mapper, CFG128)
        times = log.switch_times()
        assert len(times) == 127
        gaps = np.diff(times)
        middle = len(gaps) // 2
        edge_gap = np.mean(gaps[:5])
        center_gap = np.mean(gaps[middle - 2 : middle + 3])
        assert center_gap < edge_gap / 1.5

    @staticmethod
    def edge_angles(cfg, n):
        """Every cell edge ``lo + k*w`` and the float just below it, ``pi/2 +- k*w``, ``lo`` and ``hi``."""
        lo, hi = coverage_interval(cfg)
        width = beamwidth(cfg, n)
        thetas = [lo, hi]
        for k in range(n + 1):
            edge = lo + k * width
            thetas += [edge, float(np.nextafter(edge, -np.inf))]
            thetas += [math.pi / 2 + k * width, math.pi / 2 - k * width]
        return [t for t in thetas if t >= lo]

    @pytest.mark.parametrize("cfg", TestGeometryAgreement.CONFIGS, ids=["dyadic", "2.4GHz"])
    @pytest.mark.parametrize("n", [1, 3, 7, 32, 64, 128])
    def test_every_fix_agrees_with_select_beam_and_beam_index(self, cfg, n):
        mapper = build_phase_mapper(cfg, n)
        lo, hi = coverage_interval(cfg)
        thetas = self.edge_angles(cfg, n)
        assert hi in thetas and any(t > hi for t in thetas)
        log = simulate_traverse([(0.5 * i, t) for i, t in enumerate(thetas)], mapper, cfg)
        previous = None
        for i, (sample, theta) in enumerate(zip(log.samples, thetas)):
            beam = select_beam(theta, mapper, cfg)[0]
            assert sample == (0.5 * i, theta, beam, previous is not None and beam != previous)
            if theta < hi:
                assert beam == beam_index(theta, cfg, n), (n, theta)
            previous = beam

    def test_sample_is_a_tuple(self):
        mapper = build_phase_mapper(CFG8, 8)
        sample = simulate_traverse([(0.0, 1.2)], mapper, CFG8).samples[0]
        assert isinstance(sample, TraverseSample)
        assert sample == (0.0, 1.2, select_beam(1.2, mapper, CFG8)[0], False)
        with pytest.raises(AttributeError):
            sample.beam_id = 1

    def test_nan_fix_raises_out_of_coverage(self):
        mapper = build_phase_mapper(CFG64, 64)
        lo, hi = coverage_interval(CFG64)
        with pytest.raises(OutOfCoverageError) as info:
            simulate_traverse([(0.0, 1.2), (0.1, math.nan)], mapper, CFG64)
        assert str(info.value) == f"theta_b=nan outside coverage [{lo:.6g}, {hi:.6g}]"
        with pytest.raises(OutOfCoverageError) as info:
            select_beam(math.nan, mapper, CFG64)
        assert str(info.value) == f"theta_b=nan outside coverage [{lo:.6g}, {hi:.6g}]"

    def test_fix_just_below_coverage_raises_not_yet_entered(self):
        mapper = build_phase_mapper(CFG64, 64)
        lo, _ = coverage_interval(CFG64)
        below = float(np.nextafter(lo, -np.inf))
        for trajectory in ([(0.0, below)], [(0.0, lo), (0.1, below)]):
            with pytest.raises(NotYetEnteredError) as info:
                simulate_traverse(trajectory, mapper, CFG64)
            assert str(info.value) == f"theta_b={below:.6g} precedes coverage start {lo:.6g}"

    def test_first_faulty_fix_decides_the_error(self):
        mapper = build_phase_mapper(CFG64, 64)
        lo, _ = coverage_interval(CFG64)
        below = float(np.nextafter(lo, -np.inf))
        # at one fix the time check comes before the angle's
        with pytest.raises(ValueError, match="strictly increasing") as info:
            simulate_traverse([(0.0, 1.2), (0.0, below)], mapper, CFG64)
        assert not isinstance(info.value, NotYetEnteredError)
        with pytest.raises(NotYetEnteredError):
            simulate_traverse([(0.0, below), (0.0, 1.2)], mapper, CFG64)

    @pytest.mark.parametrize("n", [1, 3, 64])
    def test_sample_field_types(self, n):
        mapper = build_phase_mapper(CFG64, n)
        thetas = self.edge_angles(CFG64, n)
        log = simulate_traverse([(0.5 * i, t) for i, t in enumerate(thetas)], mapper, CFG64)
        assert len(log.samples) == len(thetas)
        for s in log.samples:
            assert type(s) is TraverseSample
            assert type(s.beam_id) is int and type(s.switched) is bool

    def test_select_beam_error_messages(self):
        mapper = build_phase_mapper(CFG64, 64)
        lo, hi = coverage_interval(CFG64)
        below = float(np.nextafter(lo, -np.inf))
        with pytest.raises(NotYetEnteredError) as info:
            select_beam(below, mapper, CFG64)
        assert str(info.value) == f"theta_b={below:.6g} precedes coverage start {lo:.6g}"
        with pytest.raises(OutOfCoverageError) as info:
            select_beam(math.nan, mapper, CFG64)
        assert str(info.value) == f"theta_b=nan outside coverage [{lo:.6g}, {hi:.6g}]"

    def test_requires_increasing_times(self):
        mapper = build_phase_mapper(CFG8, 8)
        nan, inf = math.nan, math.inf
        for times in (
            [0.0, 0.0],
            [0.0, nan, 0.0],  # a nan between two equal times
            [nan, 0.0],
            [nan],
            [0.0, 1.0, nan],
            [0.0, inf],
            [-inf, 0.0],
        ):
            with pytest.raises(ValueError, match="trajectory times must be"):
                simulate_traverse([(t, 1.2) for t in times], mapper, CFG8)


def per_row_reference(mapper):
    """Each beam's text, one ``row_format`` call per row."""
    row = row_format(PHASE_TABLE_HEADER, int_columns=("beam_id", "element_id"))
    return [
        "".join(row.format(beam, m, float(mapper.phases[m - 1, beam - 1])) for m in range(1, mapper.element_count + 1))
        for beam in range(1, mapper.beam_count + 1)
    ]


def small_mapper(elements, beams):
    return build_phase_mapper(ArrayConfig(element_count=elements, spacing=0.0625, wavelength=0.125), beams)


class TestPhaseTableText:
    """The streamed phase table against a per-row reference in the shared CSV format."""

    @pytest.mark.parametrize("elements, beams", [(16, 5), (7, 3), (1, 1)])
    def test_bytes_match_per_row_reference(self, elements, beams):
        mapper = small_mapper(elements, beams)
        chunks = list(phase_table_text(mapper))
        assert chunks == per_row_reference(mapper)
        assert all(chunk.count("\n") == elements for chunk in chunks)

    def test_element_one_keeps_the_sign_of_zero(self):
        # element 1's phase is the product 0.0 * (-k d cos(centre)): -0.0 where cos > 0
        mapper = build_phase_mapper(CFG8, 8)
        cosines = np.cos(mapper.beam_centers)
        assert cosines[0] > 0 > cosines[-1]
        chunks = list(phase_table_text(mapper))
        assert chunks[0].startswith("1,1,-0\n")
        assert chunks[-1].startswith("8,1,0\n")

    def test_default_table_stays_in_process(self):
        # 128 x 128 rows: one chunk per beam, no helper
        assert 128 * 128 < codebook._SPLIT_ROWS
        assert len(list(phase_table_text(build_phase_mapper(CFG128, 128)))) == 128


@pytest.fixture
def scratch_tmp(tmp_path, monkeypatch):
    """The split's temporary files go here, so a test can see that none is left."""
    folder = tmp_path / "tmp"
    folder.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(folder))
    return folder


def assert_nothing_left(folder):
    with pytest.raises(ChildProcessError):  # no child process, running or unreaped
        os.waitpid(-1, os.WNOHANG)
    assert list(folder.iterdir()) == []


class TestSplitPhaseTable:
    """Large tables: the lower half of the beams formatted here, the upper half by a helper process."""

    @pytest.mark.parametrize("elements, beams", [(16, 5), (7, 3), (1, 1), (64, 64)])
    def test_bytes_match_per_row_reference(self, elements, beams, scratch_tmp):
        mapper = small_mapper(elements, beams)
        chunks = list(codebook._split_table_text(mapper.phases))
        assert "".join(chunks) == "".join(per_row_reference(mapper))
        assert all(chunk.endswith("\n") for chunk in chunks)
        assert_nothing_left(scratch_tmp)

    def test_element_one_keeps_the_sign_of_zero(self, scratch_tmp):
        text = "".join(codebook._split_table_text(build_phase_mapper(CFG8, 8).phases))
        assert text.startswith("1,1,-0\n")
        assert "\n8,1,0\n" in text  # beam 8, formatted by the helper
        assert_nothing_left(scratch_tmp)

    def test_table_above_the_threshold(self, scratch_tmp):
        mapper = small_mapper(1024, 513)  # an odd beam count: the helper takes the larger half
        assert mapper.element_count * mapper.beam_count > codebook._SPLIT_ROWS
        chunks = list(phase_table_text(mapper))
        assert "".join(chunks) == "".join(per_row_reference(mapper))
        assert all(chunk.endswith("\n") for chunk in chunks)
        if codebook._cpus() >= 2:
            assert len(chunks) != mapper.beam_count  # the helper's text came in blocks
        assert_nothing_left(scratch_tmp)

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_failed_write_reaps_the_helper(self, scratch_tmp):
        with pytest.raises(OSError):
            write_csv("/dev/full", PHASE_TABLE_HEADER, codebook._split_table_text(small_mapper(64, 64).phases))
        assert_nothing_left(scratch_tmp)

    def test_directory_removed_mid_run(self, scratch_tmp):
        chunks = codebook._split_table_text(small_mapper(64, 64).phases)
        next(chunks)
        (folder,) = scratch_tmp.iterdir()
        shutil.rmtree(folder)
        with pytest.raises(OSError):
            list(chunks)
        assert_nothing_left(scratch_tmp)

    def test_closed_after_the_first_chunk(self, scratch_tmp):
        chunks = codebook._split_table_text(small_mapper(64, 64).phases)
        assert next(chunks).startswith("1,1,")
        chunks.close()
        assert_nothing_left(scratch_tmp)

    def test_failing_helper_raises_with_its_stderr(self, scratch_tmp, monkeypatch):
        monkeypatch.setattr(codebook, "_HELPER", "raise SystemExit('helper failed on purpose')")
        with pytest.raises(ChildProcessError, match="status 1: helper failed on purpose"):
            list(codebook._split_table_text(small_mapper(16, 5).phases))
        assert_nothing_left(scratch_tmp)

    def test_cli_reports_a_failing_helper(self, scratch_tmp, tmp_path, monkeypatch, capsys):
        if codebook._cpus() < 2:
            pytest.skip("the split needs two CPUs")
        monkeypatch.setattr(codebook, "_SPLIT_ROWS", 1)
        monkeypatch.setattr(codebook, "_HELPER", "raise SystemExit('helper failed on purpose')")
        assert main(["--out", str(tmp_path / "out"), "export-codebook"]) == 2
        assert capsys.readouterr().err == (
            "cannot write output: phase table helper exited with status 1: helper failed on purpose\n"
        )
        assert_nothing_left(scratch_tmp)

    def test_helper_keeps_the_bytecode_policy(self, tmp_path):
        # -I hides PYTHONDONTWRITEBYTECODE from the helper, so the split passes it on as -B
        shutil.copytree(os.path.dirname(codebook.__file__), tmp_path / "railbeam", ignore=shutil.ignore_patterns("__pycache__"))
        code = "from railbeam.codebook import _split_table_text, build_phase_mapper, ArrayConfig\n"
        code += "list(_split_table_text(build_phase_mapper(ArrayConfig(16, 0.0625, 0.125), 5).phases))"
        env = dict(os.environ, PYTHONPATH=str(tmp_path), PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert not (tmp_path / "railbeam" / "__pycache__").exists()

    def test_helper_imports_no_numpy(self, tmp_path):
        columns = [[0.5, -0.0, 1e-300, 2.0 / 3.0], [-1.25, 3e10, 0.1, -7.0]]
        with open(tmp_path / "columns.f64", "wb") as fh:
            for column in columns:
                array("d", column).tofile(fh)
        root = os.path.dirname(os.path.dirname(codebook.__file__))
        check = "; assert 'numpy' not in sys.modules, sorted(sys.modules)"
        argv = [sys.executable, "-I", "-S", "-c", codebook._HELPER + check, root]
        argv += [str(tmp_path / "columns.f64"), str(tmp_path / "part.csv"), "3", "2", "4"]
        proc = subprocess.run(argv, stdin=subprocess.DEVNULL, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        row = row_format(PHASE_TABLE_HEADER, int_columns=("beam_id", "element_id"))
        expected = "".join(
            row.format(beam, m, value) for beam, column in enumerate(columns, 3) for m, value in enumerate(column, 1)
        )
        assert (tmp_path / "part.csv").read_text() == expected


class TestCsvRoundTrip:
    def test_mapper_export_import(self, tmp_path):
        mapper = build_phase_mapper(CFG64, 64)
        path = tmp_path / "codebook.csv"
        export_phase_mapper(mapper, path)
        loaded = load_phase_mapper(path, CFG64)
        assert loaded.phases.shape == mapper.phases.shape
        assert_allclose(loaded.phases, mapper.phases, rtol=1e-11, atol=1e-12)
        assert_allclose(loaded.beam_centers, mapper.beam_centers, rtol=1e-12)
        header = path.read_text().splitlines()[0]
        assert header == "beam_id,element_id,phase_rad"

    def test_selection_agrees_after_round_trip(self, tmp_path):
        mapper = build_phase_mapper(CFG64, 64)
        path = tmp_path / "codebook.csv"
        export_phase_mapper(mapper, path)
        loaded = load_phase_mapper(path, CFG64)
        lo, hi = coverage_interval(CFG64)
        for theta in np.linspace(lo + 1e-6, hi - 1e-6, 57):
            assert select_beam(theta, loaded, CFG64)[0] == select_beam(theta, mapper, CFG64)[0]

    def test_traverse_export(self, tmp_path):
        mapper = build_phase_mapper(CFG8, 8)
        log = simulate_traverse([(0.0, 1.0), (0.5, 1.3), (1.0, 1.6)], mapper, CFG8)
        path = tmp_path / "traverse.csv"
        export_traverse(log, path)
        lines = path.read_bytes().decode().split("\n")
        assert lines[0] == "t_s,theta_b_rad,beam_id,switch"
        assert len(lines) == 5 and lines[-1] == ""
        assert lines[1].endswith(",0")
