"""Acceptance gate: every release criterion with its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion. Criteria 10 and 11 assert that the encounter region can only
grow with the entry offset; the allocation model provably peaks near a
mid offset instead (see README, "Known red criteria"), so those two
ordering clauses are expected to stay red until the ordering claim itself
is revised.
"""

import math
import random
import time

import numpy as np
import pytest

from railbeam.codebook import build_phase_mapper, wavenumber
from railbeam.config import load_config
from railbeam.encounter import no_priority_allocation, single_train_rmax, symmetric_rate
from railbeam.experiments import EXPERIMENTS, run_experiment
from railbeam.geometry import (
    ArrayConfig,
    RailGeometry,
    beam_bounds_on_rail,
    beamwidth,
    coverage_interval,
    directivity,
)
from railbeam.positioning import PositioningModel, effective_probability, search_beam_count

DEFAULTS = load_config(None)
NOISE = DEFAULTS.noise_power_w
P0 = DEFAULTS.p0_w


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num:02d}] {name}: {status}{suffix}")


def default_scenario(eta=0.0, p0_w=None):
    return DEFAULTS.encounter_scenario(eta=eta, p0_w=p0_w)


def test_c01_gain_width_identity():
    start = time.time()
    rng = random.Random(101)
    worst = 0.0
    for _ in range(1000):
        n = rng.randrange(1, 513)
        cfg = ArrayConfig(
            element_count=n,
            spacing=10.0 ** rng.uniform(-3.0, 0.0),
            wavelength=10.0 ** rng.uniform(-2.0, 0.0),
            array_type_factor=rng.choice([2, 4]),
            bs_coverage_angle=1e-12,
        )
        target = cfg.array_type_factor * cfg.design_constant / math.pi
        err = abs(directivity(cfg, n) * beamwidth(cfg, n) - target) / target
        worst = max(worst, err)
    ok = worst <= 1e-12
    report(1, "gain-width identity", ok, f"worst rel {worst:.2e}, {time.time()-start:.2f}s")
    assert ok


def test_c02_spacing_count_duality():
    start = time.time()
    rng = random.Random(202)
    ok = True
    for _ in range(100):
        base = rng.randrange(1, 1 << 20) / float(1 << 22)
        lam = 10.0 ** rng.uniform(-2.0, 0.0)
        scale = rng.choice([2, 3, 4, 5, 6, 8])
        n = scale * rng.randrange(1, 64)
        a = ArrayConfig(element_count=n, spacing=base, wavelength=lam, bs_coverage_angle=1e-12)
        b = ArrayConfig(
            element_count=n, spacing=scale * base, wavelength=lam, bs_coverage_angle=1e-12
        )
        if beamwidth(a, n) != beamwidth(b, n // scale):
            ok = False
        if directivity(a, n) != directivity(b, n // scale):
            ok = False
    report(2, "spacing/count duality bit-identical", ok, f"{time.time()-start:.2f}s")
    assert ok


def _exhaustive_doubling(cfg, geo, model):
    best = None
    n = 1
    while n <= model.max_beam_count:
        left, right, _ = beam_bounds_on_rail(geo, cfg, n)
        if effective_probability(left, right, model.error_stddev) >= model.threshold:
            best = n
        n *= 2
    if best is None:
        return 1, False
    return best, True


def test_c03_search_matches_exhaustive():
    start = time.time()
    cfg = DEFAULTS.array_config()
    lo, hi = coverage_interval(cfg)
    rng = random.Random(303)
    mismatches = 0
    for _ in range(500):
        geo = RailGeometry(50.0, 20.0, rng.uniform(lo + 1e-5, hi - 1e-5))
        model = PositioningModel(
            error_stddev=10.0 ** rng.uniform(-2.0, 1.7),
            threshold=rng.uniform(0.5, 0.995),
            max_beam_count=128,
        )
        got = search_beam_count(cfg, geo, model)
        n, feasible = _exhaustive_doubling(cfg, geo, model)
        if (got.optimal_beam_count, got.feasible) != (n, feasible):
            mismatches += 1
    ok = mismatches == 0
    report(3, "beam-count search equals exhaustive scan", ok,
           f"{mismatches} mismatches, {time.time()-start:.2f}s")
    assert ok


def test_c04_probability_monotone_under_doubling():
    start = time.time()
    cfg = DEFAULTS.array_config()
    lo, hi = coverage_interval(cfg)
    rng = random.Random(404)
    worst = -1.0
    for _ in range(500):
        geo = RailGeometry(50.0, 20.0, rng.uniform(lo + 1e-5, hi - 1e-5))
        sigma = 10.0 ** rng.uniform(-2.0, 1.5)
        previous = None
        n = 1
        while n <= 128:
            left, right, _ = beam_bounds_on_rail(geo, cfg, n)
            prob = effective_probability(left, right, sigma)
            if previous is not None:
                worst = max(worst, prob - previous)
            previous = prob
            n *= 2
    ok = worst <= 1e-12
    report(4, "coverage probability falls as beams split", ok,
           f"worst increase {worst:.2e}, {time.time()-start:.2f}s")
    assert ok


def test_c05_pattern_width_matches_closed_form():
    start = time.time()
    ok = True
    details = []
    for n in (16, 32, 64):
        cfg = ArrayConfig(element_count=n, spacing=0.0625, wavelength=0.125)
        mapper = build_phase_mapper(cfg, n)
        beam = n // 2 + 1
        center = mapper.beam_centers[beam - 1]
        width = beamwidth(cfg, n)
        thetas = np.linspace(center - width, center + width, 8001)
        k = wavenumber(cfg)
        phase = np.outer(np.arange(n), k * cfg.spacing * np.cos(thetas))
        phase += mapper.phases[:, beam - 1][:, None]
        power = np.abs(np.exp(1j * phase).sum(axis=0)) ** 2 / n**2
        above = np.where(power >= 0.5)[0]
        measured = thetas[above[-1]] - thetas[above[0]]
        rel = abs(measured - width) / width
        details.append(f"N={n}: {rel:.3f}")
        ok = ok and rel <= 0.15
    report(5, "measured -3 dB width matches design width", ok,
           "; ".join(details) + f", {time.time()-start:.2f}s")
    assert ok


def test_c06_codebook_pointing():
    start = time.time()
    cfg = ArrayConfig(element_count=64, spacing=0.0625, wavelength=0.125)
    mapper = build_phase_mapper(cfg, 64)
    lo, hi = coverage_interval(cfg)
    thetas = np.arange(lo, hi, 1e-4)
    k = wavenumber(cfg)
    steering = np.exp(1j * np.outer(np.arange(64), k * cfg.spacing * np.cos(thetas)))
    weights = np.exp(1j * mapper.phases)
    power = np.abs(weights.T @ steering) ** 2
    peaks = thetas[np.argmax(power, axis=1)]
    cell = (hi - lo) / 64
    in_cell = 0
    for beam in range(64):
        low = lo + beam * cell
        if low - 1e-4 <= peaks[beam] <= low + cell + 1e-4:
            in_cell += 1
    ok = in_cell == 64
    report(6, "every beam peaks inside its own cell", ok,
           f"{in_cell}/64, {time.time()-start:.2f}s")
    assert ok


def _trapezoid_gain(sc, train, a, b, n=65537):
    if b <= a:
        return 0.0
    t = np.linspace(a, b, n)
    shift = sc.half_coverage - (sc.entry_offset * sc.half_coverage if train == 1 else 0.0)
    d = np.sqrt(
        sc.perpendicular_distance**2 + sc.antenna_height**2 + (sc.speed * t - shift) ** 2
    )
    return float(np.trapezoid(d**sc.path_loss_exponent, t))


def test_c07_power_budget_equalities():
    start = time.time()
    ok = True
    worst = 0.0
    for eta in (0.0, 0.8, 1.6):
        sc = default_scenario(eta=eta)
        r_max_2 = single_train_rmax(sc, 2)
        for fraction in (0.1, 0.3, 0.5, 0.7, 0.9):
            rate_2 = fraction * r_max_2
            rate_1, lam, profile = no_priority_allocation(sc, rate_2)
            assert not profile.h2_budget_slack
            ts = lam * sc.half_coverage / sc.speed
            coeff = sc.noise_power / (128.0 * sc.avg_power) * sc.speed / (2 * sc.half_coverage)
            use1 = coeff * (2.0**rate_1 - 1.0) * (
                _trapezoid_gain(sc, 1, sc.entry_time, 0.0)
                + 2.0**rate_2 * _trapezoid_gain(sc, 1, 0.0, ts)
                + _trapezoid_gain(sc, 1, ts, sc.overlap_end)
            )
            use2 = coeff * (2.0**rate_2 - 1.0) * (
                _trapezoid_gain(sc, 2, sc.overlap_end, sc.exit_time)
                + _trapezoid_gain(sc, 2, 0.0, ts)
                + 2.0**rate_1 * _trapezoid_gain(sc, 2, ts, sc.overlap_end)
            )
            worst = max(worst, abs(use1 - 1.0), abs(use2 - 1.0))
            ok = ok and abs(use1 - 1.0) <= 1e-6 and abs(use2 - 1.0) <= 1e-6
    report(7, "both power budgets bind at the solution", ok,
           f"worst residual {worst:.2e}, {time.time()-start:.2f}s")
    assert ok


def test_c08_mac_feasibility():
    start = time.time()
    rng = np.random.default_rng(808)
    worst = math.inf
    for eta in (0.0, 0.8, 1.6):
        sc = default_scenario(eta=eta)
        r_max_2 = single_train_rmax(sc, 2)
        for fraction in (0.25, 0.75):
            _, _, profile = no_priority_allocation(sc, fraction * r_max_2)
            times = rng.uniform(sc.entry_time, sc.exit_time, 10_000)
            for t in times:
                s1, s2, s12 = profile.mac_slacks(float(t))
                worst = min(worst, s1, s2, s12)
    ok = worst >= -1e-9
    report(8, "instantaneous access constraints hold", ok,
           f"worst slack {worst:.2e}, {time.time()-start:.2f}s")
    assert ok


def test_c09_allocation_never_beaten_by_random_feasible():
    start = time.time()
    sc = default_scenario(eta=0.0)
    rate_2 = single_train_rmax(sc, 2) / 2
    rate_1, _, _ = no_priority_allocation(sc, rate_2)

    n = 200
    t = np.linspace(0.0, sc.exit_time, n)
    wk = np.full(n, sc.exit_time / (n - 1))
    wk[0] *= 0.5
    wk[-1] *= 0.5
    d3 = (
        sc.perpendicular_distance**2 + sc.antenna_height**2 + (sc.speed * t - sc.half_coverage) ** 2
    ) ** (sc.path_loss_exponent / 2)
    inv = d3 * sc.noise_power / (128.0 * sc.avg_power)
    scale = sc.speed / (2.0 * sc.half_coverage)
    boost = 2.0**rate_2

    rng = np.random.default_rng(42)
    best = -math.inf
    for candidate in range(1000):
        if candidate < 500:
            mask = rng.uniform(size=n) < rng.uniform(0.05, 0.95)
        else:
            split = rng.integers(0, n + 1)
            mask = np.zeros(n, dtype=bool)
            if rng.uniform() < 0.5:
                mask[:split] = True
            else:
                mask[split:] = True
        budget_1 = scale * np.sum(wk * inv * np.where(mask, boost, 1.0))
        root_1 = math.log2(1.0 + 1.0 / budget_1)
        clean = scale * np.sum(wk * inv * mask) * (boost - 1.0)
        boosted = scale * np.sum(wk * inv * ~mask) * (boost - 1.0)
        headroom = 1.0 - clean
        if boosted <= 0.0:
            root_2 = math.inf if headroom >= 0 else -math.inf
        elif headroom <= 0.0:
            root_2 = -math.inf
        else:
            root_2 = math.log2(headroom / boosted)
        best = max(best, min(root_1, root_2))
    ok = best <= rate_1 + 1e-3
    report(9, "no random feasible allocation beats the solution", ok,
           f"best oracle {best:.6f} vs {rate_1:.6f}, {time.time()-start:.2f}s")
    assert ok


def test_c10_region_structure():
    start = time.time()
    grid = 21
    etas = (0.0, 0.8, 1.6, 2.0)
    sc0 = default_scenario(eta=0.0)
    r_max_2 = single_train_rmax(sc0, 2)
    r2_grid = [r_max_2 * j / (grid - 1) for j in range(grid)]
    boundaries = {}
    for eta in etas:
        sc = default_scenario(eta=eta)
        boundaries[eta] = [no_priority_allocation(sc, r2)[0] for r2 in r2_grid]

    nesting_ok = True
    for low, high in zip(etas, etas[1:]):
        step_ok = all(
            boundaries[high][i] >= boundaries[low][i] - 1e-9 for i in range(grid)
        )
        if step_ok:
            print(f"    nesting eta {low:g} -> {high:g}: ok")
        else:
            losses = [boundaries[low][i] - boundaries[high][i] for i in range(grid)]
            worst = max(range(grid), key=losses.__getitem__)
            failing = sum(loss > 1e-9 for loss in losses)
            print(
                f"    nesting eta {low:g} -> {high:g} fails by {losses[worst]:.3g} bit/s/Hz"
                f" at R2 = {r2_grid[worst]:.4g} (grid point {worst} of {grid};"
                f" {failing} points fail)"
            )
        nesting_ok = nesting_ok and step_ok

    spread = max(boundaries[2.0]) - min(boundaries[2.0])
    rectangle_ok = spread < 1e-9
    print(f"    eta=2 rectangle spread: {spread:.2e}")

    r1_max = single_train_rmax(sc0, 1)
    sharing = [r1_max * (1.0 - r2_grid[i] / r_max_2) for i in range(grid)]
    sharing_ok = all(boundaries[0.0][i] >= sharing[i] - 1e-9 for i in range(grid))
    if sharing_ok:
        print("    eta=0 dominates time sharing: ok")
    else:
        shortfalls = [sharing[i] - boundaries[0.0][i] for i in range(grid)]
        worst = max(range(grid), key=shortfalls.__getitem__)
        print(
            f"    eta=0 falls below time sharing by {shortfalls[worst]:.3g} bit/s/Hz"
            f" at R2 = {r2_grid[worst]:.4g} (grid point {worst} of {grid})"
        )

    ok = nesting_ok and rectangle_ok and sharing_ok
    report(10, "region boundaries nest with the entry offset", ok,
           f"{time.time()-start:.2f}s")
    assert ok


def test_c11_symmetric_sweep():
    start = time.time()
    etas = [2.0 * i / 20 for i in range(21)]
    powers_dbm = (37.0, 43.0, 47.0)
    table = {}
    for dbm in powers_dbm:
        p0 = 10.0 ** ((dbm - 30.0) / 10.0)
        table[dbm] = [symmetric_rate(default_scenario(eta=eta, p0_w=p0)) for eta in etas]

    monotone_ok = True
    for dbm in powers_dbm:
        rates = table[dbm]
        column_ok = all(rates[i] <= rates[i + 1] + 1e-9 for i in range(20))
        print(f"    R0 nondecreasing in eta at {dbm:g} dBm: {'ok' if column_ok else 'VIOLATED'}")
        for i in range(20):
            if rates[i] > rates[i + 1] + 1e-9:
                print(
                    f"      R0 drops {rates[i] - rates[i + 1]:.3g} bit/s/Hz"
                    f" between eta {etas[i]:g} and {etas[i + 1]:g}"
                )
        monotone_ok = monotone_ok and column_ok

    ordering_ok = all(
        table[37.0][i] < table[43.0][i] < table[47.0][i] for i in range(21)
    )
    print(f"    R0 ordered across powers at every offset: {'ok' if ordering_ok else 'VIOLATED'}")
    for i in range(21):
        column = [table[dbm][i] for dbm in powers_dbm]
        if not column[0] < column[1] < column[2]:
            print(f"      at eta {etas[i]:g}: R0 = {', '.join(f'{r:.6g}' for r in column)}")

    ok = monotone_ok and ordering_ok
    report(11, "symmetric rate sweep orderings", ok, f"{time.time()-start:.2f}s")
    assert ok


def test_c12_harness_determinism(tmp_path):
    start = time.time()
    cfg_path = tmp_path / "small.cfg"
    cfg_path.write_text(
        "element_count = 32\nbeam_count = 32\ntheta_grid_size = 7\n"
        "sigma_grid_m = 1:9:3\np_th_list = 0.8,0.9\nr2_grid_size = 5\n"
        "eta_list = 0,0.8,2\neta_grid_size = 3\np0_dbm_list = 37,43\n"
        "tradeoff_grid_size = 12\ntraverse_dt_s = 0.02\n"
    )
    cfg = load_config(cfg_path)
    first, second = tmp_path / "first", tmp_path / "second"
    for name in EXPERIMENTS:
        run_experiment(cfg, name, first)
        run_experiment(cfg, name, second)
    compared = 0
    identical = True
    for csv_path in sorted(first.glob("*.csv")):
        compared += 1
        if csv_path.read_bytes() != (second / csv_path.name).read_bytes():
            identical = False
    ok = identical and compared >= 10
    report(12, "repeated runs give byte-identical CSVs", ok,
           f"{compared} files, {time.time()-start:.2f}s")
    assert ok
