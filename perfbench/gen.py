"""Seeded input generation for the benchmark workloads.

Every workload's inputs are a pure function of ``(workload, seed)``. The
inputs are plain JSON data (numbers, lists, config text), so the program
under test only ever sees generated values, and their SHA-256 digest shows
that two runs used identical inputs.

Draws are stratified where a value drives the cost of the work (entry
offset, path-loss exponent), so that two seeds give different inputs of
the same overall difficulty.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

WORKLOADS = ("encounter-cold", "region-sweep", "beam-plan", "codebook-export")

ENCOUNTER_SCENARIOS = 100
ENCOUNTER_GRID = 201
PATH_LOSS_EXPONENTS = (2.0, 2.5, 3.0, 3.5, 4.0)

REGION_ETAS = 11
REGION_GRID = 1001

BEAM_QUERIES = 4000
TRACK_FIXES = 32
TRACK_DT_S = 0.01
TRACK_HALF_SPAN_M = 40.0
# Noisy fixes are clipped here; atan2(d0 = 50 m, 55 m) stays inside the
# default coverage interval (0.685, 2.456) rad.
TRACK_CLIP_M = 55.0
P_TH_CHOICES = (0.7, 0.8, 0.9)

CODEBOOK_SIZE = 1024

# Defaults the generators rely on; the worker rechecks them against
# railbeam.config before use.
DEFAULT_D0_M = 50.0
DEFAULT_COVERAGE = (0.6852582234315907, 2.4563344301582024)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _stratified(rng: random.Random, count: int, lo: float, hi: float, fill: float = 1.0) -> list[float]:
    """One uniform draw per equal-width stratum of ``[lo, hi]``, shuffled.

    ``fill < 1`` keeps each draw inside the middle ``fill`` share of its
    stratum, so neighbouring draws never coincide after rounding.
    """
    width = (hi - lo) / count
    pad = 0.5 * (1.0 - fill)
    values = [lo + width * (i + pad + fill * rng.random()) for i in range(count)]
    rng.shuffle(values)
    return values


def encounter_inputs(seed: int) -> dict:
    rng = _rng("encounter-cold", seed)
    n = ENCOUNTER_SCENARIOS
    etas = _stratified(rng, n, 0.0, 2.0)
    p0s = _stratified(rng, n, 37.0, 47.0)
    exponents = [PATH_LOSS_EXPONENTS[i % len(PATH_LOSS_EXPONENTS)] for i in range(n)]
    rng.shuffle(exponents)
    scenarios = [
        {"entry_offset": e, "path_loss_exponent": x, "p0_dbm": p}
        for e, x, p in zip(etas, exponents, p0s)
    ]
    # A seeded few (scenario, R2 grid index) pairs for the direct-quadrature oracle.
    oracle = sorted(
        (i, rng.randrange(1, ENCOUNTER_GRID - 1)) for i in rng.sample(range(n), 16)
    )
    return {"grid_size": ENCOUNTER_GRID, "scenarios": scenarios, "oracle_points": oracle}


def region_inputs(seed: int) -> dict:
    rng = _rng("region-sweep", seed)
    etas = sorted(round(e, 4) for e in _stratified(rng, REGION_ETAS, 0.0, 2.0, fill=0.9))
    config_text = (
        f"# region-sweep inputs, seed {seed}\n"
        f"r2_grid_size = {REGION_GRID}\n"
        f"eta_list = {','.join(f'{e:g}' for e in etas)}\n"
    )
    return {
        "command": "rate-region",
        "config_text": config_text,
        "etas": etas,
        "grid_size": REGION_GRID,
    }


def beam_inputs(seed: int) -> dict:
    rng = _rng("beam-plan", seed)
    lo, hi = DEFAULT_COVERAGE
    margin = 1e-6 * (hi - lo)
    queries = []
    for _ in range(BEAM_QUERIES):
        theta = rng.uniform(lo + margin, hi - margin)
        sigma = rng.uniform(0.1, 10.0)
        p_th = rng.choice(P_TH_CHOICES)
        track = []
        for k in range(TRACK_FIXES):
            true_u = TRACK_HALF_SPAN_M * (1.0 - 2.0 * k / (TRACK_FIXES - 1))
            fix = min(max(true_u + rng.gauss(0.0, sigma), -TRACK_CLIP_M), TRACK_CLIP_M)
            track.append(math.atan2(DEFAULT_D0_M, fix))
        queries.append({"theta_b": theta, "sigma": sigma, "p_th": p_th, "track": track})
    return {"queries": queries, "track_dt_s": TRACK_DT_S}


def codebook_inputs(seed: int) -> dict:
    rng = _rng("codebook-export", seed)
    carrier_hz = rng.randrange(1800, 5900) * 1e6
    config_text = (
        f"# codebook-export inputs, seed {seed}\n"
        f"element_count = {CODEBOOK_SIZE}\n"
        f"beam_count = {CODEBOOK_SIZE}\n"
        f"carrier_frequency_hz = {carrier_hz:.0f}\n"
    )
    return {
        "command": "export-codebook",
        "config_text": config_text,
        "carrier_frequency_hz": carrier_hz,
        "size": CODEBOOK_SIZE,
        # Seeded rows (beam index, element index) compared against the library.
        "sample_rows": sorted(
            (rng.randrange(CODEBOOK_SIZE), rng.randrange(CODEBOOK_SIZE)) for _ in range(64)
        ),
    }


GENERATORS = {
    "encounter-cold": encounter_inputs,
    "region-sweep": region_inputs,
    "beam-plan": beam_inputs,
    "codebook-export": codebook_inputs,
}


def generate(workload: str, seed: int) -> dict:
    if workload not in GENERATORS:
        raise ValueError(f"unknown workload {workload!r}")
    return GENERATORS[workload](seed)


def digest(inputs: dict) -> str:
    """SHA-256 of the canonical JSON form of a workload's inputs."""
    text = json.dumps(inputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
