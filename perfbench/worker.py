"""One benchmark repetition in a fresh interpreter.

Started by ``run.py`` as a child process, one at a time, so that every
repetition starts with empty ``lru_cache`` / ``CumulativeIntegral`` memos:

    python3 perfbench/worker.py MODE INPUTS_JSON RESULT_JSON TRACE SPANS_JSONL

MODE is ``encounter-cold`` or ``beam-plan`` (the workload runs in this
process), ``cli`` (import ``railbeam.cli`` and call ``main`` with the argv
in INPUTS_JSON), ``setup`` (import ``railbeam.cli`` and load the default
config; traced only) or ``phases`` (the codebook phases the export check
compares against). TRACE is 0 or 1; with 1 the public functions of the
layers are wrapped with spans and counters, and the spans are appended to
SPANS_JSONL when the repetition ends. With 0 the timed work runs under a
``SpeedProbe``, whose reference samples are returned with the timings.
The result (timings, output-check failures, trace summary) goes to
RESULT_JSON.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import math
import os
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import checks
import gen
from spans import Probe, Tracer, count_integrand, instrument
from speed import SpeedProbe

# Every public function the traced run times. keep=False marks calls made
# tens of thousands of times per repetition: counted and timed, not stored.
PROBES = [
    Probe("config.load_config", "railbeam.config", "load_config"),
    Probe("experiments.run_experiment", "railbeam.experiments", "run_experiment"),
    Probe("encounter.rate_region", "railbeam.encounter", "rate_region"),
    Probe("encounter.symmetric_rate", "railbeam.encounter", "symmetric_rate"),
    Probe("encounter.no_priority_allocation", "railbeam.encounter", "no_priority_allocation", keep=False),
    Probe("numerics.cumulative_value", "railbeam.numerics", "CumulativeIntegral.value", keep=False),
    Probe("numerics.adaptive_simpson", "railbeam.numerics", "adaptive_simpson", keep=False),
    Probe("positioning.search_beam_count", "railbeam.positioning", "search_beam_count"),
    Probe("geometry.beam_geometry", "railbeam.geometry", "beam_geometry"),
    Probe("codebook.build_phase_mapper", "railbeam.codebook", "build_phase_mapper"),
    Probe("codebook.select_beam", "railbeam.codebook", "select_beam", keep=False),
    Probe("codebook.simulate_traverse", "railbeam.codebook", "simulate_traverse"),
]
SAMPLED = {
    "encounter.no_priority_allocation",
    "positioning.search_beam_count",
    "geometry.beam_geometry",
    "codebook.select_beam",
}
# R2 grid indices whose allocation is solved again to check the power budgets.
POWER_CHECK_INDICES = range(0, gen.ENCOUNTER_GRID, 25)


def _check_origin(module) -> None:
    """Refuse to measure a railbeam that is not the checkout's ``src/``."""
    expected = Path(os.environ["PERFBENCH_SRC"]).resolve()
    if expected not in Path(module.__file__).resolve().parents:
        raise SystemExit(f"railbeam imported from {module.__file__}, not from {expected}")


def _instrument(tracer: Tracer) -> dict[str, str]:
    """Wrap every probe; returns {metric prefix: reason} for absent functions."""
    absent = {}
    for module in sorted({probe.module for probe in PROBES}):
        try:
            importlib.import_module(module)
        except ImportError as exc:
            absent[module.removeprefix("railbeam.")] = f"{module} not importable: {exc}"
    reason = count_integrand(tracer)
    if reason:
        absent["numerics.integrand"] = reason
    absent.update(instrument(tracer, PROBES))
    return absent


def _summary(tracer: Tracer, absent: dict[str, str]) -> dict:
    return {
        "stats": {name: dataclasses.asdict(st) for name, st in tracer.stats.items()},
        "layer_busy": dict(tracer.layer_busy),
        "counters": dict(tracer.counters),
        "absent": absent,
        "spans_kept": len(tracer.spans),
        "spans_dropped": tracer.dropped,
    }


def _timed(tracer: Tracer | None, probe: SpeedProbe, name: str, fn):
    """Run ``fn`` (inside a span when traced); returns (output or exception, seconds).

    The seconds exclude reference samples the probe took meanwhile.
    """
    spent = probe.spent_s
    t0 = time.perf_counter()
    frame = tracer.open(name, "bench") if tracer else None
    try:
        out = fn()
    except (ArithmeticError, ValueError) as exc:
        out = exc
    if frame:
        tracer.close(frame)
    return out, time.perf_counter() - t0 - (probe.spent_s - spent)


def _span(tracer: Tracer | None, name: str, layer: str):
    return tracer.span(name, layer) if tracer else nullcontext()


def run_encounter(inputs: dict, tracer: Tracer | None, probe: SpeedProbe) -> dict:
    from railbeam import config, encounter as enc

    cfg = config.load_config(None)
    scenarios = [
        dataclasses.replace(
            cfg.encounter_scenario(eta=s["entry_offset"], p0_w=config.dbm_to_watts(s["p0_dbm"])),
            path_loss_exponent=s["path_loss_exponent"],
        )
        for s in inputs["scenarios"]
    ]
    grid = inputs["grid_size"]
    outputs, latencies = [], []
    with probe:
        for sc in scenarios:
            out, seconds = _timed(
                tracer, probe, "bench.scenario", lambda: (enc.rate_region(sc, grid), enc.symmetric_rate(sc))
            )
            outputs.append(out)
            latencies.append(seconds)
    if tracer:
        tracer.active = False

    failures = []
    for i, (sc, out) in enumerate(zip(scenarios, outputs)):
        if isinstance(out, Exception):
            failures.append((i, "exception", repr(out)))
            continue
        region, r0 = out
        found = checks.region_pairs(
            list(region.pairs), enc.single_train_rmax(sc, 1), enc.single_train_rmax(sc, 2)
        )
        for j in POWER_CHECK_INDICES:
            r1, r2 = region.pairs[j]
            again, _, profile = enc.no_priority_allocation(sc, r2)
            if not checks.close(again, r1):
                found.append(("allocation_repeatable", f"grid {j}: R1 {again:.12g} vs {r1:.12g}"))
            if not profile.h2_budget_slack:
                uses = (profile.power_use(1), profile.power_use(2))
                if not all(checks.close(u, 1.0) for u in uses):
                    found.append(("power_budgets_bind", f"grid {j}: power use {uses[0]:.9g}, {uses[1]:.9g}"))
        sym_r1 = enc.no_priority_allocation(sc, r0)[0]
        if sym_r1 < r0 - checks.REL_TOL * max(abs(r0), 1.0):
            found.append(("symmetric_feasible", f"R1({r0:.12g}) = {sym_r1:.12g}"))
        failures.extend((i, check, detail) for check, detail in found)
    for i, j in inputs["oracle_points"]:
        if isinstance(outputs[i], Exception):
            continue
        r1, r2 = outputs[i][0].pairs[j]
        expect = checks.oracle_r1(scenarios[i], r2)
        if not checks.close(r1, expect):
            failures.append((i, "direct_quadrature_oracle", f"grid {j}: R1 {r1:.12g} vs {expect:.12g}"))
    return {
        "items": len(scenarios),
        "wall_s": sum(latencies),
        "item_s": latencies,
        "ref_s": probe.samples,
        "failures": failures,
    }


def run_beam_plan(inputs: dict, tracer: Tracer | None, probe: SpeedProbe) -> dict:
    from railbeam import codebook as cb, config, geometry as geom, positioning as pos

    cfg = config.load_config(None)
    acfg = cfg.array_config()
    lo, hi = geom.coverage_interval(acfg)
    expected = (gen.DEFAULT_D0_M, *gen.DEFAULT_COVERAGE)
    if not all(math.isclose(a, b, rel_tol=1e-9) for a, b in zip((cfg.d0_m, lo, hi), expected)):
        raise SystemExit(f"default d0 / coverage changed to {cfg.d0_m}, {(lo, hi)}; update gen.py")
    dt = inputs["track_dt_s"]
    jobs = [
        (
            cfg.rail_geometry(q["theta_b"]),
            cfg.positioning_model(sigma=q["sigma"], p_th=q["p_th"]),
            [(k * dt, theta) for k, theta in enumerate(q["track"])],
        )
        for q in inputs["queries"]
    ]

    def plan(geo, model, trajectory):
        result = pos.search_beam_count(acfg, geo, model)
        n = result.optimal_beam_count
        geom.beam_geometry(acfg, geo, n)
        mapper = cb.build_phase_mapper(acfg, n)
        return result, mapper, cb.simulate_traverse(trajectory, mapper, acfg)

    latencies, failures = [], []
    disagreements = switches = fixes = 0
    with probe:
        for i, job in enumerate(jobs):
            # Each query is timed on its own. Its outputs are checked after its
            # timing ends and before the next query starts, so that at most one
            # phase table is held at a time.
            out, seconds = _timed(tracer, probe, "bench.query", lambda: plan(*job))
            latencies.append(seconds)
            if isinstance(out, Exception):
                failures.append((i, "exception", repr(out)))
                continue
            if tracer:
                tracer.active = False
            geo, model, _ = job
            result, mapper, log = out
            found = _check_query(geom, pos, cb, acfg, geo, model, result, mapper, log, lo, hi)
            failures.extend((i, check, detail) for check, detail in found)
            theta = geo.train_angle
            if geom.beam_index(theta, acfg, result.optimal_beam_count) != cb.select_beam(theta, mapper, acfg)[0]:
                disagreements += 1
            switches += log.switch_count()
            fixes += len(log.samples)
            if tracer:
                tracer.active = True
    if tracer:
        tracer.active = False
    return {
        "items": len(jobs),
        "wall_s": sum(latencies),
        "item_s": latencies,
        "ref_s": probe.samples,
        "failures": failures,
        "info": {
            "geometry.index_disagreements": disagreements,
            "codebook.switches": switches,
            "codebook.simulate_traverse.samples": fixes,
        },
    }


def _check_query(geom, pos, cb, acfg, geo, model, result, mapper, log, lo, hi) -> list:
    found = []
    n = result.optimal_beam_count

    def probability(count: int) -> float:
        left, right, _ = geom.beam_bounds_on_rail(geo, acfg, count)
        return pos.effective_probability(left, right, model.error_stddev)

    if result.feasible:
        p = probability(n)
        if p < model.threshold:
            found.append(("feasible_meets_threshold", f"N*={n}: P={p:.9g} < {model.threshold}"))
        if 2 * n <= model.max_beam_count and probability(2 * n) >= model.threshold:
            found.append(("doubling_misses_threshold", f"2N*={2 * n}: P={probability(2 * n):.9g}"))
    if mapper.beam_count != n:
        found.append(("mapper_size", f"{mapper.beam_count} beams for N*={n}"))
    found += checks.beam_cells(
        [s.train_angle for s in log.samples], [s.beam_id for s in log.samples], lo, hi, n
    )
    beam, _ = cb.select_beam(geo.train_angle, mapper, acfg)
    gain = cb.array_factor(float(mapper.beam_centers[beam - 1]), beam, mapper, acfg)
    if not abs(gain - 1.0) <= 1e-9:
        found.append(("array_factor_at_centre", f"beam {beam}: {gain:.12g}"))
    return found


def sample_phases(spec: dict) -> dict:
    """The library's phases at the sampled (beam, element) pairs of a codebook config."""
    from railbeam.codebook import build_phase_mapper
    from railbeam.config import load_config

    cfg = load_config(spec["config"])
    mapper = build_phase_mapper(cfg.array_config(), cfg.beam_count)
    return {"phases": [float(mapper.phases[m, b]) for b, m in spec["sample_rows"]]}


def main(argv: list[str]) -> int:
    mode, inputs_path, result_path, trace, spans_path = argv
    inputs = json.loads(Path(inputs_path).read_text())
    tracer = Tracer(f"{mode}-{os.getpid()}", sampled=set(SAMPLED)) if trace == "1" else None
    probe = SpeedProbe(enabled=tracer is None)
    if mode == "setup" and tracer is None:
        raise SystemExit("mode setup runs traced only")
    import_s = 0.0
    if mode in ("cli", "setup"):
        with probe, _span(tracer, "cli.import", "cli"):
            t0 = time.perf_counter()
            import railbeam.cli
            import_s = time.perf_counter() - t0
    else:
        import railbeam
    _check_origin(railbeam)
    absent = _instrument(tracer) if tracer else {}

    if mode == "cli":
        with probe, _span(tracer, "cli.main", "cli"):
            t0 = time.perf_counter()
            code = railbeam.cli.main(inputs)
            main_s = time.perf_counter() - t0
        result = {"exit_code": code, "wall_s": import_s + main_s - probe.spent_s, "ref_s": probe.samples}
    elif mode == "setup":
        railbeam.config.load_config(None)
        result = {}
    elif mode == "phases":
        result = sample_phases(inputs)
    else:
        runner = {"encounter-cold": run_encounter, "beam-plan": run_beam_plan}[mode]
        result = runner(inputs, tracer, probe)

    import numpy

    result["python"] = sys.version.split()[0]
    result["numpy"] = numpy.__version__
    result["trace"] = _summary(tracer, absent) if tracer else None
    if tracer:
        with open(spans_path, "a") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
