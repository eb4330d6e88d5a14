"""Tests of the benchmark's own code: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path

import pytest

import checks
import gen
import run
from spans import Tracer, highest_supported, percentile


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_is_deterministic_and_seeded(workload):
    first, again, other = gen.generate(workload, 1), gen.generate(workload, 1), gen.generate(workload, 2)
    assert first == again
    assert gen.digest(first) == gen.digest(again)
    assert gen.digest(first) != gen.digest(other)


def test_generated_inputs_have_the_declared_shape():
    enc = gen.generate("encounter-cold", 3)
    assert len(enc["scenarios"]) >= 100
    assert len({s["entry_offset"] for s in enc["scenarios"]}) == len(enc["scenarios"])
    assert {s["path_loss_exponent"] for s in enc["scenarios"]} == set(gen.PATH_LOSS_EXPONENTS)
    assert all(0.0 <= s["entry_offset"] <= 2.0 and 37.0 <= s["p0_dbm"] <= 47.0 for s in enc["scenarios"])
    region = gen.generate("region-sweep", 3)
    assert len(set(region["etas"])) == gen.REGION_ETAS
    assert all(0.0 <= e <= 2.0 for e in region["etas"])
    lo, hi = gen.DEFAULT_COVERAGE
    for q in gen.generate("beam-plan", 3)["queries"][:200]:
        assert lo < q["theta_b"] < hi and all(lo < t < hi for t in q["track"])


# --- checkers reject hand-corrupted outputs -------------------------------

GOOD_PAIRS = [(5.0, 0.0), (4.0, 1.0), (2.5, 2.0), (0.0, 3.0)]


def test_region_pairs_accepts_a_good_region():
    assert checks.region_pairs(GOOD_PAIRS, r1_solo=5.0, r2_solo=3.0) == []


def test_region_pairs_rejects_r1_rising_in_r2():
    bad = list(GOOD_PAIRS)
    bad[2] = (4.5, 2.0)
    assert [c for c, _ in checks.region_pairs(bad, 5.0, 3.0)] == ["r1_nonincreasing"]


def test_region_pairs_rejects_wrong_endpoints():
    found = [c for c, _ in checks.region_pairs(GOOD_PAIRS, r1_solo=5.1, r2_solo=3.2)]
    assert found == ["r1_at_r2_zero", "last_r2_is_solo"]


def test_beam_cells_rejects_a_wrong_beam_id():
    lo, hi, n = 0.0, 4.0, 4
    angles = [0.5, 1.5, 2.5, 3.5, 4.5]
    assert checks.beam_cells(angles, [1, 2, 3, 4, 1], lo, hi, n) == []
    assert checks.beam_cells(angles, [1, 2, 2, 4, 1], lo, hi, n)[0][0] == "cell_contains_angle"
    assert checks.beam_cells(angles, [1, 2, 3, 4], lo, hi, n)[0][0] == "track_length"


def _write_region(out_dir, etas, grid, corrupt=None):
    out_dir.mkdir()
    for eta in etas:
        rows = [(3.0 * j / (grid - 1), 5.0 - 5.0 * j / (grid - 1)) for j in range(grid)]
        if corrupt == "nan":
            rows[1] = (rows[1][0], math.nan)
        if corrupt == "truncate":
            rows = rows[:-1]
        text = "R2_bps_hz,R1_bps_hz\n" + "".join(f"{a:.12g},{b:.12g}\n" for a, b in rows)
        (out_dir / f"rate_region_eta{eta:g}.csv").write_text(text)
    tfds = [(3.0 - 3.0 * j / (grid - 1), 5.0 * j / (grid - 1)) for j in range(grid)]
    (out_dir / "tfds.csv").write_text(
        "R2_bps_hz,R1_bps_hz\n" + "".join(f"{a:.12g},{b:.12g}\n" for a, b in tfds)
    )


def test_region_csvs_accept_good_output(tmp_path):
    _write_region(tmp_path / "ok", [0.5, 1.25], 5)
    assert checks.region_csvs(tmp_path / "ok", [0.5, 1.25], 5) == ([], 10)


@pytest.mark.parametrize("corrupt, check", [("nan", "finite"), ("truncate", "row_count")])
def test_region_csvs_reject_nan_and_truncated_files(tmp_path, corrupt, check):
    _write_region(tmp_path / "bad", [0.5], 5, corrupt=corrupt)
    failures, _ = checks.region_csvs(tmp_path / "bad", [0.5], 5)
    assert any(name.endswith(":" + check) for name, _ in failures)


def test_region_csvs_reject_a_missing_file(tmp_path):
    _write_region(tmp_path / "out", [0.5], 5)
    failures, _ = checks.region_csvs(tmp_path / "out", [0.5, 0.7], 5)
    assert failures == [("rate_region_eta0.7.csv:present", "missing")]


def _codebook(path, size, rows=None):
    lines = ["beam_id,element_id,phase_rad"]
    for b in range(size):
        for m in range(size):
            lines.append(f"{b + 1},{m + 1},{-0.1 * m * (b + 1):.12g}")
    path.write_text("\n".join(lines[: rows + 1 if rows is not None else None]) + "\n")


def test_codebook_csv_accepts_good_and_rejects_truncated(tmp_path):
    expected = {(1, 2): -0.4, (3, 3): -1.2}
    _codebook(tmp_path / "ok.csv", 4)
    assert checks.codebook_csv(tmp_path / "ok.csv", 4, expected) == ([], 16)
    _codebook(tmp_path / "cut.csv", 4, rows=10)
    failures, rows = checks.codebook_csv(tmp_path / "cut.csv", 4, expected)
    assert rows == 10
    assert [name for name, _ in failures] == ["codebook.csv:row_count", "codebook.csv:sample_row"]


def test_codebook_csv_rejects_a_wrong_phase(tmp_path):
    _codebook(tmp_path / "ok.csv", 4)
    failures, _ = checks.codebook_csv(tmp_path / "ok.csv", 4, {(1, 2): -0.4000001})
    assert [name for name, _ in failures] == ["codebook.csv:sample_row"]


def test_oracle_quadrature_is_accurate():
    assert checks.simpson(lambda x: x**3, 0.0, 2.0) == pytest.approx(4.0, rel=1e-12)
    assert checks.simpson(math.exp, 1.0, 0.0) == pytest.approx(1.0 - math.e, rel=1e-12)
    assert checks.simpson(math.sin, 0.5, 0.5) == 0.0


def test_a_missing_module_is_reported_absent(monkeypatch):
    import worker
    from spans import Probe

    monkeypatch.setattr(worker, "PROBES", [Probe("gone.fn", "railbeam_gone_for_test.gone", "fn")])
    absent = worker._instrument(Tracer("t"))
    assert "not importable" in absent["railbeam_gone_for_test.gone"]
    assert "not found" in absent["gone.fn"]


# --- percentiles -----------------------------------------------------------

def test_highest_supported_percentile_keeps_ten_samples_beyond():
    assert highest_supported(list(range(100))) == {"percentile": 90.0, "value": 89, "samples": 100}
    assert highest_supported(list(range(1000)))["percentile"] == 99.0
    assert highest_supported(list(range(20)))["percentile"] == 50.0
    assert highest_supported(list(range(9))) == {"percentile": None, "value": None, "samples": 9}


def test_percentile_is_nearest_rank():
    assert percentile([3.0, 1.0, 2.0], 50) == 2.0
    assert percentile([float(i) for i in range(1, 101)], 99) == 99.0


# --- span self-time arithmetic ---------------------------------------------

def test_self_time_on_a_hand_built_tree():
    """bench 0-10 > encounter a 1-7 > (numerics b 2-4, encounter c 4-6 > numerics d 4.5-5.5)."""
    ticks = iter([0.0, 1.0, 2.0, 4.0, 4.0, 4.5, 5.5, 6.0, 7.0, 10.0])
    tracer = Tracer("t", clock=lambda: next(ticks))
    root = tracer.open("bench.run", "bench")
    a = tracer.open("encounter.a", "encounter")
    tracer.close(tracer.open("numerics.b", "numerics"))
    c = tracer.open("encounter.c", "encounter")
    d = tracer.open("numerics.d", "numerics", keep=False)
    tracer.close(d)
    tracer.close(c)
    tracer.close(a)
    tracer.close(root)
    self_s = {s["name"]: s["self_s"] for s in tracer.spans}
    # numerics time under a same-layer child still counts against the parent
    assert self_s == {"numerics.b": 2.0, "encounter.c": 1.0, "encounter.a": 3.0, "bench.run": 4.0}
    assert "numerics.d" not in self_s and tracer.stats["numerics.d"].self_s == 1.0
    assert tracer.layer_busy == {"numerics": 3.0, "encounter": 6.0, "bench": 10.0}
    # no child's self time exceeds its parent's duration
    duration = {s["id"]: s["end"] - s["start"] for s in tracer.spans}
    assert all(s["self_s"] <= duration[s["parent"]] for s in tracer.spans if s["parent"] is not None)


def test_reported_metrics_match_the_declaration():
    declared = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    rep = {"wall_s": 1.0, "rss_mb": 50.0, "items": 2, "attempted": 2, "failures": [],
           "item_s": [0.4, 0.6], "ref_s": [run.REFERENCE_S], "info": {}}
    stats = {"cli.import": {"calls": 1, "busy_s": 0.2, "self_s": 0.2, "durations": []}}
    trace = {"stats": stats, "layer_busy": {}, "counters": {}, "absent": {}}
    e2e = run.end_to_end([0.2, 0.3], [dict(rep, trace=None)])
    layer = run.per_layer("encounter-cold", [dict(rep, trace=None)], [dict(rep, trace=trace)], [trace])
    assert list(e2e) == [m["name"] for m in declared["end_to_end"]]
    assert list(layer) == [m["name"] for m in declared["per_layer"]]
    assert all(unit == m["unit"] for (_, unit), m in zip(e2e.values(), declared["end_to_end"]))
    assert all(unit == m["unit"] for (_, unit), m in zip(layer.values(), declared["per_layer"]))
    assert {w["name"] for w in declared["workloads"]} == set(gen.WORKLOADS)


def test_times_are_scaled_to_the_reference_host_speed():
    ref = run.REFERENCE_S
    # the host ran at half the reference speed, then at the reference speed
    reps = [{"wall_s": 3.0, "item_s": [1.0, 2.0], "ref_s": [2 * ref, 2 * ref]},
            {"wall_s": 9.0, "item_s": [9.0], "ref_s": [ref]},
            {"wall_s": 4.0, "item_s": [4.0], "ref_s": [2 * ref]}]
    assert [run.normalised_s(r) for r in reps] == [1.5, 9.0, 2.0]
    assert run.run_seconds(reps) == 2.0
    assert run.item_latencies_ms(reps) == [500.0, 1000.0, 9000.0, 2000.0]


def test_speed_probe_samples_while_entered_and_only_when_enabled():
    from speed import SpeedProbe

    with SpeedProbe(enabled=True) as probe:
        deadline = time.perf_counter() + 0.3
        while time.perf_counter() < deadline:
            pass
    # one sample on entry, then one per period; only the latter are spent inside
    assert len(probe.samples) >= 3 and probe.spent_s == sum(probe.samples[1:])
    with SpeedProbe(enabled=False) as idle:
        time.sleep(0.1)
    assert idle.samples == []


def test_spans_must_close_in_order():
    tracer = Tracer("t")
    outer = tracer.open("x.outer", "x")
    tracer.open("x.inner", "x")
    with pytest.raises(RuntimeError):
        tracer.close(outer)
