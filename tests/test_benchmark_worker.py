"""The benchmark's worker runs against this checkout's library.

``perfbench/worker.py`` calls railbeam functions and wraps others in traced
probes. A renamed or deleted name crashes the worker (``run.py`` then prints
no result line) or turns a traced metric into ``null``. These small runs of
the worker catch both in the test suite.
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"
SEED = 7


def load_bench_module(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def gen():
    return load_bench_module("gen")


def run_worker(tmp_path: Path, mode: str, inputs: dict, trace: int) -> dict:
    inputs_path = tmp_path / f"{mode}-inputs.json"
    inputs_path.write_text(json.dumps(inputs))
    result_path = tmp_path / f"{mode}-t{trace}-result.json"
    src = str(ROOT / "src")
    env = dict(os.environ, PERFBENCH_SRC=src)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    argv = [sys.executable, str(BENCH / "worker.py"), mode, str(inputs_path), str(result_path),
            str(trace), str(tmp_path / "spans.jsonl")]
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(result_path.read_text())


def encounter_inputs(gen) -> dict:
    """The seed's inputs cut to three scenarios that carry oracle points."""
    full = gen.generate("encounter-cold", SEED)
    keep = sorted({i for i, _ in full["oracle_points"]})[:3]
    oracle = [[keep.index(i), j] for i, j in full["oracle_points"] if i in keep]
    return dict(full, scenarios=[full["scenarios"][i] for i in keep], oracle_points=oracle)


def test_encounter_cold_passes_its_checks(gen, tmp_path):
    inputs = encounter_inputs(gen)
    assert inputs["oracle_points"]
    result = run_worker(tmp_path, "encounter-cold", inputs, trace=0)
    assert result["items"] == 3
    assert result["failures"] == []


def test_beam_plan_passes_its_checks(gen, tmp_path):
    full = gen.generate("beam-plan", SEED)
    result = run_worker(tmp_path, "beam-plan", dict(full, queries=full["queries"][:20]), trace=0)
    assert result["items"] == 20
    assert result["failures"] == []


def test_traced_encounter_cold_finds_every_probe(gen, tmp_path):
    result = run_worker(tmp_path, "encounter-cold", encounter_inputs(gen), trace=1)
    assert result["failures"] == []
    assert result["trace"]["absent"] == {}


def test_cli_mode_runs_a_subcommand(tmp_path):
    result = run_worker(tmp_path, "cli", ["--out", str(tmp_path / "out"), "tradeoff"], trace=0)
    assert result["exit_code"] == 0
    assert (tmp_path / "out" / "tradeoff.csv").exists()


def test_cli_codebook_export_passes_its_check(gen, tmp_path):
    """The codebook-export workload's CSV check, on a 64 x 64 table at the seed's carrier."""
    size = 64
    full = gen.generate("codebook-export", SEED)
    config = tmp_path / "config.txt"
    config.write_text(
        f"element_count = {size}\nbeam_count = {size}\n"
        f"carrier_frequency_hz = {full['carrier_frequency_hz']:.0f}\n"
    )
    pairs = sorted({(beam % size, element % size) for beam, element in full["sample_rows"]})
    phases = run_worker(tmp_path, "phases", {"config": str(config), "sample_rows": pairs}, trace=0)["phases"]
    out = tmp_path / "csv"
    argv = ["--config", str(config), "--out", str(out), "export-codebook"]
    assert run_worker(tmp_path, "cli", argv, trace=0)["exit_code"] == 0
    checks = load_bench_module("checks")
    failures, rows = checks.codebook_csv(out / "codebook.csv", size, dict(zip(pairs, phases)))
    assert failures == []
    assert rows == size * size


def test_traced_setup_finds_every_probe(tmp_path):
    result = run_worker(tmp_path, "setup", {}, trace=1)
    assert result["trace"]["absent"] == {}
