"""railbeam benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a railbeam checkout; the library is imported from its
``src/``. One client drives the program in a closed loop: repetitions run
one after another, each in a fresh child process, for about ``--seconds``
seconds (at least one repetition). ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` repeats the untraced loop, then runs traced
repetitions for another ``--seconds`` and reports the per-layer metrics.
The last line of standard output is the JSON result; a fuller record
(environment, input digest, every failure, sample counts) is written to
``perfbench/out/results/``. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import gen
from spans import highest_supported, percentile
from speed import REFERENCE_S

BENCH = Path(__file__).resolve().parent
SETUP_PROBES = 9
TRACED_SETUP_PROBES = 3
CLI_WORKLOADS = ("region-sweep", "codebook-export")
ITEM_NAME = {
    "encounter-cold": "scenarios",
    "region-sweep": "points",
    "beam-plan": "queries",
    "codebook-export": "rows",
}
# A fresh interpreter's set-up, timed inside it; prints wall time and reference samples.
SETUP_CODE = f"""
import json, sys, time
sys.path.insert(0, {str(BENCH)!r})
from speed import SpeedProbe
with SpeedProbe(enabled=True) as probe:
    t0 = time.perf_counter()
    import railbeam
    from railbeam.config import load_config
    load_config(None)
    wall = time.perf_counter() - t0
print(json.dumps({{"wall_s": wall - probe.spent_s, "ref_s": probe.samples}}))
"""


class ChildFailed(RuntimeError):
    """A benchmark child (not the program's CLI) exited with an error."""


class Runner:
    """Spawns and measures the child processes of one benchmark run."""

    def __init__(self, root: Path, workload: str, seed: int, trace: bool):
        self.root = root
        self.workload = workload
        self.inputs = gen.generate(workload, seed)
        self.work = BENCH / "out" / "work" / f"{workload}-s{seed}-t{int(trace)}"
        self.spans_path = BENCH / "out" / "results" / f"{workload}-s{seed}-spans.jsonl"
        src = str(root / "src")
        self.env = dict(os.environ, PERFBENCH_SRC=src)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        self.versions: dict = {}
        self._phases: dict | None = None
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.spans_path.parent.mkdir(parents=True, exist_ok=True)
        if trace:
            self.spans_path.write_text("")
        (self.work / "inputs.json").write_text(json.dumps(self.inputs))
        if workload in CLI_WORKLOADS:
            (self.work / "config.txt").write_text(self.inputs["config_text"])

    def spawn(self, argv: list[str]) -> tuple[float, float, int]:
        """Run one child to completion; returns (wall s, peak RSS MB, exit code)."""
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=self.root, env=self.env, stdout=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage.ru_maxrss / 1024.0, proc.returncode

    def worker(self, mode: str, inputs: Path, trace: bool) -> tuple[dict, float, float]:
        result_path = self.work / "result.json"
        result_path.unlink(missing_ok=True)
        wall, rss, code = self.spawn([
            sys.executable, str(BENCH / "worker.py"), mode, str(inputs), str(result_path),
            str(int(trace)), str(self.spans_path),
        ])
        if code != 0:
            raise ChildFailed(f"worker {mode} exited with {code}")
        result = json.loads(result_path.read_text())
        self.versions = {"python": result["python"], "numpy": result["numpy"]}
        return result, wall, rss

    def setup_probe(self) -> float:
        """Set-up time of one fresh interpreter, at the reference host speed."""
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=self.root, env=self.env,
                              capture_output=True, text=True)
        if proc.returncode != 0:
            raise ChildFailed(f"setup probe exited with {proc.returncode}: {proc.stderr[-500:]}")
        return normalised_s(json.loads(proc.stdout))

    def traced_setup_probe(self) -> dict:
        return self.worker("setup", self.work / "inputs.json", True)[0]["trace"]

    def repetition(self, trace: bool) -> dict:
        """One repetition: wall, RSS, items, failures, extra counts, trace summary."""
        if self.workload not in CLI_WORKLOADS:
            result, _, rss = self.worker(self.workload, self.work / "inputs.json", trace)
            return {
                "wall_s": result["wall_s"],
                "rss_mb": rss,
                "items": result["items"],
                "attempted": result["items"],
                "failures": result["failures"],
                "item_s": result["item_s"],
                "ref_s": result["ref_s"],
                "info": result.get("info", {}),
                "trace": result["trace"],
            }
        out_dir = self.work / "csv"
        shutil.rmtree(out_dir, ignore_errors=True)
        argv = ["--config", str(self.work / "config.txt"), "--out", str(out_dir), self.inputs["command"]]
        argv_path = self.work / "argv.json"
        argv_path.write_text(json.dumps(argv))
        result, _, rss = self.worker("cli", argv_path, trace)
        failures, items, info = self.check_csv(out_dir)
        if result["exit_code"] != 0:
            failures.insert(0, ("exit_code", str(result["exit_code"])))
        shutil.rmtree(out_dir, ignore_errors=True)
        return {
            "wall_s": result["wall_s"],
            "ref_s": result["ref_s"],
            "rss_mb": rss,
            "items": items,
            "attempted": 1,
            "failures": [(0, check, detail) for check, detail in failures],
            "info": info,
            "trace": result["trace"],
        }

    def check_csv(self, out_dir: Path) -> tuple[list, int, dict]:
        """Check the CLI's CSVs; returns failures, items and rows / bytes written.

        Files are streamed: this process must stay small, because the
        children it spawns inherit its peak RSS in their ``ru_maxrss``.
        """
        csvs = sorted(out_dir.glob("*.csv"))
        rows = 0
        for path in csvs:
            with open(path, "rb") as fh:
                rows += max(sum(1 for _ in fh) - 1, 0)
        info = {
            "experiments.rows_written": rows,
            "experiments.bytes_written": sum(p.stat().st_size for p in csvs),
        }
        if self.workload == "region-sweep":
            failures, items = checks.region_csvs(out_dir, self.inputs["etas"], self.inputs["grid_size"])
        else:
            failures, items = checks.codebook_csv(out_dir / "codebook.csv", self.inputs["size"], self.phases())
        return failures, items, info

    def phases(self) -> dict[tuple[int, int], float]:
        """The library's phases at the sampled rows, computed once per run in a child."""
        if self._phases is None:
            spec = self.work / "phases.json"
            pairs = [tuple(p) for p in self.inputs["sample_rows"]]
            spec.write_text(json.dumps({"config": str(self.work / "config.txt"), "sample_rows": pairs}))
            self._phases = dict(zip(pairs, self.worker("phases", spec, False)[0]["phases"]))
        return self._phases

    def loop(self, seconds: float, trace: bool, setup: list[float] | None = None) -> list[dict]:
        """Repetitions for about ``seconds``; a new one starts only if it should fit.

        With a ``setup`` list, set-up probes are interleaved with the
        repetitions (up to ``SETUP_PROBES``), so that a slow spell of the
        machine does not hit them all.
        """
        reps, costs = [], []
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            if setup is not None:
                setup.extend(self.setup_probe() for _ in range(min(2, SETUP_PROBES - len(setup))))
            reps.append(self.repetition(trace))
            costs.append(time.perf_counter() - t0)
            # stop unless the next repetition should end within half a repetition of the budget
            if time.perf_counter() - start + 0.5 * statistics.median(costs) > seconds:
                break
        if setup is not None:
            setup.extend(self.setup_probe() for _ in range(SETUP_PROBES - len(setup)))
        return reps


def environment(root: Path, versions: dict) -> dict:
    """Machine and source facts recorded with every result (not gated)."""
    src = sorted((root / "src").rglob("*.py"))
    digest = hashlib.sha256()
    for path in src:
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (root / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    cpu = platform.machine() or None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        **versions,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in src),
    }


def _median(reps: list[dict], fn) -> float:
    return statistics.median(fn(r) for r in reps)


def _median_count(reps: list[dict], fn) -> int:
    return statistics.median_low(fn(r) for r in reps)


def speed_scale(samples: list[float]) -> float:
    """Factor that takes wall times measured alongside these reference samples
    to seconds at the reference host speed (see speed.py)."""
    return REFERENCE_S / statistics.mean(samples)


def normalised_s(rep: dict) -> float:
    """An untraced repetition's (or set-up probe's) wall time at the reference host speed."""
    return rep["wall_s"] * speed_scale(rep["ref_s"])


def run_seconds(reps: list[dict]) -> float:
    """Median untraced repetition wall time at the reference host speed.

    In-process workloads time the items' calls; CLI workloads time
    ``import railbeam.cli`` plus ``main(argv)`` in the fresh process.
    """
    return _median(reps, normalised_s)


def item_latencies_ms(reps: list[dict]) -> list[float]:
    """Every item's latency in every repetition, in ms at the reference host speed."""
    return [t * 1e3 * speed_scale(r["ref_s"]) for r in reps for t in r["item_s"]]


def end_to_end(setup: list[float], reps: list[dict]) -> dict[str, tuple[float, str]]:
    run_s = run_seconds(reps)
    return {
        "setup_s": (statistics.median(setup), "s"),
        "run_s": (run_s, "s"),
        "peak_rss_mb": (_median(reps, lambda r: r["rss_mb"]), "MB"),
        "items_per_s": (reps[0]["items"] / run_s, "1/s"),
    }


def _stat(rep: dict, name: str, field: str) -> float:
    st = rep["trace"]["stats"].get(name)
    return st[field] if st else 0


def _info(rep: dict, name: str) -> float:
    return rep["info"].get(name, 0)


def _durations(reps: list[dict], name: str) -> list[float]:
    return [d for r in reps for d in (r["trace"]["stats"].get(name) or {}).get("durations", [])]


def per_layer(workload: str, untraced: list[dict], traced: list[dict], setup_traces: list[dict]) -> dict:
    """Per-layer metrics: {name: (value, unit)}.

    Counts and busy times are medians over the traced repetitions (one
    repetition's worth); percentiles pool the durations of all of them.
    Layers a workload does not reach read 0.
    """
    m: dict[str, tuple[float, str]] = {}

    def med(fn) -> float:
        return _median(traced, fn)

    def count(fn) -> int:
        return _median_count(traced, fn)

    def calls(name: str) -> None:
        m[f"{name}.calls"] = (count(lambda r: _stat(r, name, "calls")), "count")

    def seconds(name: str, field: str) -> None:
        m[f"{name}.{field}"] = (med(lambda r: _stat(r, name, field)), "s")

    def pct(name: str, q: float, unit: str) -> None:
        samples = _durations(traced, name)
        scale = {"ms": 1e3, "us": 1e6}[unit]
        m[f"{name}.{unit}_p{q:g}"] = (percentile(samples, q) * scale if samples else 0.0, unit)

    calls("numerics.adaptive_simpson")
    m["numerics.integrand.evals"] = (
        count(lambda r: r["trace"]["counters"].get("numerics.integrand.evals", 0)), "count"
    )
    calls("numerics.cumulative_value")
    value_calls = m["numerics.cumulative_value.calls"][0]
    m["numerics.memo_miss_ratio"] = (
        m["numerics.adaptive_simpson.calls"][0] / value_calls if value_calls else 0.0, "ratio"
    )
    m["numerics.busy_s"] = (med(lambda r: r["trace"]["layer_busy"].get("numerics", 0.0)), "s")
    for name in ("encounter.rate_region", "encounter.symmetric_rate"):
        calls(name)
        seconds(name, "busy_s")
        seconds(name, "self_s")
    calls("encounter.no_priority_allocation")
    pct("encounter.no_priority_allocation", 50, "ms")
    pct("encounter.no_priority_allocation", 99, "ms")
    for name in ("positioning.search_beam_count", "geometry.beam_geometry"):
        calls(name)
        pct(name, 50, "us")
        seconds(name, "busy_s")
    m["geometry.index_disagreements"] = (count(lambda r: _info(r, "geometry.index_disagreements")), "count")
    calls("codebook.build_phase_mapper")
    seconds("codebook.build_phase_mapper", "busy_s")
    calls("codebook.select_beam")
    pct("codebook.select_beam", 50, "us")
    pct("codebook.select_beam", 99, "us")
    seconds("codebook.simulate_traverse", "busy_s")
    for name in ("codebook.simulate_traverse.samples", "codebook.switches"):
        m[name] = (count(lambda r: _info(r, name)), "count")
    seconds("experiments.run_experiment", "busy_s")
    seconds("experiments.run_experiment", "self_s")
    m["experiments.rows_written"] = (count(lambda r: _info(r, "experiments.rows_written")), "count")
    m["experiments.bytes_written"] = (count(lambda r: _info(r, "experiments.bytes_written")), "bytes")
    seconds("config.load_config", "busy_s")
    imports = [t["stats"]["cli.import"]["busy_s"] for t in setup_traces]
    imports += [r["trace"]["stats"]["cli.import"]["busy_s"] for r in traced if "cli.import" in r["trace"]["stats"]]
    m["cli.import_s"] = (statistics.median(imports), "s")
    seconds("cli.main", "self_s")
    # raw wall times: traced repetitions take no reference samples
    base = _median(untraced, lambda r: r["wall_s"])
    m["tracing.overhead_frac"] = ((_median(traced, lambda r: r["wall_s"]) - base) / base, "ratio")
    if workload == "encounter-cold":
        latencies = item_latencies_ms(untraced)
        m["scenario_ms_p50"] = (percentile(latencies, 50), "ms")
        m["scenario_ms_p90"] = (percentile(latencies, 90), "ms")
    else:
        m["scenario_ms_p50"] = m["scenario_ms_p90"] = (0.0, "ms")
    reps = untraced + traced
    m["failed_frac"] = (
        sum(_failed_items(r) for r in reps) / sum(r["attempted"] for r in reps), "ratio"
    )
    return m


def _failed_items(rep: dict) -> int:
    return len({item for item, _, _ in rep["failures"]})


def absent_metrics(metrics: dict, traced: list[dict]) -> dict[str, str]:
    """Metrics whose function no longer exists: {metric: reason}."""
    absent: dict[str, str] = {}
    for rep in traced:
        for prefix, reason in rep["trace"]["absent"].items():
            for name in metrics:
                if name.startswith(prefix + "."):
                    absent[name] = reason
    if "numerics.adaptive_simpson.calls" in absent or "numerics.cumulative_value.calls" in absent:
        absent["numerics.memo_miss_ratio"] = "needs both numerics counters"
    return absent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="railbeam benchmark, one workload and seed")
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "railbeam" / "__init__.py").is_file():
        print(f"no railbeam source at {root / 'src' / 'railbeam'}; run from a railbeam checkout",
              file=sys.stderr)
        return 2
    runner = Runner(root, args.workload, args.seed, bool(args.trace))
    try:
        runner.setup_probe()  # fills the bytecode cache; not counted
        setup: list[float] = []
        untraced = runner.loop(args.seconds, trace=False, setup=setup)
        traced, setup_traces = [], []
        if args.trace:
            traced = runner.loop(args.seconds, trace=True)
            setup_traces = [runner.traced_setup_probe() for _ in range(TRACED_SETUP_PROBES)]
    except ChildFailed as exc:
        print(f"benchmark child failed: {exc}", file=sys.stderr)
        return 3
    shutil.rmtree(runner.work, ignore_errors=True)

    reps = untraced + traced
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(_failed_items(r) for r in reps)
    failures = [
        {"workload": args.workload, "item": item, "check": check, "detail": detail}
        for r in reps for item, check, detail in r["failures"]
    ]
    e2e = end_to_end(setup, untraced)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "input_digest": gen.digest(runner.inputs),
        "environment": environment(root, runner.versions),
        "repetitions": {"untraced": len(untraced), "traced": len(traced)},
        "items_per_repetition": {ITEM_NAME[args.workload]: untraced[0]["items"]},
        "setup_probes_s": setup,
        "run_s_per_repetition": [r["wall_s"] for r in untraced],
        "speed_scale_per_repetition": [speed_scale(r["ref_s"]) for r in untraced],
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        f"{ITEM_NAME[args.workload]}_per_s": e2e["items_per_s"][0],
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "spans_dropped": sum(r["trace"]["spans_dropped"] for r in traced),
    }
    if args.workload in ("encounter-cold", "beam-plan"):
        latencies = item_latencies_ms(untraced)
        record["item_latency_ms"] = {
            "p50": percentile(latencies, 50),
            "highest_supported": highest_supported(latencies),
        }
    if args.trace:
        layer = per_layer(args.workload, untraced, traced, setup_traces)
        absent = absent_metrics(layer, traced)
        metrics = {
            k: {"value": None if k in absent else v, "unit": u} for k, (v, u) in layer.items()
        }
        record["per_layer"] = metrics
        record["absent"] = absent
        record["spans_file"] = os.path.relpath(runner.spans_path, root)
    else:
        metrics = record["end_to_end"]
    results = BENCH / "out" / "results" / f"{args.workload}-s{args.seed}-t{args.trace}.json"
    results.write_text(json.dumps(record, indent=1) + "\n")

    for f in failures[:20]:
        print(f"FAILED {f['workload']} item {f['item']} {f['check']}: {f['detail']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
