"""Every workload for one seed, and a comparison of two such summaries.

    python3 perfbench/suite.py run --seed 7
    python3 perfbench/suite.py compare PARENT_SUMMARY.json CHANGE_SUMMARY.json

``run`` calls ``run.py --trace 1`` once per workload, one after another,
for ``run_seconds`` from ``BENCHMARK.json`` (a traced run measures the
end-to-end metrics untraced first), prints every metric by name and unit,
and writes ``perfbench/out/summary-<seed>.json``. ``compare`` prints each
end-to-end metric of two summaries side by side with the change as a
share of the parent's value, flagging changes worse than the bounds in
``BENCHMARK.json``. Run from the root of a railbeam checkout.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import gen

BENCH = Path(__file__).resolve().parent
DECLARATION = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def run_suite(seed: int) -> int:
    seconds = DECLARATION["run_seconds"]
    summary = {"seed": seed, "seconds": seconds, "workloads": {}}
    status = 0
    for workload in gen.WORKLOADS:
        argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", "1"]
        proc = subprocess.run(argv, capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"{workload}: run.py exited with {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        record = json.loads((BENCH / "out" / "results" / f"{workload}-s{seed}-t1.json").read_text())
        summary["workloads"][workload] = record
        print(f"== {workload} (seed {seed}, input digest {record['input_digest'][:12]}, "
              f"failed {record['failed']} of {record['attempted']})")
        for f in record["failures"][:10]:
            print(f"   FAILED item {f['item']} {f['check']}: {f['detail']}")
        for title in ("end_to_end", "per_layer"):
            print(f"   {title}")
            for name, m in record[title].items():
                value = "absent: " + record["absent"][name] if m["value"] is None else f"{m['value']:.6g}"
                print(f"     {name:44s} {value} {m['unit']}")
    out = BENCH / "out" / f"summary-{seed}.json"
    out.write_text(json.dumps(summary, indent=1) + "\n")
    print(f"summary written to {out}")
    return status


def compare(parent_path: Path, change_path: Path) -> int:
    parent = json.loads(parent_path.read_text())["workloads"]
    change = json.loads(change_path.read_text())["workloads"]
    worse = 0
    for metric in DECLARATION["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        sign = 1 if metric["better"] == "lower" else -1
        for workload in gen.WORKLOADS:
            if workload not in parent or workload not in change:
                print(f"{workload:16s} {name:12s} missing from a summary")
                continue
            a = parent[workload]["end_to_end"][name]["value"]
            b = change[workload]["end_to_end"][name]["value"]
            delta = (b - a) / a
            flag = "WORSE THAN BOUND" if sign * delta > bound else ""
            worse += bool(flag)
            print(f"{workload:16s} {name:12s} {a:12.6g} -> {b:12.6g} {metric['unit']:4s} {delta:+8.1%} "
                  f"(bound {bound:.0%}) {flag}")
    return 1 if worse else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="railbeam benchmark suite")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="every workload for one seed, traced")
    run.add_argument("--seed", type=int, required=True)
    cmp = sub.add_parser("compare", help="end-to-end metrics of two summaries")
    cmp.add_argument("parent", type=Path)
    cmp.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    if args.command == "compare":
        return compare(args.parent, args.change)
    return run_suite(args.seed)


if __name__ == "__main__":
    sys.exit(main())
