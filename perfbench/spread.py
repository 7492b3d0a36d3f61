"""Run-to-run spread of the end-to-end metrics over several seeds.

Run from the root of a checkout:

    python3 perfbench/spread.py --workload nfa-corpus --seeds 1-10 [--out FILE [--label L]]

Runs the benchmark once per seed, one run at a time, with BENCHMARK.json's
run_seconds, and prints per metric the median and the distance between the
first and third quartile as a share of the median, next to the metric's bound.
``--out`` also records the raw values, the summary and each run's environment
line in a JSON file, under the key "<workload> trace=<0|1>[ <label>]", keeping
the other entries already in it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds_of(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    parser.add_argument("--label", help="suffix of the key in --out, e.g. 'set 2'")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    values: dict[str, list[float]] = {}
    envs = []
    for seed in seeds_of(args.seeds):
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]),
                                 "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        envs.extend(json.loads(ln[4:]) for ln in lines if ln.startswith("env "))
        for name, m in json.loads(lines[-1])["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed} done", file=sys.stderr, flush=True)
    summary = {}
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                         "bound": bound}
        flag = "" if bound is None else ("  ok" if spread <= bound / 3 else
                                         "  within bound" if spread <= bound else "  OVER")
        print(f"{name:28s} median {med:<14.6g} spread {spread:6.3f} bound {bound}{flag}")
    if args.out:
        out = Path(args.out)
        runs = json.loads(out.read_text()) if out.exists() else {}
        key = f"{args.workload} trace={args.trace}" + (f" {args.label}" if args.label else "")
        runs[key] = {
            "seeds": args.seeds, "run_seconds": spec["run_seconds"], "summary": summary,
            "values": values, "env": envs}
        out.write_text(json.dumps(runs, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
