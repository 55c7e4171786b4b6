"""Stability report: repeat bench/run.py over seeds and compare spreads with bounds.

    python3 bench/stability.py --runs 10
    python3 bench/stability.py --runs 10 --seed 11 --compare .bench_out/stability-1.json

Runs are made one at a time, cycling through all workloads of BENCHMARK.json
at its ``run_seconds``, with seeds ``--seed``, ``--seed`` + 1, ...  For
every end-to-end metric of every workload it prints the median, the
quartiles (``statistics.quantiles(n=4)``) and their distance as a share of
the median, next to the metric's bound in BENCHMARK.json.  ``--compare``
adds how far each median moved from an earlier report; the raw values are
saved under .bench_out/.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = str(spec["run_seconds"])
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--compare", type=Path, default=None, help="an earlier saved report")
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values = {w: {m: [] for m in bounds} for w in workloads}
    for i in range(args.runs):
        for w in workloads:
            cmd = spec["command"] + ["--workload", w, "--seed", str(args.seed + i),
                                     "--seconds", seconds, "--trace", "0"]
            t = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode or not result["correct"]:
                print(f"run {w} seed {args.seed + i} failed (exit {proc.returncode}):\n"
                      f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}", file=sys.stderr)
                return 1
            for m in bounds:
                values[w][m].append(result["metrics"][m]["value"])
            print(f"# {w} seed {args.seed + i}: {time.perf_counter() - t:.1f} s, " + ", ".join(
                f"{m}={values[w][m][-1]:.4g}" for m in bounds), flush=True)

    old = json.loads(args.compare.read_text()) if args.compare else None
    print(f"\n{'workload':<15} {'metric':<12} {'median':>10} {'q1':>10} {'q3':>10} "
          f"{'spread':>7} {'bound':>6}  verdict" + ("   drift" if old else ""))
    for w in workloads:
        for m, bound in bounds.items():
            v = values[w][m]
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med
            verdict = ("steady" if spread < bound / 3 else
                       "within bound" if spread <= bound else "TOO WIDE")
            line = (f"{w:<15} {m:<12} {med:>10.4f} {q1:>10.4f} {q3:>10.4f} "
                    f"{spread:>7.3f} {bound:>6.2f}  {verdict}")
            if old and w in old:
                drift = med / statistics.median(old[w][m]) - 1
                line += f"   {drift:+.3f}{' WORSE THAN BOUND' if drift > bound else ''}"
            print(line)
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    n = 1
    while (out / f"stability-{n}.json").exists():
        n += 1
    (out / f"stability-{n}.json").write_text(json.dumps(values, indent=1))
    print(f"\nraw values saved to .bench_out/stability-{n}.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
