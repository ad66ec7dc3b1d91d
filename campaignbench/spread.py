"""Run-to-run spread of the end-to-end metrics, raw against normalised.

    python3 campaignbench/spread.py [--workloads a,b] [--seeds 1-5] \
        [--seconds N]

Runs ``run.py`` once per workload and seed, in sequence, and prints for
every end-to-end metric its median, quartiles and IQR/median, beside
the bound in ``BENCHMARK.json``.  Timed metrics are shown twice:
normalised (what the benchmark reports) and raw (wall seconds), so the
calibration's effect on the spread is visible.  A metric is flagged
WIDE when its normalised spread is not below a third of its bound.
Seeds run in the order given (``--seeds 10,9,8`` reverses them), and
the per-run figures are printed in that order, so a drift that follows
run order rather than seed can be told apart by a second set.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

#: raw counterpart printed by run.py for each timed metric
RAW = ("evals_per_s", "generation_p50_s", "generation_p90_s", "setup_s")


def seeds_arg(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, IQR/median) as ``statistics.quantiles`` gives them."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def one_run(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    cmd = [
        sys.executable,
        str(BENCH_DIR / "run.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--seconds",
        str(seconds),
        "--trace",
        "0",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect\n{proc.stderr}")
    raw = next(json.loads(line[5:]) for line in lines if line.startswith("raw: "))
    return {k: v["value"] for k, v in result["metrics"].items()}, raw


def main() -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-5"))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()
    wide = 0
    for workload in args.workloads.split(","):
        runs = [one_run(workload, seed, args.seconds) for seed in args.seeds]
        seeds = ",".join(map(str, args.seeds))
        print(f"\n{workload} (seeds {seeds} in that order, {args.seconds} s runs)")
        print("| metric | bound | median | q1 | q3 | IQR/median | raw IQR/median | flag |")
        print("|---|---|---|---|---|---|---|---|")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            med, q1, q3, rel = spread([m[name] for m, _ in runs])
            raw_rel = (
                f"{spread([r[name] for _, r in runs])[3]:.1%}" if name in RAW else "-"
            )
            flag = ""
            if rel >= metric["bound"] / 3:
                flag = "WIDE"
                wide += 1
            print(
                f"| {name} | {metric['bound']:.0%} | {med:.6g} | {q1:.6g} | "
                f"{q3:.6g} | {rel:.1%} | {raw_rel} | {flag} |",
                flush=True,
            )
        for name in RAW:
            print(f"{name} per run: " + " ".join(f"{m[name]:.4g}" for m, _ in runs))
    return 1 if wide else 0


if __name__ == "__main__":
    sys.exit(main())
