"""Campaign benchmark: one workload, one seed, one run.

    python3 campaignbench/run.py --workload durable-warm --seed 1 \
        --seconds 20 --trace 0

Runs paper-shaped campaigns back to back for ``--seconds`` (at least
one), verifies each against an untimed inline, cache-free reference
campaign, and prints a line of raw figures followed, as the last line,
by one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` alternates untraced and traced campaigns and reports the
per-layer metrics.  Every time is normalised to reference machine speed
(see ``calibration.py``); set-up time comes from fresh-process probes.
"""

from __future__ import annotations

import os

#: BLAS/OpenMP pools pinned to one thread here and, through the
#: inherited environment, in pool workers and probes
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = BENCH_DIR / ".work"
TRACE_DIR = BENCH_DIR / "traces"

#: set-up probes per run (fresh processes; the median is reported)
SETUP_PROBES = 5
#: the self-time sum may miss the traced wall time by this share
SELF_TIME_TOLERANCE = 0.01


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def peak_rss_mb() -> float:
    """VmHWM of this process plus each live child (the pool workers)."""
    pids = [os.getpid()] + [p.pid for p in multiprocessing.active_children()]
    total_kb = 0
    for pid in pids:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
    return total_kb / 1024.0


def setup_probes(workload: str, seed: int) -> list[dict]:
    """Time fresh processes from launch to ready; each is normalised by
    the calibration samples it took itself."""
    from calibration import normalisation_factor

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    probes = []
    for _ in range(SETUP_PROBES):
        launched = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "probe.py"), workload, str(seed)],
            env=env,
            capture_output=True,
            text=True,
            timeout=150,
            check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
        doc["setup_s"] = doc.pop("ready") - launched - doc.pop("paused")
        doc["factor"] = normalisation_factor(doc.pop("samples"))
        probes.append(doc)
    return probes


def quantile(values: list[float], q: int) -> float:
    """``q``-th percentile (inclusive method; exact for small samples)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Run:
    """State of one benchmark run: the workload, its reference, tallies."""

    def __init__(self, workload: object, reference: object) -> None:
        from verdict import verify

        self.workload = workload
        self.reference = reference
        self.verify = verify
        self.attempted = 0
        self.failed = 0

    def campaign(self, tracer: object = None) -> object:
        outcome = self.workload.run_campaign(tracer=tracer)
        failures = self.verify(
            outcome, self.reference, warm=self.workload.name == "durable-warm"
        )
        self.attempted += 1
        if failures:
            self.failed += 1
            for failure in failures[:20]:
                print(f"verdict: {failure}", file=sys.stderr)
        # records are dropped here so peak RSS does not grow with the
        # number of campaigns a run fits in
        outcome.verified = not failures
        outcome.result = None
        outcome.stores = None
        return outcome


def end_to_end(run: Run, seconds: float, probes: list[dict]) -> tuple[dict, dict]:
    deadline = time.perf_counter() + seconds
    outcomes = []
    while True:
        outcomes.append(run.campaign())
        if time.perf_counter() >= deadline:
            break
    good = [o for o in outcomes if o.verified] or outcomes
    gens = [g for o in good for g in o.generation_norm_s]
    gens_raw = [g for o in good for g in o.generation_s]
    rates = [o.resolved / o.norm_seconds for o in good]
    rates_raw = [o.resolved / o.seconds for o in good]
    metrics = {
        "evals_per_s": statistics.median(rates),
        "generation_p50_s": statistics.median(gens),
        "generation_p90_s": quantile(gens, 90),
        "setup_s": statistics.median(p["setup_s"] * p["factor"] for p in probes),
        "peak_rss_mb": peak_rss_mb(),
        "verified_share": (run.attempted - run.failed) / run.attempted,
        "front_hv": run.workload.front_hv(run.reference),
    }
    raw = {
        "campaigns": len(outcomes),
        "generation_samples": len(gens),
        "evals_per_s": statistics.median(rates_raw),
        "generation_p50_s": statistics.median(gens_raw),
        "generation_p90_s": quantile(gens_raw, 90),
        "setup_s": statistics.median(p["setup_s"] for p in probes),
        "campaign_s": statistics.median(o.seconds for o in good),
        "campaign_norm_s": statistics.median(o.norm_seconds for o in good),
    }
    return metrics, raw


def per_layer(run: Run, seconds: float, probes: list[dict], trace_path: Path) -> tuple[dict, dict]:
    from tracing import SPAN_METRICS, LayerTracer

    tracer = LayerTracer()
    untraced: list[float] = []
    traced: list[float] = []
    layers: list[dict] = []
    worst_gap = 0.0
    deadline = time.perf_counter() + seconds
    while True:
        untraced.append(run.campaign().norm_seconds)
        outcome = run.campaign(tracer=tracer)
        traced.append(outcome.norm_seconds)
        values = tracer.campaign_metrics(
            tracer.campaign, outcome.seconds, outcome.engine
        )
        self_sum = sum(values[m] for m in set(SPAN_METRICS.values()))
        gap = abs(self_sum - outcome.seconds) / outcome.seconds
        worst_gap = max(worst_gap, gap)
        if gap > SELF_TIME_TOLERANCE and outcome.verified:
            run.failed += 1
            print(
                f"trace: self times sum to {self_sum:.6f} s, traced wall "
                f"{outcome.seconds:.6f} s ({gap:.2%} apart)",
                file=sys.stderr,
            )
        factor = outcome.norm_seconds / outcome.seconds
        for metric in set(SPAN_METRICS.values()):
            values[metric] *= factor
        layers.append(values)
        if time.perf_counter() >= deadline:
            break
    tracer.write_jsonl(trace_path)
    metrics = {name: statistics.median(v[name] for v in layers) for name in layers[0]}
    metrics["obs.trace_overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
    for phase in ("import_s", "problem_s", "pool_spawn_s"):
        metrics[f"setup.{phase}"] = statistics.median(
            p[phase] * p["factor"] for p in probes
        )
    raw = {
        "traced_campaigns": len(traced),
        "self_time_gap": worst_gap,
        "trace": str(trace_path.relative_to(ROOT)),
    }
    return metrics, raw


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    from processes import adopt_orphans, stop_children

    adopt_orphans()
    try:
        return measure(args)
    finally:
        stop_children()


def measure(args: argparse.Namespace) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = load_spec()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2

    probes = setup_probes(args.workload, args.seed)
    work_dir = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed, work_dir)
    try:
        workload.build_problem()
        workload.open_pool()
        workload.prepare()
        run = Run(workload, workload.reference())
        if args.trace:
            trace_path = TRACE_DIR / f"{args.workload}-{args.seed}.jsonl"
            values, raw = per_layer(run, args.seconds, probes, trace_path)
            wanted = spec["per_layer"]
        else:
            values, raw = end_to_end(run, args.seconds, probes)
            wanted = spec["end_to_end"]
    finally:
        workload.close()
        workload.cleanup()
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    print("raw: " + json.dumps(raw, sort_keys=True))
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
