"""Set-up probe: one fresh process from launch to ready.

    python3 campaignbench/probe.py <workload> <seed>

Imports the program, builds the workload's problem (the MD dataset on
``real-train``) and, on the pool workload, spawns the pool through one
round trip per worker.  A calibration sample is taken when the
interpreter is up and after every phase, inside this process, so each
probe is normalised by the machine speed it ran at, not by the idle
parent's; the sampling pauses are excluded from the times.  Prints one
JSON line with the monotonic instant it became ready, the pauses before
it, the samples and the raw phase times, after shutting the pool down
and waiting for each of its processes.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from calibration import calibration_sample
from processes import stop_children


def main() -> int:
    workload, seed = sys.argv[1], int(sys.argv[2])
    samples: list[float] = []
    paused = 0.0

    def sample() -> float:
        """Take a sample; return the instant the program resumes."""
        nonlocal paused
        begin = time.monotonic()
        samples.append(calibration_sample())
        end = time.monotonic()
        paused += end - begin
        return end

    begun = sample()
    import workloads

    imported = time.monotonic()
    begun_problem = sample()
    # set-up writes nothing; the work directory is never created
    work_dir = Path(__file__).resolve().parent / ".work" / "probe"
    wl = workloads.WORKLOADS[workload](seed, work_dir)
    wl.build_problem()
    built = time.monotonic()
    begun_pool = sample()
    try:
        wl.open_pool()
        ready = time.monotonic()
        paused_to_ready = paused
    finally:
        wl.close()
        stop_children()
    sample()
    print(
        json.dumps(
            {
                "ready": ready,
                "paused": paused_to_ready,
                "samples": samples,
                "import_s": imported - begun,
                "problem_s": built - begun_problem,
                "pool_spawn_s": ready - begun_pool,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
