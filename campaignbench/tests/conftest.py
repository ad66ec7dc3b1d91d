"""Self-tests of the campaign benchmark (not part of the program's suite).

    PYTHONPATH=src python -m pytest campaignbench/tests -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
for path in (BENCH_DIR.parent / "src", BENCH_DIR):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from repro.hpo import CampaignConfig  # noqa: E402

from workloads import DurableFresh, DurableWarm  # noqa: E402


def _small(self: object) -> CampaignConfig:
    return CampaignConfig(
        n_runs=2, pop_size=12, generations=2, batch_evals=True, base_seed=self.seed
    )


class SmallFresh(DurableFresh):
    config = _small


class SmallWarm(DurableWarm):
    config = _small


@pytest.fixture
def fresh(tmp_path: Path) -> SmallFresh:
    workload = SmallFresh(7, tmp_path / "work")
    workload.build_problem()
    workload.prepare()
    return workload


@pytest.fixture
def warm(tmp_path: Path) -> SmallWarm:
    workload = SmallWarm(7, tmp_path / "work")
    workload.build_problem()
    workload.prepare()
    return workload
