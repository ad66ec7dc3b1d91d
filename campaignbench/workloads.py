"""The benchmark's workloads and the timed campaign loop.

Every workload runs paper-shaped campaigns through the public API as a
single-process closed loop: campaigns back to back, each generation
waiting on the last.  The workload seed is the campaign's ``base_seed``
on the surrogate workloads; on ``real-train`` it seeds the trainer (see
``RealTrain``).

Stores (cache, journal, training directories) live under a work
directory inside the checkout.  A run deletes them only after its last
timed campaign, and syncs, so the disk work of the deletions lands in
no timed campaign.
"""

from __future__ import annotations

import math
import os
import shutil
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

from repro.engine import ProcessPoolBackend
from repro.evo.individual import RobustIndividual
from repro.hpo import (
    Campaign,
    CampaignConfig,
    CampaignResult,
    DeepMDProblem,
    DeepMDRepresentation,
    EvaluatorSettings,
    SurrogateDeepMDProblem,
)
from repro.md.dataset import generate_dataset
from repro.mo.metrics import hypervolume
from repro.obs import DEFAULT_REFERENCE_POINT
from repro.obs.metrics import get_registry
from repro.store import (
    CachedProblem,
    CampaignJournal,
    EvaluationCache,
    journal_path,
)

from calibration import calibration_sample, normalisation_factor

#: engine counters read around every campaign (process-wide registry)
ENGINE_COUNTERS = {
    "submitted": "engine_submitted_total",
    "fresh": "engine_fresh_evaluations_total",
    "cache_hits": "engine_cache_hits_total",
    "dedup_hits": "engine_dedup_hits_total",
    "failures": "engine_failures_total",
}


def pool_workers() -> int:
    """One pool worker per usable core (``nproc``)."""
    return len(os.sched_getaffinity(0))


def engine_counts() -> dict[str, int]:
    registry = get_registry()
    return {
        key: int(registry.counter(name).value)
        for key, name in ENGINE_COUNTERS.items()
    }


@dataclass
class Stores:
    """What one campaign writes: a cache, a journal, or neither."""

    directory: Path
    cache: Optional[EvaluationCache] = None
    journal: Optional[CampaignJournal] = None


@dataclass
class CampaignOutcome:
    """One measured campaign with its timings and exact counts."""

    result: Optional[CampaignResult]
    stores: Stores
    #: raw wall seconds, calibration pauses excluded
    seconds: float
    #: raw seconds at reference speed
    norm_seconds: float
    #: per generation, callback to callback (raw and normalised)
    generation_s: list[float] = field(default_factory=list)
    generation_norm_s: list[float] = field(default_factory=list)
    engine: dict[str, int] = field(default_factory=dict)
    cache_stats: Optional[dict[str, int]] = None
    error: Optional[str] = None
    #: set once the verdict has been taken
    verified: bool = False

    @property
    def resolved(self) -> int:
        return self.engine.get("submitted", 0)


class Sampler:
    """Calibration samples taken while one campaign runs, and the pauses
    they cost, which the campaign's time excludes.  Inside a traced
    campaign each sample is a ``bench.calibration`` span."""

    def __init__(self, tracer: Any = None) -> None:
        self.tracer = tracer
        self.values: list[float] = []
        self.pauses: list[tuple[float, float]] = []

    def sample(self) -> None:
        start = time.perf_counter()
        if self.tracer is None:
            value = calibration_sample()
        else:
            value = self.tracer.timed("bench", "calibration", calibration_sample)
        self.pauses.append((start, time.perf_counter()))
        self.values.append(value)

    def paused(self, begin: float, end: float) -> float:
        """Pause time of the samples started in ``[begin, end)``."""
        return sum(b - a for a, b in self.pauses if begin <= a < end)


class Workload:
    """Base: a problem, an optional store layout and an optional pool."""

    #: the sampler of the campaign now running (None outside one)
    sampler: Optional[Sampler] = None

    name = ""

    def __init__(self, seed: int, work_dir: Path) -> None:
        self.seed = int(seed)
        self.work_dir = Path(work_dir)
        self._serial = 0
        self.client: Any = None

    # -- set-up ----------------------------------------------------------
    def build_problem(self) -> None:
        """Everything a campaign needs besides stores and the pool."""

    def open_pool(self) -> None:
        """Spawn the pool (pool workloads only) through one round trip."""

    def prepare(self) -> None:
        """Untimed preparation after set-up (the warm-cache fill)."""

    def close(self) -> None:
        if self.client is not None:
            self.client.close()
            self.client = None

    # -- campaigns -------------------------------------------------------
    def config(self) -> CampaignConfig:
        return CampaignConfig(
            n_runs=5,
            pop_size=100,
            generations=6,
            batch_evals=True,
            base_seed=self.seed,
        )

    def base_factory(self, directory: Path) -> Callable[[int], Any]:
        raise NotImplementedError

    def open_stores(self, directory: Path) -> Stores:
        return Stores(directory)

    def new_directory(self, tag: str) -> Path:
        self._serial += 1
        directory = self.work_dir / f"{tag}-{self._serial:03d}"
        directory.mkdir(parents=True)
        return directory

    def reference(self) -> CampaignResult:
        """The inline, cache-free campaign every measured one must match."""
        directory = self.new_directory("reference")
        return Campaign(self.base_factory(directory), self.config()).run()

    def front_hv(self, result: CampaignResult) -> float:
        front = np.asarray(
            [ind.fitness for ind in result.aggregate_pareto_front()],
            dtype=np.float64,
        )
        return float(hypervolume(front, DEFAULT_REFERENCE_POINT))

    def run_campaign(self, tracer: Any = None) -> CampaignOutcome:
        """One campaign, sampled with the calibration kernel at its start,
        at every generation boundary and at its end (``RealTrain`` also
        samples after every training).

        The sampling pauses are excluded from the campaign's time; with
        ``tracer`` the layer wrappers are installed for the campaign.
        """
        directory = self.new_directory("campaign")
        stores = self.open_stores(directory)
        factory = self.base_factory(directory)
        if stores.cache is not None:
            cache = stores.cache
            inner = factory
            factory = lambda seed: CachedProblem(inner(seed), cache)  # noqa: E731
        sampler = Sampler(tracer)
        sampler.sample()
        callbacks: list[float] = []  # instants a generation finished
        resumes: list[float] = []  # instants the campaign resumed
        bounds: list[int] = []  # index of the sample after each generation

        def on_generation(run_index: int, record: Any) -> None:
            callbacks.append(time.perf_counter())
            sampler.sample()
            bounds.append(len(sampler.values) - 1)
            resumes.append(time.perf_counter())

        campaign = Campaign(
            factory,
            self.config(),
            client=self.client,
            journal=stores.journal,
        )
        counts_before = engine_counts()
        error = None
        result = None
        self.sampler = sampler
        # wrappers go in before the clock starts and come out after it
        # stops, so the traced wall time is the root span's
        with tracer.installed() if tracer is not None else nullcontext():
            start = time.perf_counter()
            try:
                result = campaign.run(callback=on_generation)
            except Exception as exc:  # a campaign that raises counts as failed
                error = f"{type(exc).__name__}: {exc}"
            end = time.perf_counter()
        self.sampler = None
        if stores.journal is not None:
            stores.journal.close()
        sampler.sample()
        engine = {
            key: value - counts_before[key]
            for key, value in engine_counts().items()
        }
        median = statistics.median(sampler.values)
        starts = [start] + resumes
        generation_s = [
            done - begun - sampler.paused(begun, done)
            for begun, done in zip(starts, callbacks)
        ]
        # a generation is normalised by the samples from the one before
        # it to the one after it, with the campaign's median breaking a
        # tie; the tail after the last generation (closing journal
        # records) by the campaign's median
        generation_norm_s = [
            g * normalisation_factor(sampler.values[first : last + 1] + [median])
            for g, first, last in zip(generation_s, [0] + bounds, bounds)
        ]
        tail = end - starts[-1] - sampler.paused(starts[-1], end)
        return CampaignOutcome(
            result=result,
            stores=stores,
            seconds=sum(generation_s) + tail,
            norm_seconds=sum(generation_norm_s)
            + tail * normalisation_factor([median]),
            generation_s=generation_s,
            generation_norm_s=generation_norm_s,
            engine=engine,
            cache_stats=None if stores.cache is None else stores.cache.stats(),
            error=error,
        )

    def cleanup(self) -> None:
        shutil.rmtree(self.work_dir, ignore_errors=True)
        # flush the deletions (and the discards they queue) now, not
        # into the next run's timed campaigns
        os.sync()


class _Surrogate(Workload):
    def base_factory(self, directory: Path) -> Callable[[int], Any]:
        return lambda seed: SurrogateDeepMDProblem(seed=seed)


class DurableFresh(_Surrogate):
    """Paper shape with durability on: a new cache and journal per
    campaign, so the store write path is exercised on every candidate."""

    name = "durable-fresh"

    def open_stores(self, directory: Path) -> Stores:
        return Stores(
            directory,
            cache=EvaluationCache(directory / "cache"),
            journal=CampaignJournal(
                journal_path(directory), problem_spec={"backend": "surrogate"}
            ),
        )


class DurableWarm(_Surrogate):
    """The resubmit / rerun path: a cache filled once, reopened by a new
    :class:`EvaluationCache` per campaign so every probe reads disk."""

    name = "durable-warm"

    def prepare(self) -> None:
        self.warm_dir = self.work_dir / "warm-cache"
        cache = EvaluationCache(self.warm_dir)
        Campaign(
            lambda seed: CachedProblem(SurrogateDeepMDProblem(seed=seed), cache),
            self.config(),
        ).run()

    def open_stores(self, directory: Path) -> Stores:
        return Stores(
            directory,
            cache=EvaluationCache(self.warm_dir),
            journal=CampaignJournal(
                journal_path(directory), problem_spec={"backend": "surrogate"}
            ),
        )


class PoolSurrogate(_Surrogate):
    """No store, vectorised problem, ``nproc`` spawn workers: what is left
    is transport, operators, engine bookkeeping and telemetry."""

    name = "pool-surrogate"

    def open_pool(self) -> None:
        self.client = ProcessPoolBackend(workers=pool_workers())
        problem = SurrogateDeepMDProblem(seed=self.seed)
        probe = RobustIndividual(
            np.asarray(DeepMDRepresentation.init_ranges)[:, 0],
            decoder=DeepMDRepresentation.decoder(),
            problem=problem,
        )
        # one round trip per worker: every worker has imported and
        # answered before set-up counts as done
        futures = [
            self.client.submit_batch([probe]) for _ in range(pool_workers())
        ]
        for future in futures:
            future.result(timeout=120)


class RealTrain(Workload):
    """Real DeePMD trainings at ``benchmarks/bench_real_training.py`` scale
    (its 32-frame dataset and network shapes, 20 steps instead of 60).

    Training cost grows with ``rcut`` (cubically in neighbours), and
    ``rcut`` is a searched gene: letting the seed pick the genomes made
    one campaign take 23-34 s across seeds 1-4.  So ``base_seed`` and the
    dataset are fixed, and with one EA step after the random generation
    every genome follows from ``base_seed`` alone (random parent
    selection and mutation draw only from the run RNG).  The workload
    seed seeds the trainer -- model initialisation and minibatch order
    -- which decides every fitness, the selection and the front.
    """

    name = "real-train"
    BASE_SEED = 2023
    DATASET_SEED = 99

    def config(self) -> CampaignConfig:
        return CampaignConfig(
            n_runs=2,
            pop_size=4,
            generations=1,
            batch_evals=True,
            base_seed=self.BASE_SEED,
        )

    def build_problem(self) -> None:
        self.dataset = generate_dataset(
            n_frames=32,
            n_alcl3=4,
            n_kcl=2,
            equilibration_steps=80,
            sample_interval=4,
            rng=self.DATASET_SEED,
        )
        self.settings = EvaluatorSettings(
            numb_steps=20,
            batch_size=2,
            disp_freq=20,
            embedding_widths=(4, 8),
            axis_neurons=2,
            fitting_widths=(8,),
            time_limit=300.0,
            seed=self.seed,
        )

    def base_factory(self, directory: Path) -> Callable[[int], Any]:
        problem = SampledDeepMDProblem(
            self, self.dataset, base_dir=directory / "trainings", settings=self.settings
        )
        return lambda seed: problem

    def open_stores(self, directory: Path) -> Stores:
        return Stores(
            directory,
            cache=EvaluationCache(directory / "cache"),
            journal=CampaignJournal(
                journal_path(directory), problem_spec={"backend": "real"}
            ),
        )

    def null_rmse(self) -> tuple[float, float]:
        """Validation RMSEs of the null model: the training split's
        per-atom mean energy, zero forces."""
        ds = self.dataset
        frames = ds.validation or ds.train
        mean = ds.energy_statistics()["per_atom_mean"]
        de = np.array([(f.energy - mean * ds.n_atoms) / ds.n_atoms for f in frames])
        forces = np.concatenate([f.forces.ravel() for f in frames])
        return (
            float(math.sqrt(np.mean(de * de))),
            float(math.sqrt(np.mean(forces * forces))),
        )

    def front_hv(self, result: CampaignResult) -> float:
        """Hypervolume of the front in units of the null model's RMSEs,
        up to twice them: 20-step trainings of these tiny networks land
        close to the null model, often just outside it on energy, so the
        null point itself would bound an empty box."""
        front = np.asarray(
            [ind.fitness for ind in result.aggregate_pareto_front()],
            dtype=np.float64,
        )
        return float(hypervolume(front / np.asarray(self.null_rmse()), (2.0, 2.0)))


class SampledDeepMDProblem(DeepMDProblem):
    """``DeepMDProblem`` that takes a calibration sample after each
    training while a measured campaign runs.  A ``real-train`` generation
    is four trainings of a few seconds, and machine speed drifts within
    it: over eight campaigns, normalising by per-training samples cut the
    spread from 11.9 % (generation-boundary samples) to 6.2 %."""

    def __init__(self, workload: Workload, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.workload = workload

    def evaluate_with_metadata(self, phenome: Any, uuid: Any = None) -> Any:
        try:
            return super().evaluate_with_metadata(phenome, uuid=uuid)
        finally:
            if self.workload.sampler is not None:
                self.workload.sampler.sample()


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (DurableFresh, DurableWarm, PoolSurrogate, RealTrain)
}
