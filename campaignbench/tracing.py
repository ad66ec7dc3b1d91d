"""Outside-in per-layer trace of one campaign.

The tracer swaps module and class attributes of each layer's public
functions for timing wrappers while a traced campaign runs, and puts
every original back (checked by identity) when it ends, raise or not.
Untraced campaigns run with no wrapper installed.

A span is ``(id, layer, function, start, end, parent, campaign)``; spans
stay in memory and are written as JSONL when the run ends.  A span's
self time is its duration minus its direct children's, so the self
times of all spans of a campaign add up to its root span, ``Campaign.run``,
whose own self time is ``hpo.unattributed_s``.  Every span function maps
to exactly one ``*_s`` metric (``SPAN_METRICS``), except the benchmark's
own calibration samples, which the traced wall time excludes too.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator, NamedTuple, Optional

import numpy

import repro.autodiff.functional as autodiff_functional
import repro.deepmd.lcurve as deepmd_lcurve
import repro.deepmd.runner as deepmd_runner
import repro.deepmd.training as deepmd_training
import repro.evo.algorithm as evo_algorithm
import repro.evo.ops as evo_ops
from repro.autodiff.tensor import Tensor
from repro.deepmd.model import DeepPotModel
from repro.deepmd.training import Trainer
from repro.engine import EvaluationEngine, ProcessPoolBackend
from repro.hpo import Campaign, DeepMDProblem, SurrogateDeepMDProblem
from repro.nn.loss import EnergyForceLoss
from repro.nn.optimizer import Adam, Optimizer
from repro.obs.live import ConvergenceTelemetry
from repro.obs.metrics import get_registry
from repro.store import CachedProblem, CampaignJournal, EvaluationCache

#: (layer, function) of each span kind → the self-time metric it feeds
SPAN_METRICS: dict[tuple[str, str], str] = {
    ("hpo", "campaign"): "hpo.unattributed_s",
    ("hpo", "landscape.eval"): "hpo.landscape.eval_s",
    ("store.cache", "key"): "store.cache.key_s",
    ("store.cache", "probe"): "store.cache.probe_s",
    ("store.cache", "insert"): "store.cache.insert_s",
    ("store.journal", "append"): "store.journal.append_s",
    ("store.journal", "fsync"): "store.journal.fsync_s",
    ("engine", "evaluate"): "engine.self_s",
    ("engine.pool", "submit"): "engine.pool.submit_s",
    ("engine.pool", "wait"): "engine.pool.wait_s",
    ("evo", "variation"): "evo.variation_s",
    ("evo", "sort"): "evo.sort_s",
    ("evo", "crowding"): "evo.crowding_s",
    ("evo", "selection"): "evo.selection_s",
    ("obs", "telemetry"): "obs.telemetry_s",
    ("deepmd", "evaluate"): "deepmd.prepare_s",
    ("deepmd", "prepare"): "deepmd.prepare_s",
    ("deepmd", "forward"): "deepmd.forward_s",
    ("deepmd", "backward"): "deepmd.backward_s",
    ("deepmd", "optimizer"): "deepmd.optimizer_s",
    ("deepmd", "validation"): "deepmd.validation_s",
    ("deepmd", "io"): "deepmd.io_s",
}

#: exact counts and ratios, in the order they are printed
COUNT_METRICS = (
    "store.cache.keys",
    "store.cache.hits",
    "store.cache.misses",
    "store.cache.hit_ratio",
    "store.cache.inserts",
    "store.cache.files_written",
    "store.cache.bytes_written",
    "store.journal.appends",
    "store.journal.fsyncs",
    "store.journal.bytes",
    "engine.submitted",
    "engine.fresh",
    "engine.cache_hits",
    "engine.dedup_hits",
    "engine.failures",
    "engine.fresh_ratio",
    "engine.pool.chunks",
    "engine.pool.items_per_chunk",
    "engine.pool.respawns",
    "evo.offspring",
    "hpo.landscape.evals",
    "hpo.bookkeeping_share",
    "deepmd.trainings",
    "deepmd.steps",
    "autodiff.tape_ops",
    "autodiff.tape_ops_per_step",
)

#: the benchmark's own calibration samples inside a traced campaign: not
#: program time, excluded from the layer metrics and the traced wall time
CALIBRATION = ("bench", "calibration")

#: spans whose duration is problem compute (for ``hpo.bookkeeping_share``)
PROBLEM_SPANS = {("hpo", "landscape.eval"), ("deepmd", "evaluate")}

#: marks a wrapper so tests can tell one from an original
WRAPPED = "__campaignbench_wrapped__"


class Span(NamedTuple):
    id: int
    layer: str
    function: str
    start: float
    end: float
    parent: Optional[int]
    campaign: int


class Patch(NamedTuple):
    owner: Any
    attr: str
    make: Callable[["LayerTracer", Any], Callable[..., Any]]


_MISSING = object()


class LayerTracer:
    """Collects spans and exact counts for the campaigns it is installed on."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.campaign = 0
        #: campaign → counts taken at the layer boundaries
        self.counts: dict[int, Counter[str]] = {}
        self._open: list[tuple[int, str, str]] = []
        self._next_id = 0
        self._inserted: list[Path] = []
        self._journals: set[Path] = set()

    @property
    def current(self) -> Counter[str]:
        return self.counts[self.campaign]

    def timed(
        self,
        layer: str,
        function: str,
        fn: Callable[..., Any],
        *args: Any,
        **kw: Any,
    ) -> Any:
        sid = self._next_id
        self._next_id += 1
        parent = self._open[-1][0] if self._open else None
        self._open.append((sid, layer, function))
        start = time.perf_counter()
        try:
            return fn(*args, **kw)
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans.append(
                Span(sid, layer, function, start, end, parent, self.campaign)
            )

    def inside(self, layer: str, function: str) -> bool:
        """Is a ``(layer, function)`` span open on the stack?"""
        return any(o[1] == layer and o[2] == function for o in self._open)

    def note_insert(self, path: Path) -> None:
        self._inserted.append(path)

    def note_journal(self, path: Path) -> None:
        self._journals.add(Path(path))

    # -- installation ----------------------------------------------------
    @contextmanager
    def installed(self) -> Iterator[None]:
        """Install the wrappers for one campaign; restore them on exit,
        checked by identity, whether or not the campaign raised."""
        self.campaign += 1
        self.counts[self.campaign] = Counter()
        self._inserted = []
        self._journals = set()
        respawns = get_registry().counter("pool_worker_respawns_total")
        respawns_before = respawns.value
        saved: list[tuple[Any, str, Any]] = []
        try:
            for patch in PATCHES:
                raw = patch.owner.__dict__.get(patch.attr, _MISSING)
                wrapper = patch.make(self, getattr(patch.owner, patch.attr))
                setattr(wrapper, WRAPPED, True)
                saved.append((patch.owner, patch.attr, raw))
                setattr(patch.owner, patch.attr, wrapper)
            yield
        finally:
            for owner, attr, raw in reversed(saved):
                if raw is _MISSING:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, raw)
            for owner, attr, raw in saved:
                if owner.__dict__.get(attr, _MISSING) is not raw:
                    raise RuntimeError(f"{owner!r}.{attr} was not restored")
            counts = self.current
            counts["engine.pool.respawns"] += int(respawns.value - respawns_before)
            counts["store.cache.bytes_written"] += sum(
                p.stat().st_size for p in self._inserted if p.exists()
            )
            counts["store.journal.bytes"] += sum(
                p.stat().st_size for p in self._journals if p.exists()
            )

    # -- results ---------------------------------------------------------
    def campaign_metrics(
        self, campaign: int, wall_s: float, engine: dict[str, int]
    ) -> dict[str, float]:
        """Per-layer metrics of one traced campaign, raw seconds.

        ``wall_s`` is the campaign's wall time measured around
        ``Campaign.run`` by the caller, and ``engine`` its engine counter
        delta (``CampaignOutcome.engine``).
        """
        spans = [s for s in self.spans if s.campaign == campaign]
        by_id = {s.id: s for s in spans}
        child_time: dict[int, float] = defaultdict(float)
        for s in spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        out = {metric: 0.0 for metric in SPAN_METRICS.values()}
        problem = 0.0
        for s in spans:
            key = (s.layer, s.function)
            if key == CALIBRATION:
                continue
            out[SPAN_METRICS[key]] += (s.end - s.start) - child_time[s.id]
            if key in PROBLEM_SPANS and not _below(s, by_id, PROBLEM_SPANS):
                problem += s.end - s.start
        counts = Counter(self.counts[campaign])
        counts.update({f"engine.{key}": value for key, value in engine.items()})
        for name in COUNT_METRICS:
            out[name] = float(counts.get(name, 0))
        probes = counts["store.cache.hits"] + counts["store.cache.misses"]
        out["store.cache.hit_ratio"] = (
            counts["store.cache.hits"] / probes if probes else 0.0
        )
        submitted = counts["engine.submitted"]
        out["engine.fresh_ratio"] = (
            counts["engine.fresh"] / submitted if submitted else 0.0
        )
        chunks = counts["engine.pool.chunks"]
        out["engine.pool.items_per_chunk"] = (
            counts["engine.pool.items"] / chunks if chunks else 0.0
        )
        steps = counts["deepmd.steps"]
        out["autodiff.tape_ops_per_step"] = (
            counts["autodiff.tape_ops"] / steps if steps else 0.0
        )
        out["hpo.bookkeeping_share"] = 1.0 - problem / wall_s
        return out

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s._asdict()) + "\n")


def _below(span: Span, by_id: dict[int, Span], kinds: set) -> bool:
    """Does ``span`` have an ancestor of one of ``kinds``?"""
    parent = span.parent
    while parent is not None:
        p = by_id[parent]
        if (p.layer, p.function) in kinds:
            return True
        parent = p.parent
    return False


# ----------------------------------------------------------------------
# wrappers
# ----------------------------------------------------------------------
def timed(layer: str, function: str, count: Optional[Callable[..., None]] = None):
    """Patch maker: each call is one span; ``count(tracer, args, result)``
    adds exact counts after the span closes."""

    def make(tracer: LayerTracer, original: Callable[..., Any]):
        def wrapper(*args: Any, **kw: Any) -> Any:
            result = tracer.timed(layer, function, original, *args, **kw)
            if count is not None:
                count(tracer, args, result)
            return result

        return wrapper

    return make


def tally(name: str, amount: Callable[..., int] = lambda args, result: 1):
    """A ``count`` hook adding ``amount(args, result)`` to ``name``."""

    def count(tracer: LayerTracer, args: tuple, result: Any) -> None:
        tracer.current[name] += amount(args, result)

    return count


def operator_factory(layer: str, function: str):
    """Patch maker for operator factories: the returned operator is timed."""

    def make(tracer: LayerTracer, original: Callable[..., Any]):
        def wrapper(*args: Any, **kw: Any) -> Any:
            op = original(*args, **kw)
            return lambda *a, **k: tracer.timed(layer, function, op, *a, **k)

        return wrapper

    return make


def counted(name: str):
    """Patch maker that only counts calls (no span, near-zero cost)."""

    def make(tracer: LayerTracer, original: Callable[..., Any]):
        def wrapper(*args: Any, **kw: Any) -> Any:
            tracer.current[name] += 1
            return original(*args, **kw)

        return wrapper

    return make


def _lookup(tracer: LayerTracer, args: tuple, result: Any) -> None:
    tracer.current["store.cache.misses" if result is None else "store.cache.hits"] += 1


def _insert(tracer: LayerTracer, args: tuple, result: Any) -> None:
    if result:
        cache, key = args[0], args[1]
        tracer.current["store.cache.inserts"] += 1
        tracer.current["store.cache.files_written"] += 1
        # the entry layout EvaluationCache documents: <dir>/<key[:2]>/<key>.json
        tracer.note_insert(cache.directory / key[:2] / f"{key}.json")


def _journal(tracer: LayerTracer, args: tuple, result: Any) -> None:
    tracer.current["store.journal.appends"] += 1
    tracer.note_journal(args[0].path)


def _chunk(tracer: LayerTracer, args: tuple, result: Any) -> None:
    """A chunk shipped to the pool: its items are evaluated by the
    problem in a worker, outside the trace."""
    tracer.current["engine.pool.chunks"] += 1
    tracer.current["engine.pool.items"] += len(args[1])
    tracer.current["hpo.landscape.evals"] += len(args[1])


def _engine_drain(tracer: LayerTracer, original: Callable[..., Any]):
    """On the pool the engine's drain is waiting for workers (plus landing
    their results); on the inline backend it is engine bookkeeping."""

    def wrapper(engine: Any, *args: Any, **kw: Any) -> Any:
        if isinstance(engine.backend, ProcessPoolBackend):
            return tracer.timed("engine.pool", "wait", original, engine, *args, **kw)
        return original(engine, *args, **kw)

    return wrapper


def _landscape(tracer: LayerTracer, original: Callable[..., Any]):
    def wrapper(problem: Any, phenomes: Any, *args: Any, **kw: Any) -> Any:
        if not tracer.inside("hpo", "landscape.eval"):
            batch = original.__name__.startswith("evaluate_batch")
            tracer.current["hpo.landscape.evals"] += len(phenomes) if batch else 1
        return tracer.timed(
            "hpo", "landscape.eval", original, problem, phenomes, *args, **kw
        )

    return wrapper


def _energy_and_forces(tracer: LayerTracer, original: Callable[..., Any]):
    def wrapper(model: Any, batch: Any, create_graph: bool = False) -> Any:
        function = "forward" if create_graph else "validation"
        return tracer.timed(
            "deepmd", function, original, model, batch, create_graph=create_graph
        )

    return wrapper


def _length(args: tuple, result: Any) -> int:
    return len(result)


_JOURNAL_METHODS = (
    "begin_campaign",
    "begin_run",
    "append_generation",
    "append_evaluation",
    "end_run",
    "end_campaign",
)

PATCHES: list[Patch] = [
    Patch(Campaign, "run", timed("hpo", "campaign")),
    Patch(
        SurrogateDeepMDProblem, "evaluate_batch_with_metadata", _landscape
    ),
    Patch(SurrogateDeepMDProblem, "evaluate_with_metadata", _landscape),
    Patch(
        CachedProblem,
        "cache_key",
        timed("store.cache", "key", tally("store.cache.keys")),
    ),
    Patch(EvaluationCache, "contains", timed("store.cache", "probe")),
    Patch(EvaluationCache, "lookup", timed("store.cache", "probe", _lookup)),
    Patch(EvaluationCache, "insert", timed("store.cache", "insert", _insert)),
    *[
        Patch(CampaignJournal, name, timed("store.journal", "append", _journal))
        for name in _JOURNAL_METHODS
    ],
    Patch(
        os,
        "fsync",
        timed("store.journal", "fsync", tally("store.journal.fsyncs")),
    ),
    Patch(EvaluationEngine, "evaluate_batch", timed("engine", "evaluate")),
    Patch(EvaluationEngine, "evaluate", timed("engine", "evaluate")),
    Patch(EvaluationEngine, "drain", _engine_drain),
    Patch(ProcessPoolBackend, "submit_batch", timed("engine.pool", "submit", _chunk)),
    Patch(
        evo_ops,
        "pipe",
        timed("evo", "variation", tally("evo.offspring", _length)),
    ),
    Patch(
        evo_algorithm,
        "random_initial_population",
        timed("evo", "variation", tally("evo.offspring", _length)),
    ),
    Patch(evo_algorithm, "rank_ordinal_sort_op", operator_factory("evo", "sort")),
    Patch(evo_algorithm, "crowding_distance_calc", timed("evo", "crowding")),
    Patch(evo_ops, "truncation_selection", operator_factory("evo", "selection")),
    Patch(ConvergenceTelemetry, "observe_generation", timed("obs", "telemetry")),
    Patch(
        DeepMDProblem,
        "evaluate_with_metadata",
        timed("deepmd", "evaluate", tally("deepmd.trainings")),
    ),
    Patch(deepmd_training, "prepare_batches", timed("deepmd", "prepare")),
    Patch(DeepPotModel, "energy_and_forces", _energy_and_forces),
    Patch(EnergyForceLoss, "__call__", timed("deepmd", "forward")),
    Patch(Tensor, "backward", timed("deepmd", "backward")),
    Patch(Adam, "step", timed("deepmd", "optimizer", tally("deepmd.steps"))),
    Patch(Optimizer, "zero_grad", timed("deepmd", "optimizer")),
    Patch(Trainer, "evaluate_validation", timed("deepmd", "validation")),
    Patch(deepmd_runner, "prepare_run_directory", timed("deepmd", "io")),
    Patch(deepmd_lcurve, "write_lcurve", timed("deepmd", "io")),
    Patch(numpy, "savez", timed("deepmd", "io")),
    Patch(autodiff_functional, "make_op", counted("autodiff.tape_ops")),
]
