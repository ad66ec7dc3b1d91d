"""Tracer safety: wrappers exist only inside traced campaigns, every
original comes back by identity even when the campaign raises, and the
self times add up to the traced wall time."""

from __future__ import annotations

import pytest

from repro.hpo import SurrogateDeepMDProblem

from run import SELF_TIME_TOLERANCE
from tracing import PATCHES, SPAN_METRICS, WRAPPED, LayerTracer

_MISSING = object()


def _raw_attributes() -> list[object]:
    return [p.owner.__dict__.get(p.attr, _MISSING) for p in PATCHES]


def _wrapped_now() -> bool:
    return any(getattr(a, WRAPPED, False) for a in _raw_attributes())


class WatchedProblem(SurrogateDeepMDProblem):
    """Records, on every batch, whether any layer wrapper is installed."""

    seen: list[bool] = []

    def evaluate_batch_with_metadata(self, phenomes, uuids=None):
        WatchedProblem.seen.append(_wrapped_now())
        return super().evaluate_batch_with_metadata(phenomes, uuids)


def _watched(fresh):
    WatchedProblem.seen = []
    fresh.base_factory = lambda directory: lambda seed: WatchedProblem(seed=seed)


def test_untraced_campaign_runs_without_wrappers(fresh):
    _watched(fresh)
    fresh.run_campaign()
    assert WatchedProblem.seen and not any(WatchedProblem.seen)


def test_traced_campaign_runs_with_wrappers_then_removes_them(fresh):
    _watched(fresh)
    before = _raw_attributes()
    fresh.run_campaign(tracer=LayerTracer())
    assert WatchedProblem.seen and all(WatchedProblem.seen)
    assert all(a is b for a, b in zip(_raw_attributes(), before))


def test_patches_restored_by_identity_when_traced_campaign_raises(fresh):
    before = _raw_attributes()
    tracer = LayerTracer()
    with pytest.raises(RuntimeError, match="mid-campaign"):
        with tracer.installed():
            assert _wrapped_now()
            raise RuntimeError("mid-campaign")
    assert all(a is b for a, b in zip(_raw_attributes(), before))
    fresh.base_factory = lambda directory: _explode
    outcome = fresh.run_campaign(tracer=tracer)
    assert outcome.error is not None
    assert all(a is b for a, b in zip(_raw_attributes(), before))


def test_self_times_sum_to_traced_wall_time(fresh):
    tracer = LayerTracer()
    outcome = fresh.run_campaign(tracer=tracer)
    values = tracer.campaign_metrics(
        tracer.campaign, outcome.seconds, outcome.engine
    )
    self_sum = sum(values[m] for m in set(SPAN_METRICS.values()))
    assert abs(self_sum - outcome.seconds) <= SELF_TIME_TOLERANCE * outcome.seconds
    # exact counts at the layer boundaries
    submitted = 2 * 12 * 3
    assert values["engine.submitted"] == submitted
    assert values["evo.offspring"] == submitted
    probes = values["store.cache.hits"] + values["store.cache.misses"]
    assert probes == submitted - values["engine.dedup_hits"]
    assert values["store.cache.inserts"] == values["store.cache.files_written"]
    assert values["store.journal.fsyncs"] == values["store.journal.appends"]
    assert values["store.journal.bytes"] > 0
    assert values["hpo.unattributed_s"] > 0


def _explode(seed):
    raise RuntimeError("problem factory failed")
