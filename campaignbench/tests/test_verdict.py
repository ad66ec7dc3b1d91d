"""The per-campaign verdict passes a correct campaign and catches a
tampered outcome, journal or count."""

from __future__ import annotations

import json

import numpy as np

from repro.store import journal_path

from verdict import verify


def test_correct_campaign_passes(fresh):
    reference = fresh.reference()
    outcome = fresh.run_campaign()
    assert outcome.engine["submitted"] == 2 * 12 * 3
    assert verify(outcome, reference) == []


def test_warm_campaign_passes_with_its_identities(warm):
    reference = warm.reference()
    outcome = warm.run_campaign()
    assert outcome.cache_stats["inserts"] == 0
    assert outcome.cache_stats["hits"] > 0
    assert verify(outcome, reference, warm=True) == []


def test_tampered_fitness_is_caught(fresh):
    reference = fresh.reference()
    outcome = fresh.run_campaign()
    victim = outcome.result.runs[1][-1].evaluated[3]
    victim.fitness = np.nextafter(victim.fitness, np.inf)
    failures = verify(outcome, reference)
    assert any("run 1 generation 2 differs in evaluated" in f for f in failures)


def test_tampered_journal_is_caught(fresh):
    reference = fresh.reference()
    outcome = fresh.run_campaign()
    path = journal_path(outcome.stores.directory)
    lines = path.read_text().splitlines()
    for i, line in enumerate(lines):
        doc = json.loads(line)
        if doc["type"] == "generation" and doc["generation"] == 1:
            doc["evaluated"]["fitness"][0][0] += 1e-9
            lines[i] = json.dumps(doc)
            break
    path.write_text("\n".join(lines) + "\n")
    failures = verify(outcome, reference)
    assert any(f.startswith("journal:") for f in failures)


def test_broken_accounting_is_caught(fresh):
    reference = fresh.reference()
    outcome = fresh.run_campaign()
    outcome.engine["fresh"] -= 1
    failures = verify(outcome, reference)
    assert any("submitted" in f for f in failures)
    assert any("skipped failures" in f for f in failures)


def test_campaign_that_raises_fails_the_verdict(fresh):
    reference = fresh.reference()
    fresh.base_factory = lambda directory: _raise
    outcome = fresh.run_campaign()
    assert outcome.error is not None
    assert verify(outcome, reference) == [f"campaign raised {outcome.error}"]


def _raise(seed):
    raise RuntimeError("problem factory failed")
