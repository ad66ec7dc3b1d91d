"""Per-campaign verdict: a measured campaign is only counted when it is
provably the campaign the program should have run.

Checks, each a list entry in the returned failures:

* records and aggregate front bit-identical to the inline, cache-free
  reference campaign of the same seed;
* the journal, read back with ``read_journal``/``record_from_doc``,
  reproduces the records;
* the accounting identities between engine, cache and disk.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from repro.hpo import CampaignResult
from repro.store import read_journal, record_from_doc

from workloads import CampaignOutcome


def _bits(value: Any) -> bytes:
    return np.asarray(value, dtype=np.float64).tobytes()


def _group_bits(group: list[Any]) -> list[tuple[bytes, bytes]]:
    return [(_bits(ind.genome), _bits(ind.fitness)) for ind in group]


def _record_mismatch(got: Any, want: Any) -> Optional[str]:
    """Where two generation records differ, or None when bit-identical."""
    if got.generation != want.generation:
        return "generation index"
    if _bits(got.std) != _bits(want.std):
        return "mutation std"
    if got.n_failures != want.n_failures:
        return "failure count"
    if _group_bits(got.population) != _group_bits(want.population):
        return "population"
    if _group_bits(got.evaluated) != _group_bits(want.evaluated):
        return "evaluated"
    return None


def compare_runs(
    runs: list[list[Any]], reference: list[list[Any]], what: str
) -> list[str]:
    if len(runs) != len(reference):
        return [f"{what}: {len(runs)} runs, reference has {len(reference)}"]
    failures = []
    for r, (run, ref) in enumerate(zip(runs, reference)):
        if len(run) != len(ref):
            failures.append(
                f"{what}: run {r} has {len(run)} generations, "
                f"reference {len(ref)}"
            )
            continue
        for got, want in zip(run, ref):
            where = _record_mismatch(got, want)
            if where is not None:
                failures.append(
                    f"{what}: run {r} generation {want.generation} "
                    f"differs in {where}"
                )
    return failures


def _journal_runs(path: Any) -> tuple[list[list[Any]], list[str]]:
    state = read_journal(path)
    problems = []
    if state.n_torn:
        problems.append(f"journal: {state.n_torn} torn record(s)")
    if not state.campaign_complete:
        problems.append("journal: campaign_end missing")
    runs = [
        [record_from_doc(doc) for doc in state.runs[r].contiguous_generations()]
        for r in sorted(state.runs)
    ]
    return runs, problems


def _distinct_successful_keys(result: CampaignResult) -> int:
    keys = set()
    for run in result.runs:
        for record in run:
            for ind in record.evaluated:
                if ind.is_viable:
                    keys.add(ind.problem.cache_key(ind.decode()))
    return len(keys)


def accounting(outcome: CampaignOutcome, warm: bool) -> list[str]:
    """The identities between engine counts, cache counts and the disk."""
    e = outcome.engine
    failures = []

    def need(ok: bool, text: str) -> None:
        if not ok:
            failures.append(f"accounting: {text}")

    need(
        e["submitted"] == e["fresh"] + e["cache_hits"] + e["dedup_hits"],
        f"submitted {e['submitted']} != fresh {e['fresh']} + cache hits "
        f"{e['cache_hits']} + dedup {e['dedup_hits']}",
    )
    stats = outcome.cache_stats
    if stats is None:
        need(e["cache_hits"] == 0, f"{e['cache_hits']} cache hits without a cache")
        return failures
    # every candidate that is not a duplicate probes the cache once
    probes = e["submitted"] - e["dedup_hits"]
    need(
        stats["hits"] + stats["misses"] == probes,
        f"cache hits {stats['hits']} + misses {stats['misses']} != "
        f"probes {probes}",
    )
    need(
        stats["hits"] == e["cache_hits"],
        f"cache hits {stats['hits']} != engine cache hits {e['cache_hits']}",
    )
    need(
        stats["inserts"] + stats["skipped_failures"] == e["fresh"],
        f"inserts {stats['inserts']} + skipped failures "
        f"{stats['skipped_failures']} != fresh {e['fresh']}",
    )
    files = len(outcome.stores.cache)
    distinct = _distinct_successful_keys(outcome.result)
    need(
        files == distinct,
        f"{files} cache files != {distinct} distinct successful evaluations",
    )
    if warm:
        need(stats["inserts"] == 0, f"{stats['inserts']} inserts on a warm cache")
        need(
            e["fresh"] == e["failures"] == stats["skipped_failures"],
            f"fresh {e['fresh']} != uncached failures {e['failures']}",
        )
    return failures


def verify(
    outcome: CampaignOutcome, reference: CampaignResult, warm: bool = False
) -> list[str]:
    """Every way ``outcome`` deviates from a correct campaign (empty: pass)."""
    if outcome.error is not None:
        return [f"campaign raised {outcome.error}"]
    result = outcome.result
    failures = compare_runs(result.runs, reference.runs, "records")
    got_front = [_bits(ind.fitness) for ind in result.aggregate_pareto_front()]
    want_front = [
        _bits(ind.fitness) for ind in reference.aggregate_pareto_front()
    ]
    if got_front != want_front:
        failures.append("aggregate front differs from the reference")
    journal = outcome.stores.journal
    if journal is not None:
        runs, problems = _journal_runs(journal.path)
        failures += problems
        failures += compare_runs(runs, result.runs, "journal")
    failures += accounting(outcome, warm)
    return failures
