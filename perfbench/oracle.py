"""Verdict oracle: fingerprints checked against the interpreted matcher.

Every timed span's verdicts are reduced to a fingerprint (the violations
it raised plus the verdict-level counters it moved) and compared with the
same inputs run through ``Monitor(match_strategy="interpreted")``, the
repository's reference evaluator.  A span whose fingerprint differs
counts all of its events as failed; nothing is skipped.

The interpreted matcher runs at about 200 ev/s on the catalog plateau,
so an oracle fingerprint depends only on the workload, its parameters
and the seed, and is cached per seed under ``.perfbench_cache/`` in the
checkout.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Callable, Dict, Tuple

#: Counters that follow from verdicts alone, so every match strategy and
#: the sharded fabric must agree on them.  ``candidates_examined`` is not
#: one: scans of instances waiting on ``unless`` go uncounted.
FINGERPRINT_COUNTERS = (
    "events", "violations", "instances_created", "instances_expired",
    "instances_discharged", "instances_cancelled", "refreshes",
)

#: Counters read around every span: the fingerprint's plus the work
#: counters behind the per-event per-layer metrics.
STAT_NAMES = FINGERPRINT_COUNTERS + ("candidates_examined", "ops_applied")

CACHE_PATH = os.path.join(".perfbench_cache", "oracle.json")

Mark = Tuple[int, Dict[str, int]]


def mark(monitor) -> Mark:
    """What :func:`since` measures from: violations seen, counters."""
    return len(monitor.violations), {
        name: int(getattr(monitor.stats, name)) for name in STAT_NAMES}


def since(monitor, start: Mark) -> Tuple[str, Dict[str, int]]:
    """The fingerprint of ``monitor``'s verdicts since ``start``, and how
    far each counter in :data:`STAT_NAMES` moved."""
    seen, before = start
    moved = {name: int(getattr(monitor.stats, name)) - before[name]
             for name in STAT_NAMES}
    return fingerprint(monitor.violations[seen:], {
        name: moved[name] for name in FINGERPRINT_COUNTERS}), moved


def fingerprint(violations, counter_delta: Dict[str, int]) -> str:
    """A digest of violations (property, time, bindings) and counters."""
    digest = hashlib.sha256()
    for violation in violations:
        bindings = sorted((str(k), str(v))
                          for k, v in violation.bindings.items())
        digest.update(repr((violation.property_name, violation.time,
                            bindings)).encode("utf-8"))
    digest.update(json.dumps(counter_delta, sort_keys=True).encode("utf-8"))
    return digest.hexdigest()


def cached(key: str, compute: Callable[[], str]) -> str:
    """The fingerprint stored under ``key``, computed once per checkout."""
    try:
        with open(CACHE_PATH, "r", encoding="utf-8") as fp:
            store = json.load(fp)
    except (OSError, ValueError):
        store = {}
    if key in store:
        return store[key]
    store[key] = compute()
    os.makedirs(os.path.dirname(CACHE_PATH), exist_ok=True)
    tmp = CACHE_PATH + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fp:
        json.dump(store, fp, indent=1, sort_keys=True)
    os.replace(tmp, CACHE_PATH)
    return store[key]
