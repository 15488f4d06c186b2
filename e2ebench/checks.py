"""Correctness checks on a workload's outcomes, and the records digest."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, Optional

DIGESTS_FILE = Path(__file__).with_name("digests.json")


def records_digest(records) -> str:
    """SHA-256 over the records' canonical JSON, in submission order."""
    payload = json.dumps(
        [r.to_dict() for r in records], sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def expected_digest(workload: str) -> str:
    """The committed digest of ``workload``'s records at the default seed."""
    return json.loads(DIGESTS_FILE.read_text())[workload]


def failed_runs(cold, warm, expected: Optional[str]) -> Dict[int, str]:
    """``{run index: reason}`` for every run of the cold/warm pair that fails.

    ``cold`` and ``warm`` are the ``ExecutionResult``s of the same specs
    against one cache.  A run fails when it errored, did not gather, did not
    detect although its algorithm detects, or was not served from the cache
    on the warm pass.  A digest mismatch against ``expected`` fails every
    run, since the digest cannot say which record changed.
    """
    from repro.runtime import NO_DETECTION

    failed: Dict[int, str] = {}
    for i, outcome in enumerate(cold.outcomes):
        if not outcome.ok:
            failed[i] = f"{outcome.error_type}: {outcome.error}"
        elif not outcome.run.gathered:
            failed[i] = "not gathered"
        elif outcome.spec.algorithm not in NO_DETECTION and not outcome.run.detected:
            failed[i] = "gathered without detection"
    for i, outcome in enumerate(warm.outcomes):
        if not outcome.cached:
            failed.setdefault(i, "warm pass missed the cache")
    if expected is not None and not failed:
        digest = records_digest(o.run for o in cold.outcomes)
        if digest != expected:
            failed = {i: f"records digest {digest} != {expected}"
                      for i in range(len(cold.outcomes))}
    return failed
