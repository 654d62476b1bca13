"""Golden digest of the rolling dispatcher's decisions and counters.

One SHA-256 over short replays of the two-site fixture in seven set-ups: net
metering, batteries only, no storage, tiered shedding, a faulted run (a site
outage and a degraded WAN), injected warm-solve failures and injected solver
outages answered by the greedy fallback.  Every committed
:class:`~repro.operator.dispatch.DispatchDecision` contributes its step, its
per-site arrays, objective, unserved total and tier split, simplex iterations
and degraded flag; every replay contributes its final ``stats``.  Any change
to the window LP, its assembly order, the warm-start basis or the resilience
ladder moves the digest.
"""

import hashlib
import json
import struct

import numpy as np

from dispatch_oracle import CASES, replay_case

GOLDEN_SHA256 = "2f04229f55cb413253ca1c7465450216a30f6b41e83b8068a0c2ae6c8c9f5f59"

_ARRAYS = (
    "compute_kw", "migrate_kw", "brown_kw", "green_direct_kw",
    "charge_kw", "discharge_kw", "level_kwh", "export_kw",
)


def _dispatch_digest() -> str:
    digest = hashlib.sha256()
    for name, config_kwargs, site_kwargs, setup in CASES:
        dispatcher, decisions = replay_case(config_kwargs, site_kwargs, setup)
        digest.update(name.encode())
        for decision in decisions:
            digest.update(
                struct.pack(
                    "<qddq?",
                    decision.step,
                    decision.objective,
                    decision.unserved_kw,
                    decision.iterations,
                    decision.degraded,
                )
            )
            for field in _ARRAYS:
                digest.update(np.ascontiguousarray(getattr(decision, field), dtype="<f8").tobytes())
            tiers = decision.unserved_by_tier
            digest.update(b"-" if tiers is None else np.ascontiguousarray(tiers, dtype="<f8").tobytes())
        digest.update(json.dumps(dispatcher.stats, sort_keys=True).encode())
    return digest.hexdigest()


def test_dispatch_matches_golden_digest():
    assert _dispatch_digest() == GOLDEN_SHA256
