"""Cost-model fingerprint guard.

Stored records carry ``EVAL_VERSION`` and the engine serves any record
at the current version from the store.  A simulator or cost-model edit
that changes records without bumping the version would therefore let
warm stores serve stale numbers.  This test pins a digest of a fixed
probe set's records per version, so such an edit fails here instead.
"""

import hashlib
import json

import pytest

from repro.dse import EVAL_VERSION, SweepSpec, evaluate_point, evaluate_points
from repro.nn.models import WORKLOAD_BUILDERS

#: ``{EVAL_VERSION: sha256}`` of the probe set's canonical records.
FINGERPRINTS = {
    1: "12f27200c12395c9021b0bc6f602694c953ee62275f364363194343618a76550",
}

#: 72 points: every workload x registry platform x memory at batch 1,
#: under both named policies.
PROBE = SweepSpec.grid(
    workloads=tuple(WORKLOAD_BUILDERS),
    policies=("homogeneous-8bit", "paper-heterogeneous"),
    batches=(1,),
)


def _fingerprint(records) -> str:
    body = "".join(
        json.dumps(record, sort_keys=True) + "\n"
        for record in sorted(records, key=lambda record: record["hash"])
    )
    return hashlib.sha256(body.encode()).hexdigest()


@pytest.mark.parametrize(
    "evaluate",
    [
        lambda points: [evaluate_point(point) for point in points],
        evaluate_points,
    ],
    ids=["evaluate_point", "evaluate_points"],
)
def test_records_match_the_pinned_fingerprint(evaluate):
    assert len(PROBE) == 72
    digest = _fingerprint(evaluate(list(PROBE.points)))
    # Once the version is pinned, a new digest needs the next version.
    version = EVAL_VERSION + 1 if EVAL_VERSION in FINGERPRINTS else EVAL_VERSION
    assert digest == FINGERPRINTS.get(EVAL_VERSION), (
        f"evaluated records changed at EVAL_VERSION {EVAL_VERSION} "
        f"(probe digest {digest}).  If the change is intended, set "
        f"EVAL_VERSION = {version} in src/repro/dse/evaluate.py and add "
        f"{{{version}: {digest!r}}} to FINGERPRINTS."
    )
