"""``audit_priority_admission`` as it stood before the sort-and-count
formulation: one boolean pass over every request of the ledger per shed.

Kept as the reference ``repro.serve.scenarios.audit_priority_admission``
is compared against — same verdict on every ledger in which no request
is dropped twice.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.serve.batcher import RequestTrace, ServingReport


def reference_audit_priority_admission(trace: RequestTrace,
                                       report: ServingReport) -> bool:
    """No ``shed-oldest`` drop of a request while a strictly
    lower-priority request sat in the queue (arrived strictly before
    the drop instant, departed strictly after it)."""
    if trace.priorities is None:
        return True
    sheds = [d for d in report.dropped if d.reason == "shed-oldest"]
    if not sheds:
        return True
    close_of = {b.batch_id: b.close_s for b in report.batches}
    departure: Dict[int, float] = {
        r.request_id: close_of[r.batch_id] for r in report.records
    }
    for d in report.dropped:
        departure[d.request_id] = d.drop_s
    ids = np.fromiter(departure, np.int64, len(departure))
    arr = trace.arrivals[ids]
    dep = np.fromiter((departure[int(r)] for r in ids), np.float64,
                      ids.size)
    pri = trace.priorities[ids]
    for drop in sheds:
        occupied = ((arr < drop.drop_s) & (dep > drop.drop_s)
                    & (pri < drop.priority) & (ids != drop.request_id))
        if occupied.any():
            return False
    return True
