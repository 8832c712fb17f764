"""``audit_priority_admission`` as it stood before the sort-and-count
formulation: one boolean pass over every request of the ledger per shed.

Kept as the reference ``repro.serve.scenarios.audit_priority_admission``
is compared against — same verdict on every ledger in which no request
is dropped twice.  It reads the ledger's columns back into per-request
rows and keeps its original algorithm.
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
    sheds = [(request, drop_s, priority) for request, drop_s, reason,
             priority in zip(report.drop_id.tolist(),
                             report.drop_s.tolist(),
                             report.drop_reason.tolist(),
                             report.drop_priority.tolist())
             if reason == "shed-oldest"]
    if not sheds:
        return True
    close_of = report.batch_close_s.tolist()
    departure: Dict[int, float] = {
        request: close_of[batch] for request, batch in zip(
            report.request_id.tolist(), report.request_batch.tolist())
    }
    for request, drop_s in zip(report.drop_id.tolist(),
                               report.drop_s.tolist()):
        departure[request] = drop_s
    ids = np.fromiter(departure, np.int64, len(departure))
    arr = trace.arrivals[ids]
    dep = np.fromiter((departure[int(r)] for r in ids), np.float64,
                      ids.size)
    pri = trace.priorities[ids]
    for request, drop_s, priority in sheds:
        occupied = ((arr < drop_s) & (dep > drop_s)
                    & (pri < priority) & (ids != request))
        if occupied.any():
            return False
    return True
