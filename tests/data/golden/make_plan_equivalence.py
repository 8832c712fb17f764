"""Write ``plan_equivalence_v1.json`` from the frozen legacy quadrant classes.

The fixture records what the pre-refactor quadrant trainers
(``tests/systems/legacy``) trained on every case of
``tests.systems.test_plans.GOLDEN_CASES``.  It was written once, at commit
6c4b58a, the last commit that still held those classes; they were deleted
right after, so this script cannot run on a later tree, and the fixture
must never be regenerated from the registry plans it is meant to check.

To reproduce it, check out 6c4b58a, copy in this script and the current
``tests/systems/test_plans.py``, and run from the repository root::

    PYTHONPATH=src:. python tests/data/golden/make_plan_equivalence.py

Before writing, every case is trained twice — by its legacy class and by
its registry plan — and the two records must be equal.
"""

from __future__ import annotations

import json
import subprocess
import sys

from repro import ClusterConfig, get_plan
from tests.systems.test_plans import (GOLDEN, GOLDEN_CASES, WORKLOADS,
                                      case_id, golden_record)

try:
    from tests.systems.legacy import LEGACY_SYSTEMS
except ImportError:
    sys.exit("tests/systems/legacy is gone: this fixture is written from "
             "the legacy classes only, never from the plans")


def main() -> None:
    cases = {}
    for name, workers, key in GOLDEN_CASES:
        cfg, _, binned = WORKLOADS[name]()
        legacy_cls, kwargs = LEGACY_SYSTEMS[key]
        legacy = golden_record(
            legacy_cls(cfg, ClusterConfig(workers), **kwargs).fit(binned))
        plan = golden_record(
            get_plan(key).build(cfg, ClusterConfig(workers)).fit(binned))
        assert legacy == plan, (name, workers, key, legacy, plan)
        cases[case_id(name, workers, key)] = legacy
    commit = subprocess.check_output(
        ["git", "rev-parse", "HEAD"], text=True).strip()
    GOLDEN.write_text(json.dumps({
        "schema": "plan-equivalence/v1",
        "source": (f"tests/systems/legacy at commit {commit}: the frozen "
                   "pre-refactor quadrant classes, each case checked "
                   "equal to its registry plan before writing; never "
                   "regenerate from the plans"),
        "cases": cases,
    }, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(cases)} cases to {GOLDEN}")


if __name__ == "__main__":
    main()
