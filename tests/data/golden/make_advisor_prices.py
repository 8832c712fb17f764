"""Write ``advisor_prices_v1.json`` from the advisor's price list.

The fixture records :func:`repro.systems.advisor.price_plans` and
:func:`repro.systems.advisor.recommend` on every case of
``tests.systems.test_advisor_prices.cases()``.  It was written before the
advisor's two per-plan price records were folded into one, so it pins the
pricing that refactor had to preserve; regenerate it only for a change
that is meant to move a price or a verdict.  Run from the repository
root::

    PYTHONPATH=src:. python tests/data/golden/make_advisor_prices.py
"""

from __future__ import annotations

import json
import subprocess

from tests.systems.test_advisor_prices import GOLDEN, cases, record


def main() -> None:
    records = {case: record(options)
               for case, options in sorted(cases().items())}
    commit = subprocess.check_output(
        ["git", "rev-parse", "HEAD"], text=True).strip()
    GOLDEN.write_text(json.dumps({
        "schema": "advisor-prices/v1",
        "source": (f"price_plans and recommend at commit {commit}; "
                   "floats are float.hex"),
        "cases": records,
    }, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(records)} cases to {GOLDEN}")


if __name__ == "__main__":
    main()
