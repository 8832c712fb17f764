"""Model digests of every trainer configuration, for a before/after diff.

    PYTHONPATH=<tree>/src python tests/tools/model_digests.py > digests.json
    PYTHONPATH=src python tests/tools/model_digests.py \
        --check tests/data/golden/model_digests_v1.json

Prints one sha256 per case (270 cases) over the model plus, for the
distributed plans, the traffic ledger's ``bytes_by_kind`` and
``raw_bytes_by_kind`` and the memory report: all 7 plans x {binary,
multiclass, dense, wide, tied features (every feature twice, so every
best split ties with its copy)} at W 1/3/4, plus faults (raw, ``sparse``
and ``delta`` codecs), leaf-wise, subsampled/colsampled,
min_node_instances/min_split_gain and exact greedy.  Run it against two
trees and compare the JSON; a trainer refactor must leave every digest
unchanged.  ``--check GOLDEN`` compares against a saved run instead of
printing: it exits non-zero naming the first case that differs (or is
missing on either side).  Not collected by pytest (no ``test_`` prefix).
"""

import argparse
import hashlib
import json
import sys

import numpy as np

from repro import ClusterConfig, GBDT, TrainConfig, make_classification
from repro.core.exact import ExactGBDT
from repro.core.serialize import canonical_payload_bytes, ensemble_to_dict
from repro.data.dataset import Dataset, bin_dataset
from repro.data.matrix import CSRMatrix
from repro.systems.plans import get_plan, plan_keys


def digest(result, system=None):
    payload = {"model": ensemble_to_dict(result.ensemble)}
    if system is not None:
        ledger = system.net.snapshot()
        payload.update(bytes=ledger.bytes_by_kind, raw=ledger.raw_bytes_by_kind,
                       memory=[result.memory.data_bytes, result.memory.histogram_bytes])
    return hashlib.sha256(canonical_payload_bytes(payload)).hexdigest()


def tied(base):
    dense = base.features.to_dense()
    return Dataset(CSRMatrix.from_dense(np.hstack([dense, dense])),
                   base.labels, base.task, base.num_classes)


def digests():
    """Every case's digest, by case name."""
    data = {"binary": make_classification(600, 24, density=0.35, seed=11),
            "multiclass": make_classification(600, 24, density=0.35, num_classes=3, seed=12),
            "dense": make_classification(800, 8, density=1.0, seed=13),
            "wide": make_classification(500, 1500, density=0.02, seed=14),
            "tied": tied(make_classification(600, 10, density=0.6, seed=15)),
            "tied-multiclass": tied(make_classification(600, 10, density=0.6,
                                                        num_classes=3, seed=16))}
    out = {}
    for task, dataset in data.items():
        binned = bin_dataset(dataset, 12)
        multi = dataset.task == "multiclass"
        kw = dict(num_trees=3, num_layers=5, num_candidates=12,
                  objective="multiclass" if multi else "binary", num_classes=3 if multi else 2)
        for key in plan_keys():
            if key == "qd2-ps" and multi:
                continue
            for w in (1, 3, 4):
                system = get_plan(key).build(TrainConfig(**kw), ClusterConfig(num_workers=w))
                out[f"{task}/{key}/W{w}"] = digest(system.fit(binned), system)
            for faults, codec in (("101:crash=2,drop=0.05", ""), ("202:crash=2,drop=0.05", "sparse"),
                                  ("303:crash=1", "delta")):
                system = get_plan(key).build(TrainConfig(faults=faults, codec=codec, **kw),
                                             ClusterConfig(num_workers=4))
                out[f"{task}/{key}/{faults}/{codec}"] = digest(system.fit(binned), system)
        for extra in ({"growth": "leafwise", "max_leaves": 9}, {"subsample": 0.6, "seed": 3},
                      {"subsample": 0.7, "colsample": 0.5, "seed": 5},
                      {"min_node_instances": 40, "min_split_gain": 0.5}):
            result = GBDT(TrainConfig(**{**kw, **extra})).fit(dataset, binned=binned)
            out[f"{task}/gbdt/{sorted(extra.items())}"] = digest(result)
        out[f"{task}/exact"] = digest(ExactGBDT(TrainConfig(**kw)).fit(dataset))
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", metavar="GOLDEN",
                        help="compare against this saved digest JSON")
    args = parser.parse_args()
    out = digests()
    if args.check is None:
        json.dump(out, sys.stdout, indent=1, sort_keys=True)
        return 0
    with open(args.check) as handle:
        golden = json.load(handle)
    differs = [case for case in sorted(golden.keys() | out.keys())
               if golden.get(case) != out.get(case)]
    if differs:
        return (f"{len(differs)} of {len(golden)} digests differ from "
                f"{args.check}; first: {differs[0]}")
    print(len(out), differs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
