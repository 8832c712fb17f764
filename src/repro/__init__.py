"""repro — reproduction of "An Experimental Evaluation of Large Scale GBDT
Systems" (Fu, Jiang, Shao, Cui; VLDB 2019).

Public API
----------
- :class:`TrainConfig`, :class:`ClusterConfig`, :class:`NetworkModel` —
  configuration.
- :func:`make_classification`, :func:`make_regression`,
  :func:`load_catalog` — dataset generators and the Table 2 surrogates.
- :class:`Dataset`, :class:`BinnedDataset`, :func:`bin_dataset` — data.
- :class:`GBDT` — single-process reference trainer.
- :class:`ExecutionPlan`, :func:`get_plan`, :data:`PLANS` — the
  distributed systems under study, one registry entry per quadrant
  (partition × storage × index × aggregation);
  ``get_plan(key).build(config, cluster)`` is the one way to construct
  a trainer (:class:`PlanExecutor`).
- :func:`horizontal_to_vertical` — Vero's transformation pipeline.
- :func:`recommend` — the data-management advisor (Section 6's open
  problem): pick a quadrant from workload shape + environment.
- :func:`save_ensemble` / :func:`load_ensemble`,
  :func:`feature_importance` — model persistence and introspection.
- :func:`compile_ensemble`, :class:`ModelRegistry`,
  :class:`MicroBatcher`, :class:`ReplicaSet` — the serving subsystem:
  compiled batch inference, versioned hot-swap, replicated serving over
  the simulated cluster (a one-worker :class:`ReplicaSet` is the
  single-model server).
"""

from .config import ClusterConfig, NetworkModel, TrainConfig
from .core.exact import ExactGBDT
from .core.gbdt import GBDT, TrainResult
from .core.importance import feature_importance, top_features
from .core.metrics import accuracy, auc, logloss, multiclass_accuracy, rmse
from .core.serialize import load_ensemble, save_ensemble
from .core.validation import cross_validate
from .data.catalog import CATALOG, load as load_catalog
from .data.dataset import BinnedDataset, Dataset, bin_dataset
from .data.io import read_libsvm, write_libsvm
from .data.synthetic import make_classification, make_regression
from .cluster.transform import horizontal_to_vertical
from .serve import (BatchPolicy, CompiledEnsemble, MicroBatcher,
                    ModelRegistry, ReplicaSet, compile_ensemble,
                    synthetic_trace)
from .systems import (DistTrainResult, ExecutionPlan, PLANS, PlanExecutor,
                      get_plan, plan_keys, recommend)
from .systems.costmodel import WorkloadShape

__version__ = "1.0.0"

__all__ = [
    "BatchPolicy",
    "BinnedDataset",
    "CompiledEnsemble",
    "MicroBatcher",
    "ModelRegistry",
    "ReplicaSet",
    "compile_ensemble",
    "synthetic_trace",
    "ExactGBDT",
    "cross_validate",
    "WorkloadShape",
    "feature_importance",
    "load_ensemble",
    "recommend",
    "save_ensemble",
    "top_features",
    "CATALOG",
    "ClusterConfig",
    "Dataset",
    "DistTrainResult",
    "ExecutionPlan",
    "GBDT",
    "NetworkModel",
    "PLANS",
    "PlanExecutor",
    "TrainConfig",
    "TrainResult",
    "accuracy",
    "auc",
    "bin_dataset",
    "get_plan",
    "horizontal_to_vertical",
    "load_catalog",
    "plan_keys",
    "logloss",
    "make_classification",
    "make_regression",
    "multiclass_accuracy",
    "read_libsvm",
    "rmse",
    "write_libsvm",
]
