"""Configuration objects shared across the library.

Two dataclasses drive every experiment in the paper:

* :class:`TrainConfig` — GBDT hyper-parameters.  Defaults match Section 5.1
  of the paper: ``T = 100`` trees, ``L = 8`` layers, ``q = 20`` candidate
  splits, logistic-style regularization with ``lambda_ = 1.0``.
* :class:`ClusterConfig` — the simulated cluster: number of workers and the
  network model.  Defaults match the paper's laboratory cluster (8 nodes,
  1 Gbps Ethernet).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


def _require_finite(config, *names: str) -> None:
    """Refuse ``nan`` and ``inf`` up front: every comparison with ``nan``
    is false, so a range check alone lets it through."""
    for name in names:
        value = getattr(config, name)
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class TrainConfig:
    """Hyper-parameters of GBDT training.

    Attributes
    ----------
    num_trees:
        ``T`` in the paper — number of boosting rounds.  For a ``C``-class
        problem each round trains ``C`` one-vs-rest trees (the usual
        softmax-boosting formulation); the paper counts such a round as one
        "tree group".
    num_layers:
        ``L`` in the paper — depth of each tree counted in *layers*, so a
        tree has at most ``2**(L-1)`` leaves.
    num_candidates:
        ``q`` — candidate splits (histogram bins) proposed per feature.
    learning_rate:
        ``eta`` — shrinkage applied to leaf values.
    reg_lambda:
        ``lambda`` — L2 regularization on leaf weights (Equations 1 and 2).
    reg_gamma:
        ``gamma`` — per-leaf complexity penalty (Equation 2).
    min_split_gain:
        Minimum gain for a split to be accepted; nodes below become leaves.
    min_node_instances:
        Nodes with fewer instances are not split further.
    objective:
        ``"binary"`` (logistic loss), ``"multiclass"`` (softmax) or
        ``"regression"`` (square loss).
    num_classes:
        ``C`` — used only for ``objective="multiclass"``.
    growth:
        ``"layerwise"`` (the paper's level-wise growth; all distributed
        quadrants use it) or ``"leafwise"`` (best-first growth as in
        LightGBM; histogram reference trainer ``GBDT`` only).
    max_leaves:
        Leaf budget for leaf-wise growth; 0 means ``2**(num_layers-1)``
        (the full-tree equivalent).
    subsample / colsample:
        Per-tree instance and feature sampling fractions (stochastic
        GBDT).  Histogram reference trainer ``GBDT`` only — the
        distributed quadrants study data management of the full dataset
        and, like the exact-greedy trainer, reject sampling.
    seed:
        Seed for the sampling random stream.
    faults:
        Seeded fault schedule as a ``SEED:SPEC`` string (e.g.
        ``"42:crash=2,drop=0.05"``); the empty string trains fault-free.
        Parsed by :meth:`repro.cluster.faults.FaultPlan.parse` at build
        time, not here — the config layer stays free of cluster
        imports.
    codec:
        Wire-format codec stack for inter-worker payloads (``"none"``,
        ``"sparse"``, ``"delta"``, ``"f32"``, ``"f16"``); the empty
        string means ``"none"`` (dense float64 payloads, the paper's
        accounting).  Lossy stacks (``f32``/``f16``) trade model
        bit-identity for bytes and are strictly opt-in.  Resolved by
        :func:`repro.cluster.codecs.get_codec_stack` at build time, not
        here — like ``faults``, the config layer stays free of cluster
        imports.
    backend:
        Kernel backend for the histogram/predict hot loops (``"numpy"``,
        ``"numba"``, ``"pyloop"`` or ``"auto"``); the empty string means
        the portable numpy default.  All backends are bit-identical on
        the lossless path, so this is purely a speed knob.  Resolved by
        :func:`repro.core.kernels.make_backend` at build time, not here
        — like ``faults``, the config layer stays free of kernel imports.
    """

    num_trees: int = 100
    num_layers: int = 8
    num_candidates: int = 20
    learning_rate: float = 0.1
    reg_lambda: float = 1.0
    reg_gamma: float = 0.0
    min_split_gain: float = 0.0
    min_node_instances: int = 1
    objective: str = "binary"
    num_classes: int = 2
    growth: str = "layerwise"
    max_leaves: int = 0
    subsample: float = 1.0
    colsample: float = 1.0
    seed: int = 0
    faults: str = ""
    codec: str = ""
    backend: str = ""

    def __post_init__(self) -> None:
        _require_finite(self, "num_trees", "num_layers", "num_candidates",
                        "learning_rate", "reg_lambda", "reg_gamma",
                        "min_split_gain", "min_node_instances",
                        "num_classes", "max_leaves", "subsample",
                        "colsample")
        if self.num_trees < 1:
            raise ValueError(f"num_trees must be >= 1, got {self.num_trees}")
        if self.num_layers < 2:
            raise ValueError(f"num_layers must be >= 2, got {self.num_layers}")
        if self.num_candidates < 1:
            raise ValueError(
                f"num_candidates must be >= 1, got {self.num_candidates}"
            )
        if not 0.0 < self.learning_rate <= 1.0:
            raise ValueError(
                f"learning_rate must be in (0, 1], got {self.learning_rate}"
            )
        if self.reg_lambda < 0.0:
            raise ValueError(f"reg_lambda must be >= 0, got {self.reg_lambda}")
        if self.reg_gamma < 0.0:
            raise ValueError(f"reg_gamma must be >= 0, got {self.reg_gamma}")
        if self.objective not in ("binary", "multiclass", "regression"):
            raise ValueError(f"unknown objective: {self.objective!r}")
        if self.objective == "multiclass" and self.num_classes < 3:
            raise ValueError(
                "multiclass objective requires num_classes >= 3, "
                f"got {self.num_classes}"
            )
        if self.growth not in ("layerwise", "leafwise"):
            raise ValueError(f"unknown growth strategy: {self.growth!r}")
        if self.max_leaves < 0:
            raise ValueError(f"max_leaves must be >= 0, got "
                             f"{self.max_leaves}")
        if not 0.0 < self.subsample <= 1.0:
            raise ValueError(f"subsample must be in (0, 1], got "
                             f"{self.subsample}")
        if not 0.0 < self.colsample <= 1.0:
            raise ValueError(f"colsample must be in (0, 1], got "
                             f"{self.colsample}")

    @property
    def uses_sampling(self) -> bool:
        return self.subsample < 1.0 or self.colsample < 1.0

    @property
    def gradient_dim(self) -> int:
        """``C`` of Section 3.1.1 — 1 for binary/regression, else #classes."""
        if self.objective == "multiclass":
            return self.num_classes
        return 1

    @property
    def effective_max_leaves(self) -> int:
        """Leaf budget for leaf-wise growth."""
        if self.max_leaves > 0:
            return self.max_leaves
        return 2 ** (self.num_layers - 1)


@dataclass(frozen=True)
class NetworkModel:
    """Cost model of the simulated interconnect.

    ``time = latency_s + bytes / bandwidth_bytes_per_s`` for each logical
    transfer; collectives decompose into transfers following the standard
    ring-algorithm cost in :mod:`repro.cluster.comm`.

    The defaults model the paper's laboratory cluster: 1 Gbps Ethernet and a
    conservative 0.5 ms software latency per operation.  ``production()``
    returns the 10 Gbps profile of the Tencent cluster in Section 6.
    """

    bandwidth_gbps: float = 1.0
    latency_s: float = 0.0005

    def __post_init__(self) -> None:
        _require_finite(self, "bandwidth_gbps", "latency_s")
        if self.bandwidth_gbps <= 0:
            raise ValueError(
                f"bandwidth_gbps must be > 0, got {self.bandwidth_gbps}"
            )
        if self.latency_s < 0:
            raise ValueError(f"latency_s must be >= 0, got {self.latency_s}")

    @property
    def bytes_per_second(self) -> float:
        return self.bandwidth_gbps * 1e9 / 8.0

    def transfer_time(self, num_bytes: float) -> float:
        """Simulated seconds to move ``num_bytes`` point-to-point."""
        if num_bytes < 0:
            raise ValueError(f"num_bytes must be >= 0, got {num_bytes}")
        if num_bytes == 0:
            return 0.0
        return self.latency_s + num_bytes / self.bytes_per_second

    @classmethod
    def laboratory(cls) -> "NetworkModel":
        """The 1 Gbps cluster of Section 5."""
        return cls(bandwidth_gbps=1.0)

    @classmethod
    def production(cls) -> "NetworkModel":
        """The 10 Gbps Tencent cluster of Section 6."""
        return cls(bandwidth_gbps=10.0)


@dataclass(frozen=True)
class ClusterConfig:
    """The simulated cluster: ``W`` workers plus a network model.

    ``worker_speeds`` models heterogeneous machines (stragglers): worker
    ``w`` executes at ``worker_speeds[w]`` times the baseline rate, so a
    value of 0.5 makes it twice as slow.  ``None`` means homogeneous.
    """

    num_workers: int = 8
    network: NetworkModel = field(default_factory=NetworkModel)
    seed: int = 0
    worker_speeds: tuple = None

    def __post_init__(self) -> None:
        if self.num_workers < 1:
            raise ValueError(
                f"num_workers must be >= 1, got {self.num_workers}"
            )
        if self.worker_speeds is not None:
            speeds = tuple(self.worker_speeds)
            if len(speeds) != self.num_workers:
                raise ValueError(
                    f"worker_speeds needs {self.num_workers} entries, "
                    f"got {len(speeds)}"
                )
            if not all(0 < s < math.inf for s in speeds):
                raise ValueError(
                    f"worker speeds must be finite and > 0, got {speeds}")
            object.__setattr__(self, "worker_speeds", speeds)

    def speed_of(self, worker: int) -> float:
        if self.worker_speeds is None:
            return 1.0
        return self.worker_speeds[worker]
