"""Figure 11: end-to-end convergence (validation metric vs time).

All systems are trained with identical hyper-parameters on the same
binned data, so they reach near-identical model quality per tree; what
differs is the simulated time axis.  The paper's observation: every
system converges to comparable accuracy, and the per-tree time ordering
of Table 3 determines who gets there first.
"""

from __future__ import annotations

import pytest

from repro import ClusterConfig, TrainConfig, get_plan, load_catalog
from repro.bench.report import convergence_series

TREES = 8
SCALE = 0.2

CASES = {
    # dataset: (workers, systems)
    "susy": (5, ("xgboost", "lightgbm", "dimboost", "vero")),
    "epsilon": (5, ("xgboost", "lightgbm", "dimboost", "vero")),
    "rcv1": (5, ("xgboost", "lightgbm", "dimboost", "vero")),
    "rcv1-multi": (8, ("xgboost", "lightgbm", "vero")),
}


@pytest.mark.parametrize("dataset_name", list(CASES))
def test_fig11_convergence(benchmark, binned_cache, record_table,
                           dataset_name):
    workers, systems = CASES[dataset_name]
    dataset = load_catalog(dataset_name, scale=SCALE)
    train, valid = dataset.split(0.8, seed=0)
    multiclass = dataset.num_classes > 2
    cfg = TrainConfig(
        num_trees=TREES, num_layers=6, num_candidates=20,
        learning_rate=0.3,
        objective="multiclass" if multiclass else "binary",
        num_classes=dataset.num_classes,
    )
    binned = binned_cache.get(train, cfg.num_candidates)

    def run():
        out = {}
        for system_name in systems:
            system = get_plan(system_name).build(
                cfg, ClusterConfig(num_workers=workers))
            out[system_name] = system.fit(binned, valid=valid)
        return out

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    record_table(
        f"fig11_{dataset_name}",
        convergence_series(
            f"Figure 11 ({dataset_name}) — validation metric vs "
            f"simulated seconds, {workers} workers",
            {name: r.evals for name, r in results.items()},
        ),
    )
    finals = {name: r.evals[-1].metric_value
              for name, r in results.items()}
    # same algorithm, same data: near-identical final quality everywhere
    assert max(finals.values()) - min(finals.values()) < 0.03, finals
    # the model improves over its own first tree
    for name, result in results.items():
        assert result.evals[-1].metric_value > \
            result.evals[0].metric_value - 0.01, name
    # time-to-quality ordering matches Table 3 on the HS/MC datasets
    if dataset_name in ("rcv1", "rcv1-multi"):
        times = {name: r.evals[-1].elapsed_seconds
                 for name, r in results.items()}
        assert times["vero"] < times["xgboost"]


#: maximum final-AUC delta the lossy f16 histogram codec may cost
F16_AUC_EPSILON = 1e-3
#: trees for the codec case: enough boosting rounds that both runs
#: converge and the quantization noise washes out of the final metric
F16_TREES = 32


def test_fig11_f16_codec_auc_within_epsilon(binned_cache):
    """The opt-in f16 histogram codec (DimBoost-style low precision)
    quarters aggregation bytes at a bounded convergence cost: the final
    validation AUC on the Figure 11 sparse workload stays within
    ``F16_AUC_EPSILON`` of the dense run."""
    dataset = load_catalog("rcv1", scale=SCALE)
    train, valid = dataset.split(0.8, seed=0)
    binned = binned_cache.get(train, 20)
    results = {}
    for codec in ("none", "f16"):
        cfg = TrainConfig(num_trees=F16_TREES, num_layers=6,
                          num_candidates=20, learning_rate=0.3,
                          codec=codec)
        system = get_plan("qd2").build(cfg, ClusterConfig(num_workers=5))
        results[codec] = system.fit(binned, valid=valid)
    final = {codec: r.evals[-1] for codec, r in results.items()}
    assert final["none"].metric_name == "auc"
    assert abs(final["none"].metric_value
               - final["f16"].metric_value) <= F16_AUC_EPSILON, final
    # the quality trade bought real wire savings
    assert results["f16"].comm.total_bytes < \
        results["none"].comm.total_bytes / 2
    # lossy codecs are strictly opt-in: the default config ships dense
    assert TrainConfig().codec == ""
