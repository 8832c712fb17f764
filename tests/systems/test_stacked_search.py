"""Split finding runs once per (layer, worker): every plan elects the
same splits whether the finder searches a layer's histograms as one
stack or node by node (wide histograms)."""

from __future__ import annotations

import pytest

from repro import ClusterConfig, TrainConfig, make_classification
from repro.core import split as split_module
from repro.core.serialize import ensemble_to_dict
from repro.data.dataset import bin_dataset
from repro.systems.plans import get_plan, plan_keys
from tests.systems.test_plans import RUNNABLE, compose, composition_id


@pytest.fixture(scope="module", params=["binary", "multiclass"])
def task(request):
    classes = 3 if request.param == "multiclass" else 2
    dataset = make_classification(500, 30, density=0.3,
                                  num_classes=classes, seed=21)
    config = TrainConfig(num_trees=2, num_layers=5, num_candidates=10,
                         objective=request.param, num_classes=classes)
    return bin_dataset(dataset, 10), config


def fit(plan, binned, config):
    """Train a plan, given by key or as an :class:`ExecutionPlan`."""
    if isinstance(plan, str):
        plan = get_plan(plan)
    system = plan.build(config, ClusterConfig(num_workers=3))
    result = system.fit(binned)
    return ensemble_to_dict(result.ensemble), system.net.snapshot()


@pytest.mark.parametrize("plan_key", plan_keys())
def test_stacked_and_per_node_search_grow_the_same_model(
        plan_key, task, monkeypatch):
    binned, config = task
    if plan_key == "qd2-ps" and config.objective == "multiclass":
        pytest.skip("parameter-server aggregation is binary only")
    stacked_model, stacked_ledger = fit(plan_key, binned, config)
    monkeypatch.setattr(split_module, "STACKED_MAX_SLOTS", 0)
    model, ledger = fit(plan_key, binned, config)
    assert model == stacked_model
    assert ledger.bytes_by_kind == stacked_ledger.bytes_by_kind


@pytest.mark.parametrize("axes", RUNNABLE, ids=composition_id)
def test_every_composition_searches_stacked_or_per_node_alike(
        axes, monkeypatch):
    """The search is the aggregation's, run on histograms the storage and
    index axes built: a composition no plan names elects the same splits
    either way, and moves the same bytes."""
    dataset = make_classification(300, 20, density=0.3, seed=21)
    config = TrainConfig(num_trees=2, num_layers=4, num_candidates=10)
    binned = bin_dataset(dataset, 10)
    stacked_model, stacked_ledger = fit(compose(axes), binned, config)
    monkeypatch.setattr(split_module, "STACKED_MAX_SLOTS", 0)
    model, ledger = fit(compose(axes), binned, config)
    assert model == stacked_model
    assert ledger.bytes_by_kind == stacked_ledger.bytes_by_kind


def test_one_finder_call_per_layer_and_worker(monkeypatch):
    """QD2 on narrow histograms: each worker searches its feature slice
    of every node of a layer in one call."""
    binned = bin_dataset(make_classification(400, 9, density=1.0, seed=4),
                         8)
    calls = []
    finder = split_module.find_best_split

    def counted(hists, *args, **kwargs):
        calls.append(len(hists))
        return finder(hists, *args, **kwargs)

    monkeypatch.setattr(split_module, "find_best_split", counted)
    config = TrainConfig(num_trees=1, num_layers=4, num_candidates=8)
    system = get_plan("qd2").build(config, ClusterConfig(num_workers=3))
    system.fit(binned)
    # 3 split layers x 3 workers, each call stacking the whole layer
    assert calls == [1] * 3 + [2] * 3 + [4] * 3
