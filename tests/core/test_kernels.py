"""Kernel-backend registry and bit-identity contract tests.

The backend abstraction only earns its keep if every registered backend
is a *drop-in* replacement: same bits out of the scatter kernels, same
trees out of training, same scores out of serving.  These tests pin the
registry mechanics (resolution, auto-detection, the
``REPRO_DISABLE_BACKENDS`` mask, graceful degradation when numba is
absent), histogram dtype propagation, the no-hessian fast
path, and a hypothesis sweep proving exact scatter equality on random
binned datasets — dense, sparse, and missing-heavy — for every backend
the machine can import.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.config import ClusterConfig, TrainConfig
from repro.core.gbdt import GBDT
from repro.core.histogram import (ColumnwiseIndex, Histogram,
                                  HistogramBuilder)
from repro.core.kernels import (BACKENDS, DISABLE_ENV, BackendUnavailableError,
                                KernelBackend, NumbaBackend,
                                available_backends, compute_factor,
                                detect_backends, make_backend,
                                resolve_backend_name)
from repro.core.loss import make_loss
from repro.core.serialize import ensemble_to_dict
from repro.data.dataset import Dataset, bin_dataset
from repro.data.synthetic import make_classification
from repro.selfcheck import check_backend
from repro.systems.plans import get_plan, plan_keys

from .test_hist_builder import make_binned

#: every backend this machine can actually run, numpy first
AVAILABLE = available_backends()
#: the non-reference backends under bit-identity test
CANDIDATES = [b for b in AVAILABLE if b != "numpy"]


class TestRegistry:
    def test_numpy_always_registered_and_available(self):
        assert "numpy" in BACKENDS
        assert "numpy" in AVAILABLE
        assert AVAILABLE[0] == "numpy"

    def test_all_three_backends_registered(self):
        for name in ("numpy", "pyloop", "numba"):
            assert name in BACKENDS

    def test_resolve_default_and_aliases(self):
        assert resolve_backend_name("") == "numpy"
        assert resolve_backend_name(None) == "numpy"
        assert resolve_backend_name("numpy") == "numpy"

    def test_resolve_auto_prefers_highest_priority(self):
        best = resolve_backend_name("auto")
        assert best in AVAILABLE
        priorities = {n: BACKENDS[n].priority for n in AVAILABLE}
        assert priorities[best] == max(priorities.values())

    def test_resolve_unknown_raises_with_choices(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            resolve_backend_name("cuda")

    def test_make_backend_accepts_instance_and_none(self):
        backend = make_backend("numpy")
        assert make_backend(backend) is backend
        assert make_backend(None).name == "numpy"

    def test_unavailable_backend_raises(self, monkeypatch):
        monkeypatch.setattr(NumbaBackend, "is_available",
                            classmethod(lambda cls: False))
        with pytest.raises(BackendUnavailableError, match="numba"):
            make_backend("numba")

    def test_disable_env_masks_backends(self, monkeypatch):
        monkeypatch.setenv(DISABLE_ENV, "pyloop,numba")
        masked = available_backends()
        assert "pyloop" not in masked
        assert "numba" not in masked
        assert "numpy" in masked
        # auto never resolves to a masked backend
        assert resolve_backend_name("auto") == "numpy"
        # and the mask cannot hide the numpy baseline
        monkeypatch.setenv(DISABLE_ENV, "numpy")
        assert "numpy" in available_backends()

    def test_compute_factor(self):
        assert compute_factor("") == 1.0
        assert compute_factor("numpy") == 1.0
        assert compute_factor("numba") > 1.0
        assert compute_factor("pyloop") < 1.0

    def test_detect_backends_reports_all(self):
        infos = {i.name: i for i in detect_backends()}
        assert set(infos) == set(BACKENDS)
        assert infos["numpy"].available
        assert infos["numpy"].default
        for info in infos.values():
            line = info.describe()
            assert info.name in line
            if not info.available:
                assert "not available" in line


class TestHistogramDtype:
    def test_histogram_dtype_propagates(self):
        hist = Histogram(2, 3, 1, dtype=np.float32)
        assert hist.grad.dtype == np.float32
        assert hist.hess.dtype == np.float32
        copy = hist.copy()
        assert copy.grad.dtype == np.float32


@pytest.mark.parametrize("backend", CANDIDATES)
class TestScatterBitIdentity:
    """Exact scatter equality vs numpy on random binned shards."""

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           density=st.floats(0.05, 0.95),
           gradient_dim=st.sampled_from([1, 3]))
    # a full shard (every row stores all D features): a non-root
    # row-store node gathers its keys as whole rows of the shard's keys
    @example(seed=7, density=1.0, gradient_dim=1)
    @example(seed=8, density=1.0, gradient_dim=3)
    def test_all_four_kernels_exact(self, backend, seed, density,
                                    gradient_dim):
        rng = np.random.default_rng(seed)
        num_rows, num_features, num_bins = 50, 7, 6
        csr, _ = make_binned(rng, num_rows=num_rows,
                             num_features=num_features, num_bins=num_bins,
                             density=density)
        csc = csr.to_csc()
        grad = rng.standard_normal((num_rows, gradient_dim))
        hess = rng.random((num_rows, gradient_dim))
        node_of = rng.integers(0, 2, size=num_rows).astype(np.int64)
        node_rows = np.flatnonzero(node_of == 1).astype(np.int64)
        ref = HistogramBuilder(backend="numpy")
        got = HistogramBuilder(backend=backend)

        pairs = []
        pairs.append((ref.build_rowstore(csr, node_rows, grad, hess,
                                         num_bins)[0],
                      got.build_rowstore(csr, node_rows, grad, hess,
                                         num_bins)[0]))
        pairs.append((ref.build_colstore_hybrid(csc, node_rows, node_of, 1,
                                                grad, hess, num_bins)[0],
                      got.build_colstore_hybrid(csc, node_rows, node_of, 1,
                                                grad, hess, num_bins)[0]))
        ref_layer, _ = ref.build_colstore_layer(csc, node_of, 2, grad,
                                                hess, num_bins)
        got_layer, _ = got.build_colstore_layer(csc, node_of, 2, grad,
                                                hess, num_bins)
        pairs.extend(zip(ref_layer, got_layer))
        ref_index = ColumnwiseIndex(csc)
        ref_index.update_after_split(node_of, [0, 1])
        pairs.append((ref.build_colstore_columnwise(ref_index, 1, grad,
                                                    hess, num_bins)[0],
                      got.build_colstore_columnwise(ref_index, 1, grad,
                                                    hess, num_bins)[0]))
        for expect, actual in pairs:
            assert np.array_equal(expect.grad, actual.grad)
            assert np.array_equal(expect.hess, actual.hess)

    def test_layer_scatter_above_the_fuse_threshold_exact(self, backend):
        """A layer of more than ``FUSE_THRESHOLD`` entries takes numpy's
        unfused scatter; every node's view is still exact, and equals
        that node's own column-store build (each bin's entries add in
        ascending row order either way)."""
        rng = np.random.default_rng(11)
        num_rows, num_features, num_bins = 1200, 60, 8
        csr, _ = make_binned(rng, num_rows=num_rows,
                             num_features=num_features, num_bins=num_bins,
                             density=1.0)
        csc = csr.to_csc()
        assert csc.nnz > KernelBackend.FUSE_THRESHOLD
        grad = rng.standard_normal((num_rows, 1))
        hess = rng.random((num_rows, 1))
        node_of = rng.integers(0, 3, size=num_rows).astype(np.int64)
        ref = HistogramBuilder(backend="numpy")
        ref_layer, _ = ref.build_colstore_layer(csc, node_of, 3, grad,
                                                hess, num_bins)
        got_layer, _ = HistogramBuilder(backend=backend).build_colstore_layer(
            csc, node_of, 3, grad, hess, num_bins)
        for slot, (expect, actual) in enumerate(zip(ref_layer, got_layer)):
            node_rows = np.flatnonzero(node_of == slot)
            alone, _, _ = ref.build_colstore_hybrid(
                csc, node_rows, node_of, slot, grad, hess, num_bins)
            for want in (expect, alone):
                assert np.array_equal(want.grad, actual.grad)
                assert np.array_equal(want.hess, actual.hess)

    def test_no_hessian_fast_path_exact(self, backend):
        """With ``constant_hessian == 1.0`` (square loss) the hessian
        histogram is a bin count; the fast path must still be exact."""
        rng = np.random.default_rng(3)
        csr, _ = make_binned(rng, num_rows=80, num_features=6, num_bins=5,
                             density=0.5)
        grad = rng.standard_normal((80, 1))
        hess = np.ones((80, 1))
        rows = np.arange(0, 80, 3, dtype=np.int64)
        generic = HistogramBuilder(backend=backend)
        fast = HistogramBuilder(backend=backend)
        fast.constant_hessian = 1.0
        via_generic, _ = generic.build_rowstore(csr, rows, grad, hess, 5)
        via_fast, _ = fast.build_rowstore(csr, rows, grad, hess, 5)
        assert np.array_equal(via_generic.grad, via_fast.grad)
        assert np.array_equal(via_generic.hess, via_fast.hess)

    @pytest.mark.parametrize("plan_key", [None, *plan_keys()])
    def test_training_bit_identical(self, backend, plan_key):
        """End-to-end: identical trees for logistic and square loss, from
        the reference trainer (``None``) and from every registry plan on
        four workers."""
        clf = make_classification(250, 15, density=0.4, seed=21)
        reg = Dataset(clf.features,
                      np.asarray(clf.labels, dtype=np.float64) - 0.5,
                      task="regression", name="kernels-reg")
        for dataset, objective in ((clf, "binary"), (reg, "regression")):
            binned = bin_dataset(dataset, 10)
            models = {}
            for name in ("numpy", backend):
                cfg = TrainConfig(num_trees=3, num_layers=4,
                                  num_candidates=10, objective=objective,
                                  backend=name)
                if plan_key is None:
                    result = GBDT(cfg).fit(dataset, binned=binned)
                else:
                    result = get_plan(plan_key).build(
                        cfg, ClusterConfig(num_workers=4)).fit(binned)
                models[name] = ensemble_to_dict(result.ensemble)
            assert models["numpy"] == models[backend]


class TestBuilderWiring:
    def test_builder_defaults_to_numpy(self):
        assert HistogramBuilder().backend.name == "numpy"

    def test_trainer_threads_backend_and_hessian(self):
        cfg = TrainConfig(num_trees=1, num_layers=2, objective="regression",
                          backend="numpy")
        trainer = GBDT(cfg)
        assert trainer.builder.backend.name == "numpy"
        assert trainer.builder.constant_hessian == \
            make_loss("regression", 2).constant_hessian == 1.0
        assert GBDT(TrainConfig(num_trees=1)).builder.constant_hessian \
            is None

    def test_config_rejects_unknown_backend_at_build(self):
        cfg = TrainConfig(num_trees=1, backend="tpu")
        with pytest.raises(ValueError, match="unknown kernel backend"):
            GBDT(cfg)


class TestSelfCheck:
    def test_every_available_backend_passes(self):
        for result in map(check_backend, AVAILABLE):
            assert result.passed, result.describe()
            assert result.checks == 12
            assert "bit-identical" in result.describe()

    def test_unknown_backend_fails_cleanly(self):
        result = check_backend("cuda")
        assert not result.passed
        assert "construction failed" in result.detail

    def test_miscompare_detected(self, monkeypatch):
        """A backend that computes different bits must be flagged."""
        from repro.core.kernels import PyLoopBackend

        if "pyloop" not in available_backends():
            pytest.skip("pyloop masked on this run")

        original = PyLoopBackend.scatter

        def corrupt(self, hist, keys, entry_rows, grad, hess,
                    hess_const=None):
            original(self, hist, keys, entry_rows, grad, hess,
                     hess_const=hess_const)
            hist.grad += 1e-9

        monkeypatch.setattr(PyLoopBackend, "scatter", corrupt)
        result = check_backend("pyloop")
        assert not result.passed
        assert "diverged" in result.detail

    def test_column_store_kernels_are_checked(self, monkeypatch):
        """A backend that miscomputes only the column store's
        scan-or-search kernel (qd3) must be flagged by name."""
        if "pyloop" not in available_backends():
            pytest.skip("pyloop masked on this run")

        original = HistogramBuilder.build_colstore_hybrid

        def corrupt(self, *args):
            hist, scanned, searched = original(self, *args)
            if self.backend.name == "pyloop":
                hist.grad[:] = hist.grad[::-1].copy()
            return hist, scanned, searched

        monkeypatch.setattr(HistogramBuilder, "build_colstore_hybrid",
                            corrupt)
        result = check_backend("pyloop")
        assert not result.passed
        assert "qd3" in result.detail
