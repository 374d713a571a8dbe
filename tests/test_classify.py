import os
import signal
import threading
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from handspd import classify
from handspd.errors import InvalidInput

import oracles
from archives import edit_npz


def _blobs(rng, n_per_class, centers, spread=0.3):
    x, y = [], []
    for label, center in enumerate(centers, start=1):
        pts = center + spread * rng.standard_normal((n_per_class, len(center)))
        x.append(pts)
        y.extend([label] * n_per_class)
    return np.vstack(x), np.array(y)


class TestMulticlass:
    def test_separable_blobs_classified_perfectly(self):
        rng = np.random.default_rng(0)
        centers = [(3.0, 0.0), (-3.0, 0.0), (0.0, 3.0), (0.0, -3.0)]
        x, y = _blobs(rng, 25, centers)
        model = classify.svm_train(x, y, C=1.0, tol=0.01, seed=0)
        assert model.n_classes == 4
        report = classify.evaluate(model, x, y)
        assert report.accuracy == 100.0
        assert np.array_equal(np.diag(report.confusion), [25, 25, 25, 25])

    def test_predict_is_the_argmax_of_the_scores(self):
        rng = np.random.default_rng(1)
        x, y = _blobs(rng, 10, [(2.0, 0.0), (-2.0, 0.0), (0.0, 2.0)])
        model = classify.svm_train(x, y, seed=0)
        predicted = classify.svm_predict(model, x)
        assert predicted.shape == (30,)
        assert np.array_equal(predicted, (x @ model.weights.T).argmax(axis=1) + 1)

    def test_convergence_recorded_per_class(self):
        rng = np.random.default_rng(0)
        x, y = _blobs(rng, 25, [(3.0, 0.0), (-3.0, 0.0), (0.0, 3.0)])
        model = classify.svm_train(x, y, tol=0.01, seed=0)
        assert model.converged == [True, True, True]
        assert model.passes == [len(h) for h in model.dual_history]
        assert model.unconverged_classes() == []

    def test_max_passes_reached_is_reported(self, monkeypatch):
        monkeypatch.setattr(classify, "MAX_PASSES", 1)
        rng = np.random.default_rng(0)
        x, y = _blobs(rng, 25, [(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0)], spread=0.8)
        model = classify.svm_train(x, y, tol=1e-8, seed=0)
        assert model.passes == [1, 1, 1]
        assert model.converged == [False, False, False]
        assert model.unconverged_classes() == [1, 2, 3]

    def test_tie_breaks_to_lowest_class(self):
        model = classify.SvmModel(weights=np.zeros((3, 2)))
        assert classify.svm_predict(model, np.array([[1.0, 1.0]]))[0] == 1

    def test_seeded_determinism(self):
        rng = np.random.default_rng(2)
        x, y = _blobs(rng, 12, [(1.0, 1.0), (-1.0, -1.0)])
        m1 = classify.svm_train(x, y, seed=3)
        m2 = classify.svm_train(x, y, seed=3)
        assert np.array_equal(m1.weights, m2.weights)

    def test_single_class_rejected(self):
        with pytest.raises(InvalidInput):
            classify.svm_train(np.ones((5, 2)), np.ones(5, dtype=int))

    def test_bad_shapes_rejected(self):
        with pytest.raises(InvalidInput):
            classify.svm_train(np.ones((5, 2)), np.arange(4))
        with pytest.raises(InvalidInput):
            classify.svm_train(np.ones((4, 2)), np.array([1, 2, 1, 2]), C=-1.0)

    @pytest.mark.parametrize("labels, n_classes, bad", [
        ([0, 1, 2, 0, 1, 2], None, 0),
        ([1, 2, 7, 1, 2, 7], 3, 7),
    ], ids=["zero-based", "above-the-class-count"])
    def test_out_of_range_labels_rejected(self, labels, n_classes, bad):
        x = np.random.default_rng(0).standard_normal((6, 2))
        with pytest.raises(InvalidInput, match=f"label {bad} outside"):
            classify.svm_train(x, np.array(labels), n_classes=n_classes)

    @pytest.mark.parametrize("value", [np.nan, np.inf, 1e200], ids=["nan", "inf", "overflowing-norm"])
    def test_non_finite_row_rejected(self, value):
        # A NaN row makes every projected gradient NaN, which read as converged;
        # a row whose squared norm overflows was skipped by every class.
        x = np.random.default_rng(4).standard_normal((12, 3))
        x[7, 1] = value
        with pytest.raises(InvalidInput, match=r"^feature row 8 is not finite") as err:
            classify.svm_train(x, np.repeat([1, 2, 3], 4))
        assert err.value.where == {}

    def test_explicit_class_count_keeps_empty_rows(self):
        rng = np.random.default_rng(3)
        x, y = _blobs(rng, 8, [(2.0, 0.0), (-2.0, 0.0)])
        model = classify.svm_train(x, y, n_classes=5, seed=0)
        assert model.weights.shape == (5, 2)


def _assert_matches_reference(x, labels, n_classes, seed, **kw):
    """Fit with svm_train and check each class bitwise against the
    reference loop; returns the model and the reference's final alphas."""
    model = classify.svm_train(x, labels, seed=seed, n_classes=n_classes, **kw)
    c, tol = kw.get("C", classify.SvmConfig.C), kw.get("tol", classify.SvmConfig.tol)
    assert model.n_classes == n_classes
    alphas = []
    for cls in range(1, n_classes + 1):
        y = np.where(labels == cls, 1.0, -1.0)
        rng = np.random.default_rng((seed, cls))
        w, history, converged, alpha = oracles.dcd_binary_reference(x, y, c, tol, rng, classify.MAX_PASSES)
        assert np.array_equal(model.weights[cls - 1], w)
        assert model.dual_history[cls - 1] == history
        assert model.passes[cls - 1] == len(history)
        assert model.converged[cls - 1] == converged
        alphas.append(alpha)
    return model, alphas


class TestMatchesReference:
    """svm_train reproduces the reference loop bitwise, class by class, in
    this process and on pools of 2 and of 4 (more workers than most CI
    machines have cores)."""

    @pytest.fixture(params=[1, 2, 4], ids=["in_process", "pool2", "pool4"])
    def workers(self, request, monkeypatch):
        monkeypatch.setattr(classify, "_worker_count", lambda n_classes: request.param)
        return request.param

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_converged_fit(self, workers, seed):
        rng = np.random.default_rng(seed)
        centers = [(1.5, 0.0, 0.3), (-1.5, 0.2, 0.0), (0.0, 1.5, -0.4), (0.1, -1.5, 0.0)]
        x, labels = _blobs(rng, 12, centers, spread=0.9)
        model, _ = _assert_matches_reference(x, labels, 4, seed, C=2.0, tol=1e-3)
        assert all(model.converged)

    def test_fit_out_of_passes(self, workers, monkeypatch):
        # Forked workers inherit the patched limit: svm_train reads it at call time.
        monkeypatch.setattr(classify, "MAX_PASSES", 4)
        rng = np.random.default_rng(3)
        x, labels = _blobs(rng, 10, [(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0)], spread=0.8)
        model, _ = _assert_matches_reference(x, labels, 3, 3, tol=1e-12)
        assert model.passes == [4, 4, 4] and not any(model.converged)

    def test_classes_beyond_the_labels_present(self, workers):
        rng = np.random.default_rng(5)
        x, labels = _blobs(rng, 9, [(2.0, 0.0, 1.0), (-2.0, 0.0, 0.0), (0.0, 2.0, -1.0)])
        model, _ = _assert_matches_reference(x, labels, 6, 5)
        assert set(classify.svm_predict(model, x).tolist()) <= {1, 2, 3}


class TestMatchesReferenceAtWidth:
    """The same bitwise match on 320 rows of width 515: wide enough for the
    SIMD blocks of the dot and the axpy ufuncs, and not a multiple of 8, so
    their remainder loops run too."""

    @pytest.fixture(params=[1, 2], ids=["in_process", "pool2"])
    def workers(self, request, monkeypatch):
        monkeypatch.setattr(classify, "_worker_count", lambda n_classes: request.param)
        return request.param

    @pytest.fixture(scope="class")
    def features(self):
        rng = np.random.default_rng(11)
        centers = list(0.1 * rng.standard_normal((4, 515)))
        return _blobs(rng, 80, centers, spread=1.0)

    def test_converged_fit(self, workers, features):
        model, _ = _assert_matches_reference(*features, 4, 2)
        assert all(model.converged)

    def test_fit_out_of_passes(self, workers, features, monkeypatch):
        monkeypatch.setattr(classify, "MAX_PASSES", 3)
        model, _ = _assert_matches_reference(*features, 4, 3, tol=1e-12)
        assert model.passes == [3, 3, 3, 3] and not any(model.converged)

    def test_small_c_clamps_some_alphas_to_zero(self, workers, features):
        model, alphas = _assert_matches_reference(*features, 4, 5, C=0.01)
        assert all(model.converged)
        for alpha in alphas:
            assert np.any(alpha == 0.0) and np.any(alpha > 0.0)


class TestWorkerPool:
    def test_a_killed_worker_raises_instead_of_hanging(self, monkeypatch):
        monkeypatch.setattr(classify, "_worker_count", lambda n_classes: 2)
        monkeypatch.setattr(classify, "_dcd_binary", lambda *args: os.kill(os.getpid(), signal.SIGKILL))
        x, labels = _blobs(np.random.default_rng(0), 5, [(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0)])
        raised = []

        def fit():
            try:
                classify.svm_train(x, labels)
            except BrokenProcessPool as exc:
                raised.append(exc)

        runner = threading.Thread(target=fit, daemon=True)
        runner.start()
        runner.join(timeout=60)
        assert not runner.is_alive() and raised

    def test_worker_count(self):
        if not hasattr(os, "sched_getaffinity"):
            pytest.skip("no CPU affinity on this platform")
        assert classify._worker_count(14) == min(14, len(os.sched_getaffinity(0)))
        assert classify._worker_count(1) == 1


class TestEvaluate:
    def test_confusion_counts(self):
        model = classify.SvmModel(weights=np.array([[1.0, 0.0], [-1.0, 0.0]]))
        x = np.array([[1.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [1.0, 0.0]])
        y = np.array([1, 1, 2, 2])
        report = classify.evaluate(model, x, y)
        assert np.array_equal(report.confusion, [[2, 0], [1, 1]])
        assert report.accuracy == pytest.approx(75.0)
        assert np.allclose(report.per_class_accuracy, [1.0, 0.5])

    def test_class_without_test_rows_reads_nan(self):
        # No 0/0 is formed, so no RuntimeWarning (an error under tier-1's filter).
        model = classify.SvmModel(weights=np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]]))
        report = classify.evaluate(model, np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([1, 2]))
        assert np.array_equal(report.per_class_accuracy, [1.0, 1.0, np.nan], equal_nan=True)

    def test_empty_test_set_rejected(self):
        model = classify.SvmModel(weights=np.zeros((2, 3)))
        with pytest.raises(InvalidInput):
            classify.evaluate(model, np.zeros((0, 3)), np.zeros(0, dtype=int))

    @pytest.mark.parametrize("shift, bad", [(-1, 0), (1, 4)], ids=["zero-based", "above-k"])
    def test_out_of_range_labels_rejected(self, shift, bad):
        # 0-based labels used to wrap onto the last row of the confusion
        # matrix; a label above k raised IndexError.
        rng = np.random.default_rng(0)
        x, y = _blobs(rng, 4, [(2.0, 0.0), (-2.0, 0.0), (0.0, 2.0)])
        model = classify.svm_train(x, y, seed=0)
        with pytest.raises(InvalidInput, match=f"label {bad} outside \\[1, 3\\]"):
            classify.evaluate(model, x, y + shift)

    def test_label_count_must_match_the_rows(self):
        model = classify.SvmModel(weights=np.eye(2))
        with pytest.raises(InvalidInput, match="3 feature rows with 2 labels"):
            classify.evaluate(model, np.eye(3, 2), np.array([1, 2]))


class TestModelSerialization:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        model = classify.SvmModel(weights=rng.standard_normal((4, 7)), C=2.5, tol=0.05)
        path = tmp_path / "svm.npz"
        classify.save_model(path, model)
        loaded = classify.load_model(path)
        assert np.array_equal(loaded.weights, model.weights)
        assert loaded.C == model.C
        assert loaded.tol == model.tol

    def test_round_trip_keeps_the_fit_record(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(1)
        x, y = _blobs(rng, 10, [(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0)], spread=0.8)
        monkeypatch.setattr(classify, "MAX_PASSES", 3)
        model = classify.svm_train(x, y, tol=1e-3, seed=0)
        model.converged[1] = True
        path = tmp_path / "svm.npz"
        classify.save_model(path, model)
        loaded = classify.load_model(path)
        assert np.array_equal(loaded.weights, model.weights)
        assert loaded.passes == model.passes == [3, 3, 3]
        assert loaded.converged == [False, True, False]
        assert loaded.dual_history == [[h[-1]] for h in model.dual_history]
        assert loaded.unconverged_classes() == [1, 3]
        # Saving the loaded model reproduces the file byte for byte.
        again = tmp_path / "again.npz"
        classify.save_model(again, loaded)
        assert again.read_bytes() == path.read_bytes()

    def test_fit_record_of_the_wrong_size_rejected(self, tmp_path):
        path = tmp_path / "svm.npz"
        classify.save_model(path, classify.SvmModel(weights=np.ones((2, 3)), passes=[1], converged=[True],
                                                     dual_history=[[-1.0]]))
        message = "fit record of 1 passes, 1 converged and 1 dual entries for 2 classes"
        with pytest.raises(InvalidInput, match=message) as err:
            classify.load_model(path)
        assert err.value.where == {"path": str(path)}

    def test_zero_width_weights_rejected(self, tmp_path):
        path = tmp_path / "svm.npz"
        classify.save_model(path, classify.SvmModel(weights=np.ones((2, 3))))
        edit_npz(path, weights=np.ones((3, 0)))
        with pytest.raises(InvalidInput, match="model of 3 x 0 weights") as err:
            classify.load_model(path)
        assert err.value.where == {"path": str(path), "array": "weights"}


class TestReporting:
    def test_class_names(self):
        assert len(classify.class_names(14)) == 14
        assert classify.class_names(14)[0] == "Grab"
        names28 = classify.class_names(28)
        assert len(names28) == 28
        assert names28[0] == "Grab (one finger)"
        assert names28[1] == "Grab (whole hand)"
        assert classify.class_names(4) == ["Class-1", "Class-2", "Class-3", "Class-4"]

    def test_confusion_csv(self, tmp_path):
        report = classify.EvalReport(
            accuracy=50.0,
            confusion=np.array([[1, 1], [0, 2]]),
            per_class_accuracy=np.array([0.5, 1.0]),
        )
        path = tmp_path / "confusion.csv"
        classify.confusion_csv(path, report, ["a", "b"])
        text = path.read_text()
        assert "a,1,1" in text
        assert "row-normalized" in text
        assert "b,0.00,100.00" in text
        with pytest.raises(InvalidInput):
            classify.confusion_csv(path, report, ["only-one"])

    def test_report_table(self):
        report = classify.EvalReport(
            accuracy=80.0,
            confusion=np.array([[4, 1], [0, 0]]),
            per_class_accuracy=np.array([0.8, np.nan]),
        )
        text = classify.report_table(report, ["a", "b"])
        assert "80.00%" in text
        assert "n/a" in text
