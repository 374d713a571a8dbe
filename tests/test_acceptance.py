"""End-to-end acceptance suite.

Each test covers one acceptance criterion and prints exactly one
``[acceptance] <name>: PASS|FAIL|SKIP`` line (run pytest with ``-s`` or
check captured output) in addition to the usual pytest verdict.
"""

import sys
import time
from pathlib import Path

import numpy as np
import pytest

from handspd import classify, data, gradcheck, network, optim, spd_ops
from handspd.gradcheck import toy_config
from handspd.network import NetworkConfig
from handspd.optim import TrainConfig

import oracles


def _report(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {name}: {status}{suffix}", file=sys.stderr)
    assert ok, f"{name}: {detail}"


def _skip(name, reason):
    print(f"[acceptance] {name}: SKIP ({reason})", file=sys.stderr)
    pytest.skip(reason)


def test_gradient_checks():
    """Analytic gradients of every layer and of the composed toy network
    match central finite differences to < 1e-4 relative, within 60 s."""
    start = time.perf_counter()
    results = gradcheck.run(seed=0, n_instances=20)
    elapsed = time.perf_counter() - start
    worst = max(results.values())
    _report(
        "gradient-checks",
        worst < 1e-4 and elapsed < 60.0,
        f"worst rel err {worst:.2e} over {len(results)} layers in {elapsed:.1f}s",
    )


def test_spd_invariants(stiefel_checked_steps):
    """1000 seeded forwards (toy and default scale): every frame's log matrix
    has its eigenvalues at or above log(eps), every aggregated matrix stays
    positive definite, and Stiefel weights stay orthonormal after optimizer
    steps."""
    counts = {"toy": 900, "default": 100}
    checked = 0
    min_log_margin = np.inf
    min_agg_eig = np.inf
    for stream, (scale, count) in enumerate(counts.items()):
        cfg = toy_config() if scale == "toy" else NetworkConfig()
        graph = cfg.graph()
        params = None
        for k in range(count):
            rng = np.random.default_rng((stream, k))
            if params is None or k % 25 == 0:
                params = optim.init_params(cfg, seed=k)
            frames = rng.standard_normal((cfg.n_F, cfg.n_joints, 3))
            _, _, tape = network.forward(frames, params, cfg, graph)
            frame_logs = spd_ops.half_vec_adjoint(tape.z, cfg.frame_spd_dim)
            min_log_margin = min(
                min_log_margin, float(np.linalg.eigvalsh(frame_logs).min()) - np.log(cfg.eps)
            )
            min_agg_eig = min(
                min_agg_eig,
                float(np.linalg.eigvalsh(tape.temp_outputs).min()),
                float(tape.final_eig.values.min()),
            )
            checked += 1
    assert checked == 1000

    # Orthonormality after every optimizer step, across a short training run:
    # the fixture raises if any step leaves ||WW^T - I||_inf >= 1e-8.
    cfg = toy_config()
    dataset = [
        data.GestureSequence(np.random.default_rng(k).standard_normal((cfg.n_F, cfg.n_joints, 3)),
                             k % cfg.n_classes + 1)
        for k in range(12)
    ]
    params, _ = optim.train(
        dataset, cfg, TrainConfig(batch_size=4, learning_rate=0.05, epochs=3, seed=0)
    )
    assert len(stiefel_checked_steps) == 3 * 3
    stiefel_err = max(
        float(np.abs(w @ w.T - np.eye(w.shape[0])).max()) for w in params.spat
    )
    _report(
        "spd-invariants",
        min_log_margin >= -1e-9 and min_agg_eig > 0 and stiefel_err < 1e-8,
        f"min frame log-eigenvalue - log eps {min_log_margin:.2e}, min agg eig {min_agg_eig:.2e}, "
        f"stiefel err {stiefel_err:.2e}",
    )


def test_dimension_ledger():
    """Default configuration produces the documented shapes end to end."""
    cfg = NetworkConfig()
    params = optim.init_params(cfg, seed=0)
    frames = np.random.default_rng(0).standard_normal((cfg.n_F, cfg.n_joints, 3))
    logits, final_spd, tape = network.forward(frames, params, cfg)
    ok = (
        cfg.d1 == 9
        and cfg.frame_spd_dim == 10
        and cfg.half_dim == 55
        and cfg.n_Q == 6
        and cfg.n_L == 30
        and tape.temp_outputs.shape == (30, 56, 56)
        and final_spd.shape == (56, 56)
        and tape.feature.shape == (1596,)
        and logits.shape == (14,)
        and tape.z.shape == (5, 171, 55)
    )
    _report("dimension-ledger", ok, "9 / 10x10 / 55 / 6 / 30 / 56x56 / 1596 / 14")


def test_oracle_equivalence():
    """Toy-scale forward and feature extraction match an independent
    straight-line reference to 1e-10."""
    worst = 0.0
    for seed in range(5):
        cfg = toy_config()
        rng = np.random.default_rng(seed)
        params = optim.init_params(cfg, seed=seed)
        frames = rng.standard_normal((cfg.n_F, cfg.n_joints, 3))
        logits, final_spd, _ = network.forward(frames, params, cfg)
        feature = network.extract_feature(frames, params, cfg)
        ref_logits, ref_feature, ref_final = oracles.network_forward_reference(
            frames, params.conv, params.spat, params.fc_weight, params.fc_bias, cfg
        )
        worst = max(
            worst,
            float(np.abs(final_spd - ref_final).max()),
            float(np.abs(feature - ref_feature).max()),
            float(np.abs(logits - ref_logits).max()),
        )
    _report("oracle-equivalence", worst < 1e-10, f"max deviation {worst:.2e}")


def test_isometry_and_round_trips(tmp_path):
    """Half-vectorization is an isometry, log/exp round-trips SPD matrices,
    and checkpoints survive save/load bit for bit."""
    from handspd import linalg, spd_ops

    rng = np.random.default_rng(0)
    iso_err = 0.0
    log_exp_err = 0.0
    for _ in range(50):
        y = rng.standard_normal((7, 7))
        y = y + y.T
        iso_err = max(iso_err, abs(np.linalg.norm(spd_ops.half_vec(y)) - np.linalg.norm(y)))
        a = rng.standard_normal((6, 6))
        x = a @ a.T / 6 + 0.2 * np.eye(6)
        log_x = linalg.spectral_apply_cached(linalg.sym_eig_batch(x), linalg.LOG)
        back = linalg.spectral_apply_cached(linalg.sym_eig_batch(log_x), oracles.EXP)
        log_exp_err = max(log_exp_err, float(np.abs(back - x).max()))

    cfg = toy_config()
    params = optim.init_params(cfg, seed=3)
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    network.save_checkpoint(p1, params, cfg)
    loaded, loaded_cfg = network.load_checkpoint(p1)
    network.save_checkpoint(p2, loaded, loaded_cfg)
    bitwise = Path(p1).read_bytes() == Path(p2).read_bytes() and np.array_equal(
        loaded.to_vector(), params.to_vector()
    )
    _report(
        "isometry-and-round-trips",
        iso_err < 1e-12 and log_exp_err < 1e-8 and bitwise,
        f"isometry {iso_err:.1e}, log/exp {log_exp_err:.1e}, checkpoint bitwise {bitwise}",
    )


def test_synthetic_end_to_end():
    """4-class synthetic gestures (200 train / 100 test, noise 0.01):
    20 epochs of SGD (batch 30, lr 0.01) plus a C=1 linear SVM on the
    extracted features reach at least 90% test accuracy in under 10 min."""
    start = time.perf_counter()
    cfg = NetworkConfig(n_classes=4)
    sequences = data.synth_generate(75, 4, noise_sigma=0.01, seed=0, length=cfg.n_F)
    train_set = [s for s in sequences if s.trial < 50]
    test_set = [s for s in sequences if s.trial >= 50]
    assert len(train_set) == 200 and len(test_set) == 100

    params, metrics = optim.train(
        train_set, cfg,
        TrainConfig(batch_size=30, learning_rate=0.01, epochs=20, seed=0),
    )
    train_x = network.extract_features(train_set, params, cfg)
    train_y = np.array([s.label_14 for s in train_set])
    test_x = network.extract_features(test_set, params, cfg)
    test_y = np.array([s.label_14 for s in test_set])
    model = classify.svm_train(train_x, train_y, C=1.0, tol=0.1, seed=0)
    report = classify.evaluate(model, test_x, test_y)
    elapsed = time.perf_counter() - start
    _report(
        "synthetic-end-to-end",
        report.accuracy >= 90.0 and elapsed < 600.0,
        f"accuracy {report.accuracy:.2f}%, final train loss "
        f"{metrics[-1]['mean_loss']:.4f}, {elapsed:.0f}s",
    )


def test_svm_correctness():
    """Dual objective is monotone nonincreasing and the primal objective
    lands within 1e-3 relative of a projected-gradient reference solve on
    10 seeded toy problems."""
    worst_gap = 0.0
    monotone = True
    for seed in range(10):
        rng = np.random.default_rng(seed)
        n, d = 30, 4
        x = rng.standard_normal((n, d)) + np.where(
            rng.integers(0, 2, n)[:, None] == 1, 1.0, -1.0
        )
        y = np.where(x[:, 0] + 0.3 * rng.standard_normal(n) > 0, 1.0, -1.0)
        c = 1.0
        w, history, _ = classify._dcd_binary(
            x, y, c, tol=1e-6, rng=np.random.default_rng(seed), max_passes=5000,
            qii=classify._q_diagonal(x, c),
        )
        monotone &= all(b <= a + 1e-12 for a, b in zip(history, history[1:]))
        w_ref, _ = oracles.svm_projected_gradient(x, y, c)
        p = oracles.svm_primal_reference(w, x, y, c)
        p_ref = oracles.svm_primal_reference(w_ref, x, y, c)
        worst_gap = max(worst_gap, abs(p - p_ref) / max(abs(p_ref), 1e-12))
    _report(
        "svm-correctness",
        monotone and worst_gap < 1e-3,
        f"dual monotone {monotone}, worst primal gap {worst_gap:.2e}",
    )


def test_dhg_reproduction():
    """Optional: full-dataset accuracy reproduction. Needs the real
    DHG/SHREC'17 recordings, which are not distributed with this
    repository; skipped when no dataset directory is available."""
    candidates = [
        Path(p)
        for p in (
            "/data/dhg", "/data/shrec17", Path.home() / "datasets" / "dhg",
            Path(__file__).resolve().parent.parent / "dhg_dataset",
        )
    ]
    root = next(
        (p for p in candidates if (Path(p) / "train_gestures.txt").is_file()), None
    )
    if root is None:
        _skip(
            "dhg-reproduction",
            "dataset not present; property-based criteria above stand in for it",
        )
    cfg = NetworkConfig(n_classes=14)
    train, test = ([data.resample(s, cfg.n_F) for s in split] for split in data.load_dhg(root, "train", "test"))
    params, _ = optim.train(train, cfg, TrainConfig())
    train_x = network.extract_features(train, params, cfg)
    train_y = np.array([s.label_14 for s in train])
    test_x = network.extract_features(test, params, cfg)
    test_y = np.array([s.label_14 for s in test])
    model = classify.svm_train(train_x, train_y, C=1.0, tol=0.1)
    report = classify.evaluate(model, test_x, test_y)
    _report(
        "dhg-reproduction",
        abs(report.accuracy - 92.38) <= 3.0,
        f"14-class accuracy {report.accuracy:.2f}% vs 92.38% +- 3.0",
    )
