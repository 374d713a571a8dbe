"""The benchmark's span map and calls against the program.

``perfbench/workloads.py`` wraps module attributes of the program by name
(``trace_program``).  A renamed or deleted attribute would crash a traced
benchmark run; here it fails the test suite instead.  The file is loaded by
path (the ``workloads`` fixture), and its tracer is replaced by one that
only checks each name.  The workloads also rely on how they call
the program: positional arguments, return arities, and the ``train``
latency stamp wrapping ``network.forward``; and on what they read of the
results: the frame eigenvalues in ``forward``'s third item, the SVM's
per-class dual history and ``NetworkParams.validate_stiefel``.
"""

from collections import Counter

import numpy as np

from handspd import classify, network, optim
from handspd.data import GestureSequence
from handspd.gradcheck import toy_config


class _CheckingTracer:
    def __init__(self):
        self.wrapped = []

    def wrap(self, owner, attr, name, observe=None):
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr} is not a callable"
        self.wrapped.append((owner.__name__, attr, name))


def test_every_wrapped_name_is_a_callable_of_the_program(workloads):
    tracer = _CheckingTracer()
    workloads.trace_program(tracer, toy_config(), Counter())
    for owner, attr, name in tracer.wrapped:
        if isinstance(name, str):
            assert name in workloads.SPANS, f"{owner}.{attr} records {name!r}, not in SPANS"
    assert ("handspd.optim", "apply_gradients", "optim.apply_gradients") in tracer.wrapped
    assert ("handspd.optim", "qr_orthonormalize", "linalg.qr_orthonormalize") in tracer.wrapped


def test_one_retraction_per_step_through_the_wrapped_name(monkeypatch):
    # The span map wraps QR where optim calls it; one step retracts the
    # whole stack of spatial weights in one call.
    calls = []
    qr = optim.qr_orthonormalize
    monkeypatch.setattr(optim, "qr_orthonormalize", lambda m: calls.append(m.shape) or qr(m))
    cfg = toy_config()
    params = optim.init_params(cfg, seed=0)
    calls.clear()
    grads = params.from_vector(np.random.default_rng(0).standard_normal(params.to_vector().size))
    optim.apply_gradients(params, grads, 0.01)
    assert calls == [(cfg.n_L, cfg.d_spat, cfg.temp_dim)]


def test_call_signatures_and_the_per_sequence_forward(monkeypatch):
    # The train workload calls loss_and_backward(batch, params, cfg, graph)
    # and unpacks two values; its latency stamp wraps the module attribute
    # network.forward and expects one call per item, in batch order.  The
    # extract workload calls extract_feature(seq, params, cfg, graph).
    cfg = toy_config()
    graph = cfg.graph()
    params = optim.init_params(cfg, seed=0)
    rng = np.random.default_rng(0)
    batch = [
        GestureSequence(rng.standard_normal((cfg.n_F, cfg.n_joints, 3)), k % cfg.n_classes + 1)
        for k in range(3)
    ]
    feature = network.extract_feature(batch[0], params, cfg, graph)
    assert isinstance(feature, np.ndarray) and feature.shape == (cfg.feature_dim,)

    seen = []
    forward = network.forward

    def counted(seq, *args, **kwargs):
        seen.append(seq)
        return forward(seq, *args, **kwargs)

    monkeypatch.setattr(network, "forward", counted)
    out = network.loss_and_backward(batch, params, cfg, graph)
    assert isinstance(out, tuple) and len(out) == 2
    assert [id(seq) for seq in seen] == [id(seq) for seq in batch]


def test_the_results_the_workloads_read(workloads):
    # The traced clamped-eigenvalue counter reads result[2].frame_eig.values
    # of each forward call; the train checks call validate_stiefel on every
    # step's parameters; the svm checks read one list of per-pass dual
    # objectives per class, its length and its monotonicity, and count a
    # class as converged when its passes stay below the solver's limit.
    cfg = toy_config()
    params = optim.init_params(cfg, seed=0)
    seq = np.random.default_rng(0).standard_normal((cfg.n_F, cfg.n_joints, 3))
    result = network.forward(seq, params, cfg, cfg.graph())
    assert isinstance(result, tuple) and len(result) == 3
    values = result[2].frame_eig.values
    assert isinstance(values, np.ndarray) and values.size
    params.validate_stiefel()

    rng = np.random.default_rng(0)
    labels = np.repeat([1, 2, 3], 8)
    features = rng.standard_normal((labels.size, 5)) + 3.0 * np.eye(5)[labels]
    model = classify.svm_train(features, labels)
    assert workloads.SVM_MAX_PASSES == classify.MAX_PASSES
    history = model.dual_history
    assert isinstance(history, list) and len(history) == 3
    for h, passes in zip(history, model.passes):
        assert isinstance(h, list) and len(h) == passes >= 1
        assert all(isinstance(v, float) for v in h)
        assert all(b <= a + 1e-12 * max(1.0, abs(a)) for a, b in zip(h, h[1:]))
