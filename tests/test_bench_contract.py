"""The benchmark's span map and calls against the program.

``perfbench/workloads.py`` wraps module attributes of the program by name
(``trace_program``).  A renamed or deleted attribute would crash a traced
benchmark run; here it fails the test suite instead.  The file is loaded by
path (the ``workloads`` fixture), and its tracer is replaced by one that
only checks each name.  The workloads also rely on how they call
the program: positional arguments, return arities, and the ``train``
latency stamp wrapping ``network.forward``; the last test checks those.
"""

from collections import Counter

import numpy as np

from handspd import network, optim
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
