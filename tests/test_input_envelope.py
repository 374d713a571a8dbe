"""The network's input envelope: one training step on a gesture moved, rescaled
or degenerated gives finite loss and gradients, or a typed error that names
its layer, and never a numpy warning (``pyproject.toml`` makes every
``RuntimeWarning`` an error).

Scales run from 1e-300, where every frame spectrum falls under eps, to 1e160,
where the frame Gram overflows; offsets to 1e16, where the frame spectra
span more than 2^53.
"""

import functools

import numpy as np
from hypothesis import given, settings, strategies as st

from handspd import data, network, optim
from handspd.errors import HandSpdError
from handspd.gradcheck import toy_config
from handspd.network import NetworkConfig


@functools.cache
def _case(toy: bool):
    """(config, parameters, 8 synthetic gestures) of the default or toy config."""
    cfg = toy_config() if toy else NetworkConfig()
    gestures = data.synth_generate(1, 8, seed=1, length=cfg.n_F)
    return cfg, optim.init_params(cfg, seed=1), [g.frames for g in gestures]


@settings(derandomize=True, max_examples=600, deadline=None)
@given(
    toy=st.booleans(),
    gesture=st.integers(0, 7),
    scale=st.floats(-300, 160),
    offset=st.none() | st.floats(0, 16),
    shape=st.sampled_from(["as drawn", "static", "collapsed finger"]),
    finger=st.integers(0, 4),
)
def test_one_step_is_finite_or_a_typed_error_naming_its_layer(toy, gesture, scale, offset, shape, finger):
    cfg, params, gestures = _case(toy)
    frames = gestures[gesture][:, : cfg.n_joints].copy()
    if shape == "static":
        frames[:] = frames[0]
    elif shape == "collapsed finger":
        # Every joint of one finger at its first joint.
        first = 2 + finger % cfg.n_fingers * cfg.joints_per_finger
        frames[:, first : first + cfg.joints_per_finger] = frames[:, first : first + 1]
    if offset is not None:
        frames += 10.0**offset
    seq = data.GestureSequence(frames * 10.0**scale, 1)
    try:
        loss, grads = network.loss_and_backward([seq], params, cfg)
    except HandSpdError as exc:
        assert "layer" in exc.where, exc
        return
    assert np.isfinite(loss) and np.all(np.isfinite(grads.to_vector()))
