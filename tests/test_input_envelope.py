"""The network's input envelope: one training step on a gesture moved, rescaled
or degenerated, with the pyramid's ridge or without it, gives finite loss and
gradients, or a typed error that names its layer, and never a numpy warning
(``pyproject.toml`` makes every ``RuntimeWarning`` an error).

Scales run from 1e-300, where every frame spectrum falls under eps, to 1e160,
where the frame Gram overflows; offsets to 1e16, where the frame spectra
span more than 2^53, past the range of Higham's atanh form of the LOG divided
difference.  The explicit examples move the default config's first gesture
far from the origin or rescale it to 1e-160 and 1e100, where the divided
difference kernel's discarded np.where branches overflow.
"""

import dataclasses
import functools
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings, strategies as st

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


FIRST_GESTURE = dict(toy=False, ridge=True, gesture=0, shape="as drawn", finger=0)


@settings(max_examples=600)
@given(
    toy=st.booleans(),
    ridge=st.booleans(),
    gesture=st.integers(0, 7),
    scale=st.floats(-300, 160),
    offset=st.none() | st.floats(0, 16),
    shape=st.sampled_from(["as drawn", "static", "zero", "collapsed finger", "collapsed palm", "collapsed hand"]),
    finger=st.integers(0, 4),
)
@example(**FIRST_GESTURE, scale=0.0, offset=6.0)
@example(**FIRST_GESTURE, scale=0.0, offset=10.0)
@example(**FIRST_GESTURE, scale=0.0, offset=16.0)
@example(**FIRST_GESTURE, scale=-160.0, offset=None)
@example(**FIRST_GESTURE, scale=100.0, offset=None)
def test_one_step_is_finite_or_a_typed_error_naming_its_layer(toy, ridge, gesture, scale, offset, shape, finger):
    cfg, params, gestures = _case(toy)
    if not ridge:
        cfg = dataclasses.replace(cfg, lambda_reg=0.0)  # init_params does not read it
    frames = gestures[gesture][:, : cfg.n_joints].copy()
    first = 2 + finger % cfg.n_fingers * cfg.joints_per_finger
    if shape == "static":
        frames[:] = frames[0]
    elif shape == "zero":
        frames[:] = 0.0
    elif shape == "collapsed finger":
        # Every joint of one finger at its first joint.
        frames[:, first : first + cfg.joints_per_finger] = frames[:, first : first + 1]
    elif shape == "collapsed palm":
        # The palm and every joint of one finger at the origin.
        frames[:, [1, *range(first, first + cfg.joints_per_finger)]] = 0.0
    elif shape == "collapsed hand":
        # Every joint of a frame at that frame's wrist.
        frames[:] = frames[:, :1]
    if offset is not None:
        frames += 10.0**offset
    seq = data.GestureSequence(frames * 10.0**scale, 1)
    try:
        loss, grads = network.loss_and_backward([seq], params, cfg)
    except HandSpdError as exc:
        assert "layer" in exc.where, exc
        return
    assert np.isfinite(loss) and np.all(np.isfinite(grads.to_vector()))


def _other_tests_with(*texts):
    """Names of the other test-suite files that contain any of ``texts``."""
    files = [p for p in Path(__file__).parent.glob("*.py") if p.name not in ("conftest.py", Path(__file__).name)]
    return [p.name for p in files if any(text in p.read_text() for text in texts)]


def test_property_tests_draw_the_same_examples_every_run():
    # conftest loads one profile; no @settings repeats or overrides its keys.
    assert (settings.default.derandomize, settings.default.database, settings.default.deadline) == (True, None, None)
    assert _other_tests_with("derandomize=", "database=", "deadline=") == []


def test_no_test_silences_every_floating_point_warning():
    assert _other_tests_with('errstate(all="ignore")', "errstate(all='ignore')") == []
