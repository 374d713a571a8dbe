import dataclasses
import re
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, strategies as st

from handspd import data, linalg, network, optim, skeleton
from handspd.data import GestureSequence
from handspd.errors import InvalidInput, NumericalError
from handspd.gradcheck import toy_config
from handspd.network import NetworkConfig

import oracles
from archives import edit_npz


class TestPyramidSplit:
    def test_single_level_is_whole_sequence(self):
        assert network.pyramid_split(10, 1) == [(1, 10)]

    def test_default_scale_frozen_values(self):
        assert network.pyramid_split(171, 3) == [
            (1, 171),
            (1, 85),
            (86, 171),
            (1, 57),
            (58, 114),
            (115, 171),
        ]

    def test_toy_scale(self):
        assert network.pyramid_split(4, 2) == [(1, 4), (1, 2), (3, 4)]

    @pytest.mark.parametrize("n_f,n_t", [(7, 3), (171, 3), (30, 4)])
    def test_each_level_tiles_the_sequence(self, n_f, n_t):
        ranges = network.pyramid_split(n_f, n_t)
        assert ranges == oracles.pyramid_ranges_reference(n_f, n_t)
        pos = 0
        for level in range(1, n_t + 1):
            covered = []
            for _ in range(level):
                tb, te = ranges[pos]
                covered.extend(range(tb, te + 1))
                pos += 1
            assert covered == list(range(1, n_f + 1))

    @given(st.integers(1, 5).flatmap(lambda n_t: st.tuples(st.integers(n_t, 400), st.just(n_t))))
    def test_segments_tile_the_sequence_and_compose_every_range(self, size):
        n_f, n_t = size
        ranges = network.pyramid_split(n_f, n_t)
        cuts, weights = network.pyramid_segments(n_f, n_t)
        assert cuts[0] == 0 and cuts[-1] == n_f and np.all(np.diff(cuts) > 0)
        assert weights.shape == (len(ranges), len(cuts) - 1)
        for (tb, te), row in zip(ranges, weights):
            inside = np.flatnonzero(row)
            covered = [t for s in inside for t in range(cuts[s] + 1, cuts[s + 1] + 1)]
            assert covered == list(range(tb, te + 1))
            assert np.all(row[inside] == 1.0 / (te - tb + 1))


class TestNetworkConfig:
    def test_toy_dimensions(self):
        cfg = toy_config()
        assert cfg.frame_spd_dim == 3
        assert cfg.half_dim == 6
        assert cfg.temp_dim == 7
        assert cfg.n_Q == 3
        assert cfg.n_L == 6
        assert cfg.d_spat == 4
        assert cfg.feature_dim == 10

    def test_validation(self):
        with pytest.raises(InvalidInput):
            NetworkConfig(eps=0.0)
        with pytest.raises(InvalidInput):
            NetworkConfig(n_classes=1)
        with pytest.raises(InvalidInput):
            NetworkConfig(n_F=2, n_T=3)
        # data.resample builds no one-frame sequence, so no config asks for one.
        with pytest.raises(InvalidInput, match=re.escape("sequence length must be in [2, 10000], got 1")):
            NetworkConfig(n_F=1, n_T=1)
        with pytest.raises(InvalidInput):
            NetworkConfig(d_spat=100)
        with pytest.raises(InvalidInput):
            NetworkConfig(n_fingers=0)
        with pytest.raises(InvalidInput):
            NetworkConfig(joints_per_finger=-1)

    @pytest.mark.parametrize("field, bound", [("n_F", data.MAX_FRAMES), ("n_classes", network.MAX_CLASSES)])
    def test_sizes_past_their_bound_rejected(self, field, bound):
        assert getattr(NetworkConfig(**{field: bound}), field) == bound
        with pytest.raises(InvalidInput, match=f"got {bound + 1}"):
            NetworkConfig(**{field: bound + 1})


class TestForward:
    def _toy_case(self, seed=0):
        cfg = toy_config()
        rng = np.random.default_rng(seed)
        params = optim.init_params(cfg, seed=seed)
        frames = rng.standard_normal((cfg.n_F, cfg.n_joints, 3))
        return cfg, params, frames

    def test_shapes_and_determinism(self):
        cfg, params, frames = self._toy_case()
        logits1, final1, tape = network.forward(frames, params, cfg)
        logits2, final2, _ = network.forward(frames.copy(), params, cfg)
        assert logits1.shape == (cfg.n_classes,)
        assert final1.shape == (cfg.d_spat, cfg.d_spat)
        assert tape.feature.shape == (cfg.feature_dim,)
        assert tape.z.shape == (cfg.n_fingers, cfg.n_F, cfg.half_dim)
        assert np.array_equal(logits1, logits2)
        assert np.array_equal(final1, final2)

    def test_frame_log_is_closer_to_high_precision_than_the_dense_oracle(self):
        # The error of log max(X2, eps) grows with the distance of the joints
        # from the origin, as the conditioning of X2 does; the Gram path
        # loses less of it than the dense oracle's two eigendecompositions.
        cfg = NetworkConfig()
        params = optim.init_params(cfg, seed=1)
        seq = data.synth_generate(1, 1, seed=1, length=cfg.n_F)[0]
        frames = [0, 85, 170]
        for offset in (0.0, 10.0, 1e3):
            fingers = skeleton.graph_conv(seq.frames + offset, params.conv, cfg.graph())[:, frames]
            batched, *_ = network._frame_log(fingers, cfg.eps)
            for i in np.ndindex(fingers.shape[:2]):
                want = oracles.frame_log_mpmath(fingers[i], cfg.eps)
                dense = oracles.logm(oracles.clamp_eig(oracles.gauss_agg_reference(fingers[i], unbiased=True), cfg.eps))
                assert np.abs(batched[i] - want).max() <= np.abs(dense - want).max(), (offset, i)

    def test_extract_feature_equals_tape_feature(self):
        cfg, params, frames = self._toy_case(1)
        _, _, tape = network.forward(frames, params, cfg)
        assert np.array_equal(network.extract_feature(frames, params, cfg), tape.feature)

    def test_accepts_sequence_objects_and_frame_arrays(self):
        cfg, params, frames = self._toy_case(2)
        seq = GestureSequence(frames, label_14=1)
        ref, _, _ = network.forward(frames, params, cfg)
        via_obj, _, _ = network.forward(seq, params, cfg)
        assert np.array_equal(ref, via_obj)
        assert np.array_equal(network.extract_feature(seq, params, cfg),
                              network.extract_feature(frames, params, cfg))

    def test_wrong_shape_rejected(self):
        cfg, params, frames = self._toy_case()
        with pytest.raises(InvalidInput):
            network.forward(frames[:-1], params, cfg)

    # The layers check nothing; forward checks its input once, at default
    # scale (the 22-joint hand).

    def test_input_validation(self):
        cfg = NetworkConfig()
        params = optim.init_params(cfg, seed=0)
        with pytest.raises(InvalidInput):
            network.forward(np.zeros((cfg.n_F, 21, 3)), params, cfg)
        with pytest.raises(InvalidInput):
            network.forward(np.full((cfg.n_F, 22, 3), np.nan), params, cfg)
        params.conv = np.zeros((2, cfg.d1, 3))
        with pytest.raises(InvalidInput):
            network.forward(np.zeros((cfg.n_F, 22, 3)), params, cfg)

    def test_spat_shape_validation(self):
        cfg = NetworkConfig()
        params = optim.init_params(cfg, seed=0)
        frames = np.zeros((cfg.n_F, cfg.n_joints, 3))
        for spat in (params.spat[:, :, :3], params.spat[:2]):
            bad = dataclasses.replace(params, spat=spat)
            with pytest.raises(InvalidInput, match="spat"):
                network.forward(frames, bad, cfg)

    def test_fc_shape_validation(self):
        cfg = NetworkConfig()
        params = optim.init_params(cfg, seed=0)
        frames = np.zeros((cfg.n_F, cfg.n_joints, 3))
        for name, shape in (("fc_weight", (cfg.n_classes, cfg.feature_dim - 1)),
                            ("fc_weight", (cfg.n_classes + 1, cfg.feature_dim)),
                            ("fc_bias", (cfg.n_classes + 1,))):
            bad = dataclasses.replace(params, **{name: np.zeros(shape)})
            with pytest.raises(InvalidInput, match=name):
                network.forward(frames, bad, cfg)

    def test_zero_spat_weights_raise_domain_error(self):
        cfg, params, frames = self._toy_case()
        params.spat = np.zeros_like(params.spat)
        with pytest.raises(NumericalError, match="spectral function undefined") as err:
            network.forward(frames, params, cfg)
        assert err.value.where["layer"] == "log_eig(final_spd)"
        assert list(err.value.where) == ["layer", "eigenvalue"]


class TestDegenerateInput:
    """Degenerate hands at default scale: finite features or a typed error
    naming the layer (test_oracle_layers.py compares others with the oracle)."""

    @pytest.mark.parametrize("scale", [1e3, 1e-3])
    def test_rescaled_coordinates_give_finite_features(self, scale):
        # eps and lambda_reg are absolute, so the features change with the
        # unit of the coordinates, but they stay finite.  Shrinking the
        # coordinates shrinks the frame Gram spectra, so more of them fall
        # under eps.
        cfg = NetworkConfig()
        params = optim.init_params(cfg, seed=3)
        frames = np.random.default_rng(3).standard_normal((cfg.n_F, cfg.n_joints, 3))
        _, _, tape = network.forward(scale * frames, params, cfg)
        assert np.all(np.isfinite(tape.feature))
        if scale < 1:
            _, _, unit = network.forward(frames, params, cfg)
            clamped = np.mean(tape.frame_eig.values <= cfg.eps)
            assert clamped > np.mean(unit.frame_eig.values <= cfg.eps)

    def test_overflowing_coordinates_give_a_typed_error(self):
        # Finite coordinates at 1e160 pass the input check, but the frame
        # Gram overflows: one typed error, and no overflow warning first.
        cfg = NetworkConfig()
        params = optim.init_params(cfg, seed=3)
        frames = np.random.default_rng(3).standard_normal((cfg.n_F, cfg.n_joints, 3))
        with pytest.raises(NumericalError) as err:
            network.forward(frames * 1e160, params, cfg)
        assert str(err.value) == "matrix is not finite [layer frame_log(gram), finger 1, frame 1]"
        # One finger's 4 joints in one frame: the error names that finger and frame.
        finger, frame = 3, 41
        first = 2 + (finger - 1) * cfg.joints_per_finger
        frames[frame - 1, first : first + cfg.joints_per_finger] *= 1e160
        with pytest.raises(NumericalError, match="matrix is not finite") as err:
            network.forward(frames, params, cfg)
        assert err.value.where == {"layer": "frame_log(gram)", "finger": finger, "frame": frame}

    def test_huge_coordinates_name_the_frame_log(self):
        # At 1e152 the frame Gram stays finite, but h(l) = log(l / eps) / l
        # overflows at its largest eigenvalues: the error names the frame
        # log, not the final LogEig that the NaN would otherwise reach.
        cfg = NetworkConfig()
        params = optim.init_params(cfg, seed=0)
        frames = np.random.default_rng(0).standard_normal((cfg.n_F, cfg.n_joints, 3))
        with pytest.raises(NumericalError, match="spectral function undefined") as err:
            network.forward(frames * 1e152, params, cfg)
        where = err.value.where
        assert where.pop("eigenvalue") > 1e300
        assert where == {"layer": "frame_log(gram)", "finger": 1, "frame": 1}
        # One finger's 4 joints in one frame: the error names that finger and frame.
        finger, frame = 3, 41
        first = 2 + (finger - 1) * cfg.joints_per_finger
        frames[frame - 1, first : first + cfg.joints_per_finger] *= 1e152
        with pytest.raises(NumericalError, match="spectral function undefined") as err:
            network.forward(frames, params, cfg)
        where = err.value.where
        assert where.pop("eigenvalue") > 1e300
        assert where == {"layer": "frame_log(gram)", "finger": finger, "frame": frame}


class TestBackward:
    def test_frame_log_backward_matches_dense_chain(self):
        # Default-scale frame matrices have rank <= 4 of 10: most of their
        # eigenvalues sit near zero, below eps, in near-tied groups.  On a
        # synthetic gesture some Gram eigenvalues also fall in (0, eps),
        # where the range-clamped cross terms of the kernel matter.  The
        # reference decomposes each 10x10 matrix densely and chains the
        # ReEig+LogEig kernel with the GaussAgg adjoint.
        cfg = NetworkConfig()
        graph = cfg.graph()
        rng = np.random.default_rng(5)
        frames = data.synth_generate(1, 1, seed=5, length=cfg.n_F)[0].frames
        params = optim.init_params(cfg, seed=5)
        _, _, tape = network.forward(frames, params, cfg, graph)
        gram_values = tape.frame_eig.values
        assert ((gram_values > 1e-12) & (gram_values < cfg.eps)).any()
        d = cfg.frame_spd_dim
        dy3 = linalg.symmetrize(rng.standard_normal((cfg.n_fingers, cfg.n_F, d, d)))
        got = network._frame_log_backward(
            dy3, tape.frame_factor, tape.frame_eig, tape.frame_h, cfg.eps
        )

        fingers = skeleton.graph_conv(frames, params.conv, graph)
        want = np.empty_like(got)
        for s in range(cfg.n_fingers):
            for t in range(cfg.n_F):
                x2 = oracles.gauss_agg_reference(fingers[s, t], unbiased=True)
                dx2 = oracles.reeig_log_backward_reference(x2, dy3[s, t], cfg.eps)
                want[s, t] = oracles.gauss_agg_backward_reference(fingers[s, t], dx2, unbiased=True)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_loss_decreases_along_negative_gradient(self):
        cfg = toy_config()
        rng = np.random.default_rng(1)
        params = optim.init_params(cfg, seed=1)
        batch = [GestureSequence(rng.standard_normal((cfg.n_F, cfg.n_joints, 3)), 2)]
        loss0, grads = network.loss_and_backward(batch, params, cfg)
        stepped = params.from_vector(params.to_vector() - 1e-3 * grads.to_vector())
        loss1, _ = network.loss_and_backward(batch, stepped, cfg)
        assert loss1 < loss0

    def test_label_validation(self):
        cfg = toy_config()
        rng = np.random.default_rng(2)
        params = optim.init_params(cfg, seed=0)
        frames = rng.standard_normal((cfg.n_F, cfg.n_joints, 3))
        with pytest.raises(InvalidInput):
            network.loss_and_backward([GestureSequence(frames, 0)], params, cfg)
        with pytest.raises(InvalidInput):
            network.loss_and_backward([GestureSequence(frames, cfg.n_classes + 1)], params, cfg)
        with pytest.raises(InvalidInput):
            network.loss_and_backward([], params, cfg)

    @pytest.mark.parametrize("toy", [True, False])
    def test_batch_gradients_are_the_in_order_sum_of_item_gradients(self, toy):
        cfg = toy_config() if toy else NetworkConfig()
        rng = np.random.default_rng(6)
        params = optim.init_params(cfg, seed=6)
        batch = [GestureSequence(rng.standard_normal((cfg.n_F, cfg.n_joints, 3)), k + 1) for k in range(3)]
        _, grads = network.loss_and_backward(batch, params, cfg)
        total = None
        for item in batch:
            logits, _, tape = network.forward(item, params, cfg)
            e = np.exp(logits - logits.max())
            dlogits = e / e.sum()
            dlogits[item.label(cfg.n_classes) - 1] -= 1.0
            dlogits /= len(batch)
            item_grads = network.backward(dlogits, tape, params, cfg).to_vector()
            _, step_grads, _ = network.sequence_step(item, params, cfg, cfg.graph(), len(batch))
            assert np.array_equal(step_grads.to_vector(), item_grads)
            total = item_grads if total is None else total + item_grads
        assert np.array_equal(grads.to_vector(), total)

    def test_one_sequence_step_peaks_below_its_working_set_bound(self):
        # tracemalloc counts numpy's array buffers.  The forward pass drops
        # each intermediate once the next layer has read it, and the backward
        # pass each tape field and cotangent once consumed: one step peaks at
        # 3.96 MB, and at 5.50 MB if they all live to the end of the step.
        cfg = NetworkConfig()
        graph = cfg.graph()
        params = optim.init_params(cfg, seed=1)
        item = data.synth_generate(1, 1, seed=1, length=cfg.n_F)[0]
        network.sequence_step(item, params, cfg, graph, 30)  # fills the per-config caches
        tracemalloc.start()
        try:
            network.sequence_step(item, params, cfg, graph, 30)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4.5e6

    @pytest.mark.parametrize("toy", [True, False])
    def test_sequence_steps_on_two_threads_match_the_serial_run(self, toy):
        # One step shares params, the config, the graph and the cached maps
        # with every other step and writes none of them, so a thread pool
        # over sequences gives bitwise the serial losses, gradients and logits.
        cfg = toy_config() if toy else NetworkConfig()
        graph = cfg.graph()
        params = optim.init_params(cfg, seed=8)
        rng = np.random.default_rng(8)
        items = [GestureSequence(rng.standard_normal((cfg.n_F, cfg.n_joints, 3)), k % cfg.n_classes + 1)
                 for k in range(6)]

        def step(item):
            term, grads, logits = network.sequence_step(item, params, cfg, graph, len(items))
            return term, grads.to_vector(), logits

        serial = [step(item) for item in items]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # the threads trade the interpreter lock often
        try:
            with ThreadPoolExecutor(2) as pool:
                for _ in range(3):
                    for got, want in zip(pool.map(step, items, timeout=60), serial):
                        assert all(np.array_equal(g, w) for g, w in zip(got, want))
        finally:
            sys.setswitchinterval(switch)

    def test_with_logits_option(self):
        cfg = toy_config()
        rng = np.random.default_rng(3)
        params = optim.init_params(cfg, seed=0)
        batch = [GestureSequence(rng.standard_normal((cfg.n_F, cfg.n_joints, 3)), 1) for _ in range(3)]
        loss, grads, logits = network.loss_and_backward(batch, params, cfg, with_logits=True)
        assert logits.shape == (3, cfg.n_classes)
        loss2, grads2 = network.loss_and_backward(batch, params, cfg)
        assert loss == loss2
        assert np.array_equal(grads.to_vector(), grads2.to_vector())


class TestSoftmax:
    """The softmax cross-entropy of ``sequence_step`` at chosen logits: with
    fc_weight 0 the logits are fc_bias exactly, and at batch_size 1 the
    fc_bias gradient is the softmax minus the label's one-hot vector."""

    @staticmethod
    def _step(logits, label):
        """(loss, softmax) of one toy sequence whose logits are ``logits``."""
        cfg = dataclasses.replace(toy_config(), n_classes=len(logits))
        params = optim.init_params(cfg, seed=0)
        params.fc_weight[:] = 0.0
        params.fc_bias = np.array(logits, dtype=float)
        frames = np.random.default_rng(0).standard_normal((cfg.n_F, cfg.n_joints, 3))
        loss, grads, got = network.sequence_step(GestureSequence(frames, label), params, cfg, cfg.graph(), 1)
        assert np.array_equal(got, params.fc_bias)
        p = grads.fc_bias.copy()
        p[label - 1] += 1.0
        return loss, p

    def test_sums_to_one_and_shift_invariant(self):
        logits = np.random.default_rng(0).standard_normal(7)
        loss, p = self._step(logits, 3)
        assert abs(p.sum() - 1.0) < 1e-12
        assert np.all(p > 0)
        shifted_loss, shifted_p = self._step(logits + 100.0, 3)
        assert abs(shifted_loss - loss) < 1e-12
        assert np.abs(shifted_p - p).max() < 1e-12

    def test_extreme_values_stable(self):
        loss, p = self._step([1e4, 0.0, -1e4], 2)
        assert np.isfinite(loss) and np.all(np.isfinite(p))
        assert abs(p.sum() - 1.0) < 1e-12

    def test_known_values(self):
        loss, p = self._step([np.log(1.0), np.log(3.0)], 1)
        assert abs(loss - np.log(4.0)) < 1e-12
        assert np.allclose(p, [0.25, 0.75], atol=1e-12)


class TestParamsContainer:
    def test_vector_round_trip(self):
        params = optim.init_params(toy_config(), seed=4)
        back = params.from_vector(params.to_vector())
        for name in toy_config().param_shapes():
            assert np.array_equal(getattr(params, name), getattr(back, name))

    def test_fields_are_the_param_shapes_in_order(self):
        fields = [field.name for field in dataclasses.fields(network.NetworkParams)]
        assert fields == list(toy_config().param_shapes()) == list(NetworkConfig().param_shapes())

    @pytest.mark.parametrize("name", list(toy_config().param_shapes()))
    def test_add_sums_one_group_in_place(self, name):
        params = optim.init_params(toy_config(), seed=0)
        before, group = params.to_vector(), getattr(params, name)
        other = params.from_vector(np.zeros(before.size))
        getattr(other, name)[...] = np.random.default_rng(1).standard_normal(group.shape)
        assert params.add_(other) is params and getattr(params, name) is group
        assert np.array_equal(params.to_vector(), before + other.to_vector())
        assert np.array_equal(params.to_vector() != before, other.to_vector() != 0)

    def test_from_vector_length_check(self):
        params = optim.init_params(toy_config(), seed=0)
        with pytest.raises(InvalidInput):
            params.from_vector(np.zeros(params.to_vector().size + 1))

    def test_validate_stiefel(self):
        params = optim.init_params(toy_config(), seed=0)
        params.validate_stiefel()
        params.spat[0] *= 2.0
        with pytest.raises(InvalidInput):
            params.validate_stiefel()

    def test_validate_stiefel_rejects_nan(self):
        params = optim.init_params(toy_config(), seed=0)
        params.spat[2, 1, 1] = np.nan
        with pytest.raises(InvalidInput, match="spat weight") as err:
            params.validate_stiefel()
        assert err.value.where == {"matrix": 3}


class TestCheckpoint:
    def test_spat_weights_off_the_stiefel_manifold_rejected(self, tmp_path):
        # Features of a weight whose rows are not orthonormal come from no
        # network that training can reach.
        cfg = toy_config()
        params = optim.init_params(cfg, seed=0)
        params.spat[2] *= 3
        path = tmp_path / "net.npz"
        network.save_checkpoint(path, params, cfg)
        with pytest.raises(InvalidInput, match=re.escape("not row-orthonormal (err 8.00e+00)")) as err:
            network.load_checkpoint(path)
        assert err.value.where == {"path": str(path), "array": "spat", "finger": 1, "range": (3, 4), "matrix": 3}

    def test_every_prefix_rejected(self, tmp_path):
        # A file cut inside the header is as truncated as one cut in the weights.
        cfg = toy_config()
        params = optim.init_params(cfg, seed=0)
        path = tmp_path / "net.bin"
        network.save_checkpoint(path, params, cfg)
        blob = path.read_bytes()
        cut = tmp_path / "cut.bin"
        for n in range(4, len(blob)):
            cut.write_bytes(blob[:n])
            with pytest.raises(InvalidInput):
                network.load_checkpoint(cut)

    @pytest.mark.parametrize("change, message, where", [
        ({"d1": np.array(0)}, "d1 must be >= 1, got 0", {}),
        ({"n_fingers": np.array(-5)}, "n_fingers must be >= 1, got -5", {}),
        ({"n_F": np.array(1), "n_T": np.array(1)}, re.escape("must be in [2, 10000], got 1"), {}),
        ({"joints_per_finger": np.array(1)}, "joints_per_finger must be >= 2, got 1", {}),
        ({"d_spat": np.array(0)}, re.escape("d_spat must be in [1, 7], got 0"), {}),
        ({"spat": np.zeros((5, 4, 7))}, re.escape("shape (5, 4, 7), expected (6, 4, 7)"), {"array": "spat"}),
    ], ids=["zero-d1", "negative-n_fingers", "one-frame", "one-joint-fingers", "zero-d_spat", "spat-of-another-shape"])
    def test_header_the_file_cannot_back_rejected(self, change, message, where, tmp_path):
        # A config field NetworkConfig rejects, and a parameter array of
        # another shape than the config's, are errors that name the file.
        cfg = toy_config()
        path = tmp_path / "net.npz"
        network.save_checkpoint(path, optim.init_params(cfg, seed=0), cfg)
        edit_npz(path, **change)
        with pytest.raises(InvalidInput, match=message) as err:
            network.load_checkpoint(path)
        assert err.value.where == {"path": str(path), **where}
