import numpy as np
import pytest

from handspd import skeleton
from handspd.errors import InvalidInput
from handspd.network import NetworkConfig
from handspd.skeleton import HandGraph

import oracles

HAND = HandGraph()  # the default 22-joint hand


class TestHandGraphTopology:
    def test_default_counts(self):
        assert HAND.n_joints == 22
        assert HAND.n_joints - 2 == 20
        assert HAND.incidence.shape == (60, 22)
        assert HandGraph(5, 4) == HAND and hash(HandGraph(5, 4)) == hash(HAND)

    @pytest.mark.parametrize("fingers,jpf", [(5, 4), (2, 3), (1, 2), (6, 6)])
    def test_incidence_matches_oracle(self, fingers, jpf):
        # Out-node i's row for label L picks its neighbor j of that label in
        # the oracle's skeleton; the edges with |j - i| > 1 (wrist to palm,
        # palm to the later finger bases) have no label and no row.
        n = 2 + fingers * jpf
        expected = np.zeros((3 * (n - 2), n))
        for i, labelled in oracles.conv_labels(fingers, jpf).items():
            for j, label in labelled:
                expected[3 * (i - 3) + label - 1, j - 1] = 1.0
        graph = HandGraph(fingers, jpf)
        assert graph.n_joints == n
        assert np.array_equal(graph.incidence, expected)

    def test_neighbor_labels(self):
        def labeled(i):
            # Out-node i's three incidence rows as sorted 1-based (joint, label) pairs.
            rows = HAND.incidence[3 * (i - 3) : 3 * (i - 2)]
            assert set(np.unique(rows)) <= {0.0, 1.0} and np.all(rows.sum(axis=1) <= 1)
            return sorted((int(j) + 1, int(label) + 1) for label, j in zip(*np.nonzero(rows)))

        # Finger base 3: itself (label 1), successor 4 (label 2), palm 2 (label 3).
        assert labeled(3) == [(2, 3), (3, 1), (4, 2)]
        # Fingertip 6: itself and predecessor only.
        assert labeled(6) == [(5, 3), (6, 1)]
        # Base of the second finger (7): palm is a graph neighbor but |2-7| > 1,
        # so only itself and its successor contribute.
        assert labeled(7) == [(7, 1), (8, 2)]
        # Mid-chain joint: predecessor, self, successor.
        assert labeled(12) == [(11, 3), (12, 1), (13, 2)]

    def test_invalid_sizes_rejected(self):
        # NetworkConfig checks the sizes that HandGraph is built from.
        with pytest.raises(InvalidInput, match="n_fingers must be positive"):
            NetworkConfig(n_fingers=0, joints_per_finger=4)
        with pytest.raises(InvalidInput, match="joints_per_finger must be at least 2"):
            NetworkConfig(n_fingers=3, joints_per_finger=1)


class TestGraphConv:
    @pytest.mark.parametrize("fingers,jpf", [(5, 4), (2, 3), (1, 2)])
    def test_matches_literal_oracle(self, fingers, jpf):
        graph = HandGraph(fingers, jpf)
        rng = np.random.default_rng(fingers * 10 + jpf)
        frame = rng.standard_normal((graph.n_joints, 3))
        weights = rng.standard_normal((3, 4, 3))
        out = skeleton.graph_conv(frame, weights, graph)
        expected = oracles.graph_conv_reference(frame, weights, fingers, jpf)
        assert np.abs(out.reshape(graph.n_joints - 2, 4) - expected).max() < 1e-12

    def test_output_shape(self):
        rng = np.random.default_rng(0)
        out = skeleton.graph_conv(rng.standard_normal((22, 3)), rng.standard_normal((3, 9, 3)), HAND)
        assert out.shape == (5, 4, 9)

    def test_finger_major_chain_order(self):
        # A filter that reads the node's own x, on frames whose x is the
        # 1-based joint id plus 100 per frame: entry [s, t, j] is out-node
        # 3 + s * J + j of frame t, fingers first and each chain base to tip.
        frames = np.zeros((7, HAND.n_joints, 3))
        frames[..., 0] = np.arange(1, HAND.n_joints + 1) + 100.0 * np.arange(7)[:, None]
        own_x = np.zeros((3, 1, 3))
        own_x[0, 0, 0] = 1.0
        out = skeleton.graph_conv(frames, own_x, HAND)
        assert out.shape == (5, 7, 4, 1)
        s, t, j = np.meshgrid(np.arange(5), np.arange(7), np.arange(4), indexing="ij")
        assert np.array_equal(out[..., 0], 3 + 4 * s + j + 100.0 * t)

    def test_batched_equals_per_frame(self):
        rng = np.random.default_rng(1)
        frames = rng.standard_normal((6, 22, 3))
        weights = rng.standard_normal((3, 5, 3))
        batched = skeleton.graph_conv(frames, weights, HAND)
        for t in range(6):
            assert np.array_equal(batched[:, t], skeleton.graph_conv(frames[t], weights, HAND))

    def test_linearity_in_coordinates(self):
        rng = np.random.default_rng(2)
        f1 = rng.standard_normal((22, 3))
        f2 = rng.standard_normal((22, 3))
        w = rng.standard_normal((3, 4, 3))
        combined = skeleton.graph_conv(2.0 * f1 + 3.0 * f2, w, HAND)
        separate = 2.0 * skeleton.graph_conv(f1, w, HAND) + 3.0 * skeleton.graph_conv(f2, w, HAND)
        assert np.abs(combined - separate).max() < 1e-10

    def test_backward_batched(self):
        graph = HandGraph(2, 2)
        rng = np.random.default_rng(4)
        frames = rng.standard_normal((3, graph.n_joints, 3))
        cot = rng.standard_normal((graph.n_fingers, 3, graph.joints_per_finger, 2))
        gw = skeleton.graph_conv_backward(frames, cot, graph)
        gw_sum = np.zeros_like(gw)
        for t in range(3):
            gw_sum += skeleton.graph_conv_backward(frames[t], cot[:, t], graph)
        assert np.abs(gw - gw_sum).max() < 1e-12

    def test_backward_is_the_adjoint_at_full_size(self):
        # The conv is linear in the filters, so <G, conv(F, W)> equals <dW, W>
        # for the filter gradient dW of that inner product.
        rng = np.random.default_rng(5)
        frames = rng.standard_normal((171, HAND.n_joints, 3))
        weights = rng.standard_normal((3, 9, 3))
        cot = rng.standard_normal((HAND.n_fingers, 171, HAND.joints_per_finger, 9))
        gw = skeleton.graph_conv_backward(frames, cot, HAND)
        inner = np.sum(cot * skeleton.graph_conv(frames, weights, HAND))
        assert abs(np.sum(gw * weights) - inner) <= 1e-12 * abs(inner)
