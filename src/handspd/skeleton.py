"""Hand-skeleton graph, the coordinate convolution layer, and the
per-finger partition of its output.

Joint numbering is 1-based: wrist = 1, palm = 2, then one chain of
consecutive indices per finger, base to tip (thumb {3..6}, index {7..10},
middle {11..14}, ring {15..18}, pinky {19..22} for the default hand).

The convolution at finger node i sums over its neighbors j with
|j - i| <= 1, using one 3-vector filter per (label, channel) where the
label is 1 for j == i, 2 for j == i + 1 and 3 for j == i - 1.  Output
features are produced for the finger joints only (nodes 3..n_joints).

The graph is its 0/1 label-incidence matrix A of shape
(3 * n_out_nodes, n_joints), built straight from these label rules for
out-node i = o + 3:
    row 3o      i itself;
    row 3o + 1  i + 1, when it is in the same finger chain;
    row 3o + 2  i - 1, when it is in the same finger chain, or the palm
                for node 3 (the thumb base);
a row with no such neighbor is zero.  The skeleton's other edges (wrist to
palm, palm to the later finger bases) have |j - i| > 1, so no label and no
part in the convolution.  The convolution is then two matrix products,
(A @ frame) reshaped to (n_out_nodes, 9) times the (9, d1) stacked
filters.  The coordinates are the network's input, never trained, so the
backward pass forms the filter gradient only: one gather and one product,
the gathered coordinates' transpose times the output gradient.

A reduced hand (fewer fingers / shorter chains, same topology) is supported
for desk-scale tests; ``NetworkConfig`` checks the sizes (at least one
finger of two joints).

Operand contract: the convolution, its backward pass and the partition take
the ``HandGraph`` (``NetworkConfig.graph()`` builds a config's), finite
coordinates (..., n_joints, 3), (3, d1, 3) filters and conv output, and
check none of them; ``network.forward`` checks its input once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

N_LABELS = 3


@dataclass(frozen=True)
class HandGraph:
    n_fingers: int = 5
    joints_per_finger: int = 4
    # Derived, filled in __post_init__.
    n_joints: int = field(init=False)
    # (3 * n_out_nodes, n_joints) 0/1: row 3*o + (label-1) selects out-node
    # o's neighbor of that label, or is zero when there is none.
    incidence: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = 2 + self.n_fingers * self.joints_per_finger
        o = np.arange(n - 2)                      # out-node o is joint o + 3, column o + 2
        place = o % self.joints_per_finger        # its place along its finger, base 0
        incidence = np.zeros((n - 2, N_LABELS, n))
        incidence[o, 0, o + 2] = 1.0
        succ = o[place < self.joints_per_finger - 1]
        incidence[succ, 1, succ + 3] = 1.0
        pred = o[(place > 0) | (o == 0)]
        incidence[pred, 2, pred + 1] = 1.0

        object.__setattr__(self, "n_joints", n)
        object.__setattr__(self, "incidence", incidence.reshape(N_LABELS * (n - 2), n))

    @property
    def n_out_nodes(self) -> int:
        return self.n_joints - 2


def _gather(frame: np.ndarray, graph: HandGraph) -> np.ndarray:
    """(..., n_out_nodes, 9): each out-node's label-1, 2, 3 neighbor coordinates."""
    return (graph.incidence @ frame).reshape(frame.shape[:-2] + (graph.n_out_nodes, 3 * N_LABELS))


def _stack_filters(weights: np.ndarray) -> np.ndarray:
    """(9, d1) with row 3*(label-1) + xyz, matching ``_gather``'s columns."""
    return weights.transpose(0, 2, 1).reshape(3 * N_LABELS, weights.shape[1])


def graph_conv(frame: np.ndarray, weights: np.ndarray, graph: HandGraph) -> np.ndarray:
    """Per-node features: sum over labeled neighbors of w_label^T p_j.

    frame: (..., n_joints, 3); weights: (3, d1, 3) indexed [label-1, channel].
    Returns (..., n_out_nodes, d1) covering nodes 3..n_joints.
    """
    return _gather(frame, graph) @ _stack_filters(weights)


def graph_conv_backward(frame: np.ndarray, grad_out: np.ndarray, graph: HandGraph) -> np.ndarray:
    """Filter gradients (3, d1, 3) of graph_conv for grad_out of its output
    shape: the gathered coordinates' transpose times grad_out."""
    d1 = grad_out.shape[-1]
    gathered = _gather(frame, graph).reshape(-1, 3 * N_LABELS)
    grad_stacked = gathered.T @ grad_out.reshape(-1, d1)          # (9, d1)
    return grad_stacked.reshape(N_LABELS, 3, d1).transpose(0, 2, 1)


def finger_partition(features: np.ndarray, graph: HandGraph) -> np.ndarray:
    """Split conv output (..., n_out_nodes, d1) into per-finger blocks.

    Returns (..., n_fingers, joints_per_finger, d1); fingers in joint-index
    order, which is exactly the chain order of the graph.
    """
    shape = features.shape[:-2] + (graph.n_fingers, graph.joints_per_finger, features.shape[-1])
    return features.reshape(shape)
