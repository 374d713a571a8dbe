"""Full network assembly and its backward pass.

Pipeline per sequence (one branch per finger):

    coordinates -> graph_conv -> per-finger per-frame GaussAgg (unbiased)
    -> ReEig+LogEig each frame -> HalfVec -> per pyramid range: GaussAgg
    (biased + ridge) -> SPDSpatAgg over all branches/ranges -> LogEig
    -> HalfVec -> affine FC -> logits (the softmax cross-entropy and the
    gradients of one sequence are ``sequence_step``).

Every layer has one implementation, batched over frames and fingers, and it
is the one the gradient checks test.  The per-frame GaussAgg, ReEig and
LogEig are one map (``_frame_log`` and its adjoint): a frame matrix of J
joint vectors V is X2 = B B^T with B = [[V^T H / sqrt(J-1), mu], [0, 1]] of
shape (d1+1) x J, H the J x (J-1) Helmert basis of zero-sum vectors, so the
nonzero spectrum of X2 is that of the J x J Gram matrix B^T B = U diag(l) U^T.
The forward pass decomposes it, never X2, and keeps P = B U and h(l); the
backward pass is one chain-rule pass in that eigenbasis.  The temporal pyramid
(``_batched_gauss`` and its adjoint, given n_T) cuts the frames at every
boundary of its ``pyramid_split`` ranges into disjoint segments, takes each
segment's raw moment of [z, 1] once and sums the moments of each range.
``tests/oracles.py`` holds a straight-line per-equation reference, dense
eigendecompositions included, that the batched path is checked against.
``forward`` checks its input once (frame shape, finite coordinates, every
parameter shape); the layers below it assume that check passed and
validate nothing.

Checkpoint (``save_checkpoint``): an npz archive (``data.write_npz``) of
the ``NetworkConfig`` fields as 0-d arrays (d1, n_T, n_F, n_classes, d_spat,
n_fingers and joints_per_finger integer; eps and lambda_reg float) and the
four float ``NetworkParams`` arrays in ``param_shapes()``:
    conv       (3, d1, 3)                    [label, channel, xyz]
    spat       (n_L, d_spat, temp_dim)       branch-major: finger 1..n_fingers,
                                             ranges level-major; rows
                                             orthonormal (``validate_stiefel``)
    fc_weight  (n_classes, feature_dim)
    fc_bias    (n_classes,)
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import data, linalg, skeleton, spd_ops
from .errors import InvalidInput
from .linalg import EigenPair
from .skeleton import HandGraph


# Bounds that keep a config's arrays in memory: a sequence resampled to at
# most MAX_FRAMES frames, at most MAX_CLASSES classes to score, and at most
# MAX_PARAMS learnable weights (32 MB a copy; the default config has 116,519).
MAX_FRAMES = 10_000
MAX_CLASSES = 1_000
MAX_PARAMS = 4_000_000


@dataclass(frozen=True)
class NetworkConfig:
    d1: int = 9
    n_T: int = 3
    n_F: int = 171
    eps: float = 1e-4
    lambda_reg: float = 1e-4
    n_classes: int = 14
    n_fingers: int = 5
    joints_per_finger: int = 4
    d_spat: int | None = None

    def __post_init__(self):
        if min(self.d1, self.n_T, self.n_F, self.n_classes, self.n_fingers) < 1:
            raise InvalidInput("d1, n_T, n_F, n_classes and n_fingers must be positive")
        if self.joints_per_finger < 2:
            raise InvalidInput("joints_per_finger must be at least 2")
        if not 2 <= self.n_classes <= MAX_CLASSES:
            raise InvalidInput(f"need 2 to {MAX_CLASSES} classes, got {self.n_classes}")
        if not 0 < self.eps < np.inf:  # NaN fails too
            raise InvalidInput(f"eps must be positive and finite, got {self.eps}")
        if not 0 <= self.lambda_reg < np.inf:
            raise InvalidInput(f"lambda_reg must be nonnegative and finite, got {self.lambda_reg}")
        if self.d_spat is None:
            object.__setattr__(self, "d_spat", self.temp_dim)
        if not 1 <= self.d_spat <= self.temp_dim:
            raise InvalidInput(f"d_spat must be in [1, {self.temp_dim}]")
        if not self.n_T <= self.n_F <= MAX_FRAMES:
            raise InvalidInput(f"sequence length must be in [n_T, {MAX_FRAMES}], got {self.n_F}")
        if (n := sum(math.prod(shape) for shape in self.param_shapes().values())) > MAX_PARAMS:
            raise InvalidInput(f"the network has {n} parameters, more than MAX_PARAMS {MAX_PARAMS}")

    @property
    def frame_spd_dim(self) -> int:
        return self.d1 + 1

    @property
    def half_dim(self) -> int:
        return spd_ops.half_vec_dim(self.frame_spd_dim)

    @property
    def temp_dim(self) -> int:
        return self.half_dim + 1

    @property
    def n_Q(self) -> int:
        return self.n_T * (self.n_T + 1) // 2

    @property
    def n_L(self) -> int:
        return self.n_fingers * self.n_Q

    @property
    def feature_dim(self) -> int:
        return spd_ops.half_vec_dim(self.d_spat)

    @property
    def n_joints(self) -> int:
        return 2 + self.n_fingers * self.joints_per_finger

    def graph(self) -> HandGraph:
        return HandGraph(self.n_fingers, self.joints_per_finger)

    def param_shapes(self) -> dict[str, tuple[int, ...]]:
        """Shape of each ``NetworkParams`` array, in field (and checkpoint) order."""
        return {
            "conv": (3, self.d1, 3),
            "spat": (self.n_L, self.d_spat, self.temp_dim),
            "fc_weight": (self.n_classes, self.feature_dim),
            "fc_bias": (self.n_classes,),
        }


@dataclass
class NetworkParams:
    """All learnable weights; also reused as the container for gradients."""

    conv: np.ndarray       # (3, d1, 3)
    spat: np.ndarray       # (n_L, d_spat, temp_dim), orthonormal rows each
    fc_weight: np.ndarray  # (n_classes, feature_dim)
    fc_bias: np.ndarray    # (n_classes,)

    def add_(self, other: "NetworkParams") -> "NetworkParams":
        self.conv += other.conv
        self.spat += other.spat
        self.fc_weight += other.fc_weight
        self.fc_bias += other.fc_bias
        return self

    def to_vector(self) -> np.ndarray:
        return np.concatenate(
            [self.conv.ravel(), self.spat.ravel(), self.fc_weight.ravel(), self.fc_bias.ravel()]
        )

    def from_vector(self, vec: np.ndarray) -> "NetworkParams":
        """New params with this object's shapes filled from a flat vector."""
        out = []
        offset = 0
        for arr in (self.conv, self.spat, self.fc_weight, self.fc_bias):
            out.append(vec[offset : offset + arr.size].reshape(arr.shape).copy())
            offset += arr.size
        if offset != vec.size:
            raise InvalidInput(f"vector length {vec.size}, expected {offset}")
        return NetworkParams(*out)

    def validate_stiefel(self):
        w = self.spat
        err = np.abs(w @ np.swapaxes(w, -1, -2) - np.eye(w.shape[-2])).max(axis=(-2, -1))
        bad = np.flatnonzero(~(err < 1e-8))  # NaN drift fails too
        if bad.size:
            i = int(bad[0])
            raise InvalidInput(f"spat weight is not row-orthonormal (err {err[i]:.2e})", matrix=i + 1)


@dataclass
class LayerTape:
    """Forward intermediates consumed by the backward pass."""

    frames: np.ndarray            # (n_F, n_joints, 3)
    frame_factor: np.ndarray      # (S, n_F, d1+1, J) P = B U, X2 = P P^T
    frame_eig: EigenPair          # (U, l) of the Gram matrices B^T B, batched
    frame_h: np.ndarray           # (S, n_F, J) h(l), gram_log_fn
    z: np.ndarray                 # (S, n_F, half_dim)
    temp_outputs: np.ndarray      # (n_L, D, D) SPDTempAgg outputs X4
    final_eig: EigenPair          # of the SPDSpatAgg output
    feature: np.ndarray           # (feature_dim,) FC input


def pyramid_split(n_F: int, n_T: int) -> list[tuple[int, int]]:
    """Level-major even subdivision: level i contributes i ranges tiling [1, n_F]
    (n_F >= n_T >= 1, which ``NetworkConfig`` checks)."""
    ranges = []
    for level in range(1, n_T + 1):
        for j in range(1, level + 1):
            ranges.append(((j - 1) * n_F // level + 1, j * n_F // level))
    return ranges


def pyramid_segments(n_F: int, n_T: int) -> tuple[np.ndarray, np.ndarray]:
    """Cut [1, n_F] at every boundary of the ``pyramid_split`` ranges into
    disjoint segments.

    Returns the 0-based cuts (segment s is frames cuts[s]+1 .. cuts[s+1],
    1-based) and the (n_Q, n_seg) weights: 1/n_q where segment s lies in
    range q of n_q frames, else 0.  Every range is a union of segments.
    """
    ranges = pyramid_split(n_F, n_T)
    cuts = np.array(sorted({0, n_F} | {tb - 1 for tb, _ in ranges} | {te for _, te in ranges}))
    tb = np.array([r[0] for r in ranges])[:, None] - 1
    te = np.array([r[1] for r in ranges])[:, None]
    inside = (cuts[:-1] >= tb) & (cuts[1:] <= te)
    return cuts, inside / (te - tb)


def _with_ones(z: np.ndarray) -> np.ndarray:
    """[z, 1]: the vectors (..., n, d) with a trailing coordinate 1."""
    return np.concatenate([z, np.ones(z.shape[:-1] + (1,))], axis=-1)


def _batched_gauss(z: np.ndarray, n_T: int, lambda_reg: float) -> np.ndarray:
    """Biased Gaussian embedding of every range of the n_T-level pyramid over
    the frames (..., n_F, d).

    Returns (..., n_Q, d+1, d+1) with range q's
    [[Sigma + lambda_reg*I + mu mu^T, mu], [mu^T, 1]] = M_q / n_q + ridge,
    M_q = [z, 1]^T [z, 1] over its frames, the sum of its segments' moments
    (``pyramid_segments``): each frame enters one segment moment.
    """
    cuts, weights = pyramid_segments(z.shape[-2], n_T)
    zt = _with_ones(z)
    dim = zt.shape[-1]
    moments = np.empty(z.shape[:-2] + (len(cuts) - 1, dim, dim))
    for s, (a, b) in enumerate(zip(cuts[:-1], cuts[1:])):
        np.matmul(np.swapaxes(zt[..., a:b, :], -1, -2), zt[..., a:b, :], out=moments[..., s, :, :])
    out = (weights @ moments.reshape(moments.shape[:-2] + (dim * dim,))).reshape(
        moments.shape[:-3] + (len(weights), dim, dim)
    )
    idx = np.arange(dim - 1)
    out[..., idx, idx] += lambda_reg
    return out


def _frame_basis(n: int) -> np.ndarray:
    """C = [H / sqrt(n-1), 1/n], H the n x (n-1) Helmert basis (H H^T = I - 11^T / n
    is the centring map): V^T C is the top of the frame factor B of vectors V."""
    rows = np.arange(n)[:, None]
    cols = np.arange(1, n)[None, :]
    helmert = np.where(rows < cols, 1.0, np.where(rows == cols, -cols, 0.0)) / np.sqrt(cols * (cols + 1))
    return np.concatenate([helmert / np.sqrt(n - 1), np.full((n, 1), 1.0 / n)], axis=1)


def _frame_log(vectors: np.ndarray, eps: float):
    """log max(X2, eps) of the unbiased Gaussian embedding X2 of each set of
    n d-vectors V in (..., n, d), through the n x n Gram matrix.

    X2 = [[Sigma + mu mu^T, mu], [mu^T, 1]] = B B^T with
    B = [[V^T C], [0, 1]] of shape (d+1) x n, C = [H / sqrt(n-1), 1/n] from
    ``_frame_basis`` (V^T H H^T V is the centred scatter, V^T 1/n = mu).
    With B^T B = U diag(l) U^T and P = B U, the factor in the Gram
    eigenbasis (X2 = P P^T, P^T P = diag(l)),
    log max(X2, eps) = log(eps) I + P diag(h(l)) P^T, h from
    ``linalg.gram_log_fn``.  Returns (that log, P, eig(B^T B), h(l)); an
    overflowed Gram matrix or an overflowing h is located on V's leading
    (finger, frame) axes.
    """
    n, d = vectors.shape[-2:]
    factor = np.zeros(vectors.shape[:-2] + (d + 1, n))
    factor[..., :d, :] = np.swapaxes(vectors, -1, -2) @ _frame_basis(n)
    factor[..., d, n - 1] = 1.0
    layer, axes = "frame_log(gram)", ("finger", "frame")
    with np.errstate(over="ignore"):  # an overflow is sym_eig_batch's typed error
        gram = np.swapaxes(factor, -1, -2) @ factor
    gram_eig = linalg.sym_eig_batch(gram, layer=layer, axes=axes)
    p = factor @ gram_eig.vectors
    h = linalg._apply_fn(linalg.gram_log_fn(eps), gram_eig.values, layer, axes)
    y = (p * h[..., None, :]) @ np.swapaxes(p, -1, -2)
    idx = np.arange(d + 1)
    y[..., idx, idx] += np.log(eps)
    return y, p, gram_eig, h


def _frame_log_backward(grad_out: np.ndarray, p: np.ndarray, gram_eig: EigenPair, h: np.ndarray, eps: float):
    """Adjoint of ``_frame_log``: gradients w.r.t. its input vectors (..., n, d).

    With G = grad_out (symmetric) and K the ``linalg.loewner_matrix`` kernel
    of h, dB = 2 [(G P) * h + P (K * P^T G P)] U^T: the Daleckii-Krein chain
    rule in the Gram eigenbasis, every eigenvalue entering, those at or below
    eps included.  Only dB's top d rows, those of V^T C, are formed: dV^T = dB_top C^T.
    """
    gp = grad_out @ p
    k = linalg.loewner_matrix(gram_eig.values, linalg.gram_log_fn(eps))
    top = gp[..., :-1, :] * h[..., None, :] + p[..., :-1, :] @ (k * (np.swapaxes(p, -1, -2) @ gp))
    to_vectors = np.swapaxes(gram_eig.vectors, -1, -2) @ _frame_basis(p.shape[-1]).T
    return np.swapaxes(2.0 * top @ to_vectors, -1, -2)


def _check_input(frames: np.ndarray, params: NetworkParams, cfg: NetworkConfig):
    """The network's one input check; the layers below assume it passed."""
    if frames.shape != (cfg.n_F, cfg.n_joints, 3):
        raise InvalidInput(
            f"sequence shape {frames.shape}, expected {(cfg.n_F, cfg.n_joints, 3)}"
        )
    if not np.isfinite(frames).all():
        raise InvalidInput("joint coordinates contain non-finite values")
    for name, shape in cfg.param_shapes().items():
        got = np.shape(getattr(params, name))
        if got != shape:
            raise InvalidInput(f"params.{name} has shape {got}, expected {shape}")


def forward(seq, params: NetworkParams, cfg: NetworkConfig, graph: HandGraph | None = None):
    """Run the full pipeline on one sequence, a ``data.GestureSequence`` or
    a bare (n_F, n_joints, 3) frame array; returns (logits, final_spd, tape).

    Raises ``InvalidInput`` for a frame stack not of shape
    (n_F, n_joints, 3), non-finite coordinates, or a parameter array whose
    shape does not match ``cfg.param_shapes()``.  A numerical failure
    carries its ``layer`` field: ``EigenDecompositionError`` when a matrix
    to eigendecompose is not finite (finite coordinates so large that the
    frame Gram overflows, near 1e155) or the eigensolver fails, and
    ``SpectralDomainError``, with the ``eigenvalue`` field, where a spectral
    function is undefined or overflows.  Its layer is ``frame_log(gram)``,
    with the 1-based ``finger`` and ``frame`` fields (coordinates near
    1e152), or ``log_eig(final_spd)`` (a non-positive aggregated eigenvalue).
    """
    graph = graph or cfg.graph()
    frames = np.asarray(getattr(seq, "frames", seq), dtype=np.float64)
    _check_input(frames, params, cfg)

    fingers = skeleton.graph_conv(frames, params.conv, graph)      # (S, n_F, J, d1)
    y3, frame_factor, frame_eig, frame_h = _frame_log(fingers, cfg.eps)
    del fingers
    z = spd_ops.half_vec(y3)                                       # (S, n_F, hv)
    del y3

    temp = _batched_gauss(z, cfg.n_T, cfg.lambda_reg)              # (S, n_Q, D, D)
    temp_flat = temp.reshape(cfg.n_L, cfg.temp_dim, cfg.temp_dim)

    final_spd = spd_ops.spd_spat_agg(temp_flat, params.spat)
    final_eig = linalg.sym_eig_batch(final_spd, layer="log_eig(final_spd)")
    y = linalg.spectral_apply_cached(final_eig, linalg.LOG, "log_eig(final_spd)")
    feature = spd_ops.half_vec(y)                                  # (feature_dim,)
    logits = params.fc_weight @ feature + params.fc_bias

    tape = LayerTape(
        frames=frames,
        frame_factor=frame_factor,
        frame_eig=frame_eig,
        frame_h=frame_h,
        z=z,
        temp_outputs=temp_flat,
        final_eig=final_eig,
        feature=feature,
    )
    return logits, final_spd, tape


def extract_feature(seq, params: NetworkParams, cfg: NetworkConfig, graph: HandGraph | None = None) -> np.ndarray:
    """Half-vectorized matrix logarithm of the final SPD output (the SVM input)."""
    _, _, tape = forward(seq, params, cfg, graph)
    return tape.feature


def extract_features(sequences, params: NetworkParams, cfg: NetworkConfig) -> np.ndarray:
    """The (len(sequences), feature_dim) stack of each sequence's ``extract_feature``."""
    graph = cfg.graph()
    return np.stack([extract_feature(s, params, cfg, graph) for s in sequences])


def _gauss_backward_batched(z: np.ndarray, n_T: int, grad_out: np.ndarray) -> np.ndarray:
    """Adjoint of ``_batched_gauss``: gradients w.r.t. the frames (..., n_F, d)
    given grad_out (..., n_Q, d+1, d+1).

    Segment s's moment enters range q with weight w_qs, so its frames
    [z, 1]_s get 2 [z, 1]_s A_s with A_s = sum_q w_qs sym(grad_out_q); the
    trailing coordinate's column is dropped.  The symmetrization keeps this
    the exact adjoint of M = [z, 1]^T [z, 1] for any grad_out, symmetric or not.
    """
    cuts, weights = pyramid_segments(z.shape[-2], n_T)
    zt = _with_ones(z)
    dim = zt.shape[-1]
    a = linalg.symmetrize(
        (2.0 * weights.T @ grad_out.reshape(grad_out.shape[:-2] + (dim * dim,))).reshape(
            grad_out.shape[:-3] + (len(cuts) - 1, dim, dim)
        )
    )
    dz = np.empty_like(z)
    for s, (lo, hi) in enumerate(zip(cuts[:-1], cuts[1:])):
        dz[..., lo:hi, :] = zt[..., lo:hi, :] @ a[..., s, :, :-1]
    return dz


def backward(dlogits: np.ndarray, tape: LayerTape, params: NetworkParams, cfg: NetworkConfig, graph: HandGraph | None = None):
    """Reverse traversal of the tape; returns the ``NetworkParams`` gradients.

    Gradients are Euclidean (un-projected) for the Stiefel parameters.  The
    coordinates are the network's input, so no gradient goes back to them.
    A tape serves one backward pass: each field is cleared once consumed,
    so the pass holds less than the whole tape at once.
    """
    graph = graph or cfg.graph()
    dfeature = params.fc_weight.T @ dlogits
    dy = spd_ops.half_vec_adjoint(dfeature, cfg.d_spat)
    dfinal = linalg.spectral_fn_backward_cached(linalg.LOG, dy, tape.final_eig)
    dtemp, dspat = spd_ops.spd_spat_agg_backward(tape.temp_outputs, params.spat, dfinal)
    tape.temp_outputs = None
    dtemp = dtemp.reshape(cfg.n_fingers, cfg.n_Q, cfg.temp_dim, cfg.temp_dim)

    dz = _gauss_backward_batched(tape.z, cfg.n_T, dtemp)
    del dtemp
    tape.z = None
    dy3 = spd_ops.half_vec_adjoint(dz, cfg.frame_spd_dim)
    del dz
    dfingers = _frame_log_backward(dy3, tape.frame_factor, tape.frame_eig, tape.frame_h, cfg.eps)
    del dy3
    tape.frame_factor = tape.frame_eig = tape.frame_h = None
    dconv = skeleton.graph_conv_backward(tape.frames, dfingers, graph)
    return NetworkParams(dconv, dspat, np.outer(dlogits, tape.feature), dlogits.copy())


def sequence_step(item, params: NetworkParams, cfg: NetworkConfig, graph: HandGraph, batch_size: int):
    """One ``data.GestureSequence``'s share of a batch of ``batch_size``: returns
    (its softmax cross-entropy term, the term's gradients, the logits), the term
    being (log sum(e) - s[label]) / batch_size with s = logits - max(logits), e = exp(s)."""
    label = item.label(cfg.n_classes)
    if not 1 <= label <= cfg.n_classes:
        raise InvalidInput(f"label {label} outside [1, {cfg.n_classes}]")
    logits, _, tape = forward(item, params, cfg, graph)
    shifted = logits - logits.max()
    e = np.exp(shifted)
    e_sum = e.sum()
    dlogits = e / e_sum
    dlogits[label - 1] -= 1.0
    dlogits /= batch_size
    term = float(np.log(e_sum) - shifted[label - 1]) / batch_size
    return term, backward(dlogits, tape, params, cfg, graph), logits


def loss_and_backward(batch, params: NetworkParams, cfg: NetworkConfig, graph: HandGraph | None = None, with_logits: bool = False):
    """Mean softmax cross-entropy over a batch and its ``NetworkParams`` gradients:
    the in-order sum of the items' ``sequence_step``s, each item's gradients added
    into the first's as it finishes.  ``with_logits`` appends the (len(batch), n_classes) logits."""
    if not batch:
        raise InvalidInput("batch must be non-empty")
    graph = graph or cfg.graph()
    loss, total, logits = 0.0, None, []
    for item in batch:
        term, grads, item_logits = sequence_step(item, params, cfg, graph, len(batch))
        loss += term
        total = grads if total is None else total.add_(grads)
        logits.append(item_logits)
    return (loss, total, np.array(logits)) if with_logits else (loss, total)


# Each config field is stored in the dtype of its default.
_CONFIG_DTYPES = {name: np.asarray(value).dtype for name, value in asdict(NetworkConfig()).items()}
# The arrays of a checkpoint (``data.read_npz``): the config fields, then the
# parameters at any size; ``load_checkpoint`` checks their shapes against the
# config's ``param_shapes()``.
CHECKPOINT_LAYOUT = {
    **{name: ((), dtype.kind) for name, dtype in _CONFIG_DTYPES.items()},
    **{name: ((None,) * len(shape), "f") for name, shape in NetworkConfig().param_shapes().items()},
}


def save_checkpoint(path, params: NetworkParams, cfg: NetworkConfig):
    """Write the checkpoint (layout in the module docstring)."""
    data.write_npz(
        path,
        **{name: np.array(value, dtype=_CONFIG_DTYPES[name]) for name, value in asdict(cfg).items()},
        **{name: getattr(params, name) for name in cfg.param_shapes()},
    )


def load_checkpoint(path):
    """Read a checkpoint; returns (params, cfg).  Every error names the file."""
    arrays = data.read_npz(path, CHECKPOINT_LAYOUT)
    try:
        cfg = NetworkConfig(**{name: arrays[name].item() for name in _CONFIG_DTYPES})
    except InvalidInput as exc:
        raise exc.at(path=path)
    shapes = cfg.param_shapes()
    for name, shape in shapes.items():
        if arrays[name].shape != shape:
            raise InvalidInput(f"shape {arrays[name].shape}, expected {shape}", path=path, array=name)
    params = NetworkParams(**{name: arrays[name] for name in shapes})
    try:
        params.validate_stiefel()
    except InvalidInput as exc:
        raise exc.at(path=path, array="spat")
    return params, cfg
