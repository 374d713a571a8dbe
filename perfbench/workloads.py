"""The benchmark's workloads, their inputs, checks and span map.

Every workload is closed-loop and single-process: the next call starts when
the previous one has returned.  A run repeats identical rounds (same inputs,
same starting parameters), so counts per sequence, step or fit do not depend
on how many rounds fit into the measured time.

    train    SGD steps at batch 30: network.loss_and_backward, then
             optim.apply_gradients.  The only workload with a backward pass.
    extract  data.resample to n_F frames, then network.extract_feature.
    svm      one-vs-rest classify.svm_train at the DHG-14 train size on
             seeded class-structured features, then classify.svm_predict.
"""

from __future__ import annotations

import math
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

import numpy as np

from handspd import classify, data, gradcheck, linalg, network, optim, skeleton, spd_ops
from handspd.errors import InvalidInput
from handspd.network import NetworkConfig

BATCH = 30
LEARNING_RATE = 0.01           # TrainConfig's default
STEPS_PER_ROUND = 2
SVM_MAX_PASSES = 1000          # classify.svm_train's default

# Tolerances of the correctness checks.
REFERENCE_RTOL = 1e-9          # reference loss after the fixed calibration steps
FEATURE_RTOL = 1e-9            # feature vs straight-line oracle, relative to max(1, |ref|_inf)
DETERMINISM_RTOL = 1e-12       # a repeated round against the run's first round
DUAL_SLACK = 1e-12             # allowed dual-objective rise per pass, relative to max(1, |prev|)
SVM_ACCURACY_FLOOR = 0.95      # held-out accuracy; class-structured features reach 1.0
COVERAGE_TOL = 0.01            # |span self times / forward+backward wall - 1|

# Distance between two class means of the SVM features, in units of the
# per-coordinate noise.  At 17 the DHG-sized fit takes 117-127 passes over the
# 14 classes, depending on the seed, and classifies the held-out set perfectly.
SVM_SEPARATION = 17.0

# Fixed calibration for the train reference check: REFERENCE_STEPS SGD steps
# from init_params(cfg, 0) on one seed-0 gesture of each of the first
# REFERENCE_BATCH classes, then the loss on that batch.  The values were
# produced by the program at the commit that introduced this benchmark.
REFERENCE_BATCH = 4
REFERENCE_STEPS = 3
REFERENCE_LOSS = {"default": 1.4478850187718266, "toy": 1.6924144742237754}


@dataclass(frozen=True)
class Size:
    cfg: NetworkConfig
    synth_classes: int          # motion prototypes used (data.synth_generate has 8)
    train_per_class: int        # gestures per class for train; 2 batches are used
    extract_groups: int         # extract lengths; each group holds one gesture per class
    svm_train_per_class: int
    svm_test_per_class: int
    svm_latency_probe: int      # held-out rows classified one at a time per fit


SIZES = {
    # Default NetworkConfig: 171 frames, 22 joints, d1=9, n_T=3, 14 classes.
    # 140/60 per class is DHG-14's 1960 train / 840 test sequences.
    "default": Size(NetworkConfig(), 8, 8, 8, 140, 60, 200),
    "toy": Size(gradcheck.toy_config(), 3, 20, 8, 20, 10, 30),
}


class Recorder:
    """Timing samples and checked operations of one run."""

    def __init__(self):
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def op(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(what)


def hand_joints(cfg: NetworkConfig) -> list[int]:
    """Indices into the 22-joint synthetic hand of cfg's hand: wrist, palm,
    then the first joints_per_finger joints of the first n_fingers chains."""
    return [0, 1] + [
        2 + 4 * f + k for f in range(cfg.n_fingers) for k in range(cfg.joints_per_finger)
    ]


def gestures(size: Size, per_class: int, seed: int, length: int) -> list[data.GestureSequence]:
    joints = hand_joints(size.cfg)
    return [
        data.GestureSequence(s.frames[:, joints], s.label_14, s.label_28, s.subject, s.trial)
        for s in data.synth_generate(per_class, size.synth_classes, seed=seed, length=length)
    ]


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(b))


class Workload:
    """setup(seed) -> state, run_round(state, rec) -> units done, finish(state, rec)."""

    name = ""

    def __init__(self, size_name: str, oracles):
        self.size_name = size_name
        self.size = SIZES[size_name]
        self.cfg = self.size.cfg
        self.oracles = oracles

    def finish(self, st, rec: Recorder):
        """Run-level checks, after the measured rounds."""


# ---------------------------------------------------------------------------
# train


@dataclass
class TrainState:
    batches: list
    params: network.NetworkParams
    graph: object
    first_losses: list | None = None


class Train(Workload):
    name = "train"

    def setup(self, seed: int) -> TrainState:
        cfg = self.cfg
        pool = gestures(self.size, self.size.train_per_class, seed, cfg.n_F)
        order = np.random.default_rng((seed, 1)).permutation(len(pool))
        picked = [pool[i] for i in order[: STEPS_PER_ROUND * BATCH]]
        batches = [picked[i : i + BATCH] for i in range(0, len(picked), BATCH)]
        graph = cfg.graph()
        params = optim.init_params(cfg, seed)
        # First call of every layer on this state (lazy set-up, if any).
        _, grads = network.loss_and_backward(batches[0][:1], params, cfg, graph)
        optim.apply_gradients(params, grads, LEARNING_RATE)
        return TrainState(batches, params, graph)

    def run_round(self, st: TrainState, rec: Recorder) -> Counter:
        cfg = self.cfg
        params = st.params
        # Per-sequence latency: one timestamp at each network.forward entry;
        # a sequence ends where the next one's forward starts, or where
        # loss_and_backward returns.
        stamps: list[float] = []
        forward = network.forward

        def stamped(*args, **kwargs):
            stamps.append(time.perf_counter())
            return forward(*args, **kwargs)

        trail = []
        network.forward = stamped
        try:
            start = time.perf_counter()
            for batch in st.batches:
                stamps.clear()
                t0 = time.perf_counter()
                loss, grads = network.loss_and_backward(batch, params, cfg, st.graph)
                t1 = time.perf_counter()
                params = optim.apply_gradients(params, grads, LEARNING_RATE)
                t2 = time.perf_counter()
                ends = stamps[1:] + [t1]
                rec.samples["seq_ms"].extend((e - s) * 1e3 for s, e in zip(stamps, ends))
                rec.samples["seq_per_s"].append(len(batch) / (t2 - t0))
                trail.append((loss, params))
            rec.samples["round_s"].append(time.perf_counter() - start)
        finally:
            network.forward = forward

        losses = [loss for loss, _ in trail]
        if st.first_losses is None:
            st.first_losses = losses
        for k, (loss, p) in enumerate(trail):
            ok = math.isfinite(loss) and _close(loss, st.first_losses[k], DETERMINISM_RTOL)
            try:
                p.validate_stiefel()
            except InvalidInput:
                ok = False
            rec.op(ok, f"train step {k}: loss {loss!r}, finite, deterministic and Stiefel")
        return Counter(seq=sum(len(b) for b in st.batches), step=len(st.batches))

    def finish(self, st: TrainState, rec: Recorder):
        got = reference_loss(self.size)
        want = REFERENCE_LOSS[self.size_name]
        rec.op(_close(got, want, REFERENCE_RTOL),
               f"train reference loss {got!r}, expected {want!r}")


def reference_loss(size: Size) -> float:
    cfg = size.cfg
    batch = gestures(size, 1, 0, cfg.n_F)[:REFERENCE_BATCH]
    params = optim.init_params(cfg, 0)
    for _ in range(REFERENCE_STEPS):
        _, grads = network.loss_and_backward(batch, params, cfg)
        params = optim.apply_gradients(params, grads, LEARNING_RATE)
    return network.loss_and_backward(batch, params, cfg)[0]


# ---------------------------------------------------------------------------
# extract


@dataclass
class ExtractState:
    raw: list
    params: network.NetworkParams
    graph: object
    probe: int
    probe_feature: np.ndarray | None = None


class Extract(Workload):
    name = "extract"

    def setup(self, seed: int) -> ExtractState:
        cfg = self.cfg
        rng = np.random.default_rng((seed, 2))
        # Two groups already have n_F frames (resample returns them as they
        # are); the rest are drawn from [max(2, n_F // 3), 2 * n_F].
        lengths = [cfg.n_F, cfg.n_F] + list(
            rng.integers(max(2, cfg.n_F // 3), 2 * cfg.n_F + 1, self.size.extract_groups - 2)
        )
        group_seeds = rng.integers(2**32, size=len(lengths))
        raw = []
        for length, group_seed in zip(lengths, group_seeds):
            raw.extend(gestures(self.size, 1, int(group_seed), int(length)))
        raw = [raw[i] for i in rng.permutation(len(raw))]
        graph = cfg.graph()
        params = optim.init_params(cfg, seed)
        network.extract_feature(data.resample(raw[0], cfg.n_F), params, cfg, graph)
        return ExtractState(raw, params, graph, int(rng.integers(len(raw))))

    def run_round(self, st: ExtractState, rec: Recorder) -> Counter:
        cfg = self.cfg
        features = []
        start = time.perf_counter()
        for raw in st.raw:
            t0 = time.perf_counter()
            seq = data.resample(raw, cfg.n_F)
            features.append(network.extract_feature(seq, st.params, cfg, st.graph))
            rec.samples["seq_ms"].append((time.perf_counter() - t0) * 1e3)
        elapsed = time.perf_counter() - start
        rec.samples["seq_per_s"].append(len(st.raw) / elapsed)
        rec.samples["round_s"].append(elapsed)

        for i, f in enumerate(features):
            ok = f.shape == (cfg.feature_dim,) and bool(np.all(np.isfinite(f)))
            rec.op(ok, f"extract sequence {i}: finite feature of length {cfg.feature_dim}")
        if st.probe_feature is None:
            st.probe_feature = features[st.probe]
        return Counter(seq=len(st.raw))

    def finish(self, st: ExtractState, rec: Recorder):
        """The sampled sequence against the straight-line oracle, fed by an
        independent linear resampling."""
        cfg = self.cfg
        frames = resample_reference(st.raw[st.probe].frames, cfg.n_F)
        p = st.params
        _, want, _ = self.oracles.network_forward_reference(
            frames, p.conv, p.spat, p.fc_weight, p.fc_bias, cfg
        )
        got = st.probe_feature
        err = float(np.abs(got - want).max()) if got.shape == want.shape else math.inf
        rec.op(err <= FEATURE_RTOL * max(1.0, float(np.abs(want).max())),
               f"extract sequence {st.probe} vs oracle: max abs error {err:.3e}")


def resample_reference(frames: np.ndarray, n: int) -> np.ndarray:
    """Piecewise-linear resampling at n uniform parameters over [0, 1]."""
    m = frames.shape[0]
    if m == n:
        return frames
    pos = np.arange(n) * (m - 1) / (n - 1)
    lo = np.minimum(np.floor(pos).astype(int), m - 2)
    w = (pos - lo)[:, None, None]
    out = (1.0 - w) * frames[lo] + w * frames[lo + 1]
    out[0], out[-1] = frames[0], frames[-1]
    return out


# ---------------------------------------------------------------------------
# svm


@dataclass
class SvmState:
    seed: int
    x_train: np.ndarray
    y_train: np.ndarray
    x_test: np.ndarray
    y_test: np.ndarray


class Svm(Workload):
    name = "svm"

    def setup(self, seed: int) -> SvmState:
        k, dim = self.cfg.n_classes, self.cfg.feature_dim
        rng = np.random.default_rng((seed, 3))
        means = rng.standard_normal((k, dim)) * (SVM_SEPARATION / math.sqrt(2 * dim))
        y_train = np.repeat(np.arange(1, k + 1), self.size.svm_train_per_class)
        y_test = np.repeat(np.arange(1, k + 1), self.size.svm_test_per_class)
        x_train = means[y_train - 1] + rng.standard_normal((y_train.size, dim))
        x_test = means[y_test - 1] + rng.standard_normal((y_test.size, dim))
        return SvmState(seed, x_train, y_train, x_test, y_test)

    def run_round(self, st: SvmState, rec: Recorder) -> Counter:
        start = time.perf_counter()
        model = classify.svm_train(st.x_train, st.y_train, seed=st.seed)
        fit = time.perf_counter() - start
        rec.samples["seq_per_s"].append(st.y_train.size / fit)
        predicted = classify.svm_predict(model, st.x_test)
        singles = []
        for row in st.x_test[: self.size.svm_latency_probe]:
            t0 = time.perf_counter()
            singles.append(classify.svm_predict(model, row))
            rec.samples["seq_ms"].append((time.perf_counter() - t0) * 1e3)
        rec.samples["round_s"].append(time.perf_counter() - start)

        histories = model.dual_history
        monotone = all(
            b <= a + DUAL_SLACK * max(1.0, abs(a)) for h in histories for a, b in zip(h, h[1:])
        )
        converged = len(histories) == self.cfg.n_classes and all(
            len(h) < SVM_MAX_PASSES for h in histories
        )
        rec.op(monotone and converged, "svm fit: dual non-increasing, every class converged")
        accuracy = float(np.mean(predicted == st.y_test))
        rec.op(accuracy >= SVM_ACCURACY_FLOOR,
               f"svm held-out accuracy {accuracy:.4f} below {SVM_ACCURACY_FLOOR}")
        for i, p in enumerate(singles):
            rec.op(p == predicted[i], f"svm single prediction {i} disagrees with the batch")
        return Counter(fit=1)


WORKLOADS = {w.name: w for w in (Train, Extract, Svm)}


# ---------------------------------------------------------------------------
# span map

# Span name -> what its self time and calls are divided by: network layers
# per sequence, optimizer spans per SGD step, classifier spans per fit.
SPANS = {
    "linalg.eig.frame": "seq",
    "linalg.eig.final": "seq",
    "linalg.spectral_backward.frame": "seq",
    "linalg.spectral_backward.final": "seq",
    "linalg.spectral_apply.final": "seq",
    "skeleton.graph_conv": "seq",
    "skeleton.graph_conv_backward": "seq",
    "network.gauss.frame": "seq",
    "network.gauss.range": "seq",
    "network.gauss_backward.frame": "seq",
    "network.gauss_backward.range": "seq",
    "spd_ops.half_vec": "seq",
    "spd_ops.half_vec_adjoint": "seq",
    "spd_ops.spat_agg": "seq",
    "spd_ops.spat_agg_backward": "seq",
    "network.forward": "seq",
    "network.backward": "seq",
    "network.loss": "seq",
    "optim.apply_gradients": "step",
    "linalg.qr_orthonormalize": "step",
    "data.resample": "seq",
    "classify.svm_train": "fit",
    "classify.svm_predict": "fit",
}


def _per_frame(frame: str, other: str, arg: int):
    """Span name by the rank of argument ``arg``: the per-frame batches are
    4-D (fingers, frames, ., .); the final matrix and the pyramid ranges
    have fewer axes."""
    return lambda *args, **kwargs: frame if np.ndim(args[arg]) == 4 else other


def trace_program(tracer, cfg: NetworkConfig, counts: Counter):
    """Wrap every layer call of SPANS; counts are read from return values."""

    def eig_matrices(result, s):
        if np.ndim(s) == 4:
            counts["eig.frame.matrices"] += result.values.size // result.values.shape[-1]

    def clamped(result, *args):
        values = result[2].frame_eig.values
        counts["reeig.clamped"] += int(np.count_nonzero(values < cfg.eps))
        counts["reeig.eigenvalues"] += values.size

    def passes(model, *args):
        counts["svm.passes"] += sum(len(h) for h in model.dual_history)
        counts["svm.converged_classes"] += sum(len(h) < SVM_MAX_PASSES for h in model.dual_history)

    wrap = tracer.wrap
    wrap(linalg, "sym_eig_batch", _per_frame("linalg.eig.frame", "linalg.eig.final", 0), eig_matrices)
    wrap(linalg, "spectral_fn_backward_cached",
         _per_frame("linalg.spectral_backward.frame", "linalg.spectral_backward.final", 1))
    wrap(linalg, "spectral_apply_cached", "linalg.spectral_apply.final")
    wrap(skeleton, "graph_conv", "skeleton.graph_conv")
    wrap(skeleton, "graph_conv_backward", "skeleton.graph_conv_backward")
    wrap(network, "_batched_gauss", _per_frame("network.gauss.frame", "network.gauss.range", 0))
    wrap(network, "_gauss_backward_batched",
         _per_frame("network.gauss_backward.frame", "network.gauss_backward.range", 0))
    wrap(spd_ops, "half_vec", "spd_ops.half_vec")
    wrap(spd_ops, "half_vec_adjoint", "spd_ops.half_vec_adjoint")
    wrap(spd_ops, "spd_spat_agg", "spd_ops.spat_agg")
    wrap(spd_ops, "spd_spat_agg_backward", "spd_ops.spat_agg_backward")
    wrap(network, "forward", "network.forward", clamped)
    wrap(network, "backward", "network.backward")
    wrap(network, "loss_and_backward", "network.loss")
    wrap(optim, "apply_gradients", "optim.apply_gradients")
    # optim imported qr_orthonormalize by name, so the call resolves in optim.
    wrap(optim, "qr_orthonormalize", "linalg.qr_orthonormalize")
    wrap(data, "resample", "data.resample")
    wrap(classify, "svm_train", "classify.svm_train", passes)
    wrap(classify, "svm_predict", "classify.svm_predict")
