"""Linear SVM over extracted features, evaluation metrics, confusion matrix.

The binary solver is dual coordinate descent for the L2-regularized
L2-loss (squared hinge) SVM without a bias term, one-vs-rest for
multiclass.  Coordinates are visited in a freshly seeded random
permutation each pass; termination uses the projected-gradient spread
criterion over a full pass.  A coordinate visit costs one dot and, when
the coordinate moves, two in-place ufuncs (the axpy); everything else is
Python float arithmetic.  Every iterate is bitwise that of the plain numpy
loop (``tests/oracles.py``).  ``SvmConfig`` holds C, tol and the visit seed,
their only defaults and checks; a solver stops after ``MAX_PASSES`` passes.
``svm_train`` rejects features with no column, and a feature row that is
not finite or whose squared norm overflows, before it fits any class;
``svm_predict`` checks the feature dimension and no row.

Classes are fitted in parallel by ``fork``ed workers, one per CPU this
process may run on, which share the features copy-on-write; off Linux or
with one CPU, in turn in this process.  Class k draws from
``default_rng((seed, k))``, so the model is the same for any worker count;
there is no flag.  Python >= 3.12 warns about ``fork()`` in a multi-threaded
process; BLAS threads make every numpy process so.  It is not silenced.

Model file (``save_model``): an npz archive (``data.write_npz``) of
``MODEL_LAYOUT``: the (k, d) float ``weights``, 0-d float ``C`` and ``tol``,
and the fit record of k entries each, or none: int ``passes``, bool
``converged`` and the float final dual objective ``dual``.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, field

import numpy as np

from . import data
from .errors import InvalidInput

MAX_PASSES = 1000
MODEL_LAYOUT = {"weights": ((None, None), "f"), "C": ((), "f"), "tol": ((), "f"),
                "passes": ((None,), "i"), "converged": ((None,), "b"), "dual": ((None,), "f")}


@dataclass(frozen=True)
class SvmConfig:
    C: float = 1.0
    tol: float = 0.1
    seed: int = 0

    def __post_init__(self):
        # NaN fails every comparison; C > 0 comes first, so 1/(2C) divides by no zero.
        if not (0 < self.C < np.inf and 0 < 1.0 / (2.0 * self.C) < np.inf and 0 < self.tol < np.inf):
            raise InvalidInput(f"need finite C, 1/(2C) and tol > 0, got C={self.C}, tol={self.tol}")
        if self.seed < 0:
            raise InvalidInput(f"seed must be >= 0, got {self.seed}")


@dataclass
class SvmModel:
    weights: np.ndarray            # (n_classes, dim), one-vs-rest
    C: float = SvmConfig.C
    tol: float = SvmConfig.tol
    dual_history: list = field(default_factory=list)  # per class, per pass; last pass only when loaded
    passes: list = field(default_factory=list)        # per class
    converged: list = field(default_factory=list)     # per class; False at MAX_PASSES

    @property
    def n_classes(self) -> int:
        return self.weights.shape[0]

    def unconverged_classes(self) -> list[int]:
        """1-based classes whose solver stopped at MAX_PASSES."""
        return [cls for cls, ok in enumerate(self.converged, start=1) if not ok]


@dataclass
class EvalReport:
    accuracy: float                # percent
    confusion: np.ndarray          # (n_classes, n_classes) counts, rows = true
    per_class_accuracy: np.ndarray


def _dual_objective(w: np.ndarray, alpha: np.ndarray, c: float) -> float:
    return 0.5 * float(w @ w) + float(alpha @ alpha) / (4.0 * c) - float(alpha.sum())


def _q_diagonal(x: np.ndarray, c: float) -> list:
    """Diagonal of the dual Hessian Q + I/(2C): squared row norms + 1/(2C)."""
    return (np.einsum("ij,ij->i", x, x) + 1.0 / (2.0 * c)).tolist()


def _dcd_binary(x: np.ndarray, y: np.ndarray, c: float, tol: float, rng, max_passes: int, qii: list):
    """LIBLINEAR-style dual coordinate descent for the squared-hinge dual.

    min_a 0.5 a^T (Q + I/(2C)) a - e^T a  over a >= 0, with w = X^T (a*y);
    qii = diag(Q + I/(2C)) as a list (``_q_diagonal``).  Exact single-coordinate
    minimization, so the dual objective never increases across passes.
    Returns (w, dual objective per pass, converged), converged False when
    max_passes ran out.

    The axpy multiplies into ``step``, allocated once, and adds into ``w``.
    Each comparison returns what the builtin ``min``/``max`` it replaces
    would, NaN and -0.0 included, and multiplying by y = +-1 is exact.
    """
    rows = list(x)
    n = len(rows)
    y = y.tolist()
    alpha = [0.0] * n
    w = np.zeros(x.shape[1])
    step = np.empty_like(w)
    multiply, add = np.multiply, np.add
    diag = 1.0 / (2.0 * c)
    history = []
    for _ in range(max_passes):
        pg_max, pg_min = -np.inf, np.inf
        for i in rng.permutation(n).tolist():
            a, yi, xi = alpha[i], y[i], rows[i]
            g = yi * float(xi.dot(w)) - 1.0 + a * diag
            pg = 0.0 if a == 0.0 and g > 0.0 else g
            if pg > pg_max:
                pg_max = pg
            if pg < pg_min:
                pg_min = pg
            if pg != 0.0:
                new = a - g / qii[i]
                if new < 0.0:
                    new = 0.0
                if new != a:
                    multiply(xi, (new - a) * yi, out=step)
                    add(w, step, out=w)
                    alpha[i] = new
        history.append(_dual_objective(w, np.array(alpha), c))
        if pg_max - pg_min < tol:
            return w, history, True
    return w, history, False


_worker_fit = None  # svm_train's shared state; set only in its pool workers


def _init_worker(*fit):
    global _worker_fit
    _worker_fit = fit


def _fit_class(cls: int, fit: tuple | None = None):
    """One-vs-rest fit of class ``cls``; ``fit`` defaults to the worker's."""
    x, labels, qii, c, tol, seed, max_passes = fit or _worker_fit
    y = np.where(labels == cls, 1.0, -1.0)
    return _dcd_binary(x, y, c, tol, np.random.default_rng((seed, cls)), max_passes, qii)


def _worker_count(n_classes: int) -> int:
    """Pool size for svm_train; 1 fits in this process."""
    if not hasattr(os, "sched_getaffinity") or not hasattr(os, "fork"):
        return 1
    return min(n_classes, len(os.sched_getaffinity(0)))


def svm_train(
    features: np.ndarray,
    labels: np.ndarray,
    C: float = SvmConfig.C,
    tol: float = SvmConfig.tol,
    seed: int = SvmConfig.seed,
    n_classes: int | None = None,
) -> SvmModel:
    """One-vs-rest training, the classes in parallel; labels are 1-based integers."""
    x = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if x.ndim != 2 or x.shape[1] < 1 or labels.shape != (x.shape[0],):
        raise InvalidInput(f"need (n, d >= 1) features with n labels, got {x.shape} / {labels.shape}")
    SvmConfig(C, tol, seed)  # the settings' checks
    present = np.unique(labels)
    if present.size < 2:
        raise InvalidInput("training data contains a single class")
    if n_classes is None:
        n_classes = int(present[-1])
    if present[0] < 1 or present[-1] > n_classes:
        bad = present[0] if present[0] < 1 else present[-1]
        raise InvalidInput(f"label {bad} outside [1, {n_classes}]")
    qii = _q_diagonal(x, C)
    # A NaN row would read as converged and an overflowing one be ignored.
    bad = np.flatnonzero(~np.isfinite(qii))
    if bad.size:
        raise InvalidInput(f"feature row {bad[0] + 1} is not finite, or its squared norm overflows")
    fit = (x, labels, qii, C, tol, seed, MAX_PASSES)
    classes = range(1, n_classes + 1)
    workers = _worker_count(n_classes)
    if workers > 1:
        # Imported here: the network's processes import this module but fit
        # no SVM.  A worker that dies (say, OOM-killed) raises
        # BrokenProcessPool; a multiprocessing.Pool would wait forever.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        fork = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(workers, fork, initializer=_init_worker, initargs=fit) as pool:
            results = list(pool.map(_fit_class, classes))
    else:
        results = [_fit_class(cls, fit) for cls in classes]
    model = SvmModel(weights=np.zeros((n_classes, x.shape[1])), C=C, tol=tol)
    for cls, (w, history, converged) in enumerate(results):
        model.weights[cls] = w
        model.dual_history.append(history)
        model.passes.append(len(history))
        model.converged.append(converged)
    return model


def svm_predict(model: SvmModel, features: np.ndarray) -> np.ndarray:
    """Predicted 1-based labels; ties break to the lowest class index."""
    x = np.asarray(features, dtype=np.float64)
    if x.shape[-1] != model.weights.shape[1]:
        raise InvalidInput(f"feature dim {x.shape[-1]} != model dim {model.weights.shape[1]}")
    return np.argmax(x @ model.weights.T, axis=-1) + 1


def evaluate(model: SvmModel, features: np.ndarray, labels: np.ndarray) -> EvalReport:
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size == 0:
        raise InvalidInput("test set is empty")
    predicted = np.atleast_1d(svm_predict(model, features))
    k = model.n_classes
    if predicted.shape != labels.shape:
        raise InvalidInput(f"{predicted.size} feature rows with {labels.size} labels")
    outside = labels[(labels < 1) | (labels > k)]
    if outside.size:
        raise InvalidInput(f"label {outside[0]} outside [1, {k}]")
    confusion = np.zeros((k, k), dtype=np.int64)
    np.add.at(confusion, (labels - 1, predicted - 1), 1)
    totals = confusion.sum(axis=1)
    per_class = np.where(totals > 0, np.diag(confusion) / np.maximum(totals, 1), np.nan)
    accuracy = 100.0 * np.trace(confusion) / labels.size
    return EvalReport(accuracy=accuracy, confusion=confusion, per_class_accuracy=per_class)


def save_model(path, model: SvmModel):
    data.write_npz(path, weights=np.asarray(model.weights, dtype=np.float64), C=np.float64(model.C),
                   tol=np.float64(model.tol), passes=np.array(model.passes, dtype=np.int64),
                   converged=np.array(model.converged, dtype=bool),
                   dual=np.array([h[-1] for h in model.dual_history], dtype=np.float64))


def load_model(path) -> SvmModel:
    arrays = data.read_npz(path, MODEL_LAYOUT)
    weights = arrays["weights"]
    k, d = weights.shape
    if k < 1 or d < 1:
        raise InvalidInput(f"model of {k} x {d} weights", path=path, array="weights")
    passes, converged, dual = arrays["passes"], arrays["converged"], arrays["dual"]
    if {passes.size, converged.size, dual.size} not in ({0}, {k}):
        raise InvalidInput(
            f"fit record of {passes.size} passes, {converged.size} converged and"
            f" {dual.size} dual entries for {k} classes",
            path=path,
        )
    return SvmModel(weights, C=arrays["C"].item(), tol=arrays["tol"].item(), passes=passes.tolist(),
                    converged=converged.tolist(), dual_history=[[v] for v in dual.tolist()])


def confusion_csv(path, report: EvalReport, class_names):
    """Counts with a header row/column of class names, plus a normalized table."""
    k = report.confusion.shape[0]
    if len(class_names) != k:
        raise InvalidInput(f"{len(class_names)} class names for {k} classes")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["true\\predicted", *class_names])
        for name, row in zip(class_names, report.confusion):
            writer.writerow([name, *row.tolist()])
        writer.writerow([])
        writer.writerow(["row-normalized (%)"])
        totals = np.maximum(report.confusion.sum(axis=1), 1)
        for name, row, total in zip(class_names, report.confusion, totals):
            writer.writerow([name, *(f"{100.0 * v / total:.2f}" for v in row)])


def report_table(report: EvalReport, class_names) -> str:
    lines = [f"overall accuracy: {report.accuracy:.2f}%"]
    for name, acc in zip(class_names, report.per_class_accuracy):
        shown = "n/a" if np.isnan(acc) else f"{100.0 * acc:.2f}%"
        lines.append(f"  {name:<12s} {shown}")
    return "\n".join(lines)


DHG_CLASS_NAMES_14 = (
    "Grab",
    "Tap",
    "Expand",
    "Pinch",
    "Rot-CW",
    "Rot-CCW",
    "Swipe-R",
    "Swipe-L",
    "Swipe-U",
    "Swipe-D",
    "Swipe-X",
    "Swipe-V",
    "Swipe-+",
    "Shake",
)


def class_names(n_classes: int):
    """Display names: DHG gesture names for 14/28 classes, generic otherwise."""
    if n_classes == 14:
        return list(DHG_CLASS_NAMES_14)
    if n_classes == 28:
        out = []
        for name in DHG_CLASS_NAMES_14:
            out.extend([f"{name} (one finger)", f"{name} (whole hand)"])
        return out
    return [f"Class-{i}" for i in range(1, n_classes + 1)]
