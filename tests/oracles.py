"""Independent reference implementations used to generate expected values.

Everything here is deliberately written as straight-line loops over the
defining formulas, sharing no code path with the package internals.
"""

from collections import namedtuple

import numpy as np


# ---------------------------------------------------------------------------
# Eigenvalues from the characteristic polynomial (no linear-algebra library).

def eigvals_2x2(s):
    a, b, c = s[0, 0], s[0, 1], s[1, 1]
    tr = a + c
    det = a * c - b * b
    disc = np.sqrt(max(tr * tr - 4.0 * det, 0.0))
    return np.array([(tr + disc) / 2.0, (tr - disc) / 2.0])


def eigvals_3x3(s):
    # Trigonometric solution of the characteristic cubic for symmetric 3x3.
    p1 = s[0, 1] ** 2 + s[0, 2] ** 2 + s[1, 2] ** 2
    q = np.trace(s) / 3.0
    p2 = (s[0, 0] - q) ** 2 + (s[1, 1] - q) ** 2 + (s[2, 2] - q) ** 2 + 2.0 * p1
    if p2 < 1e-30:
        return np.array([q, q, q])
    p = np.sqrt(p2 / 6.0)
    b = (s - q * np.eye(3)) / p
    det_b = (
        b[0, 0] * (b[1, 1] * b[2, 2] - b[1, 2] * b[2, 1])
        - b[0, 1] * (b[1, 0] * b[2, 2] - b[1, 2] * b[2, 0])
        + b[0, 2] * (b[1, 0] * b[2, 1] - b[1, 1] * b[2, 0])
    )
    r = np.clip(det_b / 2.0, -1.0, 1.0)
    phi = np.arccos(r) / 3.0
    eig1 = q + 2.0 * p * np.cos(phi)
    eig3 = q + 2.0 * p * np.cos(phi + 2.0 * np.pi / 3.0)
    eig2 = 3.0 * q - eig1 - eig3
    return np.sort(np.array([eig1, eig2, eig3]))[::-1]


# ---------------------------------------------------------------------------
# Definitional statistics pooling.

def gauss_agg_reference(vectors, unbiased=False, lambda_reg=0.0):
    n = len(vectors)
    d = len(vectors[0])
    mu = np.zeros(d)
    for v in vectors:
        mu += np.asarray(v, dtype=float)
    mu /= n
    sigma = np.zeros((d, d))
    for v in vectors:
        c = np.asarray(v, dtype=float) - mu
        sigma += np.outer(c, c)
    sigma /= (n - 1) if unbiased else n
    out = np.zeros((d + 1, d + 1))
    out[:d, :d] = sigma + lambda_reg * np.eye(d) + np.outer(mu, mu)
    out[:d, d] = mu
    out[d, :d] = mu
    out[d, d] = 1.0
    return out


def gauss_agg_backward_reference(vectors, grad, unbiased=False):
    """Gradient of <grad, gauss_agg_reference(vectors)> w.r.t. each vector,
    by the product rule on Sigma, mu mu^T and the mu border."""
    vectors = np.asarray(vectors, dtype=float)
    n, d = vectors.shape
    a = 0.5 * (grad[:d, :d] + grad[:d, :d].T)
    border = grad[:d, d] + grad[d, :d]
    mu = vectors.mean(axis=0)
    denom = (n - 1) if unbiased else n
    out = np.zeros((n, d))
    for k in range(n):
        # The mean shift of the centered vectors sums to zero over k.
        out[k] = 2.0 * a @ (vectors[k] - mu) / denom + (2.0 * a @ mu + border) / n
    return out


def half_vec_reference(y):
    d = y.shape[0]
    out = []
    for i in range(d):
        for j in range(i, d):
            out.append(y[i, j] if i == j else np.sqrt(2.0) * y[i, j])
    return np.array(out)


# ---------------------------------------------------------------------------
# Literal spectral helpers (eigh is fine here: log/clamp are basis-free).

def logm(x):
    vals, vecs = np.linalg.eigh(x)
    return vecs @ np.diag(np.log(vals)) @ vecs.T


def clamp_eig(x, eps):
    vals, vecs = np.linalg.eigh(x)
    return vecs @ np.diag(np.where(vals > eps, vals, eps)) @ vecs.T


def frame_log_mpmath(vectors, eps, dps=60):
    """log max(X2, eps) of the unbiased Gaussian embedding X2 of n d-vectors,
    every step in ``dps``-digit arithmetic from the exact float inputs."""
    import mpmath  # not at the top: perfbench loads this module, and mpmath adds ~4 MB RSS

    with mpmath.workdps(dps):
        v = [[mpmath.mpf(float(x)) for x in row] for row in vectors]
        n, d = len(v), len(v[0])
        mu = [sum(row[i] for row in v) / n for i in range(d)]
        x2 = mpmath.zeros(d + 1, d + 1)
        for i in range(d):
            for j in range(d):
                scatter = sum((row[i] - mu[i]) * (row[j] - mu[j]) for row in v)
                x2[i, j] = scatter / (n - 1) + mu[i] * mu[j]
            x2[i, d] = x2[d, i] = mu[i]
        x2[d, d] = 1
        vals, vecs = mpmath.eigsy(x2)
        logs = mpmath.diag([mpmath.log(max(val, mpmath.mpf(eps))) for val in vals])
        return np.array((vecs * logs * vecs.T).tolist(), dtype=float)


# A scalar map, its derivative and its divided difference; duck-types
# handspd.linalg.SpectralFn.
SpectralFn = namedtuple("SpectralFn", "f df dd")


def raw_quotient_fn(f, df):
    """SpectralFn whose divided difference is the raw quotient
    (f(a) - f(b)) / (a - b), which cancels at close a, b."""
    return SpectralFn(f, df, lambda a, b: (f(a) - f(b)) / (a - b))


EXP = raw_quotient_fn(np.exp, np.exp)
IDENTITY = raw_quotient_fn(lambda x: x, np.ones_like)


def reeig_log_fn(eps):
    """ReEig then LogEig on a dense matrix's spectrum, log(max(x, eps)).

    The derivative is 1/x for x >= eps and 0 below (subgradient 1 of the
    rectifier at x == eps).
    """
    return raw_quotient_fn(
        lambda x: np.log(np.maximum(x, eps)),
        lambda x: np.where(x >= eps, 1.0 / np.maximum(x, eps), 0.0),
    )


def loewner_reference(values, fn):
    """Divided-difference kernel of one spectrum, every pair (i, j) written
    out: fn.dd(l_i, l_j), and f' at the midpoint within a relative 1e-10 of
    a tie."""
    m = len(values)
    kernel = np.zeros((m, m))
    for i in range(m):
        for j in range(m):
            a, b = values[i], values[j]
            if abs(a - b) <= 1e-10 * max(1.0, abs(a), abs(b)):
                kernel[i, j] = fn.df(0.5 * (a + b))
            else:
                kernel[i, j] = fn.dd(a, b)
    return kernel


def reeig_log_backward_reference(x, grad, eps):
    """Daleckii-Krein adjoint of X -> log(max(X, eps)) on one dense matrix,
    every divided difference written out."""
    vals, vecs = np.linalg.eigh(x)
    kernel = loewner_reference(vals, reeig_log_fn(eps))
    return vecs @ (kernel * (vecs.T @ grad @ vecs)) @ vecs.T


# ---------------------------------------------------------------------------
# Hand graph convolution, literal neighbor-set form.

def hand_edges(n_fingers, joints_per_finger):
    """Undirected edge set of the skeleton graph, 1-based, self loops included."""
    n = 2 + n_fingers * joints_per_finger
    neigh = {i: {i} for i in range(1, n + 1)}
    neigh[1].add(2)
    neigh[2].add(1)
    for f in range(n_fingers):
        base = 3 + f * joints_per_finger
        neigh[2].add(base)
        neigh[base].add(2)
        for j in range(base, base + joints_per_finger - 1):
            neigh[j].add(j + 1)
            neigh[j + 1].add(j)
    return neigh


def conv_labels(n_fingers, joints_per_finger):
    """{i: [(j, label), ...]} for every finger node i: its graph neighbors j
    with |j-i| <= 1, labelled 1 for j == i, 2 for j == i+1, 3 for j == i-1."""
    neigh = hand_edges(n_fingers, joints_per_finger)
    n = 2 + n_fingers * joints_per_finger
    return {
        i: [(j, {0: 1, 1: 2, -1: 3}[j - i]) for j in sorted(neigh[i]) if abs(j - i) <= 1]
        for i in range(3, n + 1)
    }


def graph_conv_reference(frame, weights, n_fingers=5, joints_per_finger=4):
    """One frame of the convolution; sums over graph neighbors with |j-i| <= 1."""
    labels = conv_labels(n_fingers, joints_per_finger)
    d1 = weights.shape[1]
    out = np.zeros((len(labels), d1))
    for i, labelled in labels.items():
        for c in range(d1):
            acc = 0.0
            for j, label in labelled:
                acc += weights[label - 1, c] @ frame[j - 1]
            out[i - 3, c] = acc
    return out


# ---------------------------------------------------------------------------
# Straight-line full forward at any scale (loops everywhere).

def pyramid_ranges_reference(n_frames, n_levels):
    out = []
    for level in range(1, n_levels + 1):
        for j in range(1, level + 1):
            out.append(((j - 1) * n_frames // level + 1, j * n_frames // level))
    return out


def network_forward_reference(frames, conv_w, spat_w, fc_w, fc_b, cfg):
    """Literal evaluation of the whole pipeline; returns (logits, feature, final)."""
    n_f = cfg.n_F
    s_count = cfg.n_fingers
    jpf = cfg.joints_per_finger
    eps = cfg.eps

    per_frame = [
        graph_conv_reference(frames[t], conv_w, s_count, jpf) for t in range(n_f)
    ]
    fingers = [list(range(3 + s * jpf, 3 + (s + 1) * jpf)) for s in range(s_count)]

    x3 = {}
    for s in range(s_count):
        for t in range(n_f):
            vecs = [per_frame[t][j - 3] for j in fingers[s]]
            x2 = gauss_agg_reference(vecs, unbiased=True)
            x3[s, t] = clamp_eig(x2, eps)

    z = {}
    for s in range(s_count):
        for t in range(n_f):
            z[s, t] = half_vec_reference(logm(x3[s, t]))

    ranges = pyramid_ranges_reference(n_f, cfg.n_T)
    x4 = []
    for s in range(s_count):
        for tb, te in ranges:
            samples = [z[s, t - 1] for t in range(tb, te + 1)]
            x4.append(gauss_agg_reference(samples, unbiased=False, lambda_reg=cfg.lambda_reg))

    final = np.zeros((cfg.d_spat, cfg.d_spat))
    for i, x in enumerate(x4):
        final += spat_w[i] @ x @ spat_w[i].T

    feature = half_vec_reference(logm(final))
    logits = fc_w @ feature + fc_b
    return logits, feature, final


# ---------------------------------------------------------------------------
# SVM references.

def svm_dual_matrices(x, y, c):
    q = (y[:, None] * x) @ (y[:, None] * x).T
    return q + np.eye(len(y)) / (2.0 * c)


def svm_projected_gradient(x, y, c, tol=1e-8, max_iter=200000):
    """Projected gradient on the squared-hinge dual, run to high accuracy."""
    qbar = svm_dual_matrices(x, y, c)
    lam = np.linalg.eigvalsh(qbar).max()
    step = 1.0 / lam
    alpha = np.zeros(len(y))
    for _ in range(max_iter):
        grad = qbar @ alpha - 1.0
        pg = np.where(alpha > 0, grad, np.minimum(grad, 0.0))
        if np.abs(pg).max() < tol:
            break
        alpha = np.maximum(alpha - step * grad, 0.0)
    w = x.T @ (alpha * y)
    return w, alpha


def dcd_binary_reference(x, y, c, tol, rng, max_passes):
    """The dual coordinate descent loop on numpy arrays and scalars, as the
    package first wrote it: the fast solver must reproduce its every iterate.
    Returns (w, dual objective per pass, converged, final alpha)."""
    n, _ = x.shape
    alpha = np.zeros(n)
    w = np.zeros(x.shape[1])
    diag = 1.0 / (2.0 * c)
    qii = np.einsum("ij,ij->i", x, x) + diag
    history = []
    for _ in range(max_passes):
        order = rng.permutation(n)
        pg_max, pg_min = -np.inf, np.inf
        for i in order:
            g = y[i] * (x[i] @ w) - 1.0 + alpha[i] * diag
            pg = min(g, 0.0) if alpha[i] == 0.0 else g
            pg_max = max(pg_max, pg)
            pg_min = min(pg_min, pg)
            if pg != 0.0:
                new = max(alpha[i] - g / qii[i], 0.0)
                if new != alpha[i]:
                    w += (new - alpha[i]) * y[i] * x[i]
                    alpha[i] = new
        history.append(0.5 * float(w @ w) + float(alpha @ alpha) / (4.0 * c) - float(alpha.sum()))
        if pg_max - pg_min < tol:
            return w, history, True, alpha
    return w, history, False, alpha


def svm_primal_reference(w, x, y, c):
    loss = 0.0
    for xi, yi in zip(x, y):
        margin = max(0.0, 1.0 - yi * float(w @ xi))
        loss += margin * margin
    return 0.5 * float(w @ w) + c * loss


# ---------------------------------------------------------------------------
# Nearest-class-mean classifier for synthetic-data sanity.

def nearest_mean_accuracy(train, test):
    by_class = {}
    for seq in train:
        by_class.setdefault(seq.label_14, []).append(seq.frames.ravel())
    means = {k: np.mean(v, axis=0) for k, v in by_class.items()}
    correct = 0
    for seq in test:
        flat = seq.frames.ravel()
        pred = min(means, key=lambda k: np.linalg.norm(flat - means[k]))
        correct += int(pred == seq.label_14)
    return correct / len(test)
