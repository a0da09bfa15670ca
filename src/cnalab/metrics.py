"""Scalar metrics: input entropy, activation slope, Pearson correlation,
the CNA and CNA-Margin, output margins, and norm-based baselines.

The CNA of a network on a dataset is the Pearson correlation between two
per-datapoint vectors: alpha (histogram-binned Shannon entropy of the
input's feature values, in bits) and beta (least-squares slope of the
per-layer aggregated pre-activations ordered by depth 1..L).

CNA-Margin couples the CNA computed on the training set with classifier
confidence: the CNA is multiplied by clamp(g, 0, 1) where g is the 10th
percentile of the output margins divided by the sample standard deviation
of all margins. A confidently correct classifier keeps its full CNA; a
net misclassifying its training data is pulled to zero.

Alpha has one estimator, bitwise equal to np.histogram of each row; a
non-finite input raises DataError. Vectors of read-only corpora are
memoised per process.
"""

import collections
import math
import weakref
from dataclasses import asdict, dataclass, fields

import numpy as np

from .errors import ConvergenceError, DataError, UndefinedCorrelationError
from .nn import _walk
from .optim import trace_over_dataset


@dataclass(frozen=True)
class EntropyConfig:
    """Histogram estimator settings. lo/hi of None means per-datapoint
    min-max range; log base is fixed at 2 (bits)."""

    bins: int = 256
    lo: float | None = 0.0
    hi: float | None = 1.0

    def __post_init__(self):
        if self.bins < 2:
            raise ValueError("bin count must be >= 2")
        if (self.lo is None) != (self.hi is None):
            raise ValueError("lo and hi must both be set or both be None")
        if self.lo is not None and not -np.inf < self.lo < self.hi < np.inf:
            raise ValueError(f"degenerate fixed range [{self.lo}, {self.hi}]")

    @property
    def per_datapoint(self):
        return self.lo is None


def entropy(x, cfg=EntropyConfig()):
    """Shannon entropy of one datapoint's feature values, in bits.

    Fixed-range mode clips values into [lo, hi] so every feature lands in
    a bin; per-datapoint mode bins over [min(x), max(x)]. Empty bins
    contribute zero. Result lies in [0, log2(bins)].
    """
    return float(_entropies(np.asarray(x, dtype=np.float64).reshape(1, -1), cfg)[0])


_MEMO = collections.OrderedDict()   # (id(inputs), cfg) -> (weakref(inputs), vector)
_MEMO_SIZE = 4                      # as many corpora as data._cached_corpus holds
_BLOCK = 1 << 16                    # values per estimator block: 512 KB temporaries


def entropy_vector(inputs, cfg=EntropyConfig()):
    """Per-datapoint entropy over a dataset's input tensor, memoised per
    process for read-only arrays that own their data; returns a copy."""
    inputs = np.asarray(inputs, dtype=np.float64)
    key = (id(inputs), cfg)
    memo = not inputs.flags.writeable and inputs.flags.owndata
    if memo and key in _MEMO and _MEMO[key][0]() is inputs:
        _MEMO.move_to_end(key)
        return _MEMO[key][1].copy()
    out = _entropies(inputs.reshape(len(inputs), math.prod(inputs.shape[1:])), cfg)
    if memo:
        _MEMO[key] = (weakref.ref(inputs), out.copy())
        if len(_MEMO) > _MEMO_SIZE:
            _MEMO.popitem(last=False)
    return out


def _entropies(rows, cfg):
    """Entropy of each row of an (N, F) array, bitwise equal to entropy from
    np.histogram of the row: a block of rows takes its bin index arithmetic
    and one bincount, but -(p * log2 p).sum() stays per row, as numpy's
    pairwise summation depends on the length summed."""
    n, m = rows.shape
    if n and not m:
        raise DataError("entropy needs at least one element")
    out, bins, per_block = np.zeros(n), cfg.bins, max(1, _BLOCK // max(m, 1))
    for start in range(0, n, per_block):
        values = rows[start:start + per_block]
        finite = np.isfinite(values).all(axis=1)
        if not finite.all():
            raise DataError(f"entropy input row {start + int(finite.argmin())} is not finite")
        if cfg.per_datapoint:           # a constant row keeps entropy 0
            lo, hi = values.min(axis=1, keepdims=True), values.max(axis=1, keepdims=True)
            vary = (lo < hi)[:, 0]
            values, lo, hi = values[vary], lo[vary], hi[vary]
        else:
            lo, hi, vary = cfg.lo, cfg.hi, slice(None)
            values = np.clip(values, lo, hi)
        width = (hi - lo) / bins
        edges = np.arange(bins + 1.0) * width + lo      # np.linspace's edges
        edges[..., -1:] = hi
        if (edges[..., :-1] >= edges[..., 1:]).any():   # np.histogram refuses these
            raise DataError(f"entropy range too narrow for {bins} bins")
        idx = ((values - lo) / (hi - lo) * bins).astype(np.intp)
        np.minimum(idx, bins - 1, out=idx)              # the last bin is closed
        # edges[k] = k * width + lo for every k < bins, the only edges compared here
        idx -= values < idx * width + lo
        idx += (values >= (idx + 1) * width + lo) & (idx != bins - 1)
        idx += np.arange(len(idx))[:, None] * bins      # row r counts at r * bins
        counts = np.bincount(idx.ravel(), minlength=len(idx) * bins).reshape(-1, bins)
        full = counts > 0
        p = counts[full] / m
        terms, lengths = p * np.log2(p), full.sum(axis=1)
        out[start:start + per_block][vary] = [-terms[end - k:end].sum()
                                              for end, k in zip(np.cumsum(lengths), lengths)]
    return out


def slope(z_row):
    """Least-squares slope of (depth, value) points with depths 1..L."""
    z = np.asarray(z_row, dtype=np.float64)
    if z.ndim != 1 or z.size < 2:
        raise DataError("slope needs a vector of at least 2 per-layer values")
    return float(slope_vector(z[None])[0])


def slope_vector(z):
    """Row-wise slopes of an (N, L) pre-activation aggregate matrix."""
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2 or z.shape[1] < 2:
        raise DataError("slope_vector needs an (N, L>=2) matrix")
    ell = np.arange(1, z.shape[1] + 1, dtype=np.float64)
    ell_c = ell - ell.mean()
    return (z - z.mean(axis=1, keepdims=True)) @ ell_c / (ell_c @ ell_c)


def pearson(a, b, names=("a", "b")):
    """Sample Pearson correlation with the 1/(n-1) covariance convention.

    Raises UndefinedCorrelationError (naming the offending vector) when
    either argument has zero sample variance; never returns NaN.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise DataError(f"pearson needs equal-length vectors, got {a.shape} and {b.shape}")
    n = a.size
    if n < 2:
        raise DataError("pearson needs n >= 2")
    da = a - a.mean()
    db = b - b.mean()
    va = da @ da
    vb = db @ db
    if va == 0.0:
        raise UndefinedCorrelationError(names[0])
    if vb == 0.0:
        raise UndefinedCorrelationError(names[1])
    rho = (da @ db) / np.sqrt(va * vb)
    return float(np.clip(rho, -1.0, 1.0))


def cna(net, inputs, cfg=EntropyConfig()):
    """Pearson correlation between input entropy and activation slope."""
    return _cna(entropy_vector(inputs, cfg), trace_over_dataset(net, inputs)[0])


def _cna(alphas, z):
    """Pearson correlation of entropies and the slopes of the trace z."""
    return pearson(alphas, slope_vector(z), names=("alpha", "beta"))


def output_margin(logits, label):
    """Correct-class logit minus the largest other-class logit."""
    logits = np.asarray(logits, dtype=np.float64)
    if logits.size < 2:
        raise DataError("output_margin needs at least 2 classes")
    if not 0 <= label < logits.size:
        raise DataError(f"label {label} out of range [0, {logits.size})")
    return float(margin_vector(logits.reshape(1, -1), [label])[0])


def margin_vector(logits, labels):
    """Per-datapoint output margins for an (N, C) logit matrix."""
    n = logits.shape[0]
    idx = np.arange(n)
    correct = logits[idx, labels]
    masked = logits.copy()
    masked[idx, labels] = -np.inf
    return correct - masked.max(axis=1)


def margin_factor(margins, percentile=10.0):
    """clamp(p-th percentile margin / sample std of margins, 0, 1)."""
    margins = np.asarray(margins, dtype=np.float64)
    gamma = float(np.percentile(margins, percentile))
    sd = float(margins.std(ddof=1)) if margins.size > 1 else 0.0
    if sd == 0.0:
        return 1.0 if gamma > 0 else 0.0
    return float(np.clip(gamma / sd, 0.0, 1.0))


def cna_margin(net, train_ds, cfg=EntropyConfig(), percentile=10.0):
    """CNA on the training set scaled by the clamped normalized margin."""
    z, logits = trace_over_dataset(net, train_ds.inputs)
    return _margin_scaled(_cna(entropy_vector(train_ds.inputs, cfg), z),
                          margin_vector(logits, train_ds.labels), percentile)


def _margin_scaled(cna_value, margins, percentile):
    return cna_value * margin_factor(margins, percentile) + 0.0   # +0.0 folds -0.0 into 0.0


def spectral_norm(w, tol=1e-10, max_iter=50000):
    """Largest singular value via power iteration on W^T W.

    Converges on the relative change of the singular-value estimate.
    Iterating on the transpose when W has fewer rows than columns keeps
    the Gram product on the small side; the singular values agree. The
    product W v that gives an iteration's estimate starts the next one.
    """
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 2 or w.size == 0:
        raise DataError("spectral_norm needs a non-empty matrix")
    if w.shape[0] < w.shape[1]:
        w = w.T
    rng = np.random.default_rng(0x5EC7)
    v = rng.standard_normal(w.shape[1])
    v /= math.sqrt(v.dot(v))
    u = w @ v
    sigma = 0.0
    for _ in range(max_iter):
        v = w.T @ u
        norm = math.sqrt(v.dot(v))
        if norm == 0.0:
            return 0.0          # W v hit the null space: W is zero on it
        v /= norm
        u = w @ v
        sigma_new = math.sqrt(u.dot(u))
        if abs(sigma_new - sigma) <= tol * max(sigma_new, 1.0):
            return sigma_new
        sigma = sigma_new
    raise ConvergenceError(f"power iteration did not converge in {max_iter} steps",
                           last_value=sigma)


def path_norm(net):
    """Sum of squared-weight products over all input-output paths.

    Computed by the layer walk on an all-ones input with every weight and
    bias squared; relu is the identity on the resulting non-negative
    values.
    """
    squared = {idx: {name: arr ** 2 for name, arr in p.items()} for idx, p in net.params.items()}
    out = np.ones((1,) + net.input_shape)
    for _, out, _ in _walk(net, out, squared):
        pass
    return float(out.sum())


def norm_metrics(net, gamma):
    """Margin-normalized norm-based capacity measures.

    Returns {"frobenius", "spectral", "path"}:
      frobenius = prod_l ||W_l||_F^2 / gamma^2
      spectral  = prod_l ||W_l||_2^2 * sum_l(||W_l||_F^2/||W_l||_2^2) / gamma^2
      path      = path_norm / gamma^2
    """
    if gamma <= 0:
        raise DataError(f"margin gamma must be positive, got {gamma}")
    return {k: v for k, v in _norms(net, gamma).items() if k != "spectral_product"}


def _norms(net, gamma):
    """The unnormalized spectral product, plus the norm_metrics measures
    when gamma is positive."""
    fro_prod = 1.0
    spec_prod = 1.0
    ratio_sum = 0.0
    for w in net.weight_matrices():
        fro2 = float((w * w).sum())
        spec2 = spectral_norm(w) ** 2
        fro_prod *= fro2
        spec_prod *= spec2
        ratio_sum += fro2 / spec2 if spec2 > 0 else 0.0
    out = {"spectral_product": spec_prod}
    if gamma > 0:
        g2 = gamma * gamma
        out.update(frobenius=fro_prod / g2, spectral=spec_prod * ratio_sum / g2,
                   path=path_norm(net) / g2)
    return out


@dataclass
class GapMetricSet:
    """One snapshot's scalar metric ledger. Normalized norm metrics are
    None when the 10th-percentile training margin is not positive."""

    cna: float | None = None
    cna_margin: float | None = None
    frobenius: float | None = None
    spectral: float | None = None
    path: float | None = None
    spectral_product: float | None = None

    def to_dict(self):
        return asdict(self)


METRIC_NAMES = tuple(f.name for f in fields(GapMetricSet))


def gap_metric_set(net, train_ds, test_ds, cfg=EntropyConfig(), percentile=10.0,
                   cna_split="test", train_alphas=None, test_alphas=None,
                   train_pass=None, test_pass=None):
    """Compute the full metric set for one trained snapshot.

    CNA uses the test inputs by default (gap prediction stays a priori
    because labels are never used); CNA-Margin always uses the training
    set. CNA values that are undefined (zero-variance alpha or beta) stay
    None rather than being imputed. Normalized norm metrics stay None
    when the percentile training margin is not positive.

    Per-epoch callers pass the entropy vectors (constant over training)
    and the (z, logits) passes they scored accuracy on as train_alphas/
    test_alphas and train_pass/test_pass; each is computed when absent.
    """
    if train_alphas is None:
        train_alphas = entropy_vector(train_ds.inputs, cfg)
    if train_pass is None:
        train_pass = trace_over_dataset(net, train_ds.inputs)
    margins = margin_vector(train_pass[1], train_ds.labels)
    out = GapMetricSet(**_norms(net, float(np.percentile(margins, percentile))))
    try:
        base = _cna(train_alphas, train_pass[0])
        out.cna_margin = _margin_scaled(base, margins, percentile)
        if cna_split == "train":
            out.cna = base
    except UndefinedCorrelationError:
        pass
    if cna_split == "test":
        if test_alphas is None:
            test_alphas = entropy_vector(test_ds.inputs, cfg)
        if test_pass is None:
            test_pass = trace_over_dataset(net, test_ds.inputs)
        try:
            out.cna = _cna(test_alphas, test_pass[0])
        except UndefinedCorrelationError:
            pass
    return out
