"""Experiment procedures over trained networks.

Trajectory states are the flattened (probe_N x L) pre-activation
aggregates of a fixed probe batch. Because the per-layer aggregation is
linear and PCA reconstruction is affine, aggregating before or after a
rank-2 reconstruction commutes, which is what makes the low-dimensional
landscape faithful on planar trajectories (and a sound approximation
elsewhere) while being orders of magnitude smaller than recording every
neuron.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, UndefinedCorrelationError
from .metrics import METRIC_NAMES, _cna, _or_undefined, pearson
from .nn import forward


@dataclass
class TrajectorySample:
    step: int
    state: np.ndarray   # flattened (probe_N * L,)
    loss: float


@dataclass
class Trajectory:
    """Ordered samples sharing one probe batch."""

    samples: list = field(default_factory=list)

    def append(self, sample):
        if self.samples and sample.state.shape != self.samples[0].state.shape:
            raise DataError("trajectory state dimension drifted between samples")
        self.samples.append(sample)


def record_state(net, probe, step, loss):
    """Snapshot the probe batch's activation state: the flattened
    (probe_N x L) per-layer aggregates of the recorded forward trace."""
    _, trace = forward(net, probe, record=True)
    return TrajectorySample(step=int(step), state=trace.z.ravel().copy(), loss=float(loss))


@dataclass
class Pca2Basis:
    mean: np.ndarray
    components: np.ndarray       # (2, D), orthonormal rows
    explained_variance: np.ndarray
    effective_rank: int = 2

    def project(self, states):
        return (np.atleast_2d(states) - self.mean) @ self.components.T

    def reconstruct(self, coords):
        return self.mean + np.atleast_2d(coords) @ self.components


def pca2(samples):
    """Top-2 principal directions of a list of trajectory samples' states.

    Returns (basis, path) where path is the (T, 2) projection of each
    sample in step order. Component signs are fixed by making each
    component's largest-magnitude entry positive. A trajectory with fewer
    than two directions of variance is reported via effective_rank=1.
    """
    if len(samples) < 3:
        raise DataError("pca2 needs at least 3 trajectory samples")
    states = np.stack([s.state for s in samples])
    mean = states.mean(axis=0)
    centered = states - mean
    _, svals, vt = np.linalg.svd(centered, full_matrices=False)
    if svals[0] == 0.0:
        raise DataError("trajectory has zero state variance")
    components = vt[:2].copy()
    for i in range(2):
        j = int(np.argmax(np.abs(components[i])))
        if components[i, j] < 0:
            components[i] = -components[i]
    explained = svals[:2] ** 2 / (len(samples) - 1)
    rank = int(np.sum(svals[:2] > 1e-12 * svals[0]))
    basis = Pca2Basis(mean=mean, components=components,
                      explained_variance=explained, effective_rank=rank)
    return basis, basis.project(states)


def cna_at_points(basis, coords, probe_alphas):
    """CNA at arbitrary principal-plane coordinates.

    Each coordinate pair is expanded to a full state, reshaped to
    (probe_N, L), reduced to per-probe-point slopes, and correlated with
    the probe entropies. Cells with zero slope variance come back as NaN
    (flagged, never imputed).
    """
    coords = np.atleast_2d(np.asarray(coords, dtype=np.float64))
    alphas = np.asarray(probe_alphas, dtype=np.float64)
    probe_n = alphas.size
    dim = basis.mean.size
    if dim % probe_n:
        raise DataError(f"state dimension {dim} is not a multiple of probe size {probe_n}")
    n_layers = dim // probe_n
    if n_layers < 2:
        raise DataError("landscape needs at least 2 depth-mapped layers")
    if alphas.std() == 0.0:
        raise UndefinedCorrelationError("alpha", "probe entropies are constant")

    states = basis.reconstruct(coords)     # an undefined cell's None becomes NaN
    return np.array([_or_undefined(_cna, alphas, state.reshape(probe_n, n_layers))
                     for state in states], dtype=np.float64)


@dataclass
class LandscapeGrid:
    xs: np.ndarray
    ys: np.ndarray
    values: np.ndarray    # (len(ys), len(xs)); NaN marks undefined cells

    def cells(self):
        """(x, y, value) triples in row-major order, y outer."""
        for j, y in enumerate(self.ys):
            for i, x in enumerate(self.xs):
                yield float(x), float(y), float(self.values[j, i])


def cna_landscape(basis, x_range, y_range, resolution, probe_alphas):
    """CNA over a resolution x resolution grid in the principal-component plane."""
    if basis.effective_rank < 2:
        raise DataError("landscape needs a rank-2 basis; trajectory was 1-D")
    if resolution < 2:
        raise DataError("landscape resolution must be >= 2")
    xs = np.linspace(x_range[0], x_range[1], resolution)
    ys = np.linspace(y_range[0], y_range[1], resolution)
    gx, gy = np.meshgrid(xs, ys)
    coords = np.column_stack([gx.ravel(), gy.ravel()])
    values = cna_at_points(basis, coords, probe_alphas).reshape(resolution, resolution)
    return LandscapeGrid(xs=xs, ys=ys, values=values)


@dataclass
class ComplexityBins:
    """Quantile bins over per-datapoint entropy: bin_indices holds each
    bin's member datapoint indices, bin 0 the lowest entropies. Ties are
    broken by datapoint index; sizes differ by <= 1."""

    bin_indices: list


def complexity_bins(alphas, q):
    alphas = np.asarray(alphas, dtype=np.float64)
    n = alphas.size
    if q < 2:
        raise DataError("need at least 2 bins")
    if n < q:
        raise DataError(f"cannot fill {q} bins from {n} datapoints")
    order = np.argsort(alphas, kind="stable")
    return ComplexityBins([order[b * n // q:(b + 1) * n // q] for b in range(q)])


@dataclass
class BinnedErrorCurves:
    curves: np.ndarray        # (q, n_epochs) mean error per bin per epoch
    bin_sizes: np.ndarray


def binned_error_curves(flags_per_epoch, bins):
    """Mean test error of each entropy bin at each recorded epoch.

    flags_per_epoch: (E, N) boolean error flags for one fixed test set.
    """
    flags = np.asarray(flags_per_epoch, dtype=np.float64)
    sizes = np.array([len(members) for members in bins.bin_indices])
    if flags.ndim != 2 or flags.shape[1] != sizes.sum():
        raise DataError("flags must be (n_epochs, N) for the binned test set")
    curves = np.stack([flags[:, members].mean(axis=1) for members in bins.bin_indices])
    return BinnedErrorCurves(curves=curves, bin_sizes=sizes)


ALL_NETS = "All Nets"


@dataclass
class ReportCell:
    metric: str
    group: str
    rho: float | None     # None marks an undefined cell
    n: int


def gap_correlation_report(runs, metric_names=None, min_runs=3, group_by="arch"):
    """Pearson correlation of each metric with the generalization gap,
    overall and grouped by architecture (or dataset).

    Records are sorted by a canonical key first, so the report is
    invariant under permutation of the input order. Cells with fewer than
    min_runs defined values or zero variance are flagged undefined.
    """
    if metric_names is None:
        metric_names = METRIC_NAMES
    if group_by not in ("arch", "dataset"):
        raise DataError(f"group_by must be 'arch' or 'dataset', got {group_by!r}")
    runs = sorted(runs, key=lambda r: (r.dataset, r.arch, r.corruption, r.epoch))
    buckets = {}
    for r in runs:
        buckets.setdefault(getattr(r, group_by), []).append(r)
    groups = [(ALL_NETS, runs)] + sorted(buckets.items())
    cells = []
    for metric in metric_names:
        for group, selected in groups:
            pairs = [(r.metrics.get(metric), r.gap) for r in selected]
            pairs = [(m, g) for m, g in pairs
                     if m is not None and np.isfinite(m) and g is not None]
            vals = np.array([m for m, _ in pairs])
            gaps = np.array([g for _, g in pairs])
            rho = _or_undefined(pearson, vals, gaps, names=(metric, "gap")) \
                if len(pairs) >= min_runs else None
            cells.append(ReportCell(metric, group, rho, len(pairs)))
    return cells
