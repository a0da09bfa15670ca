"""Metric tests: frozen examples, independent oracles, and invariants."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cnalab import nn
from cnalab.data import LabeledDataset
from cnalab.errors import ConvergenceError, DataError, UndefinedCorrelationError
from cnalab.metrics import (EntropyConfig, cna, cna_margin, entropy, entropy_vector,
                            margin_factor, margin_vector, norm_metrics, output_margin,
                            path_norm, pearson, slope, slope_vector, spectral_norm,
                            trace_over_dataset)


# --- entropy ---------------------------------------------------------------

def brute_force_entropy(values, bins, lo, hi):
    """Independent oracle: explicit bin loop, no numpy histogram."""
    values = [min(max(v, lo), hi) for v in np.asarray(values).ravel()]
    counts = [0] * bins
    width = (hi - lo) / bins
    for v in values:
        b = int((v - lo) / width)
        if b == bins:   # right edge belongs to the last bin
            b -= 1
        counts[b] += 1
    total = len(values)
    h = 0.0
    for c in counts:
        if c:
            p = c / total
            h -= p * math.log2(p)
    return h


def test_entropy_constant_vector_is_zero():
    assert entropy(np.full(50, 0.37)) == 0.0
    assert entropy(np.full(50, 0.37), EntropyConfig(bins=16, lo=None, hi=None)) == 0.0


def test_entropy_two_equal_mass_bins_is_one_bit():
    x = np.array([0.0] * 50 + [1.0] * 50)
    assert entropy(x, EntropyConfig(bins=256, lo=0.0, hi=1.0)) == pytest.approx(1.0, abs=1e-12)
    assert brute_force_entropy(x, 256, 0.0, 1.0) == pytest.approx(1.0, abs=1e-12)


def test_entropy_uniform_eight_bins_is_three_bits():
    # one value per bin center, equal counts
    x = np.repeat((np.arange(8) + 0.5) / 8, 5)
    cfg = EntropyConfig(bins=8, lo=0.0, hi=1.0)
    assert entropy(x, cfg) == pytest.approx(3.0, abs=1e-12)


def test_entropy_matches_brute_force_oracle():
    rng = np.random.default_rng(0)
    for _ in range(100):
        n = int(rng.integers(1, 60))
        bins = int(rng.integers(2, 40))
        x = rng.random(n)
        got = entropy(x, EntropyConfig(bins=bins, lo=0.0, hi=1.0))
        assert got == pytest.approx(brute_force_entropy(x, bins, 0.0, 1.0), abs=1e-10)


def test_entropy_bounds_and_permutation_invariance():
    rng = np.random.default_rng(1)
    x = rng.random(64)
    cfg = EntropyConfig(bins=32)
    h = entropy(x, cfg)
    assert 0.0 <= h <= math.log2(32)
    assert entropy(rng.permutation(x), cfg) == h


def test_entropy_shift_invariance_per_datapoint_mode():
    rng = np.random.default_rng(2)
    x = rng.random(40)
    cfg = EntropyConfig(bins=16, lo=None, hi=None)
    assert entropy(x + 3.7, cfg) == pytest.approx(entropy(x, cfg), abs=1e-12)


def test_entropy_degenerate_range_rejected():
    with pytest.raises(ValueError):
        EntropyConfig(bins=8, lo=1.0, hi=1.0)
    with pytest.raises(ValueError):
        EntropyConfig(bins=1)


def test_entropy_empty_rejected():
    with pytest.raises(DataError):
        entropy(np.zeros((0,)))


# --- slope -----------------------------------------------------------------

def test_slope_examples():
    assert slope([4.2] * 7) == 0.0
    assert slope([1.0, 2.0, 3.0]) == pytest.approx(1.0, abs=1e-12)
    assert slope([5.0, 9.0]) == pytest.approx(4.0, abs=1e-12)


def test_slope_matches_polyfit_oracle():
    rng = np.random.default_rng(3)
    for _ in range(100):
        z = rng.normal(size=int(rng.integers(2, 12)))
        expected = np.polyfit(np.arange(1, z.size + 1), z, 1)[0]
        assert slope(z) == pytest.approx(expected, abs=1e-10)


def test_slope_needs_two_layers():
    with pytest.raises(DataError):
        slope([1.0])


@given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=10),
       st.floats(-100, 100), st.floats(-1e3, 1e3))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_slope_linearity(z, scale, offset):
    base = slope(z)
    assert slope([scale * v + offset for v in z]) == pytest.approx(
        scale * base, abs=1e-6 * (1 + abs(scale) * (1 + abs(base))))


def test_slope_vector_matches_rowwise():
    rng = np.random.default_rng(4)
    z = rng.normal(size=(20, 5))
    rowwise = np.array([slope(row) for row in z])
    assert np.allclose(slope_vector(z), rowwise, atol=1e-12)


# --- pearson ---------------------------------------------------------------

def direct_pearson(a, b):
    """Oracle: literal covariance-over-sigmas evaluation."""
    a, b = np.asarray(a, float), np.asarray(b, float)
    n = a.size
    cov = ((a - a.mean()) * (b - b.mean())).sum() / (n - 1)
    sa = math.sqrt(((a - a.mean()) ** 2).sum() / (n - 1))
    sb = math.sqrt(((b - b.mean()) ** 2).sum() / (n - 1))
    return cov / (sa * sb)


def test_pearson_examples():
    a = np.array([0.3, 1.7, 2.2, 5.0])
    assert pearson(a, a) == 1.0
    assert pearson(a, -a) == -1.0
    assert pearson([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8, abs=1e-12)


def test_pearson_matches_direct_oracle():
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = int(rng.integers(2, 30))
        a = rng.normal(size=n)
        b = rng.normal(size=n)
        if a.std() == 0 or b.std() == 0:
            continue
        assert pearson(a, b) == pytest.approx(direct_pearson(a, b), abs=1e-10)
        assert pearson(a, b) == pytest.approx(np.corrcoef(a, b)[0, 1], abs=1e-10)


def test_pearson_zero_variance_is_named_error():
    with pytest.raises(UndefinedCorrelationError) as exc:
        pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0], names=("alpha", "beta"))
    assert exc.value.vector_name == "alpha"
    with pytest.raises(UndefinedCorrelationError) as exc:
        pearson([1.0, 2.0, 3.0], [5.0, 5.0, 5.0], names=("alpha", "beta"))
    assert exc.value.vector_name == "beta"


@given(st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=12, unique=True),
       st.floats(0.01, 100), st.floats(-1e3, 1e3))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_pearson_affine_invariance(a, p, q):
    assume(np.ptp(a) > 1e-6)            # degenerate spreads underflow the variance
    transformed = [p * v + q for v in a]
    assume(np.std(transformed) > 0)     # p*v+q can collapse tiny spreads
    rng = np.random.default_rng(len(a))
    b = rng.normal(size=len(a))
    base = pearson(a, b)
    assert pearson(transformed, b) == pytest.approx(base, abs=1e-7)
    assert pearson([-v for v in a], b) == pytest.approx(-base, abs=1e-9)
    assert pearson(b, a) == pytest.approx(base, abs=1e-9)


# --- cna -------------------------------------------------------------------

def graded_dataset():
    """Entropy and mean input magnitude increase together."""
    rows = [
        [0.10, 0.10, 0.10, 0.10],           # alpha = 0
        [0.20, 0.20, 0.40, 0.40],           # alpha = 1 bit
        [0.30, 0.50, 0.70, 0.90],           # alpha = 2 bits
        [0.15, 0.15, 0.15, 0.15],
        [0.25, 0.25, 0.45, 0.45],
        [0.35, 0.55, 0.75, 0.95],
    ]
    return np.array(rows)


def scaling_linear_net(factor=2.0):
    """Two linear layers: slope(x) proportional to mean(x)."""
    net = nn.build_network([nn.dense(4, 4), nn.dense(4, 4)], 0, (4,),
                           include_output=True)
    net.params[0]["W"][:] = np.eye(4)
    net.params[0]["b"][:] = 0.0
    net.params[1]["W"][:] = factor * np.eye(4)
    net.params[1]["b"][:] = 0.0
    return net


def test_cna_positive_when_entropy_tracks_magnitude():
    inputs = graded_dataset()
    net = scaling_linear_net()
    value = cna(net, inputs, EntropyConfig(bins=256, lo=0.0, hi=1.0))
    # direct sign check: beta = mean(x), alpha ordered the same way
    alphas = entropy_vector(inputs, EntropyConfig(bins=256, lo=0.0, hi=1.0))
    betas = inputs.mean(axis=1)
    assert value > 0
    assert value == pytest.approx(direct_pearson(alphas, betas), abs=1e-12)


def test_cna_zero_weight_net_is_undefined():
    net = scaling_linear_net()
    for _, _, arr in net.param_items():
        arr[:] = 0.0
    with pytest.raises(UndefinedCorrelationError) as exc:
        cna(net, graded_dataset())
    assert exc.value.vector_name == "beta"


def test_cna_matches_naive_pipeline_oracle():
    rng = np.random.default_rng(6)
    specs = [nn.dense(6, 5), nn.relu(), nn.dense(5, 4), nn.relu(), nn.dense(4, 3)]
    net = nn.build_network(specs, 11, (6,))
    inputs = rng.random((10, 6))
    cfg = EntropyConfig(bins=64, lo=0.0, hi=1.0)
    got = cna(net, inputs, cfg)

    # oracle: brute-force entropy + per-sample slope from a naive forward
    alphas = [brute_force_entropy(x, 64, 0.0, 1.0) for x in inputs]
    betas = []
    for x in inputs:
        a = x
        zs = []
        for idx, spec in enumerate(net.specs):
            if spec.kind == "dense":
                a = a @ net.params[idx]["W"] + net.params[idx]["b"]
                if idx in net.depth_map:
                    zs.append(a.mean())
            elif spec.kind == "relu":
                a = np.maximum(a, 0.0)
        betas.append(np.polyfit(np.arange(1, len(zs) + 1), zs, 1)[0])
    assert got == pytest.approx(direct_pearson(alphas, betas), abs=1e-12)


def test_cna_invariant_under_uniform_beta_scaling():
    inputs = graded_dataset()
    assert cna(scaling_linear_net(2.0), inputs) == pytest.approx(
        cna(scaling_linear_net(5.0), inputs), abs=1e-12)


def test_cna_shuffled_pairing_has_near_zero_expectation():
    rng = np.random.default_rng(7)
    n = 200
    alphas = rng.random(n)
    betas = rng.random(n)
    rhos = []
    for _ in range(100):
        rhos.append(pearson(rng.permutation(alphas), betas))
    assert abs(np.mean(rhos)) < 3.0 / math.sqrt(n)


# --- margins and cna_margin --------------------------------------------------

def test_output_margin_examples():
    assert output_margin([2.0, 0.0, 0.0], 0) == 2.0
    assert output_margin([0.0, 1.0], 0) == -1.0
    assert output_margin([0.5, 0.5, 0.5], 1) == 0.0
    with pytest.raises(DataError):
        output_margin([1.0, 2.0], 3)
    with pytest.raises(DataError):
        output_margin([1.0], 0)


def test_margin_vector_matches_scalar():
    rng = np.random.default_rng(8)
    logits = rng.normal(size=(12, 5))
    labels = rng.integers(0, 5, 12)
    vec = margin_vector(logits, labels)
    for i in range(12):
        assert vec[i] == pytest.approx(output_margin(logits[i], labels[i]), abs=1e-12)


def test_margin_factor_clamps():
    # all large negative margins -> 0; comfortably positive -> 1
    assert margin_factor(np.array([-5.0, -6.0, -7.0, -4.0])) == 0.0
    assert margin_factor(np.array([10.0, 10.1, 10.2, 10.3])) == 1.0
    assert margin_factor(np.array([3.0, 3.0, 3.0])) == 1.0     # zero spread, positive
    assert margin_factor(np.array([-3.0, -3.0, -3.0])) == 0.0  # zero spread, negative


def test_cna_margin_clamp_to_zero_and_identity():
    inputs = graded_dataset()
    labels = np.zeros(len(inputs), dtype=int)
    ds = LabeledDataset(inputs, labels, 4)
    net = scaling_linear_net()

    # wrong-class bias makes every margin hugely negative -> metric 0
    net.params[1]["b"][:] = np.array([-100.0, 100.0, 0.0, 0.0])
    assert cna_margin(net, ds) == 0.0

    # confident correct classifier -> factor 1 -> equals plain CNA
    net2 = scaling_linear_net()
    net2.params[1]["b"][:] = np.array([100.0, 0.0, 0.0, 0.0])
    assert cna_margin(net2, ds) == pytest.approx(cna(net2, ds.inputs), abs=1e-12)


def test_cna_margin_hand_computed_five_points():
    rng = np.random.default_rng(9)
    inputs = np.vstack([graded_dataset()[:3], rng.random((2, 4))])
    labels = np.array([0, 1, 2, 3, 0])
    ds = LabeledDataset(inputs, labels, 4)
    net = scaling_linear_net()
    net.params[1]["b"][:] = np.array([0.4, 0.1, -0.1, 0.2])

    cfg = EntropyConfig()
    alphas = entropy_vector(inputs, cfg)
    z, logits = trace_over_dataset(net, inputs)
    betas = slope_vector(z)
    margins = np.array([output_margin(logits[i], labels[i]) for i in range(5)])
    gamma = np.percentile(margins, 10.0)
    factor = min(max(gamma / margins.std(ddof=1), 0.0), 1.0)
    expected = direct_pearson(alphas, betas) * factor
    assert cna_margin(net, ds) == pytest.approx(expected, abs=1e-12)


# --- spectral norm and norm metrics ----------------------------------------

def test_spectral_norm_examples():
    assert spectral_norm(np.eye(3)) == pytest.approx(1.0, abs=1e-10)
    assert spectral_norm(np.diag([3.0, 1.0])) == pytest.approx(3.0, abs=1e-10)


def test_spectral_norm_matches_eigh_oracle():
    rng = np.random.default_rng(11)
    w = rng.normal(size=(4, 4))
    expected = math.sqrt(np.linalg.eigh(w.T @ w)[0].max())
    assert spectral_norm(w) == pytest.approx(expected, abs=1e-8)


def test_spectral_norm_random_instances():
    rng = np.random.default_rng(12)
    for _ in range(100):
        w = rng.normal(size=(int(rng.integers(1, 8)), int(rng.integers(1, 8))))
        expected = np.linalg.svd(w, compute_uv=False)[0]
        assert spectral_norm(w) == pytest.approx(expected, abs=1e-8 * max(1, expected))


def test_spectral_le_frobenius_with_rank_one_equality():
    rng = np.random.default_rng(13)
    for _ in range(50):
        w = rng.normal(size=(5, 4))
        assert spectral_norm(w) <= np.linalg.norm(w) + 1e-10
    u, v = rng.normal(size=5), rng.normal(size=4)
    rank1 = np.outer(u, v)
    assert spectral_norm(rank1) == pytest.approx(np.linalg.norm(rank1), abs=1e-8)


def test_spectral_norm_nonconvergence_reports_last_iterate():
    # sigma ratio 0.999: the estimate keeps moving ~1e-6 per step, far
    # above tol, so a tiny iteration cap must trip the error
    w = np.diag([1.0, 0.999])
    with pytest.raises(ConvergenceError) as exc:
        spectral_norm(w, tol=1e-16, max_iter=20)
    assert exc.value.last_value is not None
    assert exc.value.last_value == pytest.approx(1.0, abs=1e-3)


def test_norm_metrics_identity_layer():
    net = nn.build_network([nn.dense(2, 2)], 0, (2,))
    net.params[0]["W"][:] = np.eye(2)
    net.params[0]["b"][:] = 0.0
    got = norm_metrics(net, gamma=1.0)
    assert got["frobenius"] == pytest.approx(2.0, abs=1e-9)
    assert got["spectral"] == pytest.approx(2.0, abs=1e-9)   # 1 * (2/1)
    with pytest.raises(DataError):
        norm_metrics(net, gamma=0.0)


def test_frobenius_product_homogeneity():
    specs = [nn.dense(3, 4), nn.relu(), nn.dense(4, 2)]
    net = nn.build_network(specs, 1, (3,))
    base = norm_metrics(net, 1.0)["frobenius"]
    net.params[0]["W"] *= 2.0
    assert norm_metrics(net, 1.0)["frobenius"] == pytest.approx(4.0 * base, rel=1e-12)


def test_path_norm_single_chain():
    net = nn.build_network([nn.dense(1, 1, bias=False), nn.dense(1, 1, bias=False)],
                           0, (1,), include_output=True)
    net.params[0]["W"][:] = 3.0
    net.params[1]["W"][:] = -2.0
    assert path_norm(net) == pytest.approx(9.0 * 4.0, abs=1e-12)


def brute_force_path_norm(net):
    """Oracle: enumerate every path through a bias-free dense MLP."""
    mats = [net.params[idx]["W"] for idx in sorted(net.params)]
    total = 0.0
    def walk(layer, row, prod):
        nonlocal total
        if layer == len(mats):
            total += prod
            return
        w = mats[layer]
        for j in range(w.shape[1]):
            walk(layer + 1, j, prod * w[row, j] ** 2)
    for i in range(mats[0].shape[0]):
        walk(0, i, 1.0)
    return total


def test_path_norm_matches_enumeration_oracle():
    rng = np.random.default_rng(14)
    for _ in range(100):
        dims = [int(rng.integers(1, 4)) for _ in range(4)]
        specs = [nn.dense(dims[i], dims[i + 1], bias=False) for i in range(3)]
        net = nn.build_network(specs, int(rng.integers(1000)), (dims[0],))
        assert path_norm(net) == pytest.approx(brute_force_path_norm(net), rel=1e-10)


def unrolled_conv_matrix(w, in_shape, stride):
    """Dense matrix of a bias-free conv layer, built by looping over every
    (input pixel, output unit) pair; columns follow the flatten order."""
    oc, c, k, _ = w.shape
    _, h, wd = in_shape
    oh, ow = (h - k) // stride + 1, (wd - k) // stride + 1
    m = np.zeros((c * h * wd, oc * oh * ow))
    for o in range(oc):
        for r in range(oh):
            for s in range(ow):
                for ch in range(c):
                    for i in range(k):
                        for j in range(k):
                            row = (ch * h + r * stride + i) * wd + s * stride + j
                            m[row, (o * oh + r) * ow + s] = w[o, ch, i, j]
    return m


def test_path_norm_bias_free_conv_matches_enumeration_oracle():
    from types import SimpleNamespace
    rng = np.random.default_rng(15)
    for stride in (1, 2):
        for _ in range(5):
            c, oc = int(rng.integers(1, 3)), int(rng.integers(1, 3))
            oh = (5 - 3) // stride + 1
            specs = [nn.conv2d(c, oc, 3, stride=stride, bias=False), nn.relu(), nn.flatten(),
                     nn.dense(oc * oh * oh, 2, bias=False)]
            net = nn.build_network(specs, int(rng.integers(1000)), (c, 5, 5))
            mats = [unrolled_conv_matrix(net.params[0]["W"], (c, 5, 5), stride),
                    net.params[3]["W"]]
            oracle = brute_force_path_norm(SimpleNamespace(params={0: {"W": mats[0]},
                                                                   1: {"W": mats[1]}}))
            assert path_norm(net) == pytest.approx(oracle, rel=1e-12)


def test_path_norm_single_bias_free_conv_hand_value():
    net = nn.build_network([nn.conv2d(1, 1, 2, bias=False), nn.flatten(), nn.dense(1, 2)],
                           0, (1, 2, 2), include_output=True)
    net.params[0]["W"][:] = np.array([[[[1.0, -2.0], [3.0, 0.5]]]])
    net.params[2]["W"][:] = np.array([[2.0, -1.0]])
    net.params[2]["b"][:] = np.array([0.5, 3.0])
    # 4 pixel paths of squared weight 1+4+9+0.25 through each output, plus the biases
    assert path_norm(net) == 14.25 * (4.0 + 1.0) + 0.25 + 9.0


# --- gap_metric_set ---------------------------------------------------------

def test_gap_metric_set_reuses_the_passes_it_is_given(monkeypatch):
    from cnalab import metrics
    net = nn.build_network([nn.dense(4, 6), nn.relu(), nn.dense(6, 6), nn.relu(),
                            nn.dense(6, 3)], 5, (4,))
    rng = np.random.default_rng(8)
    x_train, x_test = rng.uniform(size=(40, 4)), rng.uniform(size=(30, 4))
    # labels the net already predicts, so margins are positive and every metric defined
    train = LabeledDataset(x_train, trace_over_dataset(net, x_train)[1].argmax(axis=1), 3)
    test = LabeledDataset(x_test, rng.integers(0, 3, size=30), 3)
    for split in ("train", "test"):
        expected = metrics.gap_metric_set(net, train, test, cna_split=split)
        assert None not in expected.to_dict().values()
        passes = {"train_pass": trace_over_dataset(net, train.inputs),
                  "test_pass": trace_over_dataset(net, test.inputs)}
        with monkeypatch.context() as m:
            m.setattr(metrics, "trace_over_dataset", None)    # any call would fail
            got = metrics.gap_metric_set(net, train, test, cna_split=split, **passes)
        assert got.to_dict() == expected.to_dict()


def test_gap_metric_set_on_an_empty_split_raises_data_error():
    from cnalab.metrics import gap_metric_set
    net = scaling_linear_net()
    full = LabeledDataset(graded_dataset(), np.array([0, 1, 2, 3, 0, 1]), 4)
    empty = LabeledDataset(np.zeros((0, 4)), np.zeros(0, dtype=int), 4)
    with pytest.raises(DataError):
        gap_metric_set(net, full, empty)
    with pytest.raises(DataError):
        gap_metric_set(net, empty, full)


def test_cna_and_cna_margin_reject_fewer_than_two_datapoints():
    net = scaling_linear_net()
    for n in (0, 1):
        ds = LabeledDataset(graded_dataset()[:n], np.zeros(n, dtype=int), 4)
        with pytest.raises(DataError):
            cna(net, ds.inputs)
        with pytest.raises(DataError):
            cna_margin(net, ds)


def three_product_spectral_norm(w, tol=1e-10, max_iter=50000):
    """spectral_norm's earlier loop, which recomputed W v at the top of each
    iteration; kept as the bitwise reference."""
    w = np.asarray(w, dtype=np.float64)
    if w.shape[0] < w.shape[1]:
        w = w.T
    v = np.random.default_rng(0x5EC7).standard_normal(w.shape[1])
    v /= np.linalg.norm(v)
    sigma = 0.0
    for _ in range(max_iter):
        u = w @ v
        v_new = w.T @ u
        norm = np.linalg.norm(v_new)
        if norm == 0.0:
            return 0.0
        v_new /= norm
        sigma_new = float(np.linalg.norm(w @ v_new))
        if abs(sigma_new - sigma) <= tol * max(sigma_new, 1.0):
            return sigma_new
        sigma, v = sigma_new, v_new
    raise ConvergenceError("reference did not converge", last_value=sigma)


def test_spectral_norm_equals_three_product_loop_bitwise():
    rng = np.random.default_rng(11)
    shapes = [(1, 1), (1, 7), (7, 1), (3, 3), (5, 12), (12, 5), (64, 10), (10, 64),
              (128, 128), (300, 40), (16, 75), (256, 3072)]
    for shape in shapes:
        for _ in range(5):
            w = rng.standard_normal(shape) * rng.uniform(0.01, 10.0)
            assert spectral_norm(w) == three_product_spectral_norm(w)
    rank1 = np.outer(rng.standard_normal(30), rng.standard_normal(20))
    assert spectral_norm(rank1) == three_product_spectral_norm(rank1)
    assert spectral_norm(np.zeros((4, 6))) == three_product_spectral_norm(np.zeros((4, 6)))
