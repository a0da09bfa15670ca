"""Metric tests: frozen examples, independent oracles, and invariants."""

import collections
import gc
import hashlib
import json
import math
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cnalab import data, metrics, nn
from cnalab.config import resolve_datasets
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


def test_entropy_rejects_non_finite_values_naming_the_row():
    for cfg in (EntropyConfig(), EntropyConfig(bins=16, lo=None, hi=None)):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(DataError, match="not finite"):
                entropy([0.1, bad, 0.2, 0.9], cfg)
            x = np.random.default_rng(3).random((6, 5))
            x[4, 2] = x[5, 0] = bad
            for block in (metrics._BLOCK, 10):      # 10 values: rows 4 and 5 share a block
                with mock.patch.object(metrics, "_BLOCK", block), \
                        pytest.raises(DataError, match="row 4 is not finite"):
                    entropy_vector(x, cfg)


def reference_entropy(x, cfg=EntropyConfig()):
    """entropy() as it was before the vectorized estimator, verbatim: one
    np.histogram per datapoint. Kept as the bitwise reference."""
    values = np.asarray(x, dtype=np.float64).ravel()
    if values.size == 0:
        raise DataError("entropy needs at least one element")
    if cfg.per_datapoint:
        lo, hi = float(values.min()), float(values.max())
        if lo == hi:
            return 0.0
    else:
        lo, hi = cfg.lo, cfg.hi
        values = np.clip(values, lo, hi)
    counts, _ = np.histogram(values, bins=cfg.bins, range=(lo, hi))
    p = counts[counts > 0] / values.size
    return float(-(p * np.log2(p)).sum())


def reference_entropy_vector(inputs, cfg=EntropyConfig()):
    """entropy_vector() before the vectorized estimator, verbatim."""
    n = inputs.shape[0]
    return np.array([reference_entropy(inputs[i], cfg) for i in range(n)])


def bits(x):
    return np.asarray(x, dtype=np.float64).view(np.int64)


SPECIALS = [-0.0, 5e-324, 2.0 ** -1050, 2.0 ** -1022 - 5e-324]    # -0.0 and subnormals


@st.composite
def entropy_cases(draw):
    """(inputs, cfg, block) with values on bin edges, one ulp either side
    of them, on lo and hi, outside a fixed range, at -0.0 and subnormals, in
    constant rows and in rows too narrow for the bin count. A third of the
    cases take a fixed range [0, hi]: mostly dyadic, [0, 2^a] with 2^b bins,
    whose indices skip np.histogram's one-bin corrections, else one that
    misses being dyadic by hi = 0.1 or 255 bins, which must not skip them."""
    mode = draw(st.sampled_from(["per-datapoint", "fixed", "dyadic"]))
    if mode == "per-datapoint":
        cfg = EntropyConfig(bins=draw(st.integers(2, 512)), lo=None, hi=None)
    elif mode == "fixed":
        lo = draw(st.floats(-100.0, 100.0))
        hi = lo + draw(st.sampled_from([1e-6, 0.01, 1.0, 3.0, 1000.0]))
        cfg = EntropyConfig(bins=draw(st.integers(2, 512)), lo=lo, hi=hi)
    else:
        cfg = EntropyConfig(bins=draw(st.sampled_from([2, 16, 256, 512, 255])), lo=0.0,
                            hi=draw(st.sampled_from([2.0 ** -30, 0.5, 1.0, 4.0, 1024.0, 0.1])))
    n, m = draw(st.integers(0, 9)), draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rows = []
    for _ in range(n):
        kind = draw(st.sampled_from(["mixed", "mixed", "constant", "zeros", "narrow"]))
        lo, hi = (cfg.lo, cfg.hi) if not cfg.per_datapoint else \
            sorted(rng.uniform(-50, 50) + rng.choice([0.0, 1e-3, 1.0, 80.0], size=2))
        if kind == "constant":
            rows.append(np.full(m, rng.choice([lo, hi, rng.uniform(-200, 200)])))
        elif kind == "zeros":
            rows.append(rng.choice([0.0, -0.0], size=m))
        elif kind == "narrow":
            rows.append(lo + rng.integers(0, 4, size=m) * np.spacing(lo))
        else:
            edges = np.linspace(lo, hi, cfg.bins + 1) if hi > lo else np.array([lo])
            pool = np.concatenate([edges, np.nextafter(edges, np.inf),
                                   np.nextafter(edges, -np.inf), [lo, hi], SPECIALS,
                                   rng.uniform(lo, hi, size=8),
                                   rng.uniform(lo - 5.0, hi + 5.0, size=4)])
            rows.append(rng.choice(pool, size=m))
    inputs = np.array(rows).reshape(n, m)
    block = draw(st.sampled_from([1, m, 2 * m + 1, 3 * m - 1, metrics._BLOCK]))
    return inputs, cfg, block


@settings(max_examples=500, deadline=None, derandomize=True)
@given(entropy_cases())
def test_entropy_vector_bitwise_equals_per_row_histogram(case):
    inputs, cfg, block = case
    with mock.patch.object(metrics, "_BLOCK", block):
        try:
            want = reference_entropy_vector(inputs, cfg)
        except ValueError:      # np.histogram: range too narrow for the bins
            with pytest.raises(DataError, match="too narrow"):
                entropy_vector(inputs, cfg)
            return
        got = entropy_vector(inputs, cfg)
    assert got.dtype == np.float64 and got.shape == (len(inputs),)
    assert np.array_equal(bits(got), bits(want))
    for row, value in zip(inputs, want):
        assert bits(entropy(row, cfg)) == bits(value)


def test_entropy_vector_edge_shapes_and_narrow_ranges():
    for cfg in (EntropyConfig(), EntropyConfig(bins=7, lo=None, hi=None)):
        empty = entropy_vector(np.zeros((0, 1, 3, 3)), cfg)
        assert empty.dtype == np.float64 and empty.shape == (0,)
        one = np.array([[0.2, 0.2, 0.7, 1.5]])
        assert np.array_equal(bits(entropy_vector(one, cfg)),
                              bits(reference_entropy_vector(one, cfg)))
    narrow = EntropyConfig(bins=512, lo=1.0, hi=1.0 + 1e-14)
    with pytest.raises(ValueError):
        reference_entropy([1.0, 1.0], narrow)
    with pytest.raises(DataError, match="too narrow"):
        entropy([1.0, 1.0], narrow)


# (name, train_size, test_size, seed) of every corpus configs/ and perfbench
# use, and sha256 over the entropy vectors of its train and test inputs under
# GOLDEN_ENTROPY_CONFIGS, computed by the per-row np.histogram estimator.
ENTROPY_GOLDENS = [
    ("synthetic-digits", 10000, 2000, 7,
     "732970597040f701fcd741e18a5165812fbccddb5d741cb17a5b7d8f1982130b"),
    ("synthetic-digits", 2000, 1000, 7,
     "ecf361f73ca6139337166f23e45d3fe2abbc2862d285fab6546de802c05c57be"),
    ("synthetic-shapes", 2000, 1000, 8,
     "6361ece9606a5a8a269b292a099b0db732d6e5770a91b23fb32c49a5b56fd1b1"),
    ("gaussian-noise", 1000, 500, 31,
     "e533dcd08d51f7b5d0b5c5851555e6bc11e3b28bdf77a04cf769a4ec3c70a985"),
    ("synthetic-digits", 2000, 500, 7,
     "39d2f63bd4f5591cabe4a45b4bf318abef3495705ef3b276fe6957da5e777abd"),
    ("synthetic-digits", 200, 100, 7,
     "c631c2a5fbe8fbe93d76622ce9bcfccffc4404ec1bc60abb77bd00cee51831a3"),
    ("synthetic-shapes", 200, 100, 8,
     "c04dce3456fd11d5e4842e64d87c6461f622edf0f0838e6363b3f5a7c2b6adba"),
    ("gaussian-noise", 200, 100, 31,
     "56773bfb5a0606c156d51628f24b1da9dc12dd29c9875531e57a681a9be097a0"),
]
GOLDEN_ENTROPY_CONFIGS = (EntropyConfig(), EntropyConfig(bins=16, lo=None, hi=None),
                          EntropyConfig(bins=64, lo=-2.0, hi=2.0))


@pytest.mark.parametrize("name,n_train,n_test,seed,digest", ENTROPY_GOLDENS)
def test_entropy_vector_matches_goldens_of_the_per_row_estimator(name, n_train, n_test, seed,
                                                                digest):
    splits = resolve_datasets({"name": name, "train_size": n_train, "test_size": n_test,
                               "seed": seed})
    h = hashlib.sha256()
    for cfg in GOLDEN_ENTROPY_CONFIGS:
        for ds in splits:
            h.update(entropy_vector(ds.inputs, cfg).tobytes())
    assert h.hexdigest() == digest


@pytest.fixture
def counted_estimator(monkeypatch):
    """An empty memo and corpus cache, and the list of (shape, cfg) of
    every estimator call."""
    monkeypatch.setattr(metrics, "_MEMO", collections.OrderedDict())
    data._cached_corpus.cache_clear()
    calls, real = [], metrics._entropies
    monkeypatch.setattr(metrics, "_entropies",
                        lambda rows, cfg: calls.append((rows.shape, cfg)) or real(rows, cfg))
    yield calls
    data._cached_corpus.cache_clear()


def test_suite_computes_each_entropy_vector_once(tmp_path, counted_estimator):
    from cnalab.harness import run_suite
    datasets = [{"name": name, "train_size": 40, "test_size": 20, "seed": seed}
                for name, seed in (("synthetic-digits", 3), ("synthetic-shapes", 4))]
    suite = {"grid": {"datasets": datasets, "corruptions": [0.0, 0.5],
                      "archs": [{"name": "mlp", "hidden": [4, 4]},
                                {"name": "cnn", "channels": [2, 2], "kernel": 3, "stride": 2}]},
             "epochs": 1, "output_root": str(tmp_path / "suite")}
    run_suite(suite, log=lambda *_: None)
    cfg = EntropyConfig()
    assert sorted(counted_estimator, key=str) == [((20, 784), cfg)] * 2 + [((40, 784), cfg)] * 2


def test_entropy_memo_keeps_only_read_only_owned_arrays(counted_estimator):
    x = np.random.default_rng(4).random((30, 7))
    first = entropy_vector(x)
    x[:, 0] = 0.5                           # writeable: recomputed, new answer
    assert np.array_equal(entropy_vector(x), reference_entropy_vector(x))
    assert not np.array_equal(entropy_vector(x), first)
    x.flags.writeable = False
    entropy_vector(x[2:])                   # a read-only view is not memoised
    entropy_vector(x[2:])
    assert len(counted_estimator) == 5
    got = entropy_vector(x)
    got[:] = -1.0                           # the caller's copy, not the memo's
    again = entropy_vector(x)
    assert len(counted_estimator) == 6
    assert np.array_equal(bits(again), bits(reference_entropy_vector(x)))
    entropy_vector(x, EntropyConfig(bins=16))
    assert len(counted_estimator) == 7
    ref = weakref.ref(x)
    del x
    gc.collect()
    assert ref() is None                    # the memo holds the corpus weakly


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


def test_cna_of_a_nested_list_is_bitwise_that_of_its_array():
    specs = [nn.dense(6, 5), nn.relu(), nn.dense(5, 4), nn.relu(), nn.dense(4, 3)]
    net = nn.build_network(specs, 11, (6,))
    inputs = np.random.default_rng(6).random((10, 6))
    assert bits(cna(net, inputs.tolist())) == bits(cna(net, inputs))
    z, logits = trace_over_dataset(net, inputs.tolist())
    want_z, want_logits = trace_over_dataset(net, inputs)
    assert np.array_equal(bits(z), bits(want_z))
    assert np.array_equal(bits(logits), bits(want_logits))


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


def test_gap_metric_set_on_a_zero_weight_net_leaves_cna_undefined_and_written_null(tmp_path):
    from cnalab.records import RunRecord, read_record, write_record
    net = nn.build_network([nn.dense(4, 6), nn.relu(), nn.dense(6, 6), nn.relu(),
                            nn.dense(6, 3)], 5, (4,))
    for _, _, arr in net.param_items():
        arr[:] = 0.0            # every pre-activation is 0: beta has no variance
    rng = np.random.default_rng(8)
    train = LabeledDataset(rng.uniform(size=(40, 4)), rng.integers(0, 3, size=40), 3)
    test = LabeledDataset(rng.uniform(size=(30, 4)), rng.integers(0, 3, size=30), 3)
    for split in ("train", "test"):
        got = metrics.gap_metric_set(net, train, test, cna_split=split)
        assert got.cna is None and got.cna_margin is None
    path = tmp_path / "record_epoch0001.json"
    write_record(RunRecord(dataset="toy", arch="mlp", corruption=0.0, epoch=1, train_acc=0.5,
                           test_acc=0.5, gap=0.0, metrics=got.to_dict()), path)
    written = json.loads(path.read_text())["metrics"]
    assert written["cna"] is None and written["cna_margin"] is None
    assert '"cna": null' in path.read_text()
    assert read_record(path).metrics == got.to_dict()


def test_gap_metric_set_on_an_empty_split_raises_data_error():
    from cnalab.metrics import gap_metric_set
    net = scaling_linear_net()
    full = LabeledDataset(graded_dataset(), np.array([0, 1, 2, 3, 0, 1]), 4)
    empty = LabeledDataset(np.zeros((0, 4)), np.zeros(0, dtype=int), 4)
    with pytest.raises(DataError):
        gap_metric_set(net, full, empty)
    with pytest.raises(DataError):
        gap_metric_set(net, empty, full)


@pytest.mark.parametrize("split", ["Test", "TRAIN", "", "both", None])
def test_gap_metric_set_names_a_cna_split_other_than_train_or_test(split):
    net = scaling_linear_net()
    ds = LabeledDataset(graded_dataset(), np.array([0, 1, 2, 3, 0, 1]), 4)
    with pytest.raises(DataError, match=f"cna_split .*got {split!r}"):
        metrics.gap_metric_set(net, ds, ds, cna_split=split)


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


# --- entropy of 8-bit codes ------------------------------------------------------

@settings(max_examples=300, deadline=None, derandomize=True)
@given(n=st.integers(0, 9), m=st.integers(1, 60), seed=st.integers(0, 2 ** 32 - 1),
       cfg=st.sampled_from([EntropyConfig(), EntropyConfig(bins=16, lo=0.2, hi=0.7),
                            EntropyConfig(bins=37, lo=None, hi=None)]),
       spread=st.sampled_from([1, 2, 5, 256]),
       block=st.sampled_from([1, 7, 60, 1 << 16]))
def test_entropy_of_codes_equals_the_float_estimator_on_their_decode(n, m, seed, cfg, spread,
                                                                     block):
    rng = np.random.default_rng(seed)
    codes = (rng.integers(0, 256) + rng.integers(0, spread, size=(n, m))).astype(np.uint8)
    floats = data.decode(codes)
    with mock.patch.object(metrics, "_BLOCK", block):
        got, want = entropy_vector(codes, cfg), entropy_vector(floats, cfg)
    assert np.array_equal(bits(got), bits(want))
    assert np.array_equal(bits(want), bits(reference_entropy_vector(floats, cfg)))
    for row, value in zip(codes, want):
        assert bits(entropy(row, cfg)) == bits(value)


def test_a_coded_cell_peaks_below_its_float_corpus(tmp_path, counted_estimator):
    import tracemalloc

    from cnalab.config import ExperimentConfig
    from cnalab.harness import run_training
    cfg = ExperimentConfig.from_dict({
        "dataset": {"name": "synthetic-digits", "train_size": 2000, "test_size": 500,
                    "seed": 7},
        "arch": {"name": "mlp", "hidden": [128, 128]},
        "optimizer": {"kind": "adam", "lr": 0.001, "batch_size": 128},
        "epochs": 1, "output_dir": str(tmp_path / "run")})
    float_corpus = 2000 * 28 * 28 * 8        # 12.5 MB: the training inputs as float64
    tracemalloc.start()
    try:     # render, both entropy vectors, one epoch and one snapshot
        run_training(cfg, log=lambda *_: None)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(counted_estimator) == 2
    assert peak < float_corpus
