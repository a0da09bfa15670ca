"""Trajectory, PCA, landscape, binning, and report tests."""

import numpy as np
import pytest

from cnalab import nn
from cnalab.analysis import (ALL_NETS, Trajectory, TrajectorySample, binned_error_curves,
                             cna_at_points, cna_landscape, complexity_bins,
                             gap_correlation_report, pca2, record_state)
from cnalab.errors import DataError, UndefinedCorrelationError
from cnalab.metrics import slope_vector
from cnalab.records import RunRecord


def planar_trajectory(t_steps=12, probe_n=6, n_layers=3, seed=0, noise=0.0):
    """States exactly on a 2-D affine plane in probe_n*n_layers dims."""
    rng = np.random.default_rng(seed)
    dim = probe_n * n_layers
    basis = np.linalg.qr(rng.normal(size=(dim, 2)))[0].T      # 2 orthonormal rows
    center = rng.normal(size=dim)
    coeffs = rng.normal(scale=3.0, size=(t_steps, 2))
    states = center + coeffs @ basis
    if noise:
        states = states + rng.normal(scale=noise, size=states.shape)
    samples = [TrajectorySample(step=i, state=states[i], loss=float(t_steps - i))
               for i in range(t_steps)]
    return samples, states


def test_record_state_zero_net():
    net = nn.build_network([nn.dense(3, 4), nn.dense(4, 4), nn.dense(4, 2)], 0, (3,))
    for _, _, arr in net.param_items():
        arr[:] = 0.0
    probe = np.random.default_rng(0).random((5, 3))
    s = record_state(net, probe, step=0, loss=1.0)
    assert np.all(s.state == 0.0)
    assert s.state.shape == (5 * net.n_layers,)


def test_record_state_repeatable():
    net = nn.build_network([nn.dense(3, 4), nn.dense(4, 4), nn.dense(4, 2)], 1, (3,))
    probe = np.random.default_rng(1).random((4, 3))
    a = record_state(net, probe, 0, 0.5)
    b = record_state(net, probe, 0, 0.5)
    assert a.state.tobytes() == b.state.tobytes()


def test_trajectory_rejects_dimension_drift():
    traj = Trajectory(probe_shape=(4,), n_layers=2)
    traj.append(TrajectorySample(0, np.zeros(8), 1.0))
    with pytest.raises(DataError):
        traj.append(TrajectorySample(1, np.zeros(6), 1.0))


def test_pca2_planar_reconstruction_is_exact():
    samples, states = planar_trajectory()
    basis, path = pca2(samples)
    assert basis.effective_rank == 2
    recon = basis.reconstruct(path)
    assert np.max(np.abs(recon - states)) < 1e-8
    # orthonormality within 1e-10
    g = basis.components @ basis.components.T
    assert np.max(np.abs(g - np.eye(2))) < 1e-10


def test_pca2_explained_variance_tracks_planar_fraction():
    samples, states = planar_trajectory(t_steps=60, noise=0.01, seed=3)
    basis, _ = pca2(samples)
    total_var = np.var(states - states.mean(0), axis=0, ddof=1).sum()
    top2 = basis.explained_variance.sum()
    assert top2 / total_var > 0.95


def test_pca2_shift_invariance_of_projection():
    samples, _ = planar_trajectory(seed=4)
    basis_a, path_a = pca2(samples)
    shifted = [TrajectorySample(s.step, s.state + 11.0, s.loss) for s in samples]
    basis_b, path_b = pca2(shifted)
    for k in range(2):
        col = path_b[:, k]
        assert np.allclose(col, path_a[:, k], atol=1e-8) or \
            np.allclose(col, -path_a[:, k], atol=1e-8)


def test_pca2_needs_three_samples_and_variance():
    samples, _ = planar_trajectory(t_steps=2)
    with pytest.raises(DataError):
        pca2(samples)
    flat = [TrajectorySample(i, np.ones(6), 0.0) for i in range(5)]
    with pytest.raises(DataError):
        pca2(flat)


def test_pca2_reports_rank_deficiency():
    rng = np.random.default_rng(5)
    direction = rng.normal(size=12)
    samples = [TrajectorySample(i, i * direction, 0.0) for i in range(6)]
    basis, _ = pca2(samples)
    assert basis.effective_rank == 1
    with pytest.raises(DataError):
        cna_landscape(basis, (0, 1), (0, 1), 3, rng.random(4))


def test_landscape_matches_direct_cna_on_planar_trajectory():
    probe_n, n_layers = 8, 4
    samples, states = planar_trajectory(t_steps=15, probe_n=probe_n,
                                        n_layers=n_layers, seed=6)
    alphas = np.random.default_rng(7).random(probe_n)
    basis, path = pca2(samples)
    got = cna_at_points(basis, path, alphas)
    from cnalab.metrics import pearson
    for i, s in enumerate(samples):
        betas = slope_vector(s.state.reshape(probe_n, n_layers))
        assert got[i] == pytest.approx(pearson(alphas, betas), abs=1e-9)


def test_landscape_grid_contains_point_values():
    samples, _ = planar_trajectory(t_steps=10, probe_n=5, n_layers=2, seed=8)
    alphas = np.random.default_rng(9).random(5)
    basis, _ = pca2(samples)
    grid = cna_landscape(basis, (-1.0, 1.0), (-2.0, 2.0), 5, alphas)
    assert grid.values.shape == (5, 5)
    direct = cna_at_points(basis, [(grid.xs[2], grid.ys[3])], alphas)[0]
    assert grid.values[3, 2] == pytest.approx(direct, abs=1e-12)
    # doubling both ranges, same resolution: shared coordinates keep values
    big = cna_landscape(basis, (-2.0, 2.0), (-4.0, 4.0), 5, alphas)
    assert big.values[2, 2] == pytest.approx(grid.values[2, 2], abs=1e-12)   # center
    assert big.xs[2] == grid.xs[2] and big.ys[2] == grid.ys[2]


def test_landscape_constant_alpha_rejected():
    samples, _ = planar_trajectory(seed=10)
    basis, _ = pca2(samples)
    with pytest.raises(UndefinedCorrelationError):
        cna_landscape(basis, (0, 1), (0, 1), 3, np.ones(6))


def test_complexity_bins_balanced():
    alphas = np.random.default_rng(11).random(100)
    bins = complexity_bins(alphas, 5)
    assert [len(b) for b in bins.bin_indices] == [20] * 5
    assert sorted(np.concatenate(bins.bin_indices)) == list(range(100))


def test_complexity_bins_increasing_alpha_contiguous():
    alphas = np.arange(50, dtype=float)
    bins = complexity_bins(alphas, 5)
    for b in range(5):
        assert list(bins.bin_indices[b]) == list(range(b * 10, (b + 1) * 10))


def test_complexity_bins_all_equal_tiebreak():
    alphas = np.ones(23)
    bins = complexity_bins(alphas, 5)
    sizes = [len(b) for b in bins.bin_indices]
    assert max(sizes) - min(sizes) <= 1
    assert list(bins.bin_indices[0]) == list(range(len(bins.bin_indices[0])))


def test_binned_curves_perfect_and_partition_identity():
    rng = np.random.default_rng(12)
    n, epochs = 60, 4
    alphas = rng.random(n)
    bins = complexity_bins(alphas, 5)
    flags = rng.random((epochs, n)) < 0.3
    curves = binned_error_curves(flags, bins)
    assert curves.curves.shape == (5, epochs)
    # size-weighted mean of bin curves equals the overall error curve
    weighted = (curves.curves * curves.bin_sizes[:, None]).sum(0) / n
    assert np.allclose(weighted, flags.mean(axis=1), atol=1e-12)
    zero = binned_error_curves(np.zeros((2, n), dtype=bool), bins)
    assert np.all(zero.curves == 0.0)


def make_record(arch, gap, metrics, epoch=1):
    return RunRecord(dataset="toy", arch=arch, corruption=0.0, epoch=epoch,
                     train_acc=0.9, test_acc=0.9 - gap, gap=gap, metrics=metrics)


def test_report_metric_equal_to_gap_gives_one():
    runs = [make_record("mlp", g, {"cna": g}) for g in (0.1, 0.2, 0.3, 0.4)]
    cells = gap_correlation_report(runs, metric_names=("cna",))
    by_group = {c.group: c for c in cells}
    assert by_group[ALL_NETS].rho == pytest.approx(1.0, abs=1e-12)
    assert by_group["mlp"].rho == pytest.approx(1.0, abs=1e-12)


def test_report_constant_metric_is_undefined():
    runs = [make_record("mlp", g, {"cna": 0.5}) for g in (0.1, 0.2, 0.3)]
    cells = gap_correlation_report(runs, metric_names=("cna",))
    assert all(c.rho is None for c in cells)


def test_report_hand_computed_values():
    gaps = [0.05, 0.10, 0.30, 0.20, 0.15]
    vals = [0.2, 0.1, 0.9, 0.5, 0.4]
    archs = ["mlp", "mlp", "mlp", "cnn", "cnn"]
    runs = [make_record(a, g, {"cna": v}, epoch=i)
            for i, (a, g, v) in enumerate(zip(archs, gaps, vals))]
    cells = {(c.metric, c.group): c for c in gap_correlation_report(
        runs, metric_names=("cna",), min_runs=2)}

    def hand_rho(xs, ys):
        xs, ys = np.asarray(xs), np.asarray(ys)
        return (((xs - xs.mean()) * (ys - ys.mean())).sum() /
                np.sqrt(((xs - xs.mean()) ** 2).sum() * ((ys - ys.mean()) ** 2).sum()))

    assert cells[("cna", ALL_NETS)].rho == pytest.approx(hand_rho(vals, gaps), abs=1e-12)
    assert cells[("cna", "mlp")].rho == pytest.approx(
        hand_rho(vals[:3], gaps[:3]), abs=1e-12)
    assert cells[("cna", "cnn")].rho == pytest.approx(
        hand_rho(vals[3:], gaps[3:]), abs=1e-12)
    assert cells[("cna", ALL_NETS)].n == 5


def test_report_order_invariance():
    rng = np.random.default_rng(13)
    runs = [make_record("mlp" if i % 2 else "cnn", float(rng.random()),
                        {"cna": float(rng.random())}, epoch=i) for i in range(9)]
    a = gap_correlation_report(runs)
    b = gap_correlation_report(list(reversed(runs)))
    assert [(c.metric, c.group, c.rho, c.n) for c in a] == \
        [(c.metric, c.group, c.rho, c.n) for c in b]


def test_report_group_by_dataset():
    runs = [make_record("mlp", g, {"cna": g}, epoch=i)
            for i, g in enumerate((0.1, 0.2, 0.3, 0.4))]
    for i, r in enumerate(runs):
        r.dataset = "alpha-set" if i % 2 else "beta-set"
    cells = gap_correlation_report(runs, metric_names=("cna",), min_runs=2,
                                   group_by="dataset")
    groups = {c.group for c in cells}
    assert groups == {ALL_NETS, "alpha-set", "beta-set"}


def test_report_none_metrics_dropped():
    runs = [make_record("mlp", g, {"cna": None if i == 0 else g}, epoch=i)
            for i, g in enumerate((0.1, 0.2, 0.3, 0.4))]
    cells = {c.group: c for c in gap_correlation_report(runs, metric_names=("cna",))}
    assert cells[ALL_NETS].n == 3
    assert cells[ALL_NETS].rho == pytest.approx(1.0, abs=1e-12)
