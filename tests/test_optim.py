"""Training loop and evaluation tests."""

import numpy as np
import pytest

from cnalab import nn
from cnalab.data import LabeledDataset
from cnalab.errors import DataError
from cnalab.optim import (OptConfig, evaluate, init_opt_state, iter_batches, score,
                          trace_over_dataset, train_epoch)


def separable_toy(n=40, seed=0):
    rng = np.random.default_rng(seed)
    half = n // 2
    x0 = rng.normal(loc=(-2.0, -2.0), scale=0.4, size=(half, 2))
    x1 = rng.normal(loc=(2.0, 2.0), scale=0.4, size=(half, 2))
    x = np.vstack([x0, x1])
    y = np.array([0] * half + [1] * half)
    return LabeledDataset(x, y, 2, {"source": "toy"})


def tiny_net(seed=0):
    specs = [nn.dense(2, 8), nn.relu(), nn.dense(8, 8), nn.relu(), nn.dense(8, 2)]
    return nn.build_network(specs, seed, (2,))


def test_sgd_converges_on_separable_data():
    ds = separable_toy()
    net = tiny_net()
    cfg = OptConfig(kind="sgd", lr=0.1, batch_size=8)
    state = init_opt_state(net, cfg)
    for epoch in range(1, 51):
        train_epoch(net, ds, cfg, state, shuffle_seed=1, epoch=epoch)
    acc, _, _ = evaluate(net, ds)
    assert acc == 1.0


def test_zero_lr_leaves_parameters_unchanged():
    ds = separable_toy()
    for kind in ("sgd", "adam"):
        net = tiny_net()
        before = {(i, n): a.copy() for i, n, a in net.param_items()}
        cfg = OptConfig(kind=kind, lr=0.0, batch_size=8)
        state = init_opt_state(net, cfg)
        loss, acc = train_epoch(net, ds, cfg, state, shuffle_seed=1, epoch=1)
        assert np.isfinite(loss) and 0.0 <= acc <= 1.0
        for i, n, a in net.param_items():
            assert a.tobytes() == before[(i, n)].tobytes()


def test_training_is_deterministic():
    ds = separable_toy()
    results = []
    for _ in range(2):
        net = tiny_net(seed=3)
        cfg = OptConfig(kind="adam", lr=0.01, batch_size=8)
        state = init_opt_state(net, cfg)
        losses = [train_epoch(net, ds, cfg, state, shuffle_seed=5, epoch=e)[0]
                  for e in (1, 2, 3)]
        results.append((losses, {(i, n): a.tobytes() for i, n, a in net.param_items()}))
    assert results[0][0] == results[1][0]
    assert results[0][1] == results[1][1]


def test_epoch_order_depends_on_epoch_index():
    # different epochs must see different shuffles, same epoch the same one
    from cnalab.rng import seeded_rng
    p1 = seeded_rng(5, "shuffle", counter=1).permutation(100)
    p1b = seeded_rng(5, "shuffle", counter=1).permutation(100)
    p2 = seeded_rng(5, "shuffle", counter=2).permutation(100)
    assert np.array_equal(p1, p1b)
    assert not np.array_equal(p1, p2)


def test_batch_size_larger_than_dataset_rejected():
    ds = separable_toy(n=10)
    net = tiny_net()
    cfg = OptConfig(kind="sgd", lr=0.1, batch_size=64)
    with pytest.raises(DataError):
        train_epoch(net, ds, cfg, init_opt_state(net, cfg), 1, 1)


def test_empty_dataset_rejected():
    ds = LabeledDataset(np.zeros((0, 2)), np.zeros(0, dtype=int), 2)
    net = tiny_net()
    cfg = OptConfig(kind="sgd", lr=0.1, batch_size=1)
    with pytest.raises(DataError):
        train_epoch(net, ds, cfg, init_opt_state(net, cfg), 1, 1)


def test_constant_logits_accuracy_is_exactly_chance():
    # zero weights -> all-zero logits -> argmax ties resolve to class 0
    net = tiny_net()
    for _, _, arr in net.param_items():
        arr[:] = 0.0
    n_per_class = 7
    x = np.random.default_rng(0).normal(size=(2 * n_per_class, 2))
    y = np.array([0] * n_per_class + [1] * n_per_class)
    ds = LabeledDataset(x, y, 2)
    acc, _, flags = evaluate(net, ds)
    assert acc == 0.5
    assert np.all(~flags[:n_per_class]) and np.all(flags[n_per_class:])


def test_ten_class_constant_logits():
    specs = [nn.dense(3, 10)]
    net = nn.build_network(specs, 0, (3,))
    for _, _, arr in net.param_items():
        arr[:] = 0.0
    y = np.repeat(np.arange(10), 4)
    x = np.random.default_rng(1).normal(size=(40, 3))
    acc, _, _ = evaluate(net, LabeledDataset(x, y, 10))
    assert acc == 0.1


def test_flags_sum_matches_accuracy():
    ds = separable_toy()
    net = tiny_net(seed=9)
    acc, _, flags = evaluate(net, ds)
    assert abs((1.0 - flags.sum() / len(ds)) - acc) < 1e-15


def test_perfect_memorizer_reaches_one():
    ds = separable_toy(n=20)
    net = tiny_net()
    cfg = OptConfig(kind="adam", lr=0.01, batch_size=4)
    state = init_opt_state(net, cfg)
    for epoch in range(1, 80):
        train_epoch(net, ds, cfg, state, 1, epoch)
        if evaluate(net, ds)[0] == 1.0:
            break
    assert evaluate(net, ds)[0] == 1.0


def test_evaluate_is_the_scored_pass_bitwise_on_ragged_batches():
    # 1100 rows make batches of 512, 512 and 76
    rng = np.random.default_rng(3)
    ds = LabeledDataset(rng.normal(size=(1100, 2)) * 3.0, rng.integers(0, 2, size=1100), 2)
    net = tiny_net(seed=4)
    acc, loss, flags = evaluate(net, ds)
    z, logits = trace_over_dataset(net, ds.inputs)
    assert z.shape == (1100, net.n_layers) and logits.shape == (1100, 2)
    s_acc, s_loss, s_flags = score(logits, ds.labels)
    assert (acc, loss) == (s_acc, s_loss)
    assert np.array_equal(flags, s_flags)
    # the unrecorded per-batch loop gives the same bytes
    loss_sum, ref_flags = 0.0, np.zeros(1100, dtype=bool)
    for b in iter_batches(1100, 512):
        out, _ = nn.forward(net, ds.inputs[b])
        ref_flags[b] = np.argmax(out, axis=1) != ds.labels[b]
        loss_sum += nn.cross_entropy(out, ds.labels[b]) * len(b)
    assert loss == loss_sum / 1100
    assert np.array_equal(flags, ref_flags)
    assert acc == (1100 - int(ref_flags.sum())) / 1100


def test_the_pass_rejects_empty_inputs():
    net = tiny_net()
    with pytest.raises(DataError):
        trace_over_dataset(net, np.zeros((0, 2)))
    with pytest.raises(DataError):
        evaluate(net, LabeledDataset(np.zeros((0, 2)), np.zeros(0, dtype=int), 2))
