"""Training loop and evaluation tests."""

import numpy as np
import pytest

from cnalab import nn
from cnalab.data import LabeledDataset
from cnalab.errors import DataError, NumericError
from cnalab.optim import (BLOCK, OptConfig, apply_update, evaluate, init_opt_state,
                          iter_batches, score, trace_over_dataset, train_epoch)
from cnalab.rng import seeded_rng


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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nonfinite_value_fails_at_the_step_it_appears():
    ds = separable_toy()
    poisoned = 13
    ds.inputs[poisoned] = np.inf
    cfg = OptConfig(kind="adam", lr=0.01, batch_size=4)
    order = seeded_rng(5, "shuffle", counter=1).permutation(len(ds))
    step = int(np.flatnonzero(order == poisoned)[0]) // cfg.batch_size
    assert step > 0
    net = tiny_net()
    done = []
    with pytest.raises(NumericError):
        train_epoch(net, ds, cfg, init_opt_state(net, cfg), 5, 1,
                    on_batch=lambda s, loss: done.append(s))
    assert done == list(range(step))


def count_check_finite(monkeypatch):
    """Record the context of every check_finite call, wherever cnalab binds it."""
    import sys
    original, calls = nn.check_finite, []

    def counting(arr, context):
        calls.append(context)
        return original(arr, context)

    for name, module in list(sys.modules.items()):
        if name.startswith("cnalab") and getattr(module, "check_finite", None) is original:
            monkeypatch.setattr(module, "check_finite", counting)
    return calls


@pytest.mark.parametrize("arch", [{"name": "mlp", "hidden": [256, 256]},
                                  {"name": "cnn", "channels": [16, 32], "kernel": 5,
                                   "stride": 2}], ids=["mlp-256x256", "cnn-16x32"])
def test_a_step_checks_its_logits_and_each_updated_parameter(monkeypatch, arch):
    from cnalab.config import build_arch, resolve_datasets
    train_ds, _ = resolve_datasets({"name": "synthetic-digits", "train_size": 32,
                                    "test_size": 8, "seed": 7})
    shape = train_ds.inputs.shape[1:]
    net = nn.build_network(build_arch(arch, shape, train_ds.classes), 21, shape)
    cfg = OptConfig(kind="adam", lr=0.002, batch_size=32)
    state = init_opt_state(net, cfg)
    calls = count_check_finite(monkeypatch)
    train_epoch(net, train_ds, cfg, state, 22, 1)          # one step
    assert calls[0] == "logits"
    assert len(calls) == 1 + len(list(net.param_items())) == 7


def overflow_net():
    """Finite logits of +-1e10 on inputs of 1e300, but an infinite first-layer
    gradient: 1e300 times the 5e9 gradient flowing back through W2."""
    return nn.Network(specs=[nn.dense(1, 1), nn.relu(), nn.dense(1, 2)],
                      params={0: {"W": np.array([[1e-300]]), "b": np.zeros(1)},
                              2: {"W": np.array([[1e10, -1e10]]), "b": np.zeros(2)}},
                      input_shape=(1,))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("kind", ["sgd", "adam"])
@pytest.mark.parametrize("lr", [0.1, 0.0])
def test_gradient_overflow_under_finite_logits_fails_at_step_0(kind, lr):
    x, y = np.full((4, 1), 1e300), np.ones(4, dtype=np.int64)
    net = overflow_net()
    logits, _ = nn.forward(net, x)
    assert np.all(np.isfinite(logits)) and np.all(np.abs(logits) > 9e9)
    with pytest.raises(NumericError):
        nn.backward(net, x, y)
    cfg = OptConfig(kind=kind, lr=lr, batch_size=4)
    done = []
    with pytest.raises(NumericError):
        train_epoch(net, LabeledDataset(x, y, 2), cfg, init_opt_state(net, cfg), 0, 1,
                    on_batch=lambda s, loss: done.append(s))
    assert done == []


def whole_array_update(net, grads, cfg, state):
    """The whole-array SGD/Adam step that the blocked loop replaced, verbatim."""
    if cfg.kind == "sgd":
        for idx, g in grads.items():
            for name, garr in g.items():
                net.params[idx][name] -= cfg.lr * garr
    else:
        state.t += 1
        bc1 = 1.0 - cfg.beta1 ** state.t
        bc2 = 1.0 - cfg.beta2 ** state.t
        for idx, g in grads.items():
            for name, garr in g.items():
                m = state.m[idx][name]
                v = state.v[idx][name]
                m *= cfg.beta1
                m += (1.0 - cfg.beta1) * garr
                v *= cfg.beta2
                v += (1.0 - cfg.beta2) * garr * garr
                mhat = m / bc1
                vhat = v / bc2
                net.params[idx][name] -= cfg.lr * mhat / (np.sqrt(vhat) + cfg.eps)
    for idx, name, arr in net.param_items():
        nn.check_finite(arr, f"parameters of layer {idx} {name} after update")


class Params:
    """The part of a Network an optimizer step reads: params and param_items."""
    param_items = nn.Network.param_items

    def __init__(self, arrays):
        self.params = {idx: {"W": arr} for idx, arr in enumerate(arrays)}


def random_arrays(rng, shapes, transposed=False):
    arrays = [rng.normal(size=shape) * 10.0 ** rng.integers(-6, 3, size=shape)
              for shape in shapes]
    return [a.T if transposed else a for a in arrays]


@pytest.mark.parametrize("kind", ["sgd", "adam"])
@pytest.mark.parametrize("lr", [0.003, 0.0])
@pytest.mark.parametrize("shapes", [
    [(1,), (BLOCK - 1,), (BLOCK,), (BLOCK + 1,), (3 * BLOCK + 5,)],
    [(16, 1, 5, 5), (32, 16, 5, 5), (3, 2, 100, 100), (7,)],
    [(3072, 256), (256,), (2, BLOCK + 3), (BLOCK + 1, 3)],
], ids=["sizes", "conv", "dense"])
@pytest.mark.parametrize("transposed", [False, True], ids=["c-order", "transposed"])
def test_blocked_step_equals_the_whole_array_step_bitwise(kind, lr, shapes, transposed):
    rng = np.random.default_rng(len(shapes) + 2 * transposed)
    start = random_arrays(rng, shapes, transposed)
    nets = [Params([a.copy(order="K") for a in start]) for _ in range(2)]
    assert all(a.flags.c_contiguous != transposed or a.ndim == 1 for a in start)
    cfg = OptConfig(kind=kind, lr=lr)
    states = [init_opt_state(net, cfg) for net in nets]
    for _ in range(4):
        grads = {idx: {"W": g} for idx, g in
                 enumerate(random_arrays(rng, shapes, transposed))}
        grads[len(shapes) - 1]["W"].flat[::3] = 0.0
        apply_update(nets[0], grads, cfg, states[0])
        whole_array_update(nets[1], grads, cfg, states[1])
    (blocked, whole), (s_blocked, s_whole) = nets, states
    assert s_blocked.t == s_whole.t
    for idx, name, arr in whole.param_items():
        assert blocked.params[idx][name].tobytes() == arr.tobytes()
        if lr:
            assert arr.tobytes() != start[idx].tobytes()
        else:
            assert arr.tobytes() == start[idx].tobytes()
        for table in ("m", "v") if kind == "adam" else ():
            assert (getattr(s_blocked, table)[idx][name].tobytes()
                    == getattr(s_whole, table)[idx][name].tobytes())


def test_an_adam_step_on_a_wide_layer_allocates_under_1_mb():
    import tracemalloc
    rng = np.random.default_rng(0)
    net = Params([rng.normal(size=(3072, 256)), rng.normal(size=256)])
    cfg = OptConfig(kind="adam", lr=0.001)
    state = init_opt_state(net, cfg)
    grads = {idx: {"W": rng.normal(size=arr.shape)} for idx, _, arr in net.param_items()}
    tracemalloc.start()
    try:
        apply_update(net, grads, cfg, state)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
