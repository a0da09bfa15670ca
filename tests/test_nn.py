"""Engine tests: construction, forward/trace, gradients, invariants."""

import hashlib

import numpy as np
import pytest

from cnalab import nn
from cnalab.errors import DataError, NumericError, ShapeError


def mlp_specs():
    return [nn.dense(4, 3), nn.relu(), nn.dense(3, 3), nn.relu(), nn.dense(3, 2)]


def test_depth_map_excludes_output():
    net = nn.build_network(mlp_specs(), 0, (4,))
    assert net.n_layers == 2
    assert net.depth_map == [0, 2]


def test_depth_map_include_output_flag():
    net = nn.build_network(mlp_specs(), 0, (4,), include_output=True)
    assert net.n_layers == 3
    assert net.depth_map == [0, 2, 4]


def test_single_hidden_layer_network_has_depth_one():
    net = nn.build_network([nn.dense(784, 128), nn.relu(), nn.dense(128, 10)], 7, (784,))
    assert net.n_layers == 1


def test_build_is_deterministic():
    a = nn.build_network(mlp_specs(), 7, (4,))
    b = nn.build_network(mlp_specs(), 7, (4,))
    for (ia, na, pa), (ib, nb, pb) in zip(a.param_items(), b.param_items()):
        assert (ia, na) == (ib, nb)
        assert pa.tobytes() == pb.tobytes()
    c = nn.build_network(mlp_specs(), 8, (4,))
    assert not np.array_equal(a.params[0]["W"], c.params[0]["W"])


def test_build_rejects_bad_shapes():
    with pytest.raises(ShapeError):
        nn.build_network([nn.dense(4, 3), nn.dense(5, 2)], 0, (4,))
    with pytest.raises(ShapeError):
        nn.build_network([], 0, (4,))
    with pytest.raises(ShapeError):
        nn.build_network([nn.conv2d(1, 2, 3)], 0, (4,))


def test_forward_identity_weights_records_ones():
    specs = [nn.dense(3, 3), nn.dense(3, 3)]
    net = nn.build_network(specs, 0, (3,), include_output=True)
    net.params[0]["W"][:] = np.eye(3)
    net.params[0]["b"][:] = 0.0
    net.params[1]["W"][:] = np.eye(3)
    net.params[1]["b"][:] = 0.0
    logits, trace = nn.forward(net, np.ones((1, 3)), record=True)
    assert np.allclose(trace.z[0], [1.0, 1.0])
    assert np.allclose(logits, 1.0)


def test_forward_zero_weights_records_zeros():
    net = nn.build_network(mlp_specs(), 0, (4,))
    for idx, name, arr in net.param_items():
        arr[:] = 0.0
    _, trace = nn.forward(net, np.random.default_rng(0).normal(size=(5, 4)), record=True)
    assert np.all(trace.z == 0.0)


def naive_forward_trace(net, x):
    """Straight-line re-implementation of the recorded forward pass."""
    rows = []
    for sample in x:
        a = sample
        row = []
        for idx, spec in enumerate(net.specs):
            if spec.kind == "dense":
                pre = a @ net.params[idx]["W"]
                if spec.bias:
                    pre = pre + net.params[idx]["b"]
                if idx in net.depth_map:
                    row.append(pre.mean() if net.aggregation == "mean" else pre.sum())
                a = pre
            elif spec.kind == "conv2d":
                w = net.params[idx]["W"]
                k, s = spec.kernel, spec.stride
                c_in, h, ww = a.shape
                oh = (h - k) // s + 1
                ow = (ww - k) // s + 1
                pre = np.zeros((w.shape[0], oh, ow))
                for oc in range(w.shape[0]):
                    for i in range(oh):
                        for j in range(ow):
                            patch = a[:, i * s:i * s + k, j * s:j * s + k]
                            pre[oc, i, j] = np.sum(patch * w[oc])
                    if spec.bias:
                        pre[oc] += net.params[idx]["b"][oc]
                if idx in net.depth_map:
                    row.append(pre.mean() if net.aggregation == "mean" else pre.sum())
                a = pre
            elif spec.kind == "relu":
                a = np.maximum(a, 0.0)
            elif spec.kind == "flatten":
                a = a.ravel()
        rows.append(row)
    return np.array(rows)


def test_trace_matches_naive_oracle_mlp():
    rng = np.random.default_rng(42)
    specs = [nn.dense(784, 128), nn.relu(), nn.dense(128, 64), nn.relu(), nn.dense(64, 10)]
    net = nn.build_network(specs, 3, (784,))
    x = rng.random((3, 784))
    _, trace = nn.forward(net, x, record=True)
    assert np.allclose(trace.z, naive_forward_trace(net, x), atol=1e-12)


def test_trace_matches_naive_oracle_cnn():
    rng = np.random.default_rng(1)
    specs = [nn.conv2d(1, 3, 3, stride=2), nn.relu(), nn.conv2d(3, 4, 2), nn.relu(),
             nn.flatten(), nn.dense(4 * 2 * 2, 5)]
    net = nn.build_network(specs, 5, (1, 8, 8))
    x = rng.random((2, 1, 8, 8))
    _, trace = nn.forward(net, x, record=True)
    assert np.allclose(trace.z, naive_forward_trace(net, x), atol=1e-12)


def test_recording_neutrality_bitwise():
    rng = np.random.default_rng(9)
    net = nn.build_network(mlp_specs(), 4, (4,))
    x = rng.normal(size=(6, 4))
    plain, _ = nn.forward(net, x, record=False)
    recorded, trace = nn.forward(net, x, record=True)
    assert plain.tobytes() == recorded.tobytes()
    assert trace is not None


def test_trace_linearity_under_weight_scaling():
    specs = [nn.dense(3, 4), nn.dense(4, 4), nn.dense(4, 2)]
    net = nn.build_network(specs, 11, (3,), include_output=False)
    x = np.random.default_rng(2).normal(size=(5, 3))
    _, t1 = nn.forward(net, x, record=True)
    net.params[0]["W"] *= 2.5
    net.params[0]["b"] *= 2.5
    _, t2 = nn.forward(net, x, record=True)
    assert np.allclose(t2.z[:, 0], 2.5 * t1.z[:, 0])


def test_cnn_flatten_equivalence():
    # mean over the (c, h, w) block equals mean over its flattened vector
    rng = np.random.default_rng(12)
    specs = [nn.conv2d(2, 3, 3), nn.relu(), nn.flatten(), nn.dense(3 * 4 * 4, 2)]
    net = nn.build_network(specs, 2, (2, 6, 6), include_output=True)
    x = rng.random((3, 2, 6, 6))
    logits, trace = nn.forward(net, x, record=True)
    for i in range(3):
        a = x[i]
        w = net.params[0]["W"]
        pre = np.zeros((3, 4, 4))
        for oc in range(3):
            for r in range(4):
                for c in range(4):
                    pre[oc, r, c] = np.sum(a[:, r:r + 3, c:c + 3] * w[oc]) + net.params[0]["b"][oc]
        assert np.isclose(trace.z[i, 0], pre.ravel().mean(), atol=1e-12)


def test_full_preactivations_aggregate_to_trace():
    rng = np.random.default_rng(21)
    specs = [nn.conv2d(1, 3, 3, stride=2), nn.relu(), nn.flatten(),
             nn.dense(3 * 3 * 3, 6), nn.relu(), nn.dense(6, 2)]
    net = nn.build_network(specs, 6, (1, 7, 7))
    x = rng.random((4, 1, 7, 7))
    blocks = nn.layer_preactivations(net, x)
    _, trace = nn.forward(net, x, record=True)
    assert len(blocks) == net.n_layers
    for col, block in enumerate(blocks):
        means = block.reshape(block.shape[0], -1).mean(axis=1)
        assert np.array_equal(means, trace.z[:, col])


def test_sum_aggregation():
    net = nn.build_network([nn.dense(3, 4), nn.dense(4, 2)], 0, (3,),
                           aggregation="sum", include_output=True)
    x = np.random.default_rng(5).normal(size=(4, 3))
    _, trace = nn.forward(net, x, record=True)
    pre = x @ net.params[0]["W"] + net.params[0]["b"]
    assert np.allclose(trace.z[:, 0], pre.sum(axis=1))


def test_forward_shape_mismatch():
    net = nn.build_network(mlp_specs(), 0, (4,))
    with pytest.raises(ShapeError):
        nn.forward(net, np.ones((2, 5)))


def test_nonfinite_surfaces_as_error():
    net = nn.build_network(mlp_specs(), 0, (4,))
    net.params[0]["W"][0, 0] = np.inf
    with np.errstate(invalid="ignore"), pytest.raises(NumericError):
        nn.forward(net, np.ones((1, 4)))


def test_gradient_single_linear_layer_closed_form():
    net = nn.build_network([nn.dense(3, 4)], 0, (3,))
    x = np.array([[0.5, -1.0, 2.0]])
    label = 2
    logits, _ = nn.forward(net, x)
    p = np.exp(logits - logits.max())
    p /= p.sum()
    expected = np.outer(x[0], p[0] - np.eye(4)[label])
    grads = nn.backward(net, x, [label])
    assert np.allclose(grads[0]["W"], expected, atol=1e-12)
    assert np.allclose(grads[0]["b"], p[0] - np.eye(4)[label], atol=1e-12)


def test_gradient_zero_input_zero_bias():
    net = nn.build_network([nn.dense(3, 4)], 0, (3,))
    grads = nn.backward(net, np.zeros((2, 3)), [0, 1])
    assert np.all(grads[0]["W"] == 0.0)


def randomize_biases(net, seed=0, scale=0.3):
    """Move biases off zero so no relu input sits on its kink, where a
    central difference is one-sided and meaningless."""
    rng = np.random.default_rng(seed)
    for idx, name, arr in net.param_items():
        if name == "b":
            arr[:] = rng.normal(scale=scale, size=arr.shape)


def relu_kink_margin(net, x):
    """Smallest |pre-activation| feeding any relu layer."""
    margin = np.inf
    a = np.asarray(x, dtype=np.float64)
    for idx, spec in enumerate(net.specs):
        if spec.kind == "dense":
            a = a @ net.params[idx]["W"] + (net.params[idx]["b"] if spec.bias else 0.0)
        elif spec.kind == "conv2d":
            from cnalab.nn import _im2col
            w = net.params[idx]["W"]
            cols, oh, ow = _im2col(a, spec.kernel, spec.stride)
            pre = cols @ w.reshape(w.shape[0], -1).T
            if spec.bias:
                pre = pre + net.params[idx]["b"]
            a = pre.reshape(a.shape[0], oh, ow, w.shape[0]).transpose(0, 3, 1, 2)
        elif spec.kind == "relu":
            margin = min(margin, float(np.abs(a).min()))
            a = np.maximum(a, 0.0)
        elif spec.kind == "flatten":
            a = a.reshape(a.shape[0], -1)
    return margin


def finite_difference_check(net, x, y, n_coords=10, step=1e-5, seed=0):
    rng = np.random.default_rng(seed)
    from cnalab.nn import loss_and_gradients
    assert relu_kink_margin(net, x) > 100 * step, "probe point too close to a relu kink"
    _, grads, _ = loss_and_gradients(net, x, y)
    worst = 0.0
    for idx in grads:
        for name in grads[idx]:
            flat = net.params[idx][name].ravel()
            picks = rng.choice(flat.size, size=min(n_coords, flat.size), replace=False)
            for k in picks:
                orig = flat[k]
                flat[k] = orig + step
                lp, _, _ = loss_and_gradients(net, x, y)
                flat[k] = orig - step
                lm, _, _ = loss_and_gradients(net, x, y)
                flat[k] = orig
                fd = (lp - lm) / (2 * step)
                an = grads[idx][name].ravel()[k]
                worst = max(worst, abs(fd - an) / max(abs(fd), abs(an), 1e-8))
    return worst


def test_gradients_match_finite_differences_dense():
    rng = np.random.default_rng(7)
    net = nn.build_network(mlp_specs(), 1, (4,))
    randomize_biases(net, seed=3)
    x = rng.normal(size=(8, 4))
    y = rng.integers(0, 2, 8)
    assert finite_difference_check(net, x, y) < 1e-4


def test_gradients_match_finite_differences_conv():
    rng = np.random.default_rng(8)
    specs = [nn.conv2d(2, 3, 3, stride=2), nn.relu(), nn.conv2d(3, 2, 2), nn.relu(),
             nn.flatten(), nn.dense(2 * 2 * 2, 3)]
    net = nn.build_network(specs, 2, (2, 7, 7))
    randomize_biases(net, seed=4)
    x = rng.normal(size=(4, 2, 7, 7))
    y = rng.integers(0, 3, 4)
    assert finite_difference_check(net, x, y) < 1e-4


def test_backward_label_out_of_range():
    net = nn.build_network(mlp_specs(), 0, (4,))
    with pytest.raises(DataError):
        nn.backward(net, np.ones((1, 4)), [5])


def bias_free_conv_specs():
    return [nn.conv2d(2, 3, 3, stride=2, bias=False), nn.relu(), nn.conv2d(3, 2, 2), nn.relu(),
            nn.flatten(), nn.dense(2 * 2 * 2, 3, bias=False)]


def test_gradients_match_finite_differences_bias_free_conv():
    rng = np.random.default_rng(9)
    net = nn.build_network(bias_free_conv_specs(), 5, (2, 7, 7))
    assert [(idx, name) for idx, name, _ in net.param_items()] == [(0, "W"), (2, "W"), (2, "b"),
                                                                  (5, "W")]
    randomize_biases(net, seed=6)
    x = rng.normal(size=(4, 2, 7, 7))
    y = rng.integers(0, 3, 4)
    _, grads, _ = nn.loss_and_gradients(net, x, y)
    assert {idx: sorted(g) for idx, g in grads.items()} == {0: ["W"], 2: ["W", "b"], 5: ["W"]}
    assert finite_difference_check(net, x, y) < 1e-4


def test_network_rejects_params_that_do_not_match_specs():
    specs = bias_free_conv_specs()
    good = nn.build_network(specs, 0, (2, 7, 7))
    w0, w2, b2, w5 = (arr for _, _, arr in good.param_items())
    bad = [
        {0: {"W": np.zeros((3, 2, 2, 2))}, 2: {"W": w2, "b": b2}, 5: {"W": w5}},   # W shape
        {0: {"W": w0, "b": np.zeros(3)}, 2: {"W": w2, "b": b2}, 5: {"W": w5}},    # stray b
        {0: {"W": w0}, 2: {"W": w2}, 5: {"W": w5}},                              # missing b
        {0: {"W": w0}, 2: {"W": w2, "b": b2}},                                   # missing layer
        {0: {"W": w0}, 1: {"W": w0}, 2: {"W": w2, "b": b2}, 5: {"W": w5}},        # relu has W
    ]
    for params in bad:
        with pytest.raises(ShapeError, match="do not match"):
            nn.Network(specs=specs, params=params, input_shape=(2, 7, 7))
    net = nn.Network(specs=specs, params=good.params, input_shape=[2, 7, 7])
    assert net.input_shape == (2, 7, 7)
    assert net.layer_shapes == good.layer_shapes == [(3, 3, 3), (3, 3, 3), (2, 2, 2), (2, 2, 2),
                                                     (8,), (3,)]
    assert net.depth_map == good.depth_map == [0, 2]
    with pytest.raises(ValueError, match="aggregation"):
        nn.Network(specs=specs, params=good.params, input_shape=(2, 7, 7), aggregation="max")


def test_backprop_stops_at_the_first_parameterized_layer(monkeypatch):
    rng = np.random.default_rng(10)
    specs = [nn.conv2d(2, 3, 3, stride=2), nn.relu(), nn.conv2d(3, 2, 2), nn.relu(),
             nn.flatten(), nn.dense(2 * 2 * 2, 3)]
    net = nn.build_network(specs, 2, (2, 7, 7))
    randomize_biases(net, seed=4)
    x = rng.normal(size=(4, 2, 7, 7))
    y = rng.integers(0, 3, 4)
    shapes = []
    col2im = nn._col2im

    def counted(dcols, x_shape, *rest):
        shapes.append(x_shape)
        return col2im(dcols, x_shape, *rest)

    monkeypatch.setattr(nn, "_col2im", counted)
    nn.loss_and_gradients(net, x, y)
    assert shapes == [(4, 3, 3, 3)]      # the second conv's input only, never the image
    assert finite_difference_check(net, x, y) < 1e-4


def golden_conv_specs(bias):
    return [nn.conv2d(2, 3, 3, stride=2, bias=bias), nn.relu(), nn.conv2d(3, 4, 2, bias=bias),
            nn.relu(), nn.flatten(), nn.dense(4 * 2 * 2, 5, bias=bias), nn.relu(),
            nn.dense(5, 3, bias=bias)]


# sha256 of the loss (as float64) and of every gradient that loss_and_gradients
# returns on a fixed batch: a bitwise guard for the backward step, which the
# finite-difference tests above check only approximately.
GOLDEN_GRADIENTS = [
    (golden_conv_specs(True), (2, 7, 7), {
        "loss": "d239f74731545e22587a0b985406c62210e3a79d42d627b2c830eaa07e3583ad",
        "0.W": "e929d573e694307add068954d72bdcfa78f3a224d41f5318e6baef1b4351e617",
        "0.b": "990cc8e79d6c28111ee8d6e710b6292c387eeb97d7ade3f661460f6f3be7c336",
        "2.W": "e155cfbe47b9a393c4e1ca8eaaf259b11589d066f1266ecc5265e78063247dd5",
        "2.b": "1322ce73dc84999c2779d993479508737957c7b1e17fa7cc9976fcbc3962988a",
        "5.W": "fb3f0da5730161ceca1ab88a220ac775945e523de07665471d7f1f934bff3e4b",
        "5.b": "c087d5c84ca89814ebfcb88e8af8221cd4cd1058a68deb91b594bd53db9b9c90",
        "7.W": "a2ee836d7f1582bfb667678d1cdfb110feba60f0ca7c48a57bf45bc59572254d",
        "7.b": "b230534bb11f9f4782957af64cdb515b7131d61d250390ae93a697ea72464f88"}),
    (golden_conv_specs(False), (2, 7, 7), {
        "loss": "3d2cc42b1cfa8222851fde1cb0e73358f4dbeb88b518d20055b3a80ea13e3f7d",
        "0.W": "592be8eeb8438b3e07e152e67f3f5b725fc024b729036725b527ff3495a490ac",
        "2.W": "2e5e0ba6152537cdd5028c3452d197627d9df0fabe2c2056ef02922552b90146",
        "5.W": "020557bf67e29884f7b8b61d176a6bb80ba3d73f950fb48d999208d38e462afc",
        "7.W": "0b94206792509f32e379e6e7533c94729d54163837ce601d19d48935ed87c8b4"}),
    ([nn.dense(6, 5), nn.relu(), nn.dense(5, 4), nn.relu(), nn.dense(4, 3)], (6,), {
        "loss": "c55e9c8e27bdcb2c6dc1a700c9bc8fe361756496f5d3c2bf6015e6bee8285dd5",
        "0.W": "c195a7b49869a2452237e5ea386a543b81ff79264869840ab3aa0a365276fe27",
        "0.b": "1e0a6afb579d640c29f8e493751c379b87c87a8af9cc3ae9c499a0932e640cb3",
        "2.W": "27602d8b6f568a126b942629db15a19cb58f5d67955a7b6bc3328cd5f5c741a2",
        "2.b": "121029851d047307f4b71a964a216053cbcc3a06da237227e865addce33bf5cf",
        "4.W": "213784a8d29e63914e28960401d812149be3dd456441a37c5841781835447b85",
        "4.b": "242539e34ed919f9c1214760fbc792ebf336bc376cecd34e4586c4d28546df53"}),
]


@pytest.mark.parametrize("specs,input_shape,digests", GOLDEN_GRADIENTS,
                         ids=["conv", "conv-bias-free", "mlp"])
def test_loss_and_gradients_bitwise_golden(specs, input_shape, digests):
    net = nn.build_network(specs, 11, input_shape)
    rng = np.random.default_rng(12)
    for _, name, arr in net.param_items():
        if name == "b":
            arr[:] = rng.normal(scale=0.3, size=arr.shape)
    x = rng.normal(size=(6,) + input_shape)
    y = rng.integers(0, 3, 6)
    loss, grads, _ = nn.loss_and_gradients(net, x, y)
    got = {"loss": hashlib.sha256(np.float64(loss).tobytes()).hexdigest()}
    got.update((f"{idx}.{name}", hashlib.sha256(g.tobytes()).hexdigest())
               for idx in sorted(grads) for name, g in sorted(grads[idx].items()))
    assert got == digests
