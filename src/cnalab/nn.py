"""Minimal deterministic feedforward engine with activation instrumentation.

Supports dense and small conv2d layers (valid padding, square kernels),
relu, and flatten. A forward pass can record, per datapoint, one
aggregated pre-activation value for each depth-mapped layer; the
resulting matrix (N datapoints x L layers) is the raw material for the
activation-slope metric. Recording never perturbs the computation.

One shape rule (_shapes) gives each layer kind's output shape and the
shapes of the parameters it owns; the Network constructor, build_network
and config.build_arch read it. One layer walk (_walk over _apply_layer),
reading only net.params, serves forward, the forward half of
loss_and_gradients, layer_preactivations and, with squared parameters,
metrics.path_norm; it alone reads input batches, a uint8 one as 8-bit
codes (data.decode). Dense and conv2d layers share one gradient tail.

Depth map: the layers counted as depth 1..L are the parameterized hidden
layers, in network order. The final parameterized layer (the one
producing the logits) is excluded unless the network was built with
include_output=True. The Network constructor derives depth_map and
layer_shapes from the specs, and rejects params that are not one W (and
a b iff spec.bias) of the right shape per parameterized layer.

check_finite raises NumericError on NaN/Inf. forward and
loss_and_gradients check the logits, backward each gradient.

Results are bitwise reproducible for the same (seed, config), numpy/OpenBLAS
build, BLAS kernel and BLAS thread count (left at the process's setting).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .data import as_inputs, decode
from .errors import DataError, NumericError, ShapeError
from .rng import seeded_rng


def check_finite(arr, context):
    """Raise NumericError if arr contains NaN or Inf; returns arr."""
    if not np.all(np.isfinite(arr)):
        bad = int(np.size(arr) - np.count_nonzero(np.isfinite(arr)))
        raise NumericError(f"non-finite values ({bad} elements) in {context}")
    return arr


@dataclass(frozen=True)
class LayerSpec:
    kind: str
    in_features: int = 0
    out_features: int = 0
    in_channels: int = 0
    out_channels: int = 0
    kernel: int = 0
    stride: int = 1
    bias: bool = True


def dense(n_in, n_out, bias=True):
    return LayerSpec(kind="dense", in_features=int(n_in), out_features=int(n_out), bias=bias)


def conv2d(c_in, c_out, kernel, stride=1, bias=True):
    return LayerSpec(kind="conv2d", in_channels=int(c_in), out_channels=int(c_out),
                     kernel=int(kernel), stride=int(stride), bias=bias)


def relu():
    return LayerSpec(kind="relu")


def flatten():
    return LayerSpec(kind="flatten")


def _shapes(spec, shape):
    """The one shape rule of a layer kind: given the per-datapoint input
    shape, the layer's output shape and {name: shape} of the parameters it
    owns (empty for relu and flatten)."""
    if spec.kind == "dense":
        if len(shape) != 1 or shape[0] != spec.in_features:
            raise ShapeError(f"dense layer expects ({spec.in_features},), got {shape}")
        out, params = (spec.out_features,), {"W": (spec.in_features, spec.out_features)}
    elif spec.kind == "conv2d":
        if len(shape) != 3 or shape[0] != spec.in_channels:
            raise ShapeError(f"conv2d layer expects ({spec.in_channels}, h, w), got {shape}")
        _, h, w = shape
        k, s = spec.kernel, spec.stride
        if h < k or w < k:
            raise ShapeError(f"conv2d kernel {k} larger than input {h}x{w}")
        out = (spec.out_channels, (h - k) // s + 1, (w - k) // s + 1)
        params = {"W": (spec.out_channels, spec.in_channels, k, k)}
    elif spec.kind == "relu":
        return shape, {}
    elif spec.kind == "flatten":
        return (math.prod(shape),), {}
    else:
        raise ShapeError(f"unknown layer kind {spec.kind!r}")
    if spec.bias:
        params["b"] = out[:1]
    return out, params


def _layout(params):
    """{layer index: {name: shape}} of a params-like table."""
    return {idx: {name: np.shape(arr) for name, arr in p.items()} for idx, p in params.items()}


@dataclass
class Network:
    """Ordered layer specs, parameter tensors, and the depth map. The one
    constructor checks params against specs and derives the shapes."""

    specs: list
    params: dict          # layer index -> {"W": array, "b": array}
    input_shape: tuple
    layer_shapes: list = field(init=False)   # per-layer output shapes (per datapoint)
    depth_map: list = field(init=False)      # layer indices counted as depths 1..L
    aggregation: str = "mean"   # "mean" or "sum" over a layer's pre-activations
    include_output: bool = False
    init_seed: int = 0

    def __post_init__(self):
        if not self.specs:
            raise ShapeError("empty layer spec list")
        if self.aggregation not in ("mean", "sum"):
            raise ValueError(f"aggregation must be 'mean' or 'sum', got {self.aggregation!r}")
        self.specs = list(self.specs)
        self.input_shape = shape = tuple(int(d) for d in self.input_shape)
        self.layer_shapes, expected = [], {}
        for idx, spec in enumerate(self.specs):
            shape, owned = _shapes(spec, shape)
            self.layer_shapes.append(shape)
            if owned:
                expected[idx] = owned
        if len(shape) != 1:
            raise ShapeError(f"network must end in a class-score vector, got shape {shape}")
        if _layout(self.params) != expected:
            raise ShapeError(f"params {_layout(self.params)} do not match specs {expected}")
        self.depth_map = list(expected) if self.include_output else list(expected)[:-1]

    @property
    def n_layers(self):
        """L: number of depth-mapped layers."""
        return len(self.depth_map)

    @property
    def n_classes(self):
        return self.layer_shapes[-1][0]

    def param_items(self):
        """(layer_index, name, array) triples in a fixed order."""
        for idx in sorted(self.params):
            for name in ("W", "b"):
                if name in self.params[idx]:
                    yield idx, name, self.params[idx][name]

    def weight_matrices(self):
        """Per parameterized layer, the weights as a 2-D matrix: dense
        weights as they are, conv kernels as (out_channels, in_channels*k*k)."""
        return [p["W"].reshape(len(p["W"]), -1) for _, p in sorted(self.params.items())]


def build_network(specs, init_seed, input_shape, aggregation="mean", include_output=False):
    """Construct a network with deterministically initialized parameters.

    Weights use the fan-scaled uniform scheme +-sqrt(6/(fan_in+fan_out));
    biases start at zero. The same (specs, init_seed) always yields
    bit-identical parameters.
    """
    rng = seeded_rng(init_seed, "init")
    params, shape = {}, tuple(input_shape)
    for idx, spec in enumerate(specs):
        shape, shapes = _shapes(spec, shape)
        if shapes:
            w = shapes["W"]
            # fan_in + fan_out: the two leading axes times the kernel area
            limit = np.sqrt(6.0 / ((w[0] + w[1]) * math.prod(w[2:])))
            params[idx] = {"W": rng.uniform(-limit, limit, size=w)}
            if spec.bias:
                params[idx]["b"] = np.zeros(shapes["b"])
    return Network(specs=specs, params=params, input_shape=input_shape,
                   aggregation=aggregation, include_output=include_output,
                   init_seed=int(init_seed))


@dataclass
class ActivationTrace:
    """Per-datapoint aggregated pre-activations, one column per depth."""

    z: np.ndarray          # (N, L)

    def __post_init__(self):
        check_finite(self.z, "activation trace")


def _im2col(x, k, s):
    """Extract conv patches: (N, C, H, W) -> (N*oh*ow, C*k*k)."""
    n, c = x.shape[:2]
    view = np.lib.stride_tricks.sliding_window_view(x, (k, k), axis=(2, 3))[:, :, ::s, ::s]
    oh, ow = view.shape[2:4]
    return view.transpose(0, 2, 3, 1, 4, 5).reshape(n * oh * ow, c * k * k), oh, ow


def _col2im(dcols, x_shape, k, s, oh, ow):
    """Scatter-add patch gradients back to the input image grid."""
    n, c, h, w = x_shape
    dx = np.zeros(x_shape)
    d = dcols.reshape(n, oh, ow, c, k, k).transpose(0, 3, 4, 5, 1, 2)  # n,c,k,k,oh,ow
    for i in range(k):
        for j in range(k):
            dx[:, :, i:i + s * oh:s, j:j + s * ow:s] += d[:, :, i, j]
    return dx


def _aggregate(pre, mode):
    """Collapse a layer's pre-activation block to one value per datapoint."""
    flat = pre.reshape(pre.shape[0], -1)
    return flat.mean(axis=1) if mode == "mean" else flat.sum(axis=1)


def _apply_layer(net, idx, a):
    """Layer idx applied to the batch a: (output, backward cache). This is
    the only place that dispatches the forward computation on the layer kind."""
    spec = net.specs[idx]
    if spec.kind == "relu":
        return np.maximum(a, 0.0), a
    if spec.kind == "flatten":
        return a.reshape(a.shape[0], -1), a.shape
    p = net.params[idx]
    if spec.kind == "dense":
        out = a @ p["W"]
        return (out + p["b"] if spec.bias else out), a
    w = p["W"]
    cols, oh, ow = _im2col(a, spec.kernel, spec.stride)
    out = cols @ w.reshape(w.shape[0], -1).T
    if spec.bias:
        out = out + p["b"]
    out = out.reshape(a.shape[0], oh, ow, w.shape[0]).transpose(0, 3, 1, 2)
    return out, (cols, a.shape, oh, ow)


def _walk(net, batch):
    """The layer walk: reads the batch (uint8 codes decoded), checks it against
    the network input, yields (layer index, output, backward cache) per layer."""
    a = decode(as_inputs(batch))
    if a.ndim < 2:
        raise ShapeError("batch must have a leading datapoint dimension")
    if tuple(a.shape[1:]) != net.input_shape:
        raise ShapeError(f"batch shape {tuple(a.shape[1:])} does not match "
                         f"network input {net.input_shape}")
    for idx in range(len(net.specs)):
        a, cache = _apply_layer(net, idx, a)
        yield idx, a, cache


def forward(net, batch, record=False):
    """Forward pass. Returns (logits, trace) where trace is None unless
    record is set."""
    z_cols = []
    for idx, a, _ in _walk(net, batch):
        if record and idx in net.depth_map:
            z_cols.append(_aggregate(a, net.aggregation))
    check_finite(a, "logits")
    if not record:
        return a, None
    z = np.column_stack(z_cols) if z_cols else np.zeros((a.shape[0], 0))
    return a, ActivationTrace(z=z)


def layer_preactivations(net, batch):
    """Full pre-activation blocks of every depth-mapped layer.

    Returns a list of (N, ...) arrays in depth order, one per mapped
    layer, before any aggregation. It is the reference for the recorded
    trace: the per-layer aggregate of each block reproduces it exactly.
    """
    return [check_finite(a, f"pre-activations of layer {idx}")
            for idx, a, _ in _walk(net, batch) if idx in net.depth_map]


def softmax(logits):
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def cross_entropy(logits, labels):
    """Mean cross-entropy of logits (N, C) against integer labels (N,)."""
    n = logits.shape[0]
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1))
    return float(np.mean(log_z - shifted[np.arange(n), labels]))


def _check_labels(labels, n_classes):
    labels = np.asarray(labels)
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        raise DataError(f"label out of range [0, {n_classes})")
    return labels.astype(np.int64)


def loss_and_gradients(net, batch, labels):
    """Mean cross-entropy loss, its gradients, and the batch logits.

    Returns (loss, grads, logits) with grads keyed like net.params.
    """
    labels = _check_labels(labels, net.n_classes)
    caches = []
    for idx, logits, cache in _walk(net, batch):
        caches.append((idx, cache))
    check_finite(logits, "logits")
    n = logits.shape[0]
    loss = cross_entropy(logits, labels)

    probs = softmax(logits)
    probs[np.arange(n), labels] -= 1.0
    grad = probs / n

    grads = {}
    first = min(net.params)    # nothing reads the gradient w.r.t. its input
    for idx, cache in reversed(caches):
        spec = net.specs[idx]
        if spec.kind == "relu":
            grad = grad * (cache > 0)
        elif spec.kind == "flatten":
            grad = grad.reshape(cache)
        else:                  # a parameter layer: its output-gradient rows, then one tail
            w = net.params[idx]["W"]
            if spec.kind == "dense":
                rows, g = grad, {"W": cache.T @ grad}
            else:
                cols, in_shape, oh, ow = cache
                rows = grad.transpose(0, 2, 3, 1).reshape(-1, w.shape[0])  # (n*oh*ow, oc)
                g = {"W": (rows.T @ cols).reshape(w.shape)}
            if spec.bias:
                g["b"] = rows.sum(axis=0)
            grads[idx] = g
            if idx == first:
                break
            grad = rows @ w.T if spec.kind == "dense" else _col2im(
                rows @ w.reshape(w.shape[0], -1), in_shape, spec.kernel, spec.stride, oh, ow)
    return loss, grads, logits


def backward(net, batch, labels):
    """Gradients of the mean cross-entropy w.r.t. every parameter."""
    _, grads, _ = loss_and_gradients(net, batch, labels)
    for idx in grads:
        for name, g in grads[idx].items():
            check_finite(g, f"gradient of layer {idx} {name}")
    return grads
