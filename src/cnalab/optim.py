"""SGD and Adam updates, the epoch training loop, and evaluation: one
batched recorded pass (trace_over_dataset) whose logits score() reads."""

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .nn import cross_entropy, forward, loss_and_gradients
from .rng import seeded_rng
from .tensor import check_finite


@dataclass(frozen=True)
class OptConfig:
    kind: str = "sgd"            # "sgd" or "adam"
    lr: float = 0.01
    batch_size: int = 64
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        if self.kind not in ("sgd", "adam"):
            raise ValueError(f"unknown optimizer kind {self.kind!r}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


@dataclass
class OptState:
    """Adam first/second moment buffers plus the step counter.

    Empty for SGD. Keys mirror the network's param layout: m[idx][name].
    """
    t: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def init_opt_state(net, cfg):
    state = OptState()
    if cfg.kind == "adam":
        for idx, name, arr in net.param_items():
            state.m.setdefault(idx, {})[name] = np.zeros_like(arr)
            state.v.setdefault(idx, {})[name] = np.zeros_like(arr)
    return state


def apply_update(net, grads, cfg, state):
    """One optimizer step, in place."""
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
        check_finite(arr, f"parameters of layer {idx} {name} after update")


def iter_batches(n, batch_size, order=None):
    idx = np.arange(n) if order is None else order
    for start in range(0, n, batch_size):
        yield idx[start:start + batch_size]


def train_epoch(net, train_ds, cfg, state, shuffle_seed, epoch, on_batch=None):
    """Train one epoch in place; returns (mean_loss, train_accuracy).

    The minibatch order is a pure function of (shuffle_seed, epoch), which
    is what makes checkpoint-resumed training bit-identical to an
    uninterrupted run. on_batch(step, loss), when given, is called after
    every parameter update (used for trajectory recording).
    """
    n = len(train_ds.labels)
    if n == 0:
        raise DataError("cannot train on an empty dataset")
    if cfg.batch_size > n:
        raise DataError(f"batch size {cfg.batch_size} exceeds dataset size {n}")
    order = seeded_rng(shuffle_seed, "shuffle", counter=epoch).permutation(n)
    loss_sum = 0.0
    correct = 0
    step = 0
    for batch_idx in iter_batches(n, cfg.batch_size, order):
        xb = train_ds.inputs[batch_idx]
        yb = train_ds.labels[batch_idx]
        loss, grads, logits = loss_and_gradients(net, xb, yb)
        apply_update(net, grads, cfg, state)
        loss_sum += loss * len(batch_idx)
        correct += int(np.sum(np.argmax(logits, axis=1) == yb))
        if on_batch is not None:
            on_batch(step, loss)
        step += 1
    return loss_sum / n, correct / n


def trace_over_dataset(net, inputs, batch_size=512):
    """The batched evaluation pass: recorded (N, L) pre-activation aggregates
    and logits, in a fixed batch order so the result is batch-size independent."""
    n = inputs.shape[0]
    if n == 0:
        raise DataError("cannot evaluate an empty dataset")
    passes = [forward(net, inputs[b], record=True) for b in iter_batches(n, batch_size)]
    return np.vstack([trace.z for _, trace in passes]), np.vstack([lg for lg, _ in passes])


def score(logits, labels, batch_size=512):
    """Accuracy, mean loss, and per-datapoint error flags of a pass's logits.

    Predictions use argmax with the lowest class index winning ties
    (numpy's argmax convention). flags[i] is True where point i is
    misclassified, so accuracy == 1 - mean(flags). The loss adds up each
    batch_size-row slice's mean cross-entropy times its rows, in order.
    """
    n = len(labels)
    flags = np.argmax(logits, axis=1) != labels
    loss_sum = sum(cross_entropy(logits[b], labels[b]) * len(b)
                   for b in iter_batches(n, batch_size))
    # direct count ratio: exact chance-level values on balanced sets
    accuracy = float(n - int(flags.sum())) / n
    return accuracy, loss_sum / n, flags


def evaluate(net, ds, batch_size=512):
    """Accuracy, mean loss, and error flags of ds: score() of one pass."""
    return score(trace_over_dataset(net, ds.inputs, batch_size)[1], ds.labels, batch_size)
