"""SGD and Adam updates, the epoch training loop, and evaluation: one
batched recorded pass (trace_over_dataset) whose logits score() reads.
A step checks its logits and updated parameters finite: a non-finite
gradient makes its parameter non-finite, so it fails at its own step."""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .nn import check_finite, cross_entropy, forward, loss_and_gradients
from .rng import seeded_rng

EVAL_BATCH = 512    # rows per slice of an evaluation pass and of its loss sum
BLOCK = 1 << 14     # values per block of an optimizer step
_SCRATCH = np.empty((2, BLOCK))     # a step's only temporaries; the engine is single-threaded


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
        for name, ok, rule in (("lr", 0.0 <= self.lr < math.inf, "finite and >= 0"),
                               ("beta1", 0.0 <= self.beta1 < 1.0, "in [0, 1)"),
                               ("beta2", 0.0 <= self.beta2 < 1.0, "in [0, 1)"),
                               ("eps", 0.0 < self.eps < math.inf, "finite and > 0")):
            if not ok:
                raise ValueError(f"{name} must be {rule}, got {getattr(self, name)!r}")


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


def _blocks(arr):
    """Index tuples of basic slices (views for any layout) that cut arr
    along its leading axes into blocks of at most BLOCK values."""
    row = math.prod(arr.shape[1:])
    if row > BLOCK:
        for i in range(len(arr)):
            yield from ((i,) + rest for rest in _blocks(arr[i]))
    else:
        step = BLOCK // max(row, 1)
        yield from ((slice(start, start + step),) for start in range(0, len(arr), step))


def apply_update(net, grads, cfg, state):
    """One optimizer step, in place, block by block through two fixed
    scratch blocks: the whole-array formulas' operations in their order,
    so the same bits (c * g is g * c in IEEE arithmetic)."""
    if cfg.kind == "adam":
        state.t += 1
        bc1, bc2 = 1.0 - cfg.beta1 ** state.t, 1.0 - cfg.beta2 ** state.t
    for idx, name, p in net.param_items():
        for at in _blocks(p):
            pb, g = p[at], grads[idx][name][at]
            a, b = (s[:pb.size].reshape(pb.shape) for s in _SCRATCH)
            if cfg.kind == "sgd":
                pb -= np.multiply(g, cfg.lr, out=a)                 # lr * g
            else:
                m, v = state.m[idx][name][at], state.v[idx][name][at]
                m *= cfg.beta1
                m += np.multiply(g, 1.0 - cfg.beta1, out=a)         # (1 - b1) * g
                v *= cfg.beta2
                v += np.multiply(np.multiply(g, 1.0 - cfg.beta2, out=a), g, out=a)
                np.multiply(np.divide(m, bc1, out=a), cfg.lr, out=a)    # lr * (m / bc1)
                np.add(np.sqrt(np.divide(v, bc2, out=b), out=b), cfg.eps, out=b)
                pb -= np.divide(a, b, out=a)
        check_finite(p, f"parameters of layer {idx} {name} after update")


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
    loss_sum, correct = 0.0, 0
    for step, batch_idx in enumerate(iter_batches(n, cfg.batch_size, order)):
        yb = train_ds.labels[batch_idx]
        loss, grads, logits = loss_and_gradients(net, train_ds.pixels[batch_idx], yb)
        apply_update(net, grads, cfg, state)
        loss_sum += loss * len(batch_idx)
        correct += int(np.sum(np.argmax(logits, axis=1) == yb))
        if on_batch is not None:
            on_batch(step, loss)
        del grads, logits   # one gradient set alive at a time (after on_batch: fewer page faults)
    return loss_sum / n, correct / n


def trace_over_dataset(net, inputs):
    """The batched evaluation pass: recorded (N, L) pre-activation aggregates
    and logits, in a fixed batch order so the result is batch-size independent.
    Each batch is a row-slice view of inputs, never a copy, which the layer
    walk decodes when it holds uint8 codes."""
    inputs = np.asarray(inputs)
    n = inputs.shape[0]
    if n == 0:
        raise DataError("cannot evaluate an empty dataset")
    passes = [forward(net, inputs[start:start + EVAL_BATCH], record=True)
              for start in range(0, n, EVAL_BATCH)]
    return np.vstack([trace.z for _, trace in passes]), np.vstack([lg for lg, _ in passes])


def score(logits, labels):
    """Accuracy, mean loss, and per-datapoint error flags of a pass's logits.

    Predictions use argmax with the lowest class index winning ties
    (numpy's argmax convention). flags[i] is True where point i is
    misclassified, so accuracy == 1 - mean(flags). The loss adds up each
    EVAL_BATCH-row slice's mean cross-entropy times its rows, in order.
    """
    n = len(labels)
    flags = np.argmax(logits, axis=1) != labels
    loss_sum = sum(cross_entropy(logits[b], labels[b]) * len(b)
                   for b in iter_batches(n, EVAL_BATCH))
    # direct count ratio: exact chance-level values on balanced sets
    accuracy = float(n - int(flags.sum())) / n
    return accuracy, loss_sum / n, flags


def evaluate(net, ds):
    """Accuracy, mean loss, and error flags of ds: score() of one pass."""
    return score(trace_over_dataset(net, ds.pixels)[1], ds.labels)
