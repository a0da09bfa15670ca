"""Run one cnalab CLI command with timing wrappers installed from outside.

    python3 child.py boundary|trace SPANS_OUT CNALAB_ARGS...

The program is not modified: each wrapper replaces a function on every
cnalab module that holds a reference to it, because the harness binds
names with `from ... import ...` (cnalab.harness.train_epoch is the
function the harness calls, not cnalab.optim.train_epoch). "boundary"
wraps only run_training and train_epoch, which is all the untraced
end-to-end metrics need; "trace" wraps every layer in spans.TARGETS. Spans stay
in memory and are written to SPANS_OUT as JSON when the command returns.
"""

import functools
import hashlib
import inspect
import json
import os
import sys
import time

import cnalab.cli
import cnalab.harness
import numpy as np

from spans import TARGETS

BOUNDARY = ("harness.run_training", "optim.train_epoch")


def _fingerprint(arr):
    return hashlib.sha1(np.ascontiguousarray(arr).data).hexdigest()


def _arch(net):
    return "cnn" if any(s.kind == "conv2d" for s in net.specs) else "mlp"


# Work counted per span, from the call's bound arguments. Each returns
# (n, key, tag): an amount of work, an identity for reuse ratios, a label.
COUNTERS = {
    "data.render": lambda a: (a["n"], f"{a['source']}/{a['seed']}/{a['stream']}/{a['n']}", None),
    "metrics.entropy_vector": lambda a: (len(a["inputs"]), _fingerprint(a["inputs"]), None),
    "metrics.gap_metric_set": lambda a: (len(a["train_ds"]) + len(a["test_ds"]), None, None),
    "metrics.trace_over_dataset": lambda a: (len(a["inputs"]), None, None),
    "optim.train_epoch": lambda a: (len(a["train_ds"]), None, None),
    "optim.evaluate": lambda a: (len(a["ds"]), None, None),
    "nn.loss_and_gradients": lambda a: (len(a["batch"]), None, _arch(a["net"])),
    "nn.forward": lambda a: (len(a["batch"]), None, None),
    "checkpoint.save_checkpoint": lambda a: (os.path.getsize(a["path"]), None, None),
    "checkpoint.load_checkpoint": lambda a: (os.path.getsize(a["path"]), None, None),
}


class Recorder:
    """Spans of one process: [name, start, end, parent, cell, n, key, tag, failed,
    overhead].

    parent is the index of the enclosing span (-1 at top level); cell is
    the output directory name of the enclosing run_training call; overhead
    is the time the wrapper spent outside [start, end] (bookkeeping and
    counting), which spans.self_times takes out of the parent's self time.
    """

    def __init__(self):
        self.spans = []
        self.stack = []
        self.cell = None

    def wrap(self, name, fn):
        sig = inspect.signature(fn)
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            enter = time.monotonic()
            outer_cell = self.cell
            if name == "harness.run_training":
                self.cell = os.path.basename(sig.bind(*args, **kwargs).arguments["cfg"]
                                             .output_dir)
            span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.cell,
                    0, None, None, False, 0.0]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.monotonic()
            span[9] = span[1] - enter
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[8] = True
                raise
            finally:
                span[2] = time.monotonic()
                self.stack.pop()
                self.cell = outer_cell
            if counter is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span[5], span[6], span[7] = counter(bound.arguments)
            span[9] += time.monotonic() - span[2]
            return result

        return wrapper


def install(recorder, names):
    """Replace each target named in names wherever a cnalab module binds it."""
    modules = [m for k, m in sys.modules.items() if k == "cnalab" or k.startswith("cnalab.")]
    for module_name, attr, name in TARGETS:
        if name not in names:
            continue
        owner = sys.modules[module_name]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            setattr(cls, meth, recorder.wrap(name, getattr(cls, meth)))
            continue
        original = getattr(owner, attr)
        wrapper = recorder.wrap(name, original)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)


def main(argv):
    mode, spans_out, cli_args = argv[0], argv[1], argv[2:]
    recorder = Recorder()
    install(recorder, BOUNDARY if mode == "boundary" else {t[2] for t in TARGETS})
    run = recorder.wrap("cli.main", cnalab.cli.main)
    try:
        return run(cli_args)
    finally:
        with open(spans_out, "w", encoding="utf-8") as fh:
            json.dump(recorder.spans, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
