"""The benchmark's tracer (perfbench/child.py) wraps cnalab functions named
in perfbench/spans.py TARGETS and counts their work from argument names.
These tests fail when a rename or removal in cnalab would break a traced
benchmark run."""

import ast
import importlib
import inspect
import json
import pathlib
import sys

import numpy as np
import pytest

from cnalab.checkpoint import load_checkpoint
from cnalab.config import resolve_datasets

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def targets(monkeypatch):
    """Span name -> the cnalab function child.py would wrap for it."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    found = {}
    for module_name, attr, name in spans.TARGETS:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), f"{module_name}.{attr}"
        found[name] = owner
    return found


def counter_arguments():
    """Span name -> the argument names its COUNTERS lambda reads as a["name"]."""
    tree = ast.parse((PERFBENCH / "child.py").read_text(encoding="utf-8"))
    table = next(node.value for node in ast.walk(tree) if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "COUNTERS" for t in node.targets))
    return {key.value: {node.slice.value for node in ast.walk(fn)
                        if isinstance(node, ast.Subscript)
                        and getattr(node.value, "id", None) == fn.args.args[0].arg}
            for key, fn in zip(table.keys, table.values)}


def test_every_traced_target_resolves(targets):
    assert "harness.run_training" in targets and "optim.train_epoch" in targets
    # child.py names a training span's cell after this argument's output_dir
    assert "cfg" in inspect.signature(targets["harness.run_training"]).parameters


def test_every_counter_reads_parameters_of_its_target(targets):
    counters = counter_arguments()
    assert counters and all(counters.values())
    for name, args in counters.items():
        assert name in targets, f"counter {name} has no traced target"
        params = inspect.signature(targets[name]).parameters
        assert args <= set(params), f"{name} reads {sorted(args - set(params))}"


def test_every_counter_counts_a_coded_train(targets, tmp_path, monkeypatch):
    """Each COUNTERS lambda, run on the arguments its target gets in a `train`
    (and a `metrics` on its checkpoint) over 8-bit codes, yields a count."""
    from cnalab import data, optim
    from cnalab.cli import main
    child = importlib.import_module("child")
    calls = {name: [] for name in child.COUNTERS}

    def recording(name, fn):
        sig = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            calls[name].append(bound.arguments)
            return fn(*args, **kwargs)
        return wrapper

    modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "cnalab"]
    for name in child.COUNTERS:
        fn, wrapper = targets[name], recording(name, targets[name])
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, key, wrapper)
    data._cached_corpus.cache_clear()
    dataset = {"name": "synthetic-digits", "train_size": 60, "test_size": 30, "seed": 7}
    cfg = {"dataset": dataset, "arch": {"name": "mlp", "hidden": [8, 8]},
           "optimizer": {"kind": "adam", "lr": 0.001, "batch_size": 32}, "epochs": 1,
           "output_dir": str(tmp_path / "run")}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    try:
        assert main(["train", "--config", str(tmp_path / "cfg.json")]) == 0
        ckpt = str(tmp_path / "run" / "ckpt_epoch0001.cnac")
        assert main(["metrics", "--checkpoint", ckpt, "--data", json.dumps(dataset)]) == 0
        train_ds, test_ds = resolve_datasets(dataset)
        optim.evaluate(load_checkpoint(ckpt).net, test_ds)
    finally:
        data._cached_corpus.cache_clear()
    assert train_ds.pixels.dtype == np.uint8
    counts = {}
    for name, counter in child.COUNTERS.items():
        assert calls[name], f"{name} was not called"
        for arguments in calls[name]:
            n, _, _ = counter(arguments)
            assert isinstance(n, int) and n > 0, name
            counts.setdefault(name, set()).add(n)
    assert all(a["inputs"].dtype == np.uint8 for a in calls["metrics.entropy_vector"])
    assert counts["metrics.entropy_vector"] == {60, 30}
    assert counts["metrics.trace_over_dataset"] == {60, 30}
