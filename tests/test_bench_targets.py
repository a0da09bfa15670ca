"""The benchmark's tracer (perfbench/child.py) wraps cnalab functions named
in perfbench/spans.py TARGETS and counts their work from argument names.
These tests fail when a rename or removal in cnalab would break a traced
benchmark run."""

import ast
import importlib
import inspect
import pathlib

import pytest

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
