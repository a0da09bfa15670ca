"""Config reading: every malformed value is a ConfigError (exit 2), every
accepted config survives to_dict/from_dict, and the schema docs parse."""

import copy
import json
import os
import pathlib
import re
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cnalab.cli import main
from cnalab.config import (ExperimentConfig, MetricOptions, arch_id, build_arch, load_config,
                           resolve_datasets)
from cnalab.errors import ConfigError, DataError
from cnalab.harness import build_suite_cells
from cnalab.optim import OptConfig

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)

# A valid config that sets every field of every section.
FULL_CONFIG = {
    "dataset": {"name": "synthetic-digits", "train_size": 20, "test_size": 10, "seed": 7,
                "corruption": 0.1, "corruption_seed": 3},
    "arch": {"name": "cnn", "channels": [2, 3], "kernel": 5, "stride": 2, "hidden": [4]},
    "optimizer": {"kind": "adam", "lr": 0.001, "batch_size": 8, "beta1": 0.9,
                  "beta2": 0.999, "eps": 1e-8},
    "epochs": 1,
    "snapshot_interval": 1,
    "metrics": {"entropy_bins": 16, "entropy_range": [0.0, 1.0], "aggregation": "mean",
                "include_output": False, "cna_split": "test", "margin_percentile": 10.0},
    "init_seed": 1,
    "shuffle_seed": 2,
    "record_trajectory": False,
    "probe_size": 8,
    "probe_seed": 99,
    "keep_checkpoints": "all",
    "output_dir": "run",
}


def with_field(path, value, base=FULL_CONFIG):
    """A copy of base with the field at path ("epochs" or "arch.kernel") set to value."""
    cfg = copy.deepcopy(base)
    *sections, key = path.split(".")
    target = cfg
    for section in sections:
        target = target[section]
    target[key] = value
    return cfg


TRAIN_BASE = {"dataset": {"name": "synthetic-digits", "train_size": 60, "test_size": 30,
                          "seed": 7},
              "arch": {"name": "mlp", "hidden": [8, 8]},
              "optimizer": {"kind": "adam", "lr": 0.001, "batch_size": 32},
              "epochs": 1}
SUITE_BASE = {"grid": {"datasets": [TRAIN_BASE["dataset"]], "archs": [TRAIN_BASE["arch"]]},
              "epochs": 1}

MALFORMED = [
    ("train", "metrics", 5),
    ("train", "dataset.train_size", "abc"),
    ("train", "arch.hidden", "ab"),
    ("train", "arch.hidden", 8),
    ("train", "arch.hidden", [0, 4]),
    ("train", "probe_size", "x"),
    ("train", "snapshot_interval", "x"),
    ("train", "metrics", {"entropy_bins": [3]}),
    ("train", "metrics", {"margin_percentile": 150}),
    ("train", "optimizer.lr", "fast"),
    ("train", "optimizer.lr", float("nan")),
    ("train", "optimizer.lr", float("inf")),
    ("train", "optimizer.batch_size", 0),
    ("train", "optimizer.lr", -1),
    ("train", "optimizer.beta1", 1.5),
    ("train", "optimizer.beta1", 1.0),
    ("train", "optimizer.beta2", -1),
    ("train", "optimizer.eps", 0),
    ("train", "optimizer.eps", -1e-8),
    ("train", "epochs", True),
    ("train", "init_seed", -1),
    ("train", "shuffle_seed", -1),
    ("train", "dataset.seed", -1),
    ("train", "probe_size", -1),
    ("train", "probe_size", 0),
    ("train", "arch", {"name": "cnn", "channels": [4], "kernel": 0}),
    ("suite", "extra_runs", [{"arch": {"name": "mlp", "hidden": [8, 8]}}]),
    ("suite", "grid", [1]),
    ("suite", "grid", {"datasets": ["synthetic-digits"], "archs": [{"name": "mlp"}]}),
]


@pytest.mark.parametrize("command, path, value", MALFORMED,
                         ids=[f"{c}-{p}={json.dumps(v)}" for c, p, v in MALFORMED])
def test_malformed_value_exits_2_without_traceback(tmp_path, capsys, command, path, value):
    if command == "train":
        cfg = with_field(path, value, dict(TRAIN_BASE, output_dir=str(tmp_path / "run"),
                                           record_trajectory=True))
    else:
        cfg = with_field(path, value, dict(SUITE_BASE, output_root=str(tmp_path / "suite")))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main([command, "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "Traceback" not in err
    assert not os.path.exists(tmp_path / "run") and not os.path.exists(tmp_path / "suite")


@pytest.mark.parametrize("field, value", [("lr", -1.0), ("beta1", 1.5), ("beta2", -1.0),
                                          ("eps", 0.0)])
def test_an_optimizer_value_out_of_range_is_named(field, value):
    with pytest.raises(ConfigError, match=rf"optimizer: {field} must be"):
        ExperimentConfig.from_dict(with_field(f"optimizer.{field}", value))
    with pytest.raises(ValueError, match=field):
        OptConfig(**{field: value})
    assert OptConfig(kind="sgd", lr=0.0, beta1=0.0, beta2=0.0).lr == 0.0


def test_unknown_optimizer_key_exits_2(tmp_path, capsys):
    cfg = dict(TRAIN_BASE, optimizer={"kind": "adam", "lrr": 0.1},
               output_dir=str(tmp_path / "run"))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["train", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "lrr" in err
    # unknown keys elsewhere are ignored
    assert ExperimentConfig.from_dict(dict(FULL_CONFIG, extra=1)) == \
        ExperimentConfig.from_dict(FULL_CONFIG)


def test_null_field_takes_its_default():
    cfg = ExperimentConfig.from_dict(dict(TRAIN_BASE, output_dir="run", metrics=None,
                                          probe_size=None, optimizer={"lr": None}))
    assert cfg.metrics == MetricOptions()
    assert cfg.probe_size == 256
    assert cfg.optimizer == OptConfig()
    with pytest.raises(ConfigError, match="epochs"):
        ExperimentConfig.from_dict(dict(TRAIN_BASE, output_dir="run", epochs=None))


def test_arch_defaults_are_shared_by_build_and_id():
    for arch, widths in (({"name": "mlp"}, "128x128"), ({"name": "cnn"}, "4x8")):
        assert arch_id(arch) == f"{arch['name']}-{widths}"
        outs = [s.out_features or s.out_channels for s in build_arch(arch, (1, 28, 28), 10)
                if s.kind in ("dense", "conv2d")][:-1]
        assert "x".join(map(str, outs)) == widths


def test_round_trip_equals_parsed_config():
    cfg = ExperimentConfig.from_dict(FULL_CONFIG)
    assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg
    per_datapoint = with_field("metrics.entropy_range", "per-datapoint")
    cfg = ExperimentConfig.from_dict(per_datapoint)
    assert cfg.metrics.entropy.per_datapoint
    assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg
    cfg = load_config(os.path.join(REPO, "configs", "quickstart.json"))
    assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg
    suite = json.loads(pathlib.Path(REPO, "configs", "suite.json").read_bytes())
    for cell in build_suite_cells(suite):
        assert ExperimentConfig.from_dict(cell.to_dict()) == cell


def doc_json_blocks():
    text = pathlib.Path(REPO, "docs", "config.md").read_text(encoding="utf-8")
    return text, [json.loads(b) for b in re.findall(r"```json\n(.*?)```", text, re.S)]


def test_docs_examples_parse_and_table_lists_every_field():
    text, (single, suite) = doc_json_blocks()
    cfg = ExperimentConfig.from_dict(single)
    assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg
    assert len(build_suite_cells(suite)) == 9
    names = {f.name for cls in (ExperimentConfig, OptConfig, MetricOptions) for f in fields(cls)}
    names = names - {"entropy"} | {"entropy_bins", "entropy_range"}
    for name in names:
        assert f"| `{name}` |" in text, name


SECTIONS = {
    "": [k for k in FULL_CONFIG],
    "dataset": list(FULL_CONFIG["dataset"]),
    "arch": list(FULL_CONFIG["arch"]),
    "optimizer": list(FULL_CONFIG["optimizer"]),
    "metrics": list(FULL_CONFIG["metrics"]),
}
FIELD_PATHS = [f"{s}.{k}" if s else k for s, keys in SECTIONS.items() for k in keys]

NAMED_VALUES = ["mlp", "cnn", "mnist", "synthetic-shapes", "gaussian-noise", "adam", "sgd",
                "sum", "train", "latest", "per-datapoint", "", "x"]
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.floats(-3.0, 200.0)
    | st.sampled_from([float("inf"), -float("inf")]) | st.sampled_from(NAMED_VALUES),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["name", "hidden", "lr", "x"]), inner, max_size=2),
    max_leaves=6)


@settings(derandomize=True, max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(base_arch=st.sampled_from([FULL_CONFIG["arch"], {"name": "mlp", "hidden": [4, 4]}]),
       path=st.sampled_from(FIELD_PATHS), value=json_values)
def test_fuzzed_field_is_accepted_or_config_error(base_arch, path, value):
    obj = with_field(path, value, dict(FULL_CONFIG, arch=base_arch))
    try:
        cfg = ExperimentConfig.from_dict(obj)
    except ConfigError:
        return
    assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg
    try:
        arch_id(cfg.arch)
        build_arch(cfg.arch, (1, 28, 28), 10)
    except ConfigError:
        pass
    try:
        resolve_datasets(cfg.dataset)
    except (ConfigError, DataError):
        pass


def test_idx_spec_sizes_take_the_head_of_each_file(tmp_path):
    from cnalab.data import LabeledDataset, load_idx, write_idx
    rng = np.random.default_rng(4)
    spec = {"name": "mnist", "train_size": 3, "test_size": 2}
    files = {}
    for split, n in (("train", 7), ("test", 5)):
        ds = LabeledDataset(rng.integers(0, 256, size=(n, 1, 4, 3)) / 255.0,
                            rng.integers(0, 10, size=n), 10)
        paths = (str(tmp_path / f"{split}-images.idx"), str(tmp_path / f"{split}-labels.idx"))
        spec[f"{split}_images"], spec[f"{split}_labels"] = paths
        write_idx(ds, *paths)
        files[split] = load_idx(*paths)
    for split, got in zip(("train", "test"), resolve_datasets(spec)):
        n = spec[f"{split}_size"]
        assert got.inputs.tobytes() == files[split].inputs[:n].tobytes()
        assert got.labels.tolist() == files[split].labels[:n].tolist()
    whole = resolve_datasets(dict(spec, train_size=0, test_size=50))   # 0: the whole file
    assert [len(ds) for ds in whole] == [7, 5]


@pytest.mark.parametrize("spec", [
    {"metrics": 5},
    {"train_size": "abc"},
    {"metrics": {"margin_percentile": 150}},
], ids=["metrics-5", "train_size-abc", "margin-150"])
def test_metrics_command_malformed_data_exits_2(tmp_path, capsys, spec):
    from cnalab import nn
    from cnalab.checkpoint import save_checkpoint
    from cnalab.optim import init_opt_state
    net = nn.build_network([nn.flatten(), nn.dense(784, 8), nn.relu(), nn.dense(8, 10)],
                           0, (1, 28, 28))
    ckpt = tmp_path / "ckpt.cnac"
    save_checkpoint(net, OptConfig(), init_opt_state(net, OptConfig()), 1, ckpt)
    data = dict({"name": "synthetic-digits", "train_size": 20, "test_size": 10}, **spec)
    assert main(["metrics", "--checkpoint", str(ckpt), "--data", json.dumps(data)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err
