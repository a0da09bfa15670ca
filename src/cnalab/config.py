"""Experiment configuration: parsing, validation, and resolution of
dataset/architecture specs into concrete objects.

Configs are flat JSON files (no environment-variable overrides) so a
config plus its seeds fully determines every output byte. See
docs/config.md for the schema.
"""

import json
import math
import os
from dataclasses import dataclass, field

from . import data as data_mod
from . import nn
from .errors import ConfigError, DataError
from .metrics import EntropyConfig
from .optim import OptConfig

DATASET_NAMES = ("mnist", "fashion-mnist", "synthetic-digits", "synthetic-shapes",
                 "gaussian-noise")


@dataclass
class MetricOptions:
    entropy: EntropyConfig = field(default_factory=EntropyConfig)
    aggregation: str = "mean"
    include_output: bool = False
    cna_split: str = "test"
    margin_percentile: float = 10.0

    @staticmethod
    def from_dict(d):
        d = dict(d or {})
        rng_spec = d.get("entropy_range", [0.0, 1.0])
        if rng_spec == "per-datapoint":
            lo = hi = None
        else:
            try:
                lo, hi = float(rng_spec[0]), float(rng_spec[1])
            except (TypeError, ValueError, IndexError):
                raise ConfigError(f"bad entropy_range {rng_spec!r}") from None
        try:
            ecfg = EntropyConfig(bins=int(d.get("entropy_bins", 256)), lo=lo, hi=hi)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        opts = MetricOptions(entropy=ecfg,
                             aggregation=d.get("aggregation", "mean"),
                             include_output=bool(d.get("include_output", False)),
                             cna_split=d.get("cna_split", "test"),
                             margin_percentile=float(d.get("margin_percentile", 10.0)))
        if opts.aggregation not in ("mean", "sum"):
            raise ConfigError(f"aggregation must be mean or sum, got {opts.aggregation!r}")
        if opts.cna_split not in ("train", "test"):
            raise ConfigError(f"cna_split must be train or test, got {opts.cna_split!r}")
        return opts

    def to_dict(self):
        rng_spec = "per-datapoint" if self.entropy.per_datapoint \
            else [self.entropy.lo, self.entropy.hi]
        return {"entropy_bins": self.entropy.bins, "entropy_range": rng_spec,
                "aggregation": self.aggregation, "include_output": self.include_output,
                "cna_split": self.cna_split, "margin_percentile": self.margin_percentile}


@dataclass
class ExperimentConfig:
    dataset: dict
    arch: dict
    optimizer: OptConfig
    epochs: int
    snapshot_interval: int
    metrics: MetricOptions
    output_dir: str
    init_seed: int = 1
    shuffle_seed: int = 2
    record_trajectory: bool = False
    probe_size: int = 256
    probe_seed: int = 99
    keep_checkpoints: str = "all"    # "all" (one per snapshot) or "latest"

    @staticmethod
    def from_dict(obj):
        try:
            dataset = dict(obj["dataset"])
            arch = dict(obj["arch"])
            epochs = int(obj["epochs"])
            output_dir = obj["output_dir"]
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"config missing or malformed required field: {exc}") from exc
        if dataset.get("name") not in DATASET_NAMES:
            raise ConfigError(f"unknown dataset name {dataset.get('name')!r}; "
                              f"known: {DATASET_NAMES}")
        snapshot_interval = int(obj.get("snapshot_interval", 1))
        if snapshot_interval < 1:
            raise ConfigError("snapshot_interval must be >= 1")
        corruption = float(dataset.get("corruption", 0.0))
        if not 0.0 <= corruption <= 0.5:
            raise ConfigError(f"corruption {corruption} outside [0, 0.5]")
        if epochs < 1:
            raise ConfigError("epochs must be >= 1")
        try:
            opt = OptConfig.from_dict(obj.get("optimizer", {"kind": "sgd", "lr": 0.01,
                                                            "batch_size": 64}))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad optimizer config: {exc}") from exc
        keep = obj.get("keep_checkpoints", "all")
        if keep not in ("all", "latest"):
            raise ConfigError(f"keep_checkpoints must be 'all' or 'latest', got {keep!r}")
        return ExperimentConfig(
            dataset=dataset, arch=arch, optimizer=opt, epochs=epochs,
            snapshot_interval=snapshot_interval,
            metrics=MetricOptions.from_dict(obj.get("metrics")),
            output_dir=output_dir,
            init_seed=int(obj.get("init_seed", 1)),
            shuffle_seed=int(obj.get("shuffle_seed", 2)),
            record_trajectory=bool(obj.get("record_trajectory", False)),
            probe_size=int(obj.get("probe_size", 256)),
            probe_seed=int(obj.get("probe_seed", 99)),
            keep_checkpoints=keep)

    def to_dict(self):
        return {"dataset": self.dataset, "arch": self.arch,
                "optimizer": self.optimizer.to_dict(), "epochs": self.epochs,
                "snapshot_interval": self.snapshot_interval,
                "metrics": self.metrics.to_dict(), "output_dir": self.output_dir,
                "init_seed": self.init_seed, "shuffle_seed": self.shuffle_seed,
                "record_trajectory": self.record_trajectory,
                "probe_size": self.probe_size, "probe_seed": self.probe_seed,
                "keep_checkpoints": self.keep_checkpoints}


def read_json(path):
    """The JSON object in the file at path. Raises ConfigError when the
    file cannot be read, is not UTF-8 JSON, or holds no object at top level."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except ValueError as exc:       # JSONDecodeError or UnicodeDecodeError
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return obj


def load_config(path):
    return ExperimentConfig.from_dict(read_json(path))


def _require_file(path, what):
    if not path:
        raise ConfigError(f"dataset config missing {what} path")
    if not os.path.exists(path):
        raise DataError(f"{what} file not found: {path}")
    return path


def resolve_datasets(dataset_cfg):
    """Turn a dataset config section into (train, test) LabeledDatasets.

    IDX datasets take the first train_size/test_size examples of their
    files (deterministic head); synthetic corpora draw train and test
    from disjoint streams of one seed; the gaussian corpus generates
    train_size+test_size points and splits head/tail so a held-out noise
    set exists. Corruption, when requested, touches training labels only.
    """
    if not isinstance(dataset_cfg, dict) or "name" not in dataset_cfg:
        raise ConfigError("dataset spec must be a JSON object with a \"name\"")
    name = dataset_cfg["name"]
    seed = int(dataset_cfg.get("seed", 0))
    train_size = dataset_cfg.get("train_size")
    test_size = dataset_cfg.get("test_size")

    if name in ("mnist", "fashion-mnist"):
        train = data_mod.load_idx(_require_file(dataset_cfg.get("train_images"), "train images"),
                                  _require_file(dataset_cfg.get("train_labels"), "train labels"))
        test = data_mod.load_idx(_require_file(dataset_cfg.get("test_images"), "test images"),
                                 _require_file(dataset_cfg.get("test_labels"), "test labels"))
        if train_size:
            train = train.subset(range(min(int(train_size), len(train))))
        if test_size:
            test = test.subset(range(min(int(test_size), len(test))))
    elif name in ("synthetic-digits", "synthetic-shapes"):
        gen = data_mod.synthetic_digits if name == "synthetic-digits" \
            else data_mod.synthetic_shapes
        train = gen(int(train_size or 4000), seed, stream=0)
        test = gen(int(test_size or 1000), seed, stream=1)
    elif name == "gaussian-noise":
        n_train = int(train_size or 1000)
        n_test = int(test_size or n_train)
        full = data_mod.gaussian_noise_dataset(n_train + n_test, seed)
        train = full.subset(range(n_train), {"split": "train"})
        test = full.subset(range(n_train, n_train + n_test), {"split": "test"})
    else:
        raise ConfigError(f"unknown dataset name {name!r}")

    corruption = float(dataset_cfg.get("corruption", 0.0))
    if corruption > 0.0:
        train = data_mod.corrupt_labels(train, corruption,
                                        int(dataset_cfg.get("corruption_seed", seed)))
    return train, test


def build_arch(arch_cfg, input_shape, classes):
    """Expand an architecture config section into a LayerSpec list."""
    name = arch_cfg.get("name")
    specs = []
    if name == "mlp":
        if len(input_shape) != 1:
            specs.append(nn.flatten())
        n_in = math.prod(input_shape)
        hidden = arch_cfg.get("hidden", [128, 128])
        if not hidden:
            raise ConfigError("mlp needs at least one hidden layer (slope needs depth >= 2)")
        for width in hidden:
            specs.append(nn.dense(n_in, int(width)))
            specs.append(nn.relu())
            n_in = int(width)
        specs.append(nn.dense(n_in, classes))
    elif name == "cnn":
        if len(input_shape) != 3:
            raise ConfigError(f"cnn needs (c, h, w) inputs, got shape {input_shape}")
        channels = arch_cfg.get("channels", [4, 8])
        kernel = int(arch_cfg.get("kernel", 5))
        stride = int(arch_cfg.get("stride", 2))
        shape = tuple(input_shape)
        for out_c in channels:
            if min(shape[1:]) < kernel:
                raise ConfigError("cnn spatial size collapsed below 1x1; "
                                  "reduce depth, kernel, or stride")
            specs.append(nn.conv2d(shape[0], int(out_c), kernel, stride))
            specs.append(nn.relu())
            shape = nn._propagate_shape(specs[-2], shape)
        specs.append(nn.flatten())
        specs.append(nn.dense(math.prod(shape), classes))
    else:
        raise ConfigError(f"unknown architecture {name!r} (expected mlp or cnn)")
    return specs


def arch_id(arch_cfg):
    name = arch_cfg.get("name", "net")
    if name == "mlp":
        return "mlp-" + "x".join(str(w) for w in arch_cfg.get("hidden", [128, 128]))
    if name == "cnn":
        return "cnn-" + "x".join(str(c) for c in arch_cfg.get("channels", [4, 8]))
    return name
