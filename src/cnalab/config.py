"""Experiment configuration: parsing, validation, and resolution of
dataset/architecture specs into concrete objects.

Configs are flat JSON files (no environment-variable overrides) so a
config plus its seeds fully determines every output byte. See
docs/config.md for the schema. One reader, _read, builds each section's
dataclass: a field present and not null is converted by its annotated
type, the others keep their defaults, and __post_init__ checks them. A
malformed value is a ConfigError that names its field.
"""

import json
import math
import os
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass

from . import data as data_mod
from . import nn
from .errors import ConfigError, DataError
from .metrics import EntropyConfig
from .optim import OptConfig

DATASET_NAMES = ("mnist", "fashion-mnist", *data_mod._CORPORA, "gaussian-noise")

# The field that holds each architecture's widths, one per layer.
WIDTHS = {"mlp": "hidden", "cnn": "channels"}
# The (least, most) value of each numeric config field, in whichever section
# it appears; a field with int bounds holds an int. Dataset sizes of 0 mean
# the corpus default.
LIMITS = dict.fromkeys(("epochs", "snapshot_interval", "probe_size", "kernel", "stride",
                        *WIDTHS.values()), (1, math.inf)) \
    | dict.fromkeys(("init_seed", "shuffle_seed", "probe_seed", "seed", "corruption_seed",
                     "train_size", "test_size"), (0, math.inf)) \
    | {"corruption": (0.0, 0.5), "margin_percentile": (0.0, 100.0)}
# The values each string config field may take.
CHOICES = {"aggregation": ("mean", "sum"), "cna_split": ("test", "train"),
           "keep_checkpoints": ("all", "latest")}

# The fields each architecture reads, with their defaults.
_ARCH_DEFAULTS = {"mlp": {"hidden": [128, 128]},
                  "cnn": {"channels": [4, 8], "kernel": 5, "stride": 2}}


def as_type(tp, value, path):
    """value converted by tp, or a ConfigError naming path. dict, list, str
    and bool take only JSON objects, arrays, strings and true/false; int
    and float refuse true/false, and float a value that is not finite."""
    try:
        if (tp in (dict, list, str, bool) and not isinstance(value, tp)) or \
                (tp in (int, float) and isinstance(value, bool)):
            raise TypeError
        out = tp(value)
        if tp is float and not math.isfinite(out):
            raise ValueError
        return out
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{path}: expected {tp.__name__}, got {value!r}") from None


def _check(section, path=""):
    """Check the fields of a section (a dict) against LIMITS and CHOICES; a
    null field counts as absent."""
    for key, value in section.items():
        name = f"{path}.{key}" if path else key
        if value is not None and key in CHOICES and value not in CHOICES[key]:
            raise ConfigError(f"{name} must be one of {CHOICES[key]}, got {value!r}")
        if value is not None and key in LIMITS:
            least, most = LIMITS[key]
            for item in as_type(list, value, name) if key in WIDTHS.values() else [value]:
                if not least <= as_type(type(least), item, name) <= most:
                    raise ConfigError(f"{name} must lie in [{least}, {most}], got {value!r}")


def _read(cls, obj, path=""):
    """A cls built from the JSON object obj, found at path in the config."""
    unknown = as_type(dict, obj, path or "config").keys() - {f.name for f in fields(cls)}
    if cls is OptConfig and unknown:    # other sections ignore unknown keys
        raise ConfigError(f"{path}: unknown field(s) {sorted(unknown)}")
    kwargs = {}
    try:
        for f in fields(cls):
            name = f"{path}.{f.name}" if path else f.name
            if f.type is EntropyConfig:
                kwargs[f.name] = _entropy(obj, path)
            elif obj.get(f.name) is not None:
                kwargs[f.name] = _read(f.type, obj[f.name], name) if is_dataclass(f.type) \
                    else as_type(f.type, obj[f.name], name)
            elif f.default is MISSING and f.default_factory is MISSING:
                raise ConfigError(f"missing required field {name!r}")
        return cls(**kwargs)
    except ValueError as exc:       # the checks of EntropyConfig and OptConfig
        raise ConfigError(f"{path}: {exc}") from exc


def _entropy(section, path):
    """The EntropyConfig that a metrics section's entropy_bins and
    entropy_range ([lo, hi] or "per-datapoint") give."""
    bins, rng_spec = section.get("entropy_bins"), section.get("entropy_range")
    kwargs = {} if bins is None else {"bins": as_type(int, bins, f"{path}.entropy_bins")}
    if rng_spec == "per-datapoint":
        kwargs.update(lo=None, hi=None)
    elif rng_spec is not None:
        if not (isinstance(rng_spec, list) and len(rng_spec) == 2):
            raise ConfigError(f"{path}.entropy_range: expected [lo, hi] or "
                              f"\"per-datapoint\", got {rng_spec!r}")
        kwargs.update(zip(("lo", "hi"), (as_type(float, x, f"{path}.entropy_range")
                                         for x in rng_spec)))
    return EntropyConfig(**kwargs)


@dataclass
class MetricOptions:
    entropy: EntropyConfig = field(default_factory=EntropyConfig)
    aggregation: str = "mean"
    include_output: bool = False
    cna_split: str = "test"
    margin_percentile: float = 10.0

    def __post_init__(self):
        _check(vars(self))

    @staticmethod
    def from_dict(d):
        return _read(MetricOptions, d, "metrics")

    def to_dict(self):
        e = self.entropy
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "entropy"} | \
            {"entropy_bins": e.bins,
             "entropy_range": "per-datapoint" if e.per_datapoint else [e.lo, e.hi]}


@dataclass
class ExperimentConfig:
    dataset: dict
    arch: dict
    epochs: int
    output_dir: str
    optimizer: OptConfig = field(default_factory=OptConfig)
    snapshot_interval: int = 1
    metrics: MetricOptions = field(default_factory=MetricOptions)
    init_seed: int = 1
    shuffle_seed: int = 2
    record_trajectory: bool = False
    probe_size: int = 256
    probe_seed: int = 99
    keep_checkpoints: str = "all"    # "all" (one per snapshot) or "latest"

    def __post_init__(self):
        _check(vars(self))
        _check_spec(self.dataset, "dataset", DATASET_NAMES)
        name, arch = _arch_fields(self.arch)
        key = WIDTHS[name]
        if len(arch[key]) + self.metrics.include_output < 2:    # the slope metrics need L >= 2
            raise ConfigError(f"arch.{key}: {arch[key]!r} maps fewer than 2 layers to depths")

    @staticmethod
    def from_dict(obj):
        return _read(ExperimentConfig, obj)

    def to_dict(self):
        return asdict(self) | {"metrics": self.metrics.to_dict()}


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


def _check_spec(spec, section, names):
    """spec, after checking its name against names and its fields (_check)."""
    if not isinstance(spec, dict) or spec.get("name") not in names:
        raise ConfigError(f"{section} must be a JSON object whose name is one of {names}, "
                          f"got {spec!r}")
    _check(spec, section)
    return spec


def corruption_of(spec):
    """The fraction of training labels a checked dataset spec corrupts."""
    return float(spec.get("corruption") or 0.0)


def _require_file(path, what):
    if not path or not isinstance(path, str):
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
    name = _check_spec(dataset_cfg, "dataset", DATASET_NAMES)["name"]
    seed, train_size, test_size = (int(dataset_cfg.get(key) or 0)
                                   for key in ("seed", "train_size", "test_size"))

    if name in ("mnist", "fashion-mnist"):
        train = data_mod.load_idx(_require_file(dataset_cfg.get("train_images"), "train images"),
                                  _require_file(dataset_cfg.get("train_labels"), "train labels"))
        test = data_mod.load_idx(_require_file(dataset_cfg.get("test_images"), "test images"),
                                 _require_file(dataset_cfg.get("test_labels"), "test labels"))
        if train_size:
            train = train.subset(range(min(train_size, len(train))))
        if test_size:
            test = test.subset(range(min(test_size, len(test))))
    elif name in data_mod._CORPORA:
        train = data_mod._synthetic(name, train_size or 4000, seed, stream=0)
        test = data_mod._synthetic(name, test_size or 1000, seed, stream=1)
    else:   # gaussian-noise
        n_train = train_size or 1000
        n_test = test_size or n_train
        full = data_mod.gaussian_noise_dataset(n_train + n_test, seed)
        train = full.subset(slice(n_train), {"split": "train"})          # row views
        test = full.subset(slice(n_train, None), {"split": "test"})

    corruption = corruption_of(dataset_cfg)
    if corruption > 0.0:
        corruption_seed = dataset_cfg.get("corruption_seed")
        train = data_mod.corrupt_labels(train, corruption,
                                        seed if corruption_seed is None else int(corruption_seed))
    return train, test


def _arch_fields(arch_cfg):
    """The checked arch spec's name and its fields, defaults filled in."""
    name = _check_spec(arch_cfg, "arch", tuple(_ARCH_DEFAULTS))["name"]
    return name, _ARCH_DEFAULTS[name] | {k: v for k, v in arch_cfg.items() if v is not None}


def build_arch(arch_cfg, input_shape, classes):
    """Expand an architecture config section into a LayerSpec list: a layer
    and a relu per width, then the classifier, each dense layer after a
    flatten when its input is not a vector."""
    name, arch = _arch_fields(arch_cfg)
    shape = tuple(input_shape)
    if name == "cnn" and len(shape) != 3:
        raise ConfigError(f"cnn needs (c, h, w) inputs, got shape {input_shape}")
    widths, specs = arch[WIDTHS[name]], []
    for i, width in enumerate([*widths, classes]):
        if name == "cnn" and i < len(widths):
            kernel = int(arch["kernel"])
            if min(shape[1:]) < kernel:
                raise ConfigError("cnn spatial size collapsed below 1x1; "
                                  "reduce depth, kernel, or stride")
            layer = nn.conv2d(shape[0], int(width), kernel, int(arch["stride"]))
        else:
            if len(shape) != 1:
                specs.append(nn.flatten())
                shape = nn._shapes(specs[-1], shape)[0]
            layer = nn.dense(shape[0], int(width))
        specs += [layer, nn.relu()]
        shape = nn._shapes(layer, shape)[0]
    return specs[:-1]       # no relu after the classifier


def arch_id(arch_cfg):
    """Short architecture name, e.g. mlp-128x128 or cnn-4x8."""
    name, arch = _arch_fields(arch_cfg)
    return name + "-" + "x".join(str(w) for w in arch[WIDTHS[name]])
