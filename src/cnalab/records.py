"""RunRecord JSON persistence.

One RunRecord is the scalar ledger of one trained-network snapshot. The
stable field set is {dataset, arch, corruption, epoch, train_acc,
test_acc, gap, metrics{...}}; extra fields (train_loss, test_loss, ...)
ride along and unknown fields survive a read-modify-write round trip.
Serialization is fully deterministic: fixed key order, json's repr-based
float formatting, trailing newline.
"""

import json
import math
from dataclasses import dataclass, field

from .csvio import replacing
from .errors import FormatError
from .metrics import METRIC_NAMES

# core field -> the JSON types it accepts, matched exactly (so no bool); the last is kept
_CORE_FIELDS = {"dataset": (str,), "arch": (str,), "corruption": (int, float), "epoch": (int,),
                "train_acc": (int, float), "test_acc": (int, float), "gap": (int, float)}
_METRIC_TYPES = {int, float, type(None)}    # a metric is a JSON number or null


def _finite(value):
    """False for the NaN and +-Infinity that json reads as floats."""
    return type(value) is not float or math.isfinite(value)


@dataclass
class RunRecord:
    dataset: str
    arch: str
    corruption: float
    epoch: int
    train_acc: float
    test_acc: float
    gap: float
    metrics: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)    # unknown fields, preserved

    def to_json(self):
        obj = {name: getattr(self, name) for name in _CORE_FIELDS}
        obj["metrics"] = dict.fromkeys(METRIC_NAMES) | self.metrics
        obj.update(self.extra)
        return json.dumps(obj, indent=2) + "\n"

    @staticmethod
    def from_json(text, source="RunRecord"):
        """The record in text (str, or UTF-8 bytes); FormatError names source."""
        try:
            obj = json.loads(text.decode("utf-8") if isinstance(text, bytes) else text)
        except ValueError as exc:   # bad JSON, or bytes that are not UTF-8
            raise FormatError(f"{source}: bad JSON: {exc}") from exc
        if type(obj) is not dict:
            raise FormatError(f"{source}: not a JSON object")
        metrics = obj.get("metrics", {})
        bad = [k for k, types in _CORE_FIELDS.items()
               if type(obj.get(k)) not in types or not _finite(obj[k])]
        if type(metrics) is not dict or {type(v) for v in metrics.values()} - _METRIC_TYPES \
                or not all(map(_finite, metrics.values())):
            bad.append("metrics")
        if bad:
            raise FormatError(f"{source}: fields missing, of the wrong type or not finite: {bad}")
        extra = {k: v for k, v in obj.items() if k not in _CORE_FIELDS and k != "metrics"}
        return RunRecord(**{k: types[-1](obj[k]) for k, types in _CORE_FIELDS.items()},
                         metrics=metrics, extra=extra)


def write_record(record, path):
    with replacing(path) as fh:
        fh.write(record.to_json())


def read_record(path):
    with open(path, "rb") as fh:
        return RunRecord.from_json(fh.read(), source=path)
