"""RunRecord JSON persistence.

One RunRecord is the scalar ledger of one trained-network snapshot. The
stable field set is {dataset, arch, corruption, epoch, train_acc,
test_acc, gap, metrics{...}}; extra fields (train_loss, test_loss, ...)
ride along and unknown fields survive a read-modify-write round trip.
Serialization is fully deterministic: fixed key order, json's repr-based
float formatting, trailing newline.
"""

import json
from dataclasses import dataclass, field

from .csvio import replacing
from .errors import FormatError
from .metrics import METRIC_NAMES

_CORE_FIELDS = ("dataset", "arch", "corruption", "epoch", "train_acc", "test_acc", "gap")


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
    def from_json(text):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FormatError(f"bad RunRecord JSON: {exc}") from exc
        missing = [k for k in _CORE_FIELDS if k not in obj]
        if missing:
            raise FormatError(f"RunRecord missing fields {missing}")
        extra = {k: v for k, v in obj.items() if k not in _CORE_FIELDS and k != "metrics"}
        return RunRecord(dataset=obj["dataset"], arch=obj["arch"],
                         corruption=float(obj["corruption"]), epoch=int(obj["epoch"]),
                         train_acc=float(obj["train_acc"]), test_acc=float(obj["test_acc"]),
                         gap=float(obj["gap"]), metrics=obj.get("metrics", {}), extra=extra)


def write_record(record, path):
    with replacing(path) as fh:
        fh.write(record.to_json())


def read_record(path):
    with open(path, "r", encoding="utf-8") as fh:
        return RunRecord.from_json(fh.read())
