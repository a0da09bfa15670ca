"""Correctness gate: every output a workload must produce is present, has
its schema, and (for the default seed) matches the sha256 stored in
digests.json. Repetitions of one run must also agree with each other
byte for byte, which is the determinism check on every seed.
"""

import glob
import hashlib
import json
import os

from workloads import CSV_COLUMNS, METRIC_NAMES, RECORD_FIELDS

DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def load_digests(workload):
    with open(DIGESTS_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)[workload]


def _schema_error(path, kind):
    """None when the file at path has the layout of its kind, else why not."""
    if kind in CSV_COLUMNS:
        with open(path, "r", encoding="utf-8") as fh:
            head = [fh.readline().rstrip("\n"), fh.readline().rstrip("\r\n")]
        if head != [f"# schema={kind} v1", ",".join(CSV_COLUMNS[kind])]:
            return f"header {head!r}"
        return None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        return f"invalid JSON ({exc})"
    if not isinstance(obj, dict):
        return "not a JSON object"
    if kind == "summary":
        bad = [c for c in obj.get("cells", []) if c.get("status") != "ok"]
        if obj.get("n_failed") != 0 or bad or not obj.get("cells"):
            return f"failed cells {bad or obj.get('n_failed')}"
        return None
    if kind == "record":
        missing, metrics = [k for k in RECORD_FIELDS if k not in obj], obj.get("metrics")
    else:
        missing, metrics = [], obj
    if not isinstance(metrics, dict):
        return "no metrics object"
    missing += [k for k in METRIC_NAMES if k not in metrics]
    return f"missing fields {missing}" if missing else None


def check(rep_dir, plan, expected=None):
    """Check one repetition's outputs.

    Returns (digests, attempted, failures): digests maps each output path
    to its sha256 (summaries excluded), attempted counts the checks made,
    and failures lists a reason for each failed one. expected, when given,
    maps output paths to the digests they must have.
    """
    digests, failures = {}, []
    for rel, kind in plan.outputs:
        path = os.path.join(rep_dir, rel)
        if not os.path.isfile(path):
            failures.append(f"{rel}: missing")
            continue
        err = _schema_error(path, kind)
        if err:
            failures.append(f"{rel}: {err}")
            continue
        if kind == "summary":
            continue
        digests[rel] = sha256_file(path)
        if expected is not None and expected.get(rel) != digests[rel]:
            failures.append(f"{rel}: sha256 {digests[rel][:12]} != stored "
                            f"{str(expected.get(rel))[:12]}")
    for pattern, n in plan.counts:
        found = len(glob.glob(os.path.join(rep_dir, pattern)))
        if found != n:
            failures.append(f"{pattern}: {found} files, expected {n}")
    return digests, len(plan.outputs) + len(plan.counts), failures


def compare(first, digests):
    """Failures for outputs whose bytes differ between two repetitions."""
    return [f"{rel}: differs between repetitions"
            for rel in sorted(set(first) | set(digests)) if first.get(rel) != digests.get(rel)]
