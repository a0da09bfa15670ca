"""Self-test of the benchmark's own machinery, at tiny sizes:

    python3 -m pytest -q perfbench
"""

import json
import os

import pytest

import gate
import run
import spans
import workloads


def benchmark_names(section):
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        return sorted(m["name"] for m in json.load(fh)[section])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_of_each_workload(workload):
    result, info = run.measure(workload, workloads.DEFAULT_SEED, 0, 0, size="tiny", log=print)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert info["reps"] == run.MIN_REPS
    assert sorted(result["metrics"]) == benchmark_names("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_layer_and_exact_counts():
    result, _ = run.measure("suite", 5, 0, 1, size="tiny", log=print)
    assert result["correct"]
    values = {k: m["value"] for k, m in result["metrics"].items()}
    assert sorted(values) == benchmark_names("per_layer")
    self_sum = sum(v for k, v in values.items() if ".self_s" in k)
    assert self_sum + values["trace.counter_s"] + values["trace.unattributed_s"] == \
        pytest.approx(values["trace.wall_s"])
    assert values["trace.counter_s"] > 0
    # 16 grid cells render 2 corpora x 2 streams; entropy is computed twice per cell
    assert values["data.render.reuse"] == 4 / 32
    assert values["metrics.entropy_vector.reuse"] == 6 / 34
    assert values["metrics.snapshot_forward_ratio"] == 2.0
    assert values["harness.cells_failed"] == 0
    assert values["nn.loss_and_gradients.self_s.cnn"] > 0


def test_self_time_on_nested_spans():
    raw = [["a", 0.0, 10.0, -1, None, 0, None, None, False, 0.0],
           ["b", 1.0, 4.0, 0, None, 0, None, None, False, 0.0],
           ["c", 5.0, 9.0, 0, None, 0, None, None, False, 0.0],
           ["d", 6.0, 7.0, 2, None, 0, None, None, False, 0.0],
           ["e", 11.0, 11.5, -1, None, 0, None, None, False, 0.0]]
    own = spans.self_times(spans.load(raw))
    assert own == [3.0, 3.0, 3.0, 1.0, 0.5]
    # with a 12 s wall time, 12 - 10.5 is covered by no span
    assert 12.0 - sum(own) == 1.5


def test_wrapper_overhead_is_not_parent_self_time():
    # d's wrapper spent 0.25 s counting after d ended, inside c
    raw = [["c", 5.0, 9.0, -1, None, 0, None, None, False, 0.0],
           ["d", 6.0, 7.0, 0, None, 0, None, None, False, 0.25]]
    own = spans.self_times(spans.load(raw))
    assert own == [2.75, 1.0]
    assert sum(own) + 0.25 == 9.0 - 5.0


def test_end_to_end_phases_from_boundary_spans():
    raw = [["cli.main", 1.0, 20.0, -1, None, 0, None, None, False, 0.0],
           ["harness.run_training", 2.0, 10.0, 0, "x", 0, None, None, False, 0.0],
           ["optim.train_epoch", 4.0, 5.0, 1, "x", 0, None, None, False, 0.0],
           ["optim.train_epoch", 6.0, 7.0, 1, "x", 0, None, None, False, 0.0],
           ["harness.run_training", 11.0, 19.0, 0, "y", 0, None, None, False, 0.0],
           ["optim.train_epoch", 12.0, 14.0, 4, "y", 0, None, None, False, 0.0]]
    setup, epoch = spans.end_to_end([(0.5, spans.load(raw))])
    assert setup == (2.0 - 0.5) + (4.0 - 2.0) + (12.0 - 11.0)
    assert epoch == ((10.0 - 4.0) + (19.0 - 12.0)) / 3


def test_digest_gate_rejects_one_byte_change(tmp_path):
    record = {"dataset": "d", "arch": "a", "corruption": 0.0, "epoch": 1, "train_acc": 1.0,
              "test_acc": 0.5, "gap": 0.5, "metrics": dict.fromkeys(workloads.METRIC_NAMES)}
    (tmp_path / "record_epoch0001.json").write_text(json.dumps(record, indent=2) + "\n")
    (tmp_path / "curves.csv").write_text("# schema=curves v1\nepoch,bin,mean_error\n1,0,0.25\n")
    plan = workloads.Plan(configs={}, steps=[],
                          outputs=[("record_epoch0001.json", "record"), ("curves.csv", "curves")],
                          counts=[("record_epoch*.json", 1)])
    digests, attempted, failures = gate.check(tmp_path, plan)
    assert (attempted, failures) == (3, [])
    assert gate.check(tmp_path, plan, digests)[2] == []

    path = tmp_path / "curves.csv"
    data = bytearray(path.read_bytes())
    data[-2] = ord("6")     # 0.25 -> 0.26
    path.write_bytes(bytes(data))
    changed, _, failures = gate.check(tmp_path, plan, digests)
    assert len(failures) == 1 and failures[0].startswith("curves.csv: sha256")
    assert gate.compare(digests, changed) == ["curves.csv: differs between repetitions"]


def test_schema_and_count_failures(tmp_path):
    (tmp_path / "record_epoch0001.json").write_text('{"epoch": 1}\n')
    plan = workloads.Plan(configs={}, steps=[],
                          outputs=[("record_epoch0001.json", "record"),
                                   ("landscape.csv", "landscape")],
                          counts=[("record_epoch*.json", 2)])
    _, _, failures = gate.check(tmp_path, plan)
    assert len(failures) == 3
