"""CLI and harness tests: commands, exit codes, emitted files."""

import hashlib
import json
import math
import os
import pathlib
import re
import struct
import subprocess
import sys

import numpy as np
import pytest

import cnalab
from cnalab.cli import main
from cnalab.csvio import read_csv, write_csv
from cnalab.records import RunRecord, read_record, write_record
from cnalab.svg import Frame


def toy_config(tmp_path, out_name="run", **overrides):
    cfg = {
        "dataset": {"name": "synthetic-digits", "train_size": 150, "test_size": 80,
                    "seed": 7},
        "arch": {"name": "mlp", "hidden": [16, 16]},
        "optimizer": {"kind": "adam", "lr": 0.001, "batch_size": 32},
        "epochs": 1,
        "snapshot_interval": 1,
        "init_seed": 1,
        "shuffle_seed": 2,
        "output_dir": str(tmp_path / out_name),
    }
    cfg.update(overrides)
    path = tmp_path / f"{out_name}.json"
    path.write_text(json.dumps(cfg))
    return path, cfg


def test_train_writes_one_record_per_snapshot(tmp_path):
    cfg_path, cfg = toy_config(tmp_path)
    assert main(["train", "--config", str(cfg_path)]) == 0
    records = [f for f in os.listdir(cfg["output_dir"]) if f.startswith("record_")]
    assert records == ["record_epoch0001.json"]
    rec = read_record(os.path.join(cfg["output_dir"], records[0]))
    assert rec.epoch == 1
    assert rec.gap == pytest.approx(rec.train_acc - rec.test_acc)
    assert "train_loss" in rec.extra


def test_train_reruns_are_byte_identical(tmp_path):
    path_a, cfg_a = toy_config(tmp_path, "a", epochs=2)
    path_b, cfg_b = toy_config(tmp_path, "b", epochs=2)
    assert main(["train", "--config", str(path_a)]) == 0
    assert main(["train", "--config", str(path_b)]) == 0
    for e in (1, 2):
        fa = pathlib.Path(cfg_a["output_dir"], f"record_epoch{e:04d}.json").read_bytes()
        fb = pathlib.Path(cfg_b["output_dir"], f"record_epoch{e:04d}.json").read_bytes()
        assert fa == fb


def test_train_resume_completes_missing_epochs(tmp_path):
    cfg_path, cfg = toy_config(tmp_path, "resume", epochs=1)
    assert main(["train", "--config", str(cfg_path)]) == 0
    # same dir, more epochs: picks up from the checkpoint
    cfg2 = dict(cfg)
    cfg2["epochs"] = 2
    cfg2_path = tmp_path / "resume2.json"
    cfg2_path.write_text(json.dumps(cfg2))
    assert main(["train", "--config", str(cfg2_path)]) == 0

    fresh = dict(cfg2)
    fresh["output_dir"] = str(tmp_path / "fresh")
    fresh_path = tmp_path / "fresh.json"
    fresh_path.write_text(json.dumps(fresh))
    assert main(["train", "--config", str(fresh_path)]) == 0
    a = pathlib.Path(cfg2["output_dir"], "record_epoch0002.json").read_bytes()
    b = pathlib.Path(fresh["output_dir"], "record_epoch0002.json").read_bytes()
    assert a == b


def test_missing_idx_file_exits_3_and_names_path(tmp_path, capsys):
    cfg_path, _ = toy_config(tmp_path, "missing")
    cfg = json.loads(cfg_path.read_text())
    cfg["dataset"] = {"name": "mnist",
                      "train_images": str(tmp_path / "nope-images.idx"),
                      "train_labels": str(tmp_path / "nope-labels.idx"),
                      "test_images": str(tmp_path / "nope-t-images.idx"),
                      "test_labels": str(tmp_path / "nope-t-labels.idx")}
    cfg_path.write_text(json.dumps(cfg))
    assert main(["train", "--config", str(cfg_path)]) == 3
    assert "nope-images.idx" in capsys.readouterr().err


def test_config_parse_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    assert main(["train", "--config", str(bad)]) == 2
    missing = tmp_path / "missing.json"
    assert main(["train", "--config", str(missing)]) == 2
    ok_but_invalid = tmp_path / "inv.json"
    ok_but_invalid.write_text(json.dumps({"dataset": {"name": "synthetic-digits"},
                                          "arch": {"name": "mlp"},
                                          "epochs": 1, "output_dir": "x",
                                          "snapshot_interval": 0}))
    assert main(["train", "--config", str(ok_but_invalid)]) == 2


def suite_config(tmp_path, poison=False):
    suite = {
        "grid": {
            "datasets": [{"name": "synthetic-digits", "train_size": 120,
                          "test_size": 60, "seed": 3}],
            "corruptions": [0.0, 0.3, 0.5],
            "archs": [{"name": "mlp", "hidden": [12, 12]}],
        },
        "extra_runs": [{"dataset": {"name": "gaussian-noise", "train_size": 80,
                                    "test_size": 40, "seed": 5},
                        "arch": {"name": "mlp", "hidden": [12, 12]}}],
        "optimizer": {"kind": "adam", "lr": 0.001, "batch_size": 20},
        "epochs": 1,
        "snapshot_interval": 1,
        "init_seed": 1, "shuffle_seed": 2,
        "keep_checkpoints": "latest",
        "output_root": str(tmp_path / "suite_out"),
    }
    if poison:
        suite["extra_runs"].append({
            "dataset": {"name": "mnist",
                        "train_images": "/nonexistent/a", "train_labels": "/nonexistent/b",
                        "test_images": "/nonexistent/c", "test_labels": "/nonexistent/d"},
            "arch": {"name": "mlp", "hidden": [12, 12]}})
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(suite))
    return path, suite


def test_suite_grid_and_idempotence(tmp_path):
    path, suite = suite_config(tmp_path)
    assert main(["suite", "--config", str(path)]) == 0
    root = suite["output_root"]
    cells = sorted(d for d in os.listdir(root) if os.path.isdir(os.path.join(root, d)))
    assert len(cells) == 4      # 1 dataset x 3 corruptions x 1 arch + gaussian
    summary = json.loads(pathlib.Path(root, "suite_summary.json").read_bytes())
    assert summary["n_failed"] == 0
    assert os.path.exists(os.path.join(root, "report.csv"))
    # rerun: every cell skipped
    assert main(["suite", "--config", str(path)]) == 0
    summary = json.loads(pathlib.Path(root, "suite_summary.json").read_bytes())
    assert all(c["status"] == "skipped" for c in summary["cells"])


def test_suite_parallel_jobs_matches_sequential(tmp_path):
    path, suite = suite_config(tmp_path)
    assert main(["suite", "--config", str(path), "--jobs", "2"]) == 0
    root = suite["output_root"]
    summary = json.loads(pathlib.Path(root, "suite_summary.json").read_bytes())
    assert summary["n_failed"] == 0
    # worker-pool run produces the same bytes as an in-process run
    seq_root = str(tmp_path / "seq_out")
    suite_seq = json.loads(path.read_text())
    suite_seq["output_root"] = seq_root
    seq_path = tmp_path / "suite_seq.json"
    seq_path.write_text(json.dumps(suite_seq))
    assert main(["suite", "--config", str(seq_path), "--jobs", "1"]) == 0
    for cell in sorted(os.listdir(root)):
        rec = os.path.join(root, cell, "record_epoch0001.json")
        if os.path.isfile(rec):
            seq_rec = os.path.join(seq_root, cell, "record_epoch0001.json")
            assert pathlib.Path(rec).read_bytes() == pathlib.Path(seq_rec).read_bytes()


def test_cli_import_leaves_the_process_pool_unloaded():
    code = ("import sys, cnalab.cli, cnalab.harness; "
            "print(sorted({'concurrent.futures.process', 'multiprocessing'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cnalab.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "[]\n"


def test_suite_poisoned_cell_does_not_kill_the_rest(tmp_path):
    path, suite = suite_config(tmp_path, poison=True)
    assert main(["suite", "--config", str(path)]) == 0
    summary = json.loads(pathlib.Path(suite["output_root"], "suite_summary.json").read_bytes())
    statuses = [c["status"] for c in summary["cells"]]
    assert statuses.count("failed") == 1
    assert statuses.count("ok") == 4
    failed = next(c for c in summary["cells"] if c["status"] == "failed")
    assert "nonexistent" in failed["error"]


def test_landscape_outputs(tmp_path):
    cfg_path, cfg = toy_config(tmp_path, "traj", epochs=2, record_trajectory=True,
                               probe_size=32)
    assert main(["train", "--config", str(cfg_path)]) == 0
    out = cfg["output_dir"]
    assert main(["landscape", "--run", out, "--resolution", "5"]) == 0

    name, cols, rows = read_csv(os.path.join(out, "landscape.csv"))
    assert name == "landscape"
    assert cols == ["x", "y", "cna"]
    assert len(rows) == 25

    name, cols, trows = read_csv(os.path.join(out, "trajectory.csv"))
    assert cols == ["step", "loss", "projected_x", "projected_y"]

    # SVG polyline endpoints equal the projected CSV coordinates
    svg = pathlib.Path(out, "landscape.svg").read_text(encoding="utf-8")
    poly = re.search(r'<polyline points="([^"]+)"', svg).group(1)
    pts = [tuple(map(float, p.split(","))) for p in poly.split()]
    xs = [float(r[0]) for r in rows]
    ys = [float(r[1]) for r in rows]
    frame = Frame((min(xs), max(xs)), (min(ys), max(ys)))
    first = frame.to_px(float(trows[0][2]), float(trows[0][3]))
    last = frame.to_px(float(trows[-1][2]), float(trows[-1][3]))
    assert pts[0] == pytest.approx(first, abs=0.01)
    assert pts[-1] == pytest.approx(last, abs=0.01)


def test_trajectory_npz_holds_four_arrays_and_older_files_load_the_same(tmp_path):
    cfg_path, cfg = toy_config(tmp_path, "traj", epochs=2, record_trajectory=True,
                               probe_size=32)
    assert main(["train", "--config", str(cfg_path)]) == 0
    run, older = cfg["output_dir"], tmp_path / "older"
    with np.load(os.path.join(run, "trajectory.npz")) as z:
        assert sorted(z.files) == ["losses", "probe_alphas", "states", "steps"]
        arrays = dict(z)
    older.mkdir()
    np.savez(older / "trajectory.npz", **arrays, probe_n=np.int64(32), n_layers=np.int64(2))
    for run_dir in (run, older):
        assert main(["landscape", "--run", str(run_dir), "--resolution", "5"]) == 0
    for name in ("landscape.csv", "trajectory.csv"):
        assert pathlib.Path(older, name).read_bytes() == pathlib.Path(run, name).read_bytes()


def test_landscape_requires_trajectory(tmp_path, capsys):
    cfg_path, cfg = toy_config(tmp_path, "notraj")
    assert main(["train", "--config", str(cfg_path)]) == 0
    assert main(["landscape", "--run", cfg["output_dir"]]) == 3
    assert "trajectory" in capsys.readouterr().err


def write_fixture_records(tmp_path, gaps, vals, arch="mlp"):
    paths = []
    for i, (g, v) in enumerate(zip(gaps, vals)):
        rec = RunRecord(dataset="toy", arch=arch, corruption=0.0, epoch=i,
                        train_acc=0.9, test_acc=0.9 - g, gap=g,
                        metrics={"cna": v, "cna_margin": v, "frobenius": 1.0 + g,
                                 "spectral": 2.0, "path": 3.0, "spectral_product": 1.0})
        p = tmp_path / f"record_epoch{i:04d}.json"
        write_record(rec, p)
        paths.append(p)
    return paths


def test_report_hand_computed_csv(tmp_path):
    gaps = [0.05, 0.25, 0.10, 0.40]
    vals = [0.1, 0.6, 0.2, 0.9]
    write_fixture_records(tmp_path, gaps, vals)
    out = tmp_path / "rep"
    assert main(["report", "--runs", str(tmp_path / "record_*.json"),
                 "--out", str(out)]) == 0
    _, cols, rows = read_csv(out / "report.csv")
    assert cols == ["metric", "group", "rho", "n"]
    table = {(r[0], r[1]): r[2] for r in rows}
    expect = np.corrcoef(vals, gaps)[0, 1]
    assert float(table[("cna", "All Nets")]) == pytest.approx(expect, abs=1e-12)
    # constant columns are undefined -> empty cell
    assert table[("spectral", "All Nets")] == ""
    report = json.loads(pathlib.Path(out / "report.json").read_bytes())
    assert "finding" in report
    assert os.path.exists(out / "report_bars.svg")
    assert os.path.exists(out / "cna_vs_accuracy.svg")


def test_report_too_few_records_exits_3(tmp_path, capsys):
    write_fixture_records(tmp_path, [0.1], [0.5])
    assert main(["report", "--runs", str(tmp_path / "record_*.json"),
                 "--out", str(tmp_path / "rep")]) == 3
    assert main(["report", "--runs", str(tmp_path / "nothing_*.json"),
                 "--out", str(tmp_path / "rep")]) == 3


def test_metrics_command_prints_full_set(tmp_path, capsys):
    cfg_path, cfg = toy_config(tmp_path, "mrun")
    assert main(["train", "--config", str(cfg_path)]) == 0
    ckpt = os.path.join(cfg["output_dir"], "ckpt_epoch0001.cnac")
    data_spec = json.dumps(cfg["dataset"])
    capsys.readouterr()     # drop training logs
    assert main(["metrics", "--checkpoint", ckpt, "--data", data_spec]) == 0
    out = json.loads(capsys.readouterr().out)
    assert set(out) == {"cna", "cna_margin", "frobenius", "spectral", "path",
                        "spectral_product"}


def test_metrics_shape_mismatch_exits_3(tmp_path, capsys):
    cfg_path, cfg = toy_config(tmp_path, "shape")
    assert main(["train", "--config", str(cfg_path)]) == 0
    ckpt = os.path.join(cfg["output_dir"], "ckpt_epoch0001.cnac")
    noise = json.dumps({"name": "gaussian-noise", "train_size": 20, "test_size": 10,
                        "seed": 1})
    capsys.readouterr()
    assert main(["metrics", "--checkpoint", ckpt, "--data", noise]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "shape" in err
    assert "Traceback" not in err


def test_undefined_landscape_cells_use_designated_fill():
    import numpy as np
    from cnalab.analysis import LandscapeGrid
    from cnalab.svg import UNDEFINED_FILL, landscape_svg
    values = np.array([[0.5, np.nan], [0.1, -0.2]])
    grid = LandscapeGrid(xs=np.array([0.0, 1.0]), ys=np.array([0.0, 1.0]), values=values)
    svg = landscape_svg(grid, np.array([[0.0, 0.0], [1.0, 1.0]])).to_string()
    assert UNDEFINED_FILL in svg


def test_shipped_configs_parse():
    from cnalab.config import load_config
    from cnalab.harness import build_suite_cells
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    cfg = load_config(os.path.join(here, "configs", "quickstart.json"))
    assert cfg.epochs == 20
    suite = json.loads(pathlib.Path(here, "configs", "suite.json").read_bytes())
    assert len(build_suite_cells(suite)) == 17


def test_runrecord_preserves_unknown_fields(tmp_path):
    rec = RunRecord(dataset="d", arch="a", corruption=0.1, epoch=2,
                    train_acc=0.8, test_acc=0.7, gap=0.1,
                    metrics={"cna": 0.5}, extra={"train_loss": 0.2, "custom": "x"})
    p = tmp_path / "r.json"
    write_record(rec, p)
    back = read_record(p)
    assert back.extra["custom"] == "x"
    assert back.extra["train_loss"] == 0.2
    p2 = tmp_path / "r2.json"
    write_record(back, p2)
    assert json.loads(pathlib.Path(p).read_bytes())["custom"] == \
        json.loads(pathlib.Path(p2).read_bytes())["custom"]


def test_a_non_finite_number_is_a_numeric_error_and_leaves_no_file(tmp_path):
    from cnalab.errors import NumericError
    from cnalab.harness import _write_json
    rec = RunRecord(dataset="d", arch="a", corruption=0.0, epoch=1, train_acc=0.9,
                    test_acc=0.5, gap=0.4, metrics={"cna": 0.5, "spectral_product": math.inf})
    with pytest.raises(NumericError, match=r"metrics\.spectral_product"):
        write_record(rec, tmp_path / "record_epoch0001.json")
    with pytest.raises(NumericError, match=r"cells\.1\.rho"):
        _write_json(tmp_path / "report.json", {"cells": [{"rho": 0.1}, {"rho": math.nan}]})
    assert os.listdir(tmp_path) == []


def test_metrics_command_with_a_non_finite_metric_exits_4_printing_nothing(
        tmp_path, capsys, monkeypatch):
    from types import SimpleNamespace

    from cnalab import cli, nn
    from cnalab.checkpoint import save_checkpoint
    from cnalab.optim import OptConfig, init_opt_state
    net = nn.build_network([nn.flatten(), nn.dense(3072, 4), nn.relu(), nn.dense(4, 10)],
                           0, (3, 32, 32))
    ckpt = tmp_path / "ckpt.cnac"
    save_checkpoint(net, OptConfig(), init_opt_state(net, OptConfig()), 1, ckpt)
    monkeypatch.setattr(cli, "gap_metric_set", lambda *_: SimpleNamespace(
        to_dict=lambda: {"cna": 0.5, "spectral_product": math.inf}))
    spec = json.dumps({"name": "gaussian-noise", "train_size": 20, "test_size": 10, "seed": 1})
    assert main(["metrics", "--checkpoint", str(ckpt), "--data", spec]) == 4
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("numeric failure:") and "spectral_product" in err


def test_csv_round_trip(tmp_path):
    p = tmp_path / "t.csv"
    rows = [(1, 0.5, None), (2, float(np.pi), 0.25)]
    write_csv(p, "demo", ("a", "b", "c"), rows)
    name, cols, parsed = read_csv(p)
    assert name == "demo"
    assert cols == ["a", "b", "c"]
    assert parsed[0] == ["1", "0.5", ""]
    assert float(parsed[1][1]) == float(np.pi)   # repr survives exactly


def test_resume_skips_newest_checkpoint_with_corrupt_metadata(tmp_path):
    full_path, full = toy_config(tmp_path, "full", epochs=3)
    assert main(["train", "--config", str(full_path)]) == 0
    part_path, part = toy_config(tmp_path, "part", epochs=2)
    assert main(["train", "--config", str(part_path)]) == 0
    newest = os.path.join(part["output_dir"], "ckpt_epoch0002.cnac")
    raw = pathlib.Path(newest).read_bytes()
    assert raw.count(b'"blocks"') == 1
    with open(newest, "wb") as fh:
        fh.write(raw.replace(b'"blocks"', b'"blockz"'))   # same length, key lost

    more_path, _ = toy_config(tmp_path, "part", epochs=3)
    assert main(["train", "--config", str(more_path)]) == 0
    for e in (1, 2, 3):
        name = f"record_epoch{e:04d}.json"
        a = pathlib.Path(full["output_dir"], name).read_bytes()
        b = pathlib.Path(part["output_dir"], name).read_bytes()
        assert a == b
    assert pathlib.Path(newest).read_bytes() == \
        pathlib.Path(full["output_dir"], "ckpt_epoch0002.cnac").read_bytes()


def test_resume_loads_only_the_newest_checkpoint(tmp_path, capsys, monkeypatch):
    from cnalab import harness
    cfg_path, cfg = toy_config(tmp_path, "run", epochs=5, keep_checkpoints="all")
    assert main(["train", "--config", str(cfg_path)]) == 0
    loaded, real = [], harness.load_checkpoint
    monkeypatch.setattr(harness, "load_checkpoint",
                        lambda path: loaded.append(os.path.basename(path)) or real(path))
    more_path, _ = toy_config(tmp_path, "run", epochs=6, keep_checkpoints="all")
    capsys.readouterr()
    assert main(["train", "--config", str(more_path)]) == 0
    assert "from epoch 5" in capsys.readouterr().out
    assert loaded == ["ckpt_epoch0005.cnac"]


def test_resume_skips_a_checkpoint_named_for_another_epoch(tmp_path, capsys):
    cfg_path, cfg = toy_config(tmp_path, "run", epochs=2, keep_checkpoints="all")
    assert main(["train", "--config", str(cfg_path)]) == 0
    out = cfg["output_dir"]
    with open(os.path.join(out, "ckpt_epoch0009.cnac"), "wb") as fh:
        fh.write(pathlib.Path(out, "ckpt_epoch0001.cnac").read_bytes())
    more_path, _ = toy_config(tmp_path, "run", epochs=3, keep_checkpoints="all")
    capsys.readouterr()
    assert main(["train", "--config", str(more_path)]) == 0
    assert "from epoch 2" in capsys.readouterr().out


def test_snapshot_forwards_each_split_once(tmp_path, monkeypatch):
    import sys
    from cnalab import nn
    original = nn.forward
    rows = []

    def counting_forward(net, batch, record=False):
        rows.append(len(batch))
        return original(net, batch, record)

    for name, module in list(sys.modules.items()):
        if name.startswith("cnalab") and getattr(module, "forward", None) is original:
            monkeypatch.setattr(module, "forward", counting_forward)
    cfg_path, _ = toy_config(tmp_path, "rows", epochs=2)
    assert main(["train", "--config", str(cfg_path)]) == 0
    # two snapshots, each forwarding the 150 training and 80 test rows once
    assert sum(rows) == 2 * (150 + 80)


def test_train_split_record_matches_direct_evaluation(tmp_path):
    from cnalab.checkpoint import load_checkpoint
    from cnalab.config import MetricOptions, resolve_datasets
    from cnalab.metrics import gap_metric_set
    from cnalab.optim import evaluate
    cfg_path, cfg = toy_config(tmp_path, "trainsplit", metrics={"cna_split": "train"})
    assert main(["train", "--config", str(cfg_path)]) == 0
    rec = read_record(os.path.join(cfg["output_dir"], "record_epoch0001.json"))
    net = load_checkpoint(os.path.join(cfg["output_dir"], "ckpt_epoch0001.cnac")).net
    train_ds, test_ds = resolve_datasets(cfg["dataset"])
    opts = MetricOptions.from_dict(cfg["metrics"])
    train_acc, _, _ = evaluate(net, train_ds)
    test_acc, test_loss, _ = evaluate(net, test_ds)
    expected = gap_metric_set(net, train_ds, test_ds, opts.entropy, opts.margin_percentile,
                              opts.cna_split)
    assert (rec.train_acc, rec.test_acc, rec.gap) == (train_acc, test_acc, train_acc - test_acc)
    assert rec.extra["test_loss"] == test_loss
    assert rec.metrics == expected.to_dict()
    assert rec.metrics["cna"] is not None and rec.metrics["cna_margin"] is not None


DIGITS_SPEC = json.dumps({"name": "synthetic-digits", "train_size": 20, "test_size": 10,
                          "seed": 7})


@pytest.mark.parametrize("argv, code", [
    (["metrics", "--checkpoint", "CKPT", "--data", "BAD_JSON"], 2),
    (["metrics", "--checkpoint", "CKPT", "--data", "DIR"], 2),
    (["metrics", "--checkpoint", "CKPT", "--data", "MISSING"], 2),
    (["metrics", "--checkpoint", "CKPT", "--data", "BINARY"], 2),
    (["metrics", "--checkpoint", "CKPT", "--data", "[1]"], 2),
    (["metrics", "--checkpoint", "CKPT", "--data", '{"train_size": 3}'], 2),
    (["metrics", "--checkpoint", "DIR", "--data", DIGITS_SPEC], 3),
    (["train", "--config", "DIR"], 2),
    (["train", "--config", "LIST"], 2),
    (["suite", "--config", "DIR"], 2),
    (["suite", "--config", "BAD_JSON"], 2),
    (["suite", "--config", "LIST"], 2),
], ids=["data-bad-json", "data-dir", "data-missing", "data-binary", "data-list",
        "data-no-name", "checkpoint-dir", "train-dir", "train-list", "suite-dir",
        "suite-bad-json", "suite-list"])
def test_unreadable_inputs_exit_with_their_code_and_no_traceback(tmp_path, capsys, argv, code):
    from cnalab import nn
    from cnalab.checkpoint import save_checkpoint
    from cnalab.optim import OptConfig, init_opt_state
    net = nn.build_network([nn.flatten(), nn.dense(784, 8), nn.relu(), nn.dense(8, 10)],
                           0, (1, 28, 28))
    paths = {name: tmp_path / name for name in
             ("CKPT", "BAD_JSON", "DIR", "MISSING", "BINARY", "LIST")}
    save_checkpoint(net, OptConfig(), init_opt_state(net, OptConfig()), 1, paths["CKPT"])
    paths["BAD_JSON"].write_text("{ not json")
    paths["DIR"].mkdir()
    paths["BINARY"].write_bytes(b"\xff\xfe{}")
    paths["LIST"].write_text("[1]")
    assert main([str(paths.get(a, a)) for a in argv]) == code
    err = capsys.readouterr().err
    assert err.startswith("config error:" if code == 2 else "data error:")
    assert "Traceback" not in err


def test_trajectory_probe_alphas_are_the_probe_entropies(tmp_path):
    from cnalab.config import resolve_datasets
    from cnalab.metrics import EntropyConfig, entropy_vector
    from cnalab.rng import seeded_rng
    cfg_path, cfg = toy_config(tmp_path, "probe", record_trajectory=True, probe_size=32,
                               probe_seed=5)
    assert main(["train", "--config", str(cfg_path)]) == 0
    _, test_ds = resolve_datasets(cfg["dataset"])
    idx = np.sort(seeded_rng(5, "probe").choice(len(test_ds), size=32, replace=False))
    with np.load(os.path.join(cfg["output_dir"], "trajectory.npz")) as z:
        saved = z["probe_alphas"]
    expected = entropy_vector(test_ds.inputs[idx], EntropyConfig())
    assert saved.dtype == expected.dtype and saved.tobytes() == expected.tobytes()


@pytest.mark.parametrize("overrides, field", [
    ({"arch": {"name": "mlp", "hidden": [8]}}, "arch.hidden"),
    ({"arch": {"name": "cnn", "channels": []}}, "arch.channels"),
    ({"record_trajectory": "false"}, "record_trajectory"),
    ({"metrics": {"include_output": 0}}, "metrics.include_output"),
], ids=["mlp-one-hidden", "cnn-no-channels", "bool-string", "bool-int"])
def test_bad_config_exits_2_before_writing(tmp_path, capsys, overrides, field):
    cfg_path, cfg = toy_config(tmp_path, **overrides)
    assert main(["train", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and field in err
    assert not os.path.exists(cfg["output_dir"])


def test_one_hidden_layer_with_the_output_layer_mapped_parses(tmp_path):
    from cnalab.config import load_config
    cfg_path, _ = toy_config(tmp_path, arch={"name": "mlp", "hidden": [8]},
                             metrics={"include_output": True})
    assert load_config(cfg_path).arch == {"name": "mlp", "hidden": [8]}


def poison_train_row(monkeypatch, value):
    """Make the training inputs' row 17 all value."""
    from cnalab import harness
    real = harness.resolve_datasets

    def poisoned(spec):
        train, test = real(spec)
        inputs = train.inputs.copy()
        inputs[17] = value
        return type(train)(inputs, train.labels, train.classes), test

    monkeypatch.setattr(harness, "resolve_datasets", poisoned)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nonfinite_step_exits_4_without_that_epochs_record(tmp_path, monkeypatch, capsys):
    poison_train_row(monkeypatch, 1e308)      # finite, but the first step overflows
    cfg_path, cfg = toy_config(tmp_path, epochs=2)
    assert main(["train", "--config", str(cfg_path)]) == 4
    assert "non-finite" in capsys.readouterr().err
    assert not [f for f in os.listdir(cfg["output_dir"]) if f.startswith(("record_", "ckpt_"))]


def test_nonfinite_input_exits_3_before_training(tmp_path, monkeypatch, capsys):
    poison_train_row(monkeypatch, np.inf)
    cfg_path, cfg = toy_config(tmp_path, epochs=2)
    assert main(["train", "--config", str(cfg_path)]) == 3
    assert "row 17 is not finite" in capsys.readouterr().err
    assert not [f for f in os.listdir(cfg["output_dir"]) if f.startswith(("record_", "ckpt_"))]


# --- run-directory writes: temp file + rename, curves.csv appended ---------

def run_files(out_dir):
    """{name: bytes} of a run's records, curves and checkpoints."""
    return {name: pathlib.Path(out_dir, name).read_bytes()
            for name in sorted(os.listdir(out_dir))
            if name.startswith(("record_", "ckpt_")) or name == "curves.csv"}


@pytest.fixture
def latest_run(tmp_path):
    """A 3-epoch keep_checkpoints=latest run, uninterrupted."""
    cfg_path, cfg = toy_config(tmp_path, "full", epochs=3, keep_checkpoints="latest")
    assert main(["train", "--config", str(cfg_path)]) == 0
    return run_files(cfg["output_dir"])


def forbid_overwrites(monkeypatch, run_dir):
    """Make any open that would truncate or overwrite an existing file in
    run_dir fail; appending stays allowed."""
    real_open, real_os_open = open, os.open

    def check(path):
        if os.path.dirname(os.path.abspath(path)) == run_dir and os.path.exists(path):
            raise AssertionError(f"{path} overwritten in place")

    def guarded_open(file, mode="r", *args, **kwargs):
        if not isinstance(file, int) and ("w" in mode or "+" in mode):
            check(file)
        return real_open(file, mode, *args, **kwargs)

    def guarded_os_open(path, flags, *args, **kwargs):
        if flags & (os.O_WRONLY | os.O_RDWR) and not flags & os.O_APPEND:
            check(path)
        return real_os_open(path, flags, *args, **kwargs)

    monkeypatch.setattr("builtins.open", guarded_open)
    monkeypatch.setattr(os, "open", guarded_os_open)


def test_latest_run_never_overwrites_a_file_in_place(tmp_path, monkeypatch, latest_run):
    cfg_path, cfg = toy_config(tmp_path, "run", epochs=3, keep_checkpoints="latest",
                               record_trajectory=True, probe_size=16)
    forbid_overwrites(monkeypatch, cfg["output_dir"])
    assert main(["train", "--config", str(cfg_path)]) == 0
    assert main(["train", "--config", str(cfg_path)]) == 0    # rerun rewrites config, curves
    monkeypatch.undo()
    assert run_files(cfg["output_dir"]) == latest_run
    assert [f for f in os.listdir(cfg["output_dir"]) if f.startswith("ckpt_")] == \
        ["ckpt_epoch0003.cnac"]
    assert not [f for f in os.listdir(cfg["output_dir"]) if f.endswith(".tmp")]


class Crash(Exception):
    pass


@pytest.mark.parametrize("tear", [0, 7], ids=["whole-rows", "torn-line"])
def test_resume_after_crash_before_checkpoint_save(tmp_path, monkeypatch, latest_run, tear):
    from cnalab import harness
    real = harness.save_checkpoint

    def crash_at_epoch_3(net, opt_config, opt_state, epoch, path, seeds=None):
        if epoch == 3:
            raise Crash
        real(net, opt_config, opt_state, epoch, path, seeds)

    monkeypatch.setattr(harness, "save_checkpoint", crash_at_epoch_3)
    cfg_path, cfg = toy_config(tmp_path, "run", epochs=3, keep_checkpoints="latest")
    with pytest.raises(Crash):
        main(["train", "--config", str(cfg_path)])
    monkeypatch.undo()
    curves = os.path.join(cfg["output_dir"], "curves.csv")
    raw = pathlib.Path(curves).read_bytes()
    assert raw.count(b"\n3,") == 5    # epoch 3's rows were appended
    with open(curves, "r+b") as fh:
        fh.truncate(len(raw) - tear)
    assert main(["train", "--config", str(cfg_path)]) == 0
    assert run_files(cfg["output_dir"]) == latest_run


def test_stale_temp_checkpoint_is_ignored(tmp_path, capsys, latest_run):
    cfg_path, cfg = toy_config(tmp_path, "run", epochs=1, keep_checkpoints="latest")
    assert main(["train", "--config", str(cfg_path)]) == 0
    ckpt = os.path.join(cfg["output_dir"], "ckpt_epoch0001.cnac")
    stale = os.path.join(cfg["output_dir"], "ckpt_epoch0002.cnac.tmp")
    with open(stale, "wb") as fh:
        fh.write(pathlib.Path(ckpt).read_bytes()[:-100])     # a save cut short
    more_path, _ = toy_config(tmp_path, "run", epochs=3, keep_checkpoints="latest")
    capsys.readouterr()
    assert main(["train", "--config", str(more_path)]) == 0
    assert "from epoch 1" in capsys.readouterr().out
    assert run_files(cfg["output_dir"]) == latest_run
    assert not os.path.exists(stale)


def test_legacy_latest_checkpoint_resumes_then_is_removed(tmp_path, capsys, latest_run):
    cfg_path, cfg = toy_config(tmp_path, "run", epochs=1, keep_checkpoints="latest")
    assert main(["train", "--config", str(cfg_path)]) == 0
    os.rename(os.path.join(cfg["output_dir"], "ckpt_epoch0001.cnac"),
              os.path.join(cfg["output_dir"], "ckpt_latest.cnac"))
    more_path, _ = toy_config(tmp_path, "run", epochs=3, keep_checkpoints="latest")
    capsys.readouterr()
    assert main(["train", "--config", str(more_path)]) == 0
    assert "from epoch 1" in capsys.readouterr().out
    assert run_files(cfg["output_dir"]) == latest_run


def test_a_legacy_latest_checkpoint_newer_than_every_named_one_is_resumed(tmp_path, capsys,
                                                                         latest_run):
    cfg_path, cfg = toy_config(tmp_path, "run", epochs=1, keep_checkpoints="latest")
    assert main(["train", "--config", str(cfg_path)]) == 0
    first = pathlib.Path(cfg["output_dir"], "ckpt_epoch0001.cnac").read_bytes()
    assert main(["train", "--config", str(toy_config(tmp_path, "run", epochs=2,
                                                     keep_checkpoints="latest")[0])]) == 0
    os.rename(os.path.join(cfg["output_dir"], "ckpt_epoch0002.cnac"),
              os.path.join(cfg["output_dir"], "ckpt_latest.cnac"))
    pathlib.Path(cfg["output_dir"], "ckpt_epoch0001.cnac").write_bytes(first)
    more_path, _ = toy_config(tmp_path, "run", epochs=3, keep_checkpoints="latest")
    capsys.readouterr()
    assert main(["train", "--config", str(more_path)]) == 0
    assert "from epoch 2" in capsys.readouterr().out
    assert run_files(cfg["output_dir"]) == latest_run


@pytest.mark.parametrize("old,new", [(b"\n1,0,", b"\n1x,0,"), (b"\n1,0,", b"\n1,0,\xff")],
                         ids=["epoch-1x", "not-utf8"])
def test_a_corrupt_curves_file_is_a_format_error_on_resume(tmp_path, capsys, old, new):
    cfg_path, cfg = toy_config(tmp_path, "run", epochs=2)
    assert main(["train", "--config", str(cfg_path)]) == 0
    curves = pathlib.Path(cfg["output_dir"], "curves.csv")
    raw = curves.read_bytes()
    assert raw.count(old) == 1          # the first data row
    curves.write_bytes(raw.replace(old, new))
    more_path, _ = toy_config(tmp_path, "run", epochs=3)
    capsys.readouterr()
    assert main(["train", "--config", str(more_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:") and str(curves) in err


def test_resume_from_an_older_checkpoint_keeps_each_trajectory_step_once(tmp_path):
    runs = {}
    for name in ("full", "resumed"):
        runs[name] = toy_config(tmp_path, name, epochs=2, record_trajectory=True,
                                probe_size=16)
        assert main(["train", "--config", str(runs[name][0])]) == 0
    resumed = runs["resumed"][1]["output_dir"]
    os.unlink(os.path.join(resumed, "ckpt_epoch0002.cnac"))
    assert main(["train", "--config", str(runs["resumed"][0])]) == 0
    with np.load(os.path.join(runs["full"][1]["output_dir"], "trajectory.npz")) as a, \
            np.load(os.path.join(resumed, "trajectory.npz")) as b:
        assert list(a["steps"]) == list(range(10))       # 150 rows / 32 = 5 steps an epoch
        assert sorted(a.files) == sorted(b.files)
        for key in a.files:
            assert a[key].dtype == b[key].dtype and np.array_equal(a[key], b[key]), key


@pytest.mark.parametrize("change", ["seed", "kernel", "corruption"])
def test_suite_cells_sharing_a_directory_exit_2_before_writing(tmp_path, capsys, change):
    path, suite = suite_config(tmp_path)
    grid = suite["grid"]
    if change == "seed":
        grid["datasets"].append(dict(grid["datasets"][0], seed=4))
    elif change == "kernel":
        grid["archs"] = [{"name": "cnn", "channels": [4, 4], "kernel": k} for k in (3, 5)]
    else:
        grid["corruptions"] = [0.3, 0.301]
    path.write_text(json.dumps(suite))
    assert main(["suite", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and suite["output_root"] in err
    assert "Traceback" not in err
    assert not os.path.exists(suite["output_root"])


@pytest.mark.parametrize("key, value", [("aggregation", "sum"), ("include_output", True)])
def test_metrics_data_depth_keys_rebuild_the_checkpoint_net(tmp_path, capsys, key, value):
    from dataclasses import replace

    from cnalab.checkpoint import load_checkpoint
    from cnalab.config import resolve_datasets
    from cnalab.metrics import gap_metric_set
    cfg_path, cfg = toy_config(tmp_path, "depth", arch={"name": "mlp", "hidden": [16, 8]})
    assert main(["train", "--config", str(cfg_path)]) == 0
    ckpt = os.path.join(cfg["output_dir"], "ckpt_epoch0001.cnac")
    capsys.readouterr()
    spec = dict(cfg["dataset"], metrics={key: value})
    assert main(["metrics", "--checkpoint", ckpt, "--data", json.dumps(spec)]) == 0
    out = json.loads(capsys.readouterr().out)
    net = load_checkpoint(ckpt).net
    train_ds, test_ds = resolve_datasets(cfg["dataset"])
    assert out == gap_metric_set(replace(net, **{key: value}), train_ds, test_ds).to_dict()
    assert out["cna"] != gap_metric_set(net, train_ds, test_ds).cna


def test_latest_deletes_only_its_own_checkpoints_whatever_the_directory_name(tmp_path):
    other_path, other = toy_config(tmp_path, "ra", keep_checkpoints="all")
    assert main(["train", "--config", str(other_path)]) == 0
    cfg_path, cfg = toy_config(tmp_path, "r[ab]", epochs=2, keep_checkpoints="latest")
    assert main(["train", "--config", str(cfg_path)]) == 0
    assert os.path.exists(os.path.join(other["output_dir"], "ckpt_epoch0001.cnac"))
    assert [f for f in os.listdir(cfg["output_dir"]) if f.startswith("ckpt_")] == \
        ["ckpt_epoch0002.cnac"]


def test_suite_reports_on_an_output_root_with_glob_characters(tmp_path):
    path, suite = suite_config(tmp_path)
    suite["output_root"] = str(tmp_path / "suite[1]")
    path.write_text(json.dumps(suite))
    assert main(["suite", "--config", str(path)]) == 0
    report = json.loads(pathlib.Path(suite["output_root"], "report.json").read_bytes())
    assert report["n_records"] == 4


def test_suite_starts_no_more_workers_than_cells(tmp_path, monkeypatch):
    import concurrent.futures

    from cnalab.cli import malloc_policy
    from cnalab.harness import _run_cell
    started, initializers = [], []

    class InProcessPool:
        def __init__(self, max_workers, initializer=None):
            started.append(max_workers)
            initializers.append(initializer)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, cells):
            assert fn is _run_cell
            return map(fn, cells)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    path, suite = suite_config(tmp_path)
    assert main(["suite", "--config", str(path), "--jobs", "64"]) == 0
    assert started == [4]
    assert initializers == [malloc_policy]     # so spawn and forkserver workers get it too
    summary = json.loads(pathlib.Path(suite["output_root"], "suite_summary.json").read_bytes())
    assert [c["status"] for c in summary["cells"]] == ["ok"] * 4


def test_suite_log_takes_the_line_of_every_in_process_cell(tmp_path, capsys):
    from cnalab.harness import run_suite
    _, suite = suite_config(tmp_path)
    lines = []
    run_suite(suite, log=lines.append)
    assert capsys.readouterr().out == ""
    assert sum(line.startswith("[train]") for line in lines) == 4


@pytest.mark.parametrize("case, code, message", [
    ("idx-shorter-than-4-bytes", 3, "too short for an IDX header"),
    ("idx-dimension-table-cut-off", 3, "truncated dimension table"),
    ("mnist-without-paths", 2, "dataset config missing train images path"),
    ("test-size-below-curve-bins", 3, "cannot fill 5 bins from 3 datapoints"),
    ("landscape-resolution-1", 3, "landscape resolution must be >= 2"),
])
def test_edge_errors_exit_with_their_code_and_no_traceback(tmp_path, capsys, case, code,
                                                           message):
    idx = tmp_path / "head.idx"
    idx.write_bytes(b"\x00\x00\x08" if case == "idx-shorter-than-4-bytes"
                    else struct.pack(">II", 0x803, 5))
    paths = dict.fromkeys(("train_images", "train_labels", "test_images", "test_labels"),
                          str(idx))
    overrides = {
        "mnist-without-paths": {"dataset": {"name": "mnist"}},
        "test-size-below-curve-bins": {"dataset": {"name": "synthetic-digits",
                                                   "train_size": 150, "test_size": 3}},
        "landscape-resolution-1": {"epochs": 2, "record_trajectory": True, "probe_size": 16},
    }.get(case, {"dataset": {"name": "mnist", **paths}})
    cfg_path, cfg = toy_config(tmp_path, **overrides)
    argv = ["train", "--config", str(cfg_path)]
    if case == "landscape-resolution-1":
        assert main(argv) == 0
        argv = ["landscape", "--run", cfg["output_dir"], "--resolution", "1"]
        capsys.readouterr()
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith("config error:" if code == 2 else "data error:") and message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_suite_jobs_below_one_exits_2_before_writing(tmp_path, capsys, jobs):
    path, suite = suite_config(tmp_path)
    assert main(["suite", "--config", str(path), "--jobs", jobs]) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not os.path.exists(suite["output_root"])


def test_a_suite_that_expands_to_zero_cells_exits_2_before_writing(tmp_path, capsys):
    path, suite = suite_config(tmp_path)
    suite["grid"]["datasets"], suite["extra_runs"] = [], []
    path.write_text(json.dumps(suite))
    assert main(["suite", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "zero cells" in err
    assert not os.path.exists(suite["output_root"])


def test_landscape_creates_its_out_directory(tmp_path):
    cfg_path, cfg = toy_config(tmp_path, "traj", epochs=2, record_trajectory=True,
                               probe_size=32)
    assert main(["train", "--config", str(cfg_path)]) == 0
    out = tmp_path / "new" / "dir"
    assert main(["landscape", "--run", cfg["output_dir"], "--resolution", "5",
                 "--out", str(out)]) == 0
    assert sorted(os.listdir(out)) == ["landscape.csv", "landscape.svg", "trajectory.csv"]


_GOOD_RECORD = json.loads(RunRecord(dataset="toy", arch="mlp", corruption=0.0, epoch=9,
                                    train_acc=0.9, test_acc=0.8, gap=0.1,
                                    metrics={"cna": 0.5}).to_json())
MALFORMED_RECORDS = {
    "top-level-number": b"3",
    "null-gap": json.dumps(_GOOD_RECORD | {"gap": None}).encode(),
    "metrics-list": json.dumps(_GOOD_RECORD | {"metrics": [1, 2]}).encode(),
    "string-metric": json.dumps(_GOOD_RECORD | {"metrics": {"cna": "0.5"}}).encode(),
    "not-utf-8": json.dumps(_GOOD_RECORD).encode().replace(b'"toy"', b'"t\xffy"'),
    "numeric-arch": json.dumps(_GOOD_RECORD | {"arch": 7}).encode(),
    "boolean-gap": json.dumps(_GOOD_RECORD | {"gap": True}).encode(),
    "nan-gap": json.dumps(_GOOD_RECORD | {"gap": math.nan}).encode(),
    "infinite-metric": json.dumps(_GOOD_RECORD | {"metrics": {"cna": -math.inf}}).encode(),
}


@pytest.mark.parametrize("content", MALFORMED_RECORDS.values(), ids=MALFORMED_RECORDS.keys())
def test_a_malformed_record_is_a_format_error_not_a_traceback(tmp_path, capsys, content):
    write_fixture_records(tmp_path, [0.05, 0.25, 0.10], [0.1, 0.6, 0.2])
    (tmp_path / "record_epoch0009.json").write_bytes(content)
    assert main(["report", "--runs", str(tmp_path / "record_*.json"),
                 "--out", str(tmp_path / "rep")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "record_epoch0009.json" in err


def _nan_state(a):
    states = a["states"].copy()
    states[1, 2] = np.nan
    return dict(a, states=states)


TRAJECTORY_CORRUPTIONS = {
    "no-losses": lambda a: {k: v for k, v in a.items() if k != "losses"},
    "nan-state": _nan_state,
    "string-states": lambda a: dict(a, states=a["states"].astype(str)),
    "infinite-loss": lambda a: dict(a, losses=np.append(a["losses"][:-1], np.inf)),
    "fractional-steps": lambda a: dict(a, steps=a["steps"] + 0.5),
}


@pytest.mark.parametrize("corruption", ["junk", *TRAJECTORY_CORRUPTIONS])
def test_a_corrupt_trajectory_is_a_format_error_not_a_traceback(tmp_path, capsys, corruption):
    cfg_path, cfg = toy_config(tmp_path, "traj", epochs=2, record_trajectory=True,
                               probe_size=16)
    assert main(["train", "--config", str(cfg_path)]) == 0
    path = os.path.join(cfg["output_dir"], "trajectory.npz")
    if corruption == "junk":
        pathlib.Path(path).write_bytes(b"not an archive" * 10)
    else:
        with np.load(path) as z:
            arrays = {k: z[k] for k in z.files}
        np.savez(path, **TRAJECTORY_CORRUPTIONS[corruption](arrays))
    capsys.readouterr()
    assert main(["landscape", "--run", cfg["output_dir"], "--resolution", "5"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:") and path in err
    # a resumed run with a trajectory reads the same file
    os.unlink(os.path.join(cfg["output_dir"], "ckpt_epoch0002.cnac"))
    assert main(["train", "--config", str(cfg_path)]) == 3
    assert path in capsys.readouterr().err


@pytest.mark.parametrize("edit", [
    lambda a: dict(a, steps=a["steps"][:3], losses=a["losses"][:3]),
    lambda a: dict(a, states=a["states"][:, None]),
], ids=["3-steps-for-10-states", "3-d-states"])
def test_trajectory_arrays_that_disagree_in_shape_are_a_format_error(tmp_path, capsys, edit):
    cfg_path, cfg = toy_config(tmp_path, "traj", epochs=2, record_trajectory=True,
                               probe_size=16)
    assert main(["train", "--config", str(cfg_path)]) == 0
    path = os.path.join(cfg["output_dir"], "trajectory.npz")
    with np.load(path) as z:
        arrays = dict(z)
    assert len(arrays["states"]) == len(arrays["steps"]) == len(arrays["losses"]) == 10
    np.savez(path, **edit(arrays), probe_n=np.int64(16), n_layers=np.int64(2))
    capsys.readouterr()
    assert main(["landscape", "--run", cfg["output_dir"], "--resolution", "5"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:") and path in err
    assert not os.path.exists(os.path.join(cfg["output_dir"], "trajectory.csv"))


def test_main_sets_the_malloc_policy_before_dispatching(monkeypatch):
    import ctypes
    import types

    from cnalab import cli
    calls = []

    def mallopt(param, value):
        calls.append(("mallopt", param, value))
        return 1

    def cdll(name):
        calls.append(("CDLL", name))
        return types.SimpleNamespace(mallopt=mallopt)

    monkeypatch.setattr(ctypes, "CDLL", cdll)
    monkeypatch.setattr(cli, "cmd_report", lambda args: calls.append(("dispatch",)) or 0)
    assert main(["report", "--runs", "nothing"]) == 0
    assert (cli.M_MMAP_THRESHOLD, cli.M_TRIM_THRESHOLD) == (-3, -1)      # glibc's malloc.h
    assert calls == [("CDLL", None), ("mallopt", -3, 32 << 20), ("mallopt", -1, 64 << 20),
                     ("dispatch",)]


@pytest.mark.parametrize("libc", ["unloadable", "no-mallopt"])
def test_train_runs_where_libc_has_no_mallopt(tmp_path, monkeypatch, libc):
    import ctypes

    def cdll(name):
        if libc == "unloadable":
            raise OSError("no shared C library")
        return object()

    monkeypatch.setattr(ctypes, "CDLL", cdll)
    cfg_path, cfg = toy_config(tmp_path)
    assert main(["train", "--config", str(cfg_path)]) == 0
    assert os.path.exists(os.path.join(cfg["output_dir"], "record_epoch0001.json"))


def test_rendering_under_the_malloc_policy_takes_few_page_faults():
    pytest.importorskip("resource")
    code = ("import resource\n"
            "from cnalab.cli import malloc_policy\n"
            "from cnalab.data import synthetic_digits\n"
            "malloc_policy()\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "synthetic_digits(400, 5)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cnalab.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert int(out) < 4000


# --- crash at every write boundary, then resume -----------------------------

def digests(out_dir):
    """{name: sha256} of every file in out_dir but temp files."""
    return {name: hashlib.sha256(pathlib.Path(out_dir, name).read_bytes()).hexdigest()
            for name in sorted(os.listdir(out_dir)) if not name.endswith(".tmp")}


TRAJECTORY = {"record_trajectory": True, "probe_size": 16}


@pytest.mark.parametrize("keep, extra, writes", [
    pytest.param("all", {}, 11, id="all"),
    pytest.param("latest", {}, 13, id="latest"),
    pytest.param("all", TRAJECTORY, 14, id="all-trajectory"),
    pytest.param("latest", TRAJECTORY, 16, id="latest-trajectory"),
])
def test_a_resumed_run_equals_an_uninterrupted_one_at_every_write_boundary(
        tmp_path, monkeypatch, keep, extra, writes):
    from cnalab import harness
    calls = {"n": 0, "fail_at": None}

    def counted(real):
        def call(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == calls["fail_at"]:
                raise Crash
            return real(*args, **kwargs)
        return call

    for module, name in ((os, "replace"), (os, "unlink"), (harness, "append_csv")):
        monkeypatch.setattr(module, name, counted(getattr(module, name)))
    dataset = {"name": "synthetic-digits", "train_size": 120, "test_size": 60, "seed": 7}

    def train(name):     # in its own directory, so config.json's output_dir is the same
        (tmp_path / name).mkdir(exist_ok=True)
        monkeypatch.chdir(tmp_path / name)
        cfg_path, _ = toy_config(tmp_path / name, epochs=3, keep_checkpoints=keep,
                                 dataset=dataset, arch={"name": "mlp", "hidden": [16, 16]},
                                 optimizer={"kind": "adam", "lr": 0.001, "batch_size": 40},
                                 output_dir="run", **extra)
        main(["train", "--config", str(cfg_path)])
        return tmp_path / name / "run"

    expected = digests(train("full"))
    n_writes, calls["n"] = calls["n"], 0
    assert n_writes == writes
    for fail_at in range(1, n_writes + 1):
        calls.update(n=0, fail_at=fail_at)
        with pytest.raises(Crash):
            train(f"crash{fail_at}")
        calls["fail_at"] = None
        assert digests(train(f"crash{fail_at}")) == expected, f"crash at write {fail_at}"


@pytest.mark.parametrize("content", [
    b"# schema=report v1\nmetric,group,rho,n\ncna,All Nets,0.5,4\n",
    b"epoch,bin,mean_error\n1,0,0.5\n",
    b"# schema=curves v1\n",
], ids=["report-schema", "no-schema-line", "no-column-header"])
def test_a_resumed_curves_file_that_is_not_a_curves_table_is_a_format_error(tmp_path, capsys,
                                                                           content):
    cfg_path, cfg = toy_config(tmp_path, "run", epochs=2)
    assert main(["train", "--config", str(cfg_path)]) == 0
    curves = pathlib.Path(cfg["output_dir"], "curves.csv")
    curves.write_bytes(content)
    more_path, _ = toy_config(tmp_path, "run", epochs=3)
    capsys.readouterr()
    assert main(["train", "--config", str(more_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:") and str(curves) in err


def test_a_cnn_whose_spatial_size_collapses_exits_2(tmp_path, capsys):
    cfg_path, _ = toy_config(tmp_path, arch={"name": "cnn", "channels": [4, 8, 16],
                                             "kernel": 5, "stride": 2})
    assert main(["train", "--config", str(cfg_path)]) == 2
    assert "cnn spatial size collapsed" in capsys.readouterr().err


def test_a_suite_with_too_few_records_skips_its_report(tmp_path, capsys):
    path, suite = suite_config(tmp_path)
    suite["grid"]["corruptions"], suite["extra_runs"] = [0.0], []
    path.write_text(json.dumps(suite))
    assert main(["suite", "--config", str(path)]) == 0
    out = capsys.readouterr()
    assert "report skipped" in out.out + out.err
    assert os.path.exists(os.path.join(suite["output_root"], "suite_summary.json"))
    assert not os.path.exists(os.path.join(suite["output_root"], "report.json"))


def test_landscape_on_states_of_another_probe_size_exits_3(tmp_path, capsys):
    cfg_path, cfg = toy_config(tmp_path, "traj", epochs=2, record_trajectory=True,
                               probe_size=16)
    assert main(["train", "--config", str(cfg_path)]) == 0
    path = os.path.join(cfg["output_dir"], "trajectory.npz")
    with np.load(path) as z:
        arrays = dict(z)
    assert arrays["states"].shape[1] == 32           # 16 probe points x 2 layers
    np.savez(path, **dict(arrays, probe_alphas=arrays["probe_alphas"][:15]))
    capsys.readouterr()
    assert main(["landscape", "--run", cfg["output_dir"], "--resolution", "5"]) == 3
    assert "not a multiple of probe size 15" in capsys.readouterr().err


def test_a_report_whose_norm_baselines_are_all_null_says_so(tmp_path):
    for i, (g, v) in enumerate(zip([0.05, 0.25, 0.10], [0.1, 0.6, 0.2])):
        write_record(RunRecord(dataset="toy", arch="mlp", corruption=0.0, epoch=i,
                               train_acc=0.9, test_acc=0.9 - g, gap=g,
                               metrics={"cna": v, "cna_margin": v, "frobenius": None,
                                        "spectral": None, "path": None}),
                     tmp_path / f"record_epoch{i:04d}.json")
    out = tmp_path / "rep"
    assert main(["report", "--runs", str(tmp_path / "record_*.json"), "--out", str(out)]) == 0
    finding = json.loads(pathlib.Path(out, "report.json").read_bytes())["finding"]
    assert finding.endswith("all norm baselines undefined")
