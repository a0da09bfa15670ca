"""CLI and harness tests: commands, exit codes, emitted files."""

import json
import os
import pathlib
import re
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
