"""Experiment orchestration: single training cells, suites, landscape
and report emission. The CLI is a thin wrapper over these functions.

Per-run output directory layout; a snapshot writes the last four in order:
    config.json               resolved config (provenance)
    record_epochNNNN.json     one RunRecord per snapshot
    curves.csv                entropy-binned test error of every snapshot so far
    trajectory.npz            states, steps, losses, probe_alphas (when recorded)
    ckpt_epochNNNN.cnac       checkpoint per snapshot ("latest" deletes the older)
Each file is written whole to <name>.tmp and renamed into place; a resumed
run checks what it reads before it writes or deletes anything.
"""

import contextlib
import glob
import json
import os
import re
import zipfile
from dataclasses import asdict, astuple, fields

import numpy as np

from .analysis import (ALL_NETS, ReportCell, TrajectorySample,
                       binned_error_curves, cna_landscape, complexity_bins,
                       gap_correlation_report, pca2, record_state)
from .checkpoint import load_checkpoint, save_checkpoint
from .config import (ExperimentConfig, arch_id, as_type, build_arch, corruption_of,
                     read_json, resolve_datasets)
from .csvio import json_text, read_csv, replacing, write_csv
from .errors import CnaLabError, ConfigError, DataError, FormatError
from .metrics import entropy_vector, gap_metric_set
from .nn import build_network
from .optim import init_opt_state, score, trace_over_dataset, train_epoch
from .records import RunRecord, read_record, write_record
from .rng import seeded_rng
from .svg import grouped_bars_svg, landscape_svg, scatter_svg

CURVE_BINS = 5
CURVE_COLUMNS = ("epoch", "bin", "mean_error")
SUITE_EPOCHS = 10    # a suite cell's epochs when neither the suite nor its run sets them
RERUN_FIELDS = {"epochs", "snapshot_interval", "keep_checkpoints", "output_dir"}  # may change


def record_path(out_dir, epoch):
    return os.path.join(out_dir, f"record_epoch{epoch:04d}.json")


def _write_json(path, obj, sort_keys=False):
    text = json_text(obj, sort_keys)    # before the temp file: a NumericError leaves no file
    with replacing(path) as fh:
        fh.write(text)


def _checkpoints(out_dir):
    """Matches of the ckpt_epochNNNN.cnac names listed (not globbed) in out_dir."""
    return [m for m in map(re.compile(r"ckpt_epoch(\d+)\.cnac").fullmatch,
                           os.listdir(out_dir)) if m]


def _keep_only(cfg, name):
    """Under keep_checkpoints "latest", delete every checkpoint of the run but name."""
    if cfg.keep_checkpoints == "latest":
        for old in {m[0] for m in _checkpoints(cfg.output_dir)} - {name}:
            os.unlink(os.path.join(cfg.output_dir, old))


def _latest_checkpoint(out_dir):
    """(name, Checkpoint) of the newest checkpoint in out_dir that loads, or (None, None):
    ckpt_epochNNNN files newest first by the epoch in their name, skipping any that
    fail to load or store another epoch."""
    for epoch, name in sorted(((int(m[1]), m[0]) for m in _checkpoints(out_dir)),
                              reverse=True):
        with contextlib.suppress(CnaLabError):
            ck = load_checkpoint(os.path.join(out_dir, name))
            if ck.epoch == epoch:
                return name, ck
    return None, None


def _check_same_run(cfg):
    """ConfigError unless the run directory's config.json equals cfg but in RERUN_FIELDS."""
    path = os.path.join(cfg.output_dir, "config.json")
    old, new = read_json(path), json.loads(json_text(cfg.to_dict()))
    changed = sorted({k for k in old.keys() | new.keys() if old.get(k) != new.get(k)} - RERUN_FIELDS)
    if changed:
        raise ConfigError(f"{path}: a run of another config ({', '.join(changed)} differ)")


def run_training(cfg, log=print):
    """Run one experiment cell, or resume it from the newest checkpoint (another config's
    checkpoint or config.json is a ConfigError), writing its run directory.
    Identical (config, seeds) give byte-identical files, interrupted or not."""
    train_ds, test_ds = resolve_datasets(cfg.dataset)
    opts = cfg.metrics
    shape = train_ds.pixels.shape[1:]
    specs = build_arch(cfg.arch, shape, train_ds.classes)

    os.makedirs(cfg.output_dir, exist_ok=True)
    name, resumed = _latest_checkpoint(cfg.output_dir)
    if resumed is not None:
        net, opt_state, start_epoch = resumed.net, resumed.opt_state, resumed.epoch
        if (net.specs, net.input_shape, net.aggregation, net.include_output, net.init_seed,
                resumed.opt_config, resumed.seeds.get("shuffle")) != (
                specs, shape, opts.aggregation, opts.include_output, cfg.init_seed,
                cfg.optimizer, cfg.shuffle_seed):
            raise ConfigError(f"{os.path.join(cfg.output_dir, name)}: a checkpoint of another "
                              "network, optimizer or shuffle seed (see the run's config.json)")
        _check_same_run(cfg)
        log(f"[train] resuming {cfg.output_dir} from epoch {start_epoch}")
    else:
        net = build_network(specs, cfg.init_seed, shape, aggregation=opts.aggregation,
                            include_output=opts.include_output)
        opt_state = init_opt_state(net, cfg.optimizer)
        start_epoch = 0
    curves = os.path.join(cfg.output_dir, "curves.csv")
    rows = _load_curves(curves, start_epoch)
    batches_per_epoch = -(-len(train_ds) // cfg.optimizer.batch_size)
    samples = on_batch = None
    if cfg.record_trajectory:
        probe_idx = np.sort(seeded_rng(cfg.probe_seed, "probe").choice(
            len(test_ds), size=min(cfg.probe_size, len(test_ds)), replace=False))
        probe = test_ds.rows(probe_idx)     # decoded once, not in every on_batch forward
        saved = start_epoch and _load_trajectory(cfg.output_dir, len(probe_idx) * net.n_layers)[0]
        samples = [s for s in saved or () if s.step < start_epoch * batches_per_epoch]

        def on_batch(step, loss):   # step counts within the loop's current epoch
            step += (epoch - 1) * batches_per_epoch
            samples.append(record_state(net, probe, step, loss))

    if resumed is not None:
        _keep_only(cfg, name)    # what a crash before the last prune left
    _write_json(os.path.join(cfg.output_dir, "config.json"), cfg.to_dict(), sort_keys=True)
    write_csv(curves, "curves", CURVE_COLUMNS, rows)

    train_alphas = entropy_vector(train_ds.pixels, opts.entropy)
    test_alphas = entropy_vector(test_ds.pixels, opts.entropy)
    bins = complexity_bins(test_alphas, CURVE_BINS)

    for epoch in range(start_epoch + 1, cfg.epochs + 1):
        train_loss, _ = train_epoch(net, train_ds, cfg.optimizer, opt_state,
                                    cfg.shuffle_seed, epoch, on_batch=on_batch)

        if epoch % cfg.snapshot_interval == 0 or epoch == cfg.epochs:
            train_pass = trace_over_dataset(net, train_ds.pixels)
            test_pass = trace_over_dataset(net, test_ds.pixels)
            train_acc = score(train_pass[1], train_ds.labels)[0]
            test_acc, test_loss, flags = score(test_pass[1], test_ds.labels)
            metrics = gap_metric_set(net, train_ds, test_ds, opts.entropy,
                                     opts.margin_percentile, opts.cna_split,
                                     train_alphas=train_alphas, test_alphas=test_alphas,
                                     train_pass=train_pass, test_pass=test_pass)
            record = RunRecord(
                dataset=cfg.dataset["name"], arch=arch_id(cfg.arch),
                corruption=corruption_of(cfg.dataset), epoch=epoch,
                train_acc=train_acc, test_acc=test_acc, gap=train_acc - test_acc,
                metrics=metrics.to_dict(),
                extra={"train_loss": train_loss, "test_loss": test_loss})
            write_record(record, record_path(cfg.output_dir, epoch))
            curve = binned_error_curves(flags[None], bins).curves[:, 0]
            rows += [(epoch, b, float(v)) for b, v in enumerate(curve)]
            write_csv(curves, "curves", CURVE_COLUMNS, rows)
            if samples is not None:
                _save_trajectory(cfg.output_dir, samples, test_alphas[probe_idx])
            ckpt = os.path.join(cfg.output_dir, f"ckpt_epoch{epoch:04d}.cnac")
            save_checkpoint(net, cfg.optimizer, opt_state, epoch, ckpt,
                            seeds={"init": cfg.init_seed, "shuffle": cfg.shuffle_seed})
            _keep_only(cfg, os.path.basename(ckpt))
            log(f"[train] {cfg.output_dir} epoch {epoch}: "
                f"loss={train_loss:.4f} train_acc={train_acc:.4f} test_acc={test_acc:.4f}")


def _load_curves(path, up_to_epoch):
    """The rows of curves.csv up to up_to_epoch as a run writes them (rising snapshot
    epochs, the last up_to_epoch, each with bins 0..CURVE_BINS-1 in order and a mean error
    in [0, 1]), or a FormatError; later ones, left by a crash before the checkpoint save, go."""
    if up_to_epoch == 0:
        return []
    schema, columns, rows = read_csv(path)
    try:
        if (schema, tuple(columns)) != ("curves", CURVE_COLUMNS):
            raise ValueError(f"schema {schema!r}, columns {columns}; expected curves")
        kept = [(int(e), int(b), float(v))
                for e, b, v in (row for row in rows if int(row[0]) <= up_to_epoch)]
        epochs = sorted({row[0] for row in kept if row[0] >= 1} | {up_to_epoch})
        if [row[:2] for row in kept] != [(e, b) for e in epochs for b in range(CURVE_BINS)] \
                or not all(0.0 <= row[2] <= 1.0 for row in kept):
            raise ValueError(f"rows up to epoch {up_to_epoch} are not each snapshot epoch's "
                             "bins once, with mean errors in [0, 1]")
    except ValueError as exc:   # also a kept row of another length
        raise FormatError(f"{path}: not a curves table ({exc})") from exc
    return kept


def _save_trajectory(out_dir, samples, probe_alphas):
    with replacing(os.path.join(out_dir, "trajectory.npz"), "wb") as fh:
        np.savez(fh, states=np.stack([s.state for s in samples]),
                 steps=np.array([s.step for s in samples]),
                 losses=np.array([s.loss for s in samples]),
                 probe_alphas=probe_alphas)


def _load_trajectory(out_dir, width=None):
    """The TrajectorySamples saved in out_dir and their probe entropies, or (None, None):
    integer steps, finite float 2-D states (width wide if given), losses and probe entropies."""
    path = os.path.join(out_dir, "trajectory.npz")
    if not os.path.exists(path):
        return None, None
    try:
        with np.load(path) as z:
            states, steps, losses, alphas = (z[k] for k in ("states", "steps", "losses",
                                                            "probe_alphas"))
            if states.ndim != 2 or alphas.ndim != 1 or \
                    not steps.shape == losses.shape == states.shape[:1]:
                raise ValueError(f"shapes {states.shape}, {steps.shape}, {losses.shape}, "
                                 f"{alphas.shape} of states, steps, losses, probe_alphas")
            if steps.dtype.kind not in "iu" or not all(
                    a.dtype.kind == "f" and np.isfinite(a).all() for a in (states, losses, alphas)):
                raise ValueError("steps must be integers, and states, losses and "
                                 "probe_alphas finite floats")
            if width not in (None, states.shape[1]):
                raise ValueError(f"states {states.shape[1]} wide, not {width} = probe size x layers")
            return [TrajectorySample(step=int(step), state=state, loss=float(loss))
                    for step, state, loss in zip(steps, states, losses)], alphas
    except (KeyError, ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise FormatError(f"{path}: not a trajectory archive ({exc})") from exc


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------

def cell_id(dataset, arch):
    """Output directory name of a suite cell, e.g. synthetic-digits_c30_mlp-256x256."""
    corruption = int(round(corruption_of(dataset) * 100))
    return f"{dataset['name']}_c{corruption:02d}_{arch_id(arch)}"


def build_suite_cells(suite):
    """Expand a suite config into per-cell ExperimentConfigs: every grid
    dataset x corruption x arch, then the extra_runs. The suite's keys for
    ExperimentConfig fields other than dataset, arch and output_dir apply
    to every cell, and an extra run may override them. Cells sharing an
    output directory (cell_id spells no seed, size, kernel or stride) are a ConfigError."""
    output_root = as_type(str, suite.get("output_root"), "output_root")
    grid = as_type(dict, suite.get("grid", {}), "grid")
    runs = [{"dataset": as_type(dict, ds, "grid.datasets") | {"corruption": corruption},
             "arch": arch}
            for ds in as_type(list, grid.get("datasets", []), "grid.datasets")
            for corruption in as_type(list, grid.get("corruptions", [0.0]), "grid.corruptions")
            for arch in as_type(list, grid.get("archs", []), "grid.archs")]
    runs += [as_type(dict, run, "extra_runs")
             for run in as_type(list, suite.get("extra_runs", []), "extra_runs")]
    shared = {f.name: suite[f.name] for f in fields(ExperimentConfig)
              if f.name in suite and f.name not in ("dataset", "arch", "output_dir")}
    cells = {}
    for run in runs:
        # a run without an output_dir gets its cell_id, named once the config is checked
        cfg = ExperimentConfig.from_dict({"epochs": SUITE_EPOCHS, "output_dir": output_root,
                                          **shared, **run})
        if "output_dir" not in run:
            cfg.output_dir = os.path.join(output_root, cell_id(cfg.dataset, cfg.arch))
        if cells.setdefault(os.path.normpath(cfg.output_dir), cfg) is not cfg:
            raise ConfigError(f"two suite cells share the output directory {cfg.output_dir}")
    if not cells:
        raise ConfigError("suite config expands to zero cells")
    return list(cells.values())


def _run_cell(cfg, log=print):
    try:
        run_training(cfg, log=log)
        return cfg.output_dir, "ok", ""
    except Exception as exc:   # cell failures must not kill the suite
        return cfg.output_dir, "failed", f"{type(exc).__name__}: {exc}"


def run_suite(suite, jobs=1, log=print):
    """Run every cell (skipping completed ones), write a summary, then report
    on the RunRecords under output_root (skipped, and logged, when too few).

    Returns (summary dict, output_root). A cell is complete when its
    final-epoch RunRecord exists and _check_same_run accepts its config.
    At most min(jobs, pending cells) workers start; jobs below 1 is a ConfigError.
    """
    if jobs < 1:
        raise ConfigError(f"jobs must be at least 1, got {jobs}")
    cells = build_suite_cells(suite)
    output_root = suite["output_root"]
    os.makedirs(output_root, exist_ok=True)
    pending, results = [], []
    for cfg in cells:
        if os.path.exists(record_path(cfg.output_dir, cfg.epochs)):
            with contextlib.suppress(ConfigError):   # a cell of another config runs, and fails
                _check_same_run(cfg)
                results.append((cfg.output_dir, "skipped", ""))    # logged with the rest
                continue
        pending.append(cfg)
    if jobs > 1 and len(pending) > 1:
        from concurrent.futures import ProcessPoolExecutor   # a slow import; parallel only
        from .cli import malloc_policy
        with ProcessPoolExecutor(max_workers=min(jobs, len(pending)),
                                 initializer=malloc_policy) as pool:
            results.extend(pool.map(_run_cell, pending))
    else:
        results.extend(_run_cell(cfg, log) for cfg in pending)
    summary = {"cells": [{"output_dir": d, "status": s, "error": e}
                         for d, s, e in sorted(results)],
               "n_failed": sum(1 for _, s, _ in results if s == "failed")}
    _write_json(os.path.join(output_root, "suite_summary.json"), summary)
    for cell in summary["cells"]:
        log(f"[suite] {cell['status']:8s} {cell['output_dir']} {cell['error']}")
    try:
        make_report(f"{glob.escape(output_root)}/**/record_epoch*.json", output_root, log=log)
    except DataError as exc:
        log(f"[suite] report skipped: {exc}")
    return summary, output_root


# ---------------------------------------------------------------------------
# Landscape
# ---------------------------------------------------------------------------

def make_landscape(run_dir, resolution=41, out_dir=None, log=print):
    """PCA-project a recorded trajectory and evaluate the metric over the
    principal plane. Writes trajectory.csv, landscape.csv, landscape.svg."""
    out_dir = out_dir or run_dir
    samples, probe_alphas = _load_trajectory(run_dir)
    if samples is None:
        raise DataError(f"{run_dir}: no trajectory.npz; train with \"record_trajectory\": true")

    basis, path = pca2(samples)
    lo, hi = path.min(axis=0), path.max(axis=0)
    pad = 0.25 * np.where(hi > lo, hi - lo, 1.0)   # path bounding box expanded 25% per side
    grid = cna_landscape(basis, *zip(lo - pad, hi + pad), resolution, probe_alphas)

    os.makedirs(out_dir, exist_ok=True)
    write_csv(os.path.join(out_dir, "trajectory.csv"), "trajectory",
              ("step", "loss", "projected_x", "projected_y"),
              [(s.step, s.loss, float(x), float(y))
               for s, (x, y) in zip(samples, path)])
    write_csv(os.path.join(out_dir, "landscape.csv"), "landscape",
              ("x", "y", "cna"),
              [(x, y, None if not np.isfinite(v) else v) for x, y, v in grid.cells()])
    landscape_svg(grid, path).save(os.path.join(out_dir, "landscape.svg"))
    log(f"[landscape] wrote {out_dir}/landscape.csv "
        f"({len(grid.xs)}x{len(grid.ys)} cells) and landscape.svg")


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

def make_report(runs_glob, out_dir, group_by="arch", log=print):
    """Correlation table + scatter data for a set of RunRecords."""
    records = [read_record(p) for p in sorted(glob.glob(runs_glob, recursive=True))]
    if len(records) < 3:
        raise DataError(f"need at least 3 RunRecords, glob {runs_glob!r} matched "
                        f"{len(records)}")
    os.makedirs(out_dir, exist_ok=True)
    cells = gap_correlation_report(records, group_by=group_by)
    write_csv(os.path.join(out_dir, "report.csv"), "report",
              [f.name for f in fields(ReportCell)], map(astuple, cells))

    finding = _finding(cells)
    _write_json(os.path.join(out_dir, "report.json"),
                {"cells": list(map(asdict, cells)), "n_records": len(records),
                 "finding": finding})

    grouped_bars_svg(cells).save(os.path.join(out_dir, "report_bars.svg"))
    pairs = [(r.metrics.get("cna"), r.test_acc) for r in records
             if r.metrics.get("cna") is not None]
    if pairs:
        scatter_svg([p[0] for p in pairs], [p[1] for p in pairs],
                    "CNA", "test accuracy",
                    "CNA vs test accuracy (one dot per snapshot)") \
            .save(os.path.join(out_dir, "cna_vs_accuracy.svg"))
    log(f"[report] {len(records)} records")
    log(f"[report] {finding}")
    return cells, finding


def _finding(cells):
    """Compare the margin-scaled activation metric against the norm
    baselines on the aggregate group."""
    allnets = {c.metric: c.rho for c in cells if c.group == ALL_NETS}
    cm = allnets.get("cna_margin")
    baselines = {m: allnets.get(m) for m in ("frobenius", "spectral", "path")}
    if cm is None:
        return "finding: |rho(cna_margin, gap)| undefined for All Nets"
    defined = {m: abs(v) for m, v in baselines.items() if v is not None}
    if not defined:
        return (f"finding: |rho(cna_margin, gap)| = {abs(cm):.3f}; "
                "all norm baselines undefined")
    best_m = max(defined, key=defined.get)
    verdict = "exceeds" if abs(cm) > defined[best_m] else "does not exceed"
    return (f"finding: |rho(cna_margin, gap)| = {abs(cm):.3f} {verdict} the best "
            f"norm baseline |rho({best_m}, gap)| = {defined[best_m]:.3f} (All Nets)")
