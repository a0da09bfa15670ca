"""Arithmetic on the spans that child.py records.

A span is [name, start, end, parent, cell, n, key, tag, failed, overhead]
(see child.Recorder). A span's self time is its duration minus the
durations and wrapper overheads of its direct children; spans of one
process nest strictly, so the self times plus the overheads of all spans
sum to the wrapped durations of the top-level spans, and
wall - sum(self) - sum(overhead) is the time no span covers (interpreter
start-up and exit, and the gaps between processes).
"""

from collections import namedtuple

Span = namedtuple("Span", "name start end parent cell n key tag failed overhead")

# Functions child.py wraps in a traced run, as (module, attribute, span name).
# An attribute "Class.method" names a method.
TARGETS = [
    ("cnalab.data", "_render_corpus", "data.render"),
    ("cnalab.config", "resolve_datasets", "config.resolve_datasets"),
    ("cnalab.metrics", "entropy_vector", "metrics.entropy_vector"),
    ("cnalab.metrics", "gap_metric_set", "metrics.gap_metric_set"),
    ("cnalab.metrics", "trace_over_dataset", "metrics.trace_over_dataset"),
    ("cnalab.metrics", "spectral_norm", "metrics.spectral_norm"),
    ("cnalab.metrics", "path_norm", "metrics.path_norm"),
    ("cnalab.optim", "train_epoch", "optim.train_epoch"),
    ("cnalab.optim", "apply_update", "optim.apply_update"),
    ("cnalab.optim", "evaluate", "optim.evaluate"),
    ("cnalab.nn", "loss_and_gradients", "nn.loss_and_gradients"),
    ("cnalab.nn", "forward", "nn.forward"),
    ("cnalab.analysis", "record_state", "analysis.record_state"),
    ("cnalab.analysis", "pca2", "analysis.pca2"),
    ("cnalab.analysis", "cna_landscape", "analysis.cna_landscape"),
    ("cnalab.analysis", "gap_correlation_report", "analysis.gap_correlation_report"),
    ("cnalab.checkpoint", "save_checkpoint", "checkpoint.save_checkpoint"),
    ("cnalab.checkpoint", "load_checkpoint", "checkpoint.load_checkpoint"),
    ("cnalab.records", "write_record", "records.write_record"),
    ("cnalab.csvio", "write_csv", "csvio.write_csv"),
    ("cnalab.svg", "SvgCanvas.save", "svg.save"),
    ("cnalab.harness", "run_training", "harness.run_training"),
    ("cnalab.harness", "make_landscape", "harness.make_landscape"),
    ("cnalab.harness", "make_report", "harness.make_report"),
]
# Every span name child.py records; each reports <name>.self_s.
SPAN_NAMES = ("cli.main",) + tuple(name for _, _, name in TARGETS)
# Spans that also report their inclusive time as <name>.s.
INCLUSIVE = ("config.resolve_datasets", "metrics.gap_metric_set", "metrics.path_norm",
             "optim.train_epoch", "optim.evaluate", "analysis.pca2", "analysis.cna_landscape",
             "analysis.gap_correlation_report", "checkpoint.save_checkpoint",
             "checkpoint.load_checkpoint", "records.write_record", "csvio.write_csv", "svg.save")
ARCHS = ("mlp", "cnn")


def load(raw):
    return [Span(*s) for s in raw]


def self_times(spans):
    """Self time of each span of one process, in span order."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            covered[s.parent] += s.end - s.start + s.overhead
    return [s.end - s.start - c for s, c in zip(spans, covered)]


def cell_phases(spans):
    """Per run_training span that trained: (entry, first train_epoch entry,
    exit, epochs, seconds inside train_epoch)."""
    phases = {}
    for i, s in enumerate(spans):
        if s.name == "harness.run_training":
            phases[i] = [s.start, None, s.end, 0, 0.0]
        elif s.name == "optim.train_epoch" and s.parent in phases:
            ph = phases[s.parent]
            ph[1] = s.start if ph[1] is None else ph[1]
            ph[3] += 1
            ph[4] += s.end - s.start + s.overhead
    return [tuple(ph) for ph in phases.values() if ph[1] is not None]


def end_to_end(procs):
    """setup_s and epoch_s of one repetition from its processes' spans.

    procs is a list of (spawn time, spans). setup_s sums, over processes
    that train, spawn to the first run_training entry plus each cell's
    run_training entry to its first train_epoch entry; epoch_s is the time
    from the first train_epoch entry to run_training exit, per epoch.
    """
    setup = trained = 0.0
    epochs = 0
    for spawn, spans in procs:
        phases = cell_phases(spans)
        if not phases:
            continue
        setup += phases[0][0] - spawn
        for start, first_epoch, end, n, _ in phases:
            setup += first_epoch - start
            trained += end - first_epoch
            epochs += n
    return setup, (trained / epochs if epochs else 0.0)


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(procs, wall):
    """Per-layer metrics of one traced repetition.

    procs is a list of (spawn time, spans); wall is the repetition's wall
    time. Ratios with a zero base (a layer never called) read 0.
    """
    m = {f"{name}.self_s": 0.0 for name in SPAN_NAMES if name != "nn.loss_and_gradients"}
    m.update({f"nn.loss_and_gradients.self_s.{a}": 0.0 for a in ARCHS})
    m.update({f"{name}.s": 0.0 for name in INCLUSIVE})
    calls, work, keys = {}, {}, {}
    snapshot_rows = snapshot_base = startup = setup = snapshot = counting = 0.0
    failed_cells = 0
    for spawn, spans in procs:
        for s, own in zip(spans, self_times(spans)):
            key = s.name + (f".self_s.{s.tag}" if s.name == "nn.loss_and_gradients" else ".self_s")
            m[key] += own
            if s.name in INCLUSIVE:
                m[f"{s.name}.s"] += s.end - s.start
            counting += s.overhead
            calls[s.name] = calls.get(s.name, 0) + 1
            work[s.name] = work.get(s.name, 0) + s.n
            if s.key is not None:
                keys.setdefault(s.name, set()).add(s.key)
            # snapshot passes: forwards made by a training cell outside train_epoch
            if s.cell is not None and s.name in ("optim.evaluate", "metrics.trace_over_dataset"):
                snapshot_rows += s.n
            if s.cell is not None and s.name == "metrics.gap_metric_set":
                snapshot_base += s.n
            if s.name == "harness.run_training" and s.failed:
                failed_cells += 1
            if s.name == "cli.main":
                startup += s.start - spawn
        for start, first_epoch, end, _, trained in cell_phases(spans):
            setup += first_epoch - start
            snapshot += end - first_epoch - trained

    def reuse(name):
        return _ratio(len(keys.get(name, ())), calls.get(name, 0))

    m.update({
        "data.render.images": work.get("data.render", 0),
        "data.render.reuse": reuse("data.render"),
        "config.resolve_datasets.calls": calls.get("config.resolve_datasets", 0),
        "metrics.entropy_vector.rows": work.get("metrics.entropy_vector", 0),
        "metrics.entropy_vector.reuse": reuse("metrics.entropy_vector"),
        "metrics.trace_over_dataset.rows": work.get("metrics.trace_over_dataset", 0),
        "metrics.snapshot_forward_ratio": _ratio(snapshot_rows, snapshot_base),
        "metrics.spectral_norm.calls": calls.get("metrics.spectral_norm", 0),
        "optim.train_samples_per_s": _ratio(work.get("optim.train_epoch", 0),
                                            m["optim.train_epoch.s"]),
        "optim.evaluate.rows": work.get("optim.evaluate", 0),
        "nn.forward.rows": work.get("nn.forward", 0),
        "analysis.record_state.calls": calls.get("analysis.record_state", 0),
        "checkpoint.save_checkpoint.bytes": work.get("checkpoint.save_checkpoint", 0),
        "checkpoint.load_checkpoint.bytes": work.get("checkpoint.load_checkpoint", 0),
        "harness.cell_setup.s": setup,
        "harness.snapshot.s": snapshot,
        "harness.cells_failed": failed_cells,
        "cli.startup.s": startup,
        "trace.wall_s": wall,
        "trace.counter_s": counting,
        "trace.unattributed_s": wall - counting - sum(v for k, v in m.items()
                                                      if ".self_s" in k),
    })
    return m
