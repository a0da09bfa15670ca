"""The benchmark's workloads: which cnalab CLI commands each one runs, on
which configs, and which outputs the correctness gate checks.

Every workload runs in a fresh, empty directory: configs go to cfg/, the
program's outputs to out/, captured command output and spans to log/.
Paths in the configs are relative to that directory, so output bytes do
not depend on where the benchmark runs.

Seeds: DEFAULT_SEED reproduces the seeds of configs/ (dataset 7/8/31,
init/shuffle 11/12 and 21/22, probe 99). Any other seed s shifts every one
of those seeds by 1000*s, which gives fresh data, initialisation, shuffle
and probe draws at the same sizes.
"""

from dataclasses import dataclass

DEFAULT_SEED = 0

# "bench" sizes keep one repetition of each workload at a few seconds on a
# 2-core machine, so a run of --seconds can hold several repetitions.
# "tiny" sizes serve the benchmark's self-test only.
SIZES = {
    "bench": {"suite_train": 200, "suite_test": 100, "suite_epochs": 2,
              "qs_train": 2000, "qs_test": 500, "qs_epochs": 4, "resolution": 41,
              "mem_train": 1000, "mem_test": 500, "mem_epochs": 3},
    "tiny": {"suite_train": 40, "suite_test": 20, "suite_epochs": 1,
             "qs_train": 300, "qs_test": 60, "qs_epochs": 2, "resolution": 9,
             "mem_train": 100, "mem_test": 50, "mem_epochs": 2},
}

WORKLOADS = ("suite", "quickstart", "memorize")

# Output formats, as cnalab.records, cnalab.metrics and the harness write them.
# They are spelled out here so that the gate does not import the program.
RECORD_FIELDS = ("dataset", "arch", "corruption", "epoch", "train_acc", "test_acc", "gap",
                 "metrics")
METRIC_NAMES = ("cna", "cna_margin", "frobenius", "spectral", "path", "spectral_product")
CSV_COLUMNS = {"curves": ["epoch", "bin", "mean_error"],
               "landscape": ["x", "y", "cna"],
               "report": ["metric", "group", "rho", "n"]}


@dataclass
class Plan:
    """What one repetition of a workload does and what it must produce."""
    configs: dict    # path -> JSON object, written before the first step
    steps: list      # (cnalab CLI argv, path that receives stdout or None)
    outputs: list    # (path, kind): kind is "record", "metrics", "summary" or a CSV schema
    counts: list     # (glob pattern, number of files it must match)


def shifted(base, seed):
    return base + 1000 * seed


def _arch_id(arch):
    key = "hidden" if arch["name"] == "mlp" else "channels"
    return arch["name"] + "-" + "x".join(str(w) for w in arch[key])


def _cell_id(dataset, arch):
    return f"{dataset['name']}_c{int(round(dataset.get('corruption', 0.0) * 100)):02d}_" \
           f"{_arch_id(arch)}"


def _records(run_dir, epochs):
    return [(f"{run_dir}/record_epoch{e:04d}.json", "record") for e in range(1, epochs + 1)]


def suite_plan(seed, size):
    """configs/suite.json: 2 corpora x 4 corruptions x 2 archs + 1 gaussian cell."""
    sz = SIZES[size]
    datasets = [{"name": name, "train_size": sz["suite_train"], "test_size": sz["suite_test"],
                 "seed": shifted(base, seed)}
                for name, base in (("synthetic-digits", 7), ("synthetic-shapes", 8))]
    corruptions = [0.0, 0.1, 0.3, 0.5]
    archs = [{"name": "mlp", "hidden": [256, 256]},
             {"name": "cnn", "channels": [16, 32], "kernel": 5, "stride": 2}]
    extra = {"dataset": {"name": "gaussian-noise", "train_size": sz["suite_train"],
                         "test_size": sz["suite_test"], "seed": shifted(31, seed)},
             "arch": {"name": "mlp", "hidden": [256, 128]}}
    epochs = sz["suite_epochs"]
    suite = {"grid": {"datasets": datasets, "corruptions": corruptions, "archs": archs},
             "extra_runs": [extra],
             "optimizer": {"kind": "adam", "lr": 0.002, "batch_size": 32},
             "epochs": epochs, "snapshot_interval": 1,
             "init_seed": shifted(21, seed), "shuffle_seed": shifted(22, seed),
             "keep_checkpoints": "latest", "output_root": "out/suite"}
    cells = [_cell_id(dict(ds, corruption=c), arch)
             for ds in datasets for c in corruptions for arch in archs]
    cells.append(_cell_id(extra["dataset"], extra["arch"]))
    outputs, counts = [], []
    for cell in cells:
        outputs += _records(f"out/suite/{cell}", epochs)
        outputs.append((f"out/suite/{cell}/curves.csv", "curves"))
        counts.append((f"out/suite/{cell}/record_epoch*.json", epochs))
    outputs += [("out/suite/report.csv", "report"), ("out/suite/suite_summary.json", "summary")]
    return Plan(configs={"cfg/suite.json": suite},
                steps=[(["suite", "--config", "cfg/suite.json", "--jobs", "1"], None)],
                outputs=outputs, counts=counts)


def quickstart_plan(seed, size):
    """configs/quickstart.json (one digits cell with a trajectory), then landscape."""
    sz = SIZES[size]
    epochs = sz["qs_epochs"]
    cfg = {"dataset": {"name": "synthetic-digits", "train_size": sz["qs_train"],
                       "test_size": sz["qs_test"], "seed": shifted(7, seed)},
           "arch": {"name": "mlp", "hidden": [128, 128]},
           "optimizer": {"kind": "adam", "lr": 0.001, "batch_size": 128},
           "epochs": epochs, "snapshot_interval": 1,
           "init_seed": shifted(11, seed), "shuffle_seed": shifted(12, seed),
           "record_trajectory": True, "probe_size": 256, "probe_seed": shifted(99, seed),
           "keep_checkpoints": "latest", "output_dir": "out/quickstart"}
    run = "out/quickstart"
    return Plan(configs={"cfg/quickstart.json": cfg},
                steps=[(["train", "--config", "cfg/quickstart.json"], None),
                       (["landscape", "--run", run, "--resolution", str(sz["resolution"])],
                        None)],
                outputs=_records(run, epochs) + [(f"{run}/curves.csv", "curves"),
                                                 (f"{run}/landscape.csv", "landscape")],
                counts=[(f"{run}/record_epoch*.json", epochs)])


def memorize_plan(seed, size):
    """The suite's gaussian-noise cell with every checkpoint kept, then
    `cnalab metrics` on each checkpoint."""
    sz = SIZES[size]
    epochs = sz["mem_epochs"]
    data = {"name": "gaussian-noise", "train_size": sz["mem_train"],
            "test_size": sz["mem_test"], "seed": shifted(31, seed)}
    cfg = {"dataset": data, "arch": {"name": "mlp", "hidden": [256, 128]},
           "optimizer": {"kind": "adam", "lr": 0.002, "batch_size": 32},
           "epochs": epochs, "snapshot_interval": 1,
           "init_seed": shifted(21, seed), "shuffle_seed": shifted(22, seed),
           "keep_checkpoints": "all", "output_dir": "out/memorize"}
    run = "out/memorize"
    steps = [(["train", "--config", "cfg/memorize.json"], None)]
    outputs = _records(run, epochs) + [(f"{run}/curves.csv", "curves")]
    for e in range(1, epochs + 1):
        steps.append((["metrics", "--checkpoint", f"{run}/ckpt_epoch{e:04d}.cnac",
                       "--data", "cfg/data.json"], f"log/metrics_epoch{e:04d}.json"))
        outputs.append((f"log/metrics_epoch{e:04d}.json", "metrics"))
    return Plan(configs={"cfg/memorize.json": cfg, "cfg/data.json": data},
                steps=steps, outputs=outputs,
                counts=[(f"{run}/record_epoch*.json", epochs),
                        (f"{run}/ckpt_epoch*.cnac", epochs)])


PLANS = {"suite": suite_plan, "quickstart": quickstart_plan, "memorize": memorize_plan}
