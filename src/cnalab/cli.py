"""Command-line entry points.

    cnalab train --config F
    cnalab suite --config F [--jobs N]       (N >= 1; at most one worker per cell to run)
    cnalab landscape --run DIR [--resolution R] [--out DIR]
    cnalab report --runs GLOB [--out DIR]
    cnalab metrics --checkpoint F --data SPEC

Exit codes: 0 ok, 2 config error (unreadable or non-object --config/--data
JSON, a missing field, or a field value of the wrong type or out of range),
3 data/format/shape or OS error, 4 numeric failure or undefined correlation.
metrics --data keys "aggregation"/"include_output" override the checkpoint's.
"""

import argparse
import ctypes
import json
import sys
from dataclasses import replace

from .checkpoint import load_checkpoint
from .config import MetricOptions, load_config, read_json, resolve_datasets
from .csvio import json_text
from .errors import (ConfigError, ConvergenceError, DataError, FormatError,
                     NumericError, ShapeError, UndefinedCorrelationError)
from .metrics import gap_metric_set


M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3      # glibc's mallopt parameters


def malloc_policy():
    """Fix glibc's mmap and trim thresholds at their 64-bit dynamic ceilings, so freed
    temporaries are reused, not faulted in again; a no-op where libc lacks mallopt."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, 32 << 20)
    mallopt(M_TRIM_THRESHOLD, 64 << 20)


def cmd_train(args):
    from .harness import run_training
    run_training(load_config(args.config))
    return 0


def cmd_suite(args):
    from .harness import run_suite
    run_suite(read_json(args.config), jobs=args.jobs)
    return 0


def cmd_landscape(args):
    from .harness import make_landscape
    make_landscape(args.run, resolution=args.resolution, out_dir=args.out)
    return 0


def cmd_report(args):
    from .harness import make_report
    make_report(args.runs, args.out, group_by=args.group_by)
    return 0


def cmd_metrics(args):
    try:
        spec = json.loads(args.data)
    except json.JSONDecodeError:
        spec = read_json(args.data)
    net = load_checkpoint(args.checkpoint, moments=False).net
    train_ds, test_ds = resolve_datasets(spec)
    given = spec.get("metrics") or {}
    opts = MetricOptions.from_dict(given)
    net = replace(net, **{k: getattr(opts, k) for k in ("aggregation", "include_output")
                          if given.get(k) is not None})
    metrics = gap_metric_set(net, train_ds, test_ds, opts.entropy,
                             opts.margin_percentile, opts.cna_split)
    print(json_text(metrics.to_dict()), end="")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="cnalab",
                                     description="activation-complexity metric laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train one experiment cell")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("suite", help="run a dataset x corruption x architecture grid")
    p.add_argument("--config", required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_suite)

    p = sub.add_parser("landscape", help="PCA trajectory + metric landscape of a run")
    p.add_argument("--run", required=True)
    p.add_argument("--resolution", type=int, default=41)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_landscape)

    p = sub.add_parser("report", help="metric-vs-gap correlation report")
    p.add_argument("--runs", required=True, help="glob matching RunRecord JSON files")
    p.add_argument("--out", default="report")
    p.add_argument("--group-by", choices=("arch", "dataset"), default="arch")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("metrics", help="one-shot metric set for a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True, help="dataset spec, JSON file or literal")
    p.set_defaults(func=cmd_metrics)
    return parser


def main(argv=None):
    malloc_policy()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DataError, FormatError, ShapeError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except (NumericError, ConvergenceError, UndefinedCorrelationError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
