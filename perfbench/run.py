"""cnalab benchmark: run one workload through the public CLI and report
its end-to-end (--trace 0) or per-layer (--trace 1) metrics.

    python3 perfbench/run.py --workload suite|quickstart|memorize
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. The workload repeats, each repetition in a
fresh directory and each command in a fresh process, while another
repetition of median length still fits in --seconds (at least MIN_REPS
times); metrics are medians over repetitions, and the environment line
lists every repetition's values. Too few repetitions fit in a run for any
percentile above the median to have ten samples beyond it.
Every repetition's outputs go through the correctness gate (gate.py).
With --trace 1, untraced and traced repetitions alternate: the per-layer
metrics come from the traced repetition with the median wall time, and
trace.overhead_s is its wall time minus the untraced median.

The last stdout line is the result: {"correct", "attempted", "failed",
"metrics"}; the line before it records the environment. A summary goes
to stderr. The workload's own stdout is discarded.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import gate
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MIN_REPS = 2
START_LIMIT_S = 150     # no repetition starts later than this into a run
KILL_AFTER_S = 170      # a command still running this far into a run is killed
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
          "PYTHONHASHSEED": "0"}


class BenchError(Exception):
    """The benchmark cannot run here (no program to run, or it did not start)."""


def child_env(work):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), TMPDIR=work)
    env.update(PINNED)
    return env


def environment(env):
    """Machine and library versions, from a child with the pinned environment.

    The child's import of cnalab also compiles its bytecode before any
    timed repetition.
    """
    probe = ("import json, numpy, cnalab.cli, cnalab.harness, platform\n"
             "try:\n"
             "    blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas']\n"
             "except Exception:\n"   # numpy < 1.26 has no mode argument
             "    blas = {}\n"
             "print(json.dumps({'python': platform.python_version(), "
             "'numpy': numpy.__version__, 'blas': blas.get('name'), "
             "'blas_version': blas.get('version')}))\n")
    done = subprocess.run([sys.executable, "-c", probe], env=env, cwd=env["TMPDIR"],
                          capture_output=True, text=True, timeout=60)
    if done.returncode != 0:
        raise BenchError(f"cannot import cnalab from {env['PYTHONPATH']}: "
                         f"{done.stderr.strip().splitlines()[-1:]}")
    info = json.loads(done.stdout)
    cpu = ""
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), "")
    except OSError:
        pass
    info.update({"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
                 "pinned": PINNED})
    return info


def run_process(argv, cwd, env, stdout_path, stderr_path, deadline):
    """Run one command to its end; returns (spawn time, exit code, peak RSS MB)."""
    with open(stderr_path, "wb") as err, \
            (open(stdout_path, "wb") if stdout_path else open(os.devnull, "wb")) as out:
        spawn = time.monotonic()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        killer = threading.Timer(max(deadline - spawn, 0.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return spawn, proc.returncode, usage.ru_maxrss / 1024.0


def dir_bytes(path):
    return sum(os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(path)
               for f in files)


def run_rep(plan, rep_dir, env, traced, deadline):
    """One repetition of a workload; returns its measurements."""
    for sub in ("cfg", "out", "log"):
        os.makedirs(os.path.join(rep_dir, sub))
    for rel, obj in plan.configs.items():
        with open(os.path.join(rep_dir, rel), "w", encoding="utf-8") as fh:
            json.dump(obj, fh, indent=2)
    procs, rss, errors = [], 0.0, []
    start = time.monotonic()
    for i, (cli_args, stdout_rel) in enumerate(plan.steps):
        spans_path = os.path.join(rep_dir, "log", f"spans{i}.json")
        argv = [sys.executable, os.path.join(HERE, "child.py"),
                "trace" if traced else "boundary", spans_path] + cli_args
        spawn, code, peak = run_process(
            argv, rep_dir, env, stdout_rel and os.path.join(rep_dir, stdout_rel),
            os.path.join(rep_dir, "log", f"stderr{i}.txt"), deadline)
        rss = max(rss, peak)
        if code != 0:
            errors.append(f"`cnalab {' '.join(cli_args)}` exited with {code}")
        try:
            with open(spans_path, "r", encoding="utf-8") as fh:
                procs.append((spawn, spans.load(json.load(fh))))
        except (OSError, json.JSONDecodeError):
            procs.append((spawn, []))
    wall = time.monotonic() - start
    setup, epoch = spans.end_to_end(procs)
    return {"traced": traced, "procs": procs, "errors": errors, "wall_s": wall,
            "setup_s": setup, "epoch_s": epoch, "peak_rss_mb": rss,
            "output_mb": dir_bytes(os.path.join(rep_dir, "out")) / 1e6}


def measure(workload, seed, seconds, trace, size="bench", log=None):
    """Run one benchmark run in a scratch directory; returns (result, environment)."""
    log = log or (lambda msg: print(msg, file=sys.stderr))
    if not os.path.isfile(os.path.join(ROOT, "src", "cnalab", "cli.py")):
        raise BenchError(f"no cnalab sources under {ROOT}/src; run from a checkout")
    plan = workloads.PLANS[workload](seed, size)
    expected = None
    if seed == workloads.DEFAULT_SEED and size == "bench":
        expected = gate.load_digests(workload)
    os.makedirs(os.path.join(HERE, ".work"), exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload}-", dir=os.path.join(HERE, ".work"))
    reps, first_digests = [], None
    attempted = failed = 0
    try:
        env = child_env(work)
        info = environment(env)
        begin = time.monotonic()
        last_start = begin + START_LIMIT_S
        while len(reps) < MIN_REPS or (
                time.monotonic() - begin + statistics.median(r["wall_s"] for r in reps) <= seconds
                and time.monotonic() < last_start):
            traced = bool(trace) and len(reps) % 2 == 1
            rep_dir = os.path.join(work, f"rep{len(reps)}")
            rep = run_rep(plan, rep_dir, env, traced, begin + KILL_AFTER_S)
            digests, checks, failures = gate.check(rep_dir, plan, expected)
            if first_digests is None:
                first_digests = digests
            failures += rep["errors"] + gate.compare(first_digests, digests)
            attempted += checks + len(plan.steps)
            failed += len(failures)
            for msg in failures[:5]:
                log(f"[perfbench] rep {len(reps)}: {msg}")
            if failures:
                log(f"[perfbench] rep {len(reps)} stderr: {rep_dir}/log")
            else:
                shutil.rmtree(rep_dir)
            reps.append(rep)
    finally:
        if failed == 0:
            shutil.rmtree(work, ignore_errors=True)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed}
    untraced = [r for r in reps if not r["traced"]]
    if trace:
        traced = sorted((r for r in reps if r["traced"]), key=lambda r: r["wall_s"])
        pick = traced[(len(traced) - 1) // 2]
        values = spans.layer_metrics(pick["procs"], pick["wall_s"])
        values["trace.overhead_s"] = pick["wall_s"] - statistics.median(
            r["wall_s"] for r in untraced)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in declared_units("per_layer").items()}
    else:
        metrics = {name: {"value": statistics.median(r[name] for r in untraced), "unit": unit}
                   for name, unit in declared_units("end_to_end").items()}
    result["metrics"] = metrics
    info.update({"workload": workload, "seed": seed, "size": size, "reps": len(reps),
                 "samples": {name: [r[name] for r in untraced]
                             for name in declared_units("end_to_end")}})
    return result, info


def declared_units(section):
    """Metric name -> unit, for one metric section of BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    try:
        result, info = measure(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"[perfbench] {exc}", file=sys.stderr)
        return 2
    for name, m in result["metrics"].items():
        print(f"[perfbench] {args.workload} {name} = {m['value']:.6g} {m['unit']}",
              file=sys.stderr)
    print(f"[perfbench] {args.workload} failed_ratio = "
          f"{result['failed'] / result['attempted']:.6g} ({result['failed']} of "
          f"{result['attempted']} checks failed, {info['reps']} repetitions)", file=sys.stderr)
    print(json.dumps({"environment": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
