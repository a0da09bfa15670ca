"""Regenerate digests.json: the sha256 of every gated output of each
workload at the default seed and bench sizes.

    python3 perfbench/make_digests.py

Each workload runs twice; the digests are written only when both runs
pass the schema and count checks and agree byte for byte. Regenerate
only when a change to the program is meant to change its output bytes,
and say so in that change.
"""

import json
import os
import shutil
import sys
import tempfile
import time

import gate
import run
import workloads


def main():
    digests = {}
    os.makedirs(os.path.join(run.HERE, ".work"), exist_ok=True)
    work = tempfile.mkdtemp(prefix="digests-", dir=os.path.join(run.HERE, ".work"))
    try:
        env = run.child_env(work)
        run.environment(env)
        for name in workloads.WORKLOADS:
            plan = workloads.PLANS[name](workloads.DEFAULT_SEED, "bench")
            runs = []
            for i in range(2):
                rep_dir = os.path.join(work, f"{name}{i}")
                rep = run.run_rep(plan, rep_dir, env, False, time.monotonic() + 170)
                found, _, failures = gate.check(rep_dir, plan)
                failures += rep["errors"]
                if failures:
                    sys.exit(f"{name}: " + "; ".join(failures[:5]))
                runs.append(found)
            if gate.compare(*runs):
                sys.exit(f"{name}: outputs differ between two runs")
            digests[name] = runs[0]
            print(f"{name}: {len(runs[0])} outputs", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(gate.DIGESTS_PATH, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
