"""gencp benchmark: one workload per invocation, one JSON result line at the end.

    python3 perfbench/run.py --workload table-deep --seed 1 --seconds 25 --trace 0

Run it from the root of a gencp checkout; gencp is imported from ``src/``.
``--workload all`` runs every workload in turn, each with its own lines.
The workloads and their metrics are described in ``perfbench/README.md``.

This process generates the inputs from the seed, starts the completion-server
stub for ``remote-latency``, times set-up in fresh processes, and runs the
workload in one more fresh process (``worker.py``), so set-up time and peak
memory belong to that workload alone.  With ``--trace 0`` the result holds
the end-to-end metrics, with ``--trace 1`` the per-layer ones.  A failed
check is reported in the result and makes the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import inputs
from stub import StubServer

WORKLOADS = ("table-deep", "ngram-zipf", "remote-latency")
SETUP_SAMPLES = 5  # fresh processes timed for setup_s, the worker's own included
STUB_LATENCY_S = 0.020
WORKER_TIMEOUT_S = 150
BENCH_DIR = Path(__file__).resolve().parent


def make_inputs(workload, seed, work):
    """Write the workload's inputs under ``work``; returns the worker's plan."""
    plan = {"workload": workload, "backends": {}, "tasks": {}}
    if workload == "table-deep":
        plan["depths"] = list(inputs.CHAIN_DEPTHS)
        plan["expected_solutions"] = {}
        for depth in inputs.CHAIN_DEPTHS:
            table, task = inputs.chain_table(seed, depth, work)
            plan["backends"][f"d{depth}"] = f"table:{table}"
            plan["tasks"][f"d{depth}"] = str(task)
            plan["expected_solutions"][f"d{depth}"] = 3**inputs.FAN_LEVELS
        plan["backends"]["demo"] = f"table:{Path.cwd() / 'fixtures' / 'demo60.tbl'}"
    elif workload == "ngram-zipf":
        import gencp  # training is input generation, not timed

        model = gencp.train_ngram(inputs.zipf_corpus(seed), inputs.NGRAM_ORDER, smoothing=1.0)
        model.save(work / "zipf.json")
        plan["backends"]["ngram"] = f"ngram:{work / 'zipf.json'}"
        plan["tasks"] = {name: str(path) for name, path in inputs.ngram_tasks(work).items()}
    else:
        plan["tasks"]["remote-tree"] = str(inputs.remote_task(work))
        plan["expected_solutions"] = {"tree": inputs.REMOTE_FAN_OUT**inputs.REMOTE_DEPTH}
    return plan


def cpu_ticks():
    """(steal, total) jiffies of all CPUs from /proc/stat; None where there is none."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except OSError:
        return None
    return fields[7], sum(fields[:8])


def run_worker(plan_path, mode, seconds, env):
    """Run worker.py to completion; returns its final JSON line."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "worker.py"), str(plan_path), mode, str(seconds)],
        env=env, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker ({mode}) exited with code {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(workload, seed, seconds, trace, root, env):
    """Run one workload; print its digest and result lines; return the exit code."""
    out_dir = root / ".perfbench"
    work = out_dir / f"work-{workload}-{seed}-{os.getpid()}"
    work.mkdir(parents=True)
    stub = None
    setups = []
    try:
        plan = make_inputs(workload, seed, work)
        plan["out_dir"] = str(out_dir)
        if workload == "remote-latency":
            stub = StubServer(inputs.remote_table(seed), STUB_LATENCY_S)
            plan["backends"]["remote"] = f"remote:{stub.url}"
            plan["stub_url"] = stub.url
        plan_path = work / "plan.json"
        plan_path.write_text(json.dumps(plan, indent=1), encoding="utf-8")

        run_worker(plan_path, "setup", 0, env)  # untimed: writes bytecode caches
        if not trace:
            setups = [run_worker(plan_path, "setup", 0, env)["setup_s"]
                      for _ in range(SETUP_SAMPLES - 1)]
        before = cpu_ticks() if trace else None
        result = run_worker(plan_path, "trace" if trace else "time", seconds, env)
        after = cpu_ticks() if trace else None
    finally:
        if stub is not None:
            stub.close()
        shutil.rmtree(work, ignore_errors=True)

    metrics = dict(result["metrics"])
    if trace:
        steal = -1.0
        if before and after:
            steal = (after[0] - before[0]) / max(1, after[1] - before[1])
        metrics["host.steal_frac"] = (steal, "ratio")
    else:
        metrics["setup_s"] = (statistics.median(setups + [result["setup_s"]]), "s")
    for line in result["errors"]:
        print(f"check failed: {line}", file=sys.stderr)
    recorded = json.loads((BENCH_DIR / "digests.json").read_text(encoding="utf-8"))
    expected = recorded.get(workload, {}).get(str(seed))
    status = ("not recorded" if expected is None
              else "as recorded" if expected == result["digest"] else "differs from recorded")
    print(f"digest {workload} seed={seed} {result['digest']} ({status}; "
          f"{result['reps']} repetitions)")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }), flush=True)
    return 0 if result["failed"] == 0 else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "gencp" / "__init__.py").is_file():
        print("perfbench: run from the root of a gencp checkout (src/gencp not found)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    # A fixed, small environment: the HTTP client scans every variable for
    # proxy settings on each request, so a large one would slow remote-latency.
    env = {key: os.environ[key] for key in ("PATH", "HOME", "LANG") if key in os.environ}
    env["PYTHONPATH"] = os.pathsep.join((str(root / "src"), str(BENCH_DIR)))

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    codes = [run_workload(w, args.seed, args.seconds, args.trace, root, env) for w in workloads]
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
