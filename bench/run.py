"""Benchmark of polyharm's ``verify`` and single-quantity commands.

    python3 bench/run.py --workload square-verify --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  Every run executes in a fresh worker
process (bench/worker.py), one worker at a time, single-threaded, with
polyharm imported from the checkout's ``src``.  The last line printed is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``,
the end-to-end metrics with ``--trace 0`` and the per-layer metrics of a
traced run with ``--trace 1``.  Workloads and metrics are described in
bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 5  # worker set-ups per untraced run; setup_s is their median
DEADLINE_S = 170.0  # every run ends within this, so within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(Exception):
    pass


def _start(cmd, env, deadline):
    """Start a worker and wait for its ``ready`` line; returns the process
    and the seconds from its start to the end of its set-up."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT,
                            text=True)
    try:
        line = proc.stdout.readline()
        setup = time.perf_counter() - t0
        if line.strip() != "ready":
            proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
            raise BenchError("worker did not set up (exit %r)" % proc.returncode)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    return proc, setup


def _finish(proc, deadline) -> str:
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("worker ran past the deadline")
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        raise BenchError("worker exited %d" % proc.returncode)
    return out


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    if not (ROOT / "src" / "polyharm" / "__init__.py").is_file():
        raise BenchError("no polyharm sources under %s" % (ROOT / "src"))
    deadline = time.perf_counter() + DEADLINE_S
    env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--workdir", str(ROOT / ".bench_work" / workload)]
    setups = []
    for _ in range(SETUPS - 1 if not trace else 0):
        proc, setup = _start(cmd + ["--setup-only"], env, deadline)
        _finish(proc, deadline)
        setups.append(setup)
    proc, setup = _start(cmd, env, deadline)
    setups.append(setup)
    res = json.loads(_finish(proc, deadline).strip().splitlines()[-1])

    metrics = res["metrics"]
    if not trace:
        metrics["setup_s"] = (statistics.median(setups), "s")
    return {"correct": res["correct"], "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in sorted(metrics.items())}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated run unwinds, so the worker it waits on is stopped too
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        result = bench(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print("bench: %s" % exc, file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
