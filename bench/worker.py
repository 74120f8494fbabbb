"""One benchmark run, in a fresh process started by run.py.

Set-up imports polyharm from the checkout's ``src`` and writes the run's
mapping files, then prints ``ready``.  The timed part repeats whole rounds
of the workload's operations until ``--seconds`` have passed; each
operation is one in-process ``polyharm.cli.main`` call whose output is
checked after its timer stops.  The last line printed is a JSON summary.

With ``--trace 1`` rounds alternate untraced and traced, so the tracing
overhead is the difference of their median wall times, leaving out the
first untraced round, which pays lazy imports.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from polyharm import cli  # noqa: E402
from tracer import Tracer  # noqa: E402

MAX_REPORTED = 5  # problems printed to stderr per run


class Round:
    def __init__(self):
        self.times = []
        self.failed = 0
        self.wrong = 0  # failed because the output did not pass its check
        self.problems = []

    @property
    def wall(self) -> float:
        return sum(self.times)


def run_round(ops, workdir) -> Round:
    rnd = Round()
    for op in ops:
        argv = op.argv(workdir)
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
        except Exception as exc:  # an operation that raises is a failed one
            rnd.times.append(time.perf_counter() - t0)
            rnd.failed += 1
            rnd.problems.append("%s raised %r" % (" ".join(argv), exc))
            continue
        rnd.times.append(time.perf_counter() - t0)
        if rc not in (0, 1, 2):
            rnd.failed += 1
            rnd.problems.append("%s exited %d: %s" % (" ".join(argv), rc,
                                                      err.getvalue().strip()))
            continue
        found = checks.check(op, rc, out.getvalue())
        if found:
            rnd.failed += 1
            rnd.wrong += 1
            rnd.problems += ["%s: %s" % (" ".join(argv), p) for p in found]
    return rnd


def timed_rounds(ops, workdir, seconds, tracer=None):
    """Whole rounds until ``seconds`` have passed and at least two untraced
    rounds have run, so every operation has a repetition that does not pay
    the first round's lazy imports.  With a tracer, rounds alternate
    untraced and traced, starting untraced, and at least one is traced."""
    plain, traced = [], []
    t0 = time.perf_counter()
    while (time.perf_counter() - t0 < seconds or len(plain) < 2
           or (tracer is not None and not traced)):
        if tracer is not None and len(traced) < len(plain):
            tracer.install()
            try:
                traced.append(run_round(ops, workdir))
            finally:
                tracer.uninstall()
        else:
            plain.append(run_round(ops, workdir))
    return plain, traced


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    ops = workloads.build(args.workload, args.seed)
    workloads.write_maps(ops, args.workdir)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    tracer = Tracer() if args.trace else None
    plain, traced = timed_rounds(ops, args.workdir, args.seconds, tracer)
    rounds = plain + traced
    problems = [p for r in rounds for p in r.problems]
    for p in problems[:MAX_REPORTED]:
        print("problem: " + p, file=sys.stderr)
    result = {
        "attempted": len(ops) * len(rounds),
        "failed": sum(r.failed for r in rounds),
        "correct": not any(r.wrong for r in rounds),
    }
    if tracer is None:
        # Load from other processes on the machine only ever adds time, so
        # each operation counts with its fastest round; wall_s adds these
        # up to the time of one round of the fixed operation list.
        per_op = [min(ts) for ts in zip(*(r.times for r in plain))]
        result["metrics"] = {
            "wall_s": (sum(per_op), "s"),
            "op_p50_s": (statistics.median(per_op), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "MB"),
        }
    else:
        layers = tracer.metrics(len(traced))
        # the first round pays lazy imports, so it is left out here
        layers["trace.overhead_s"] = (statistics.median(r.wall for r in traced)
                                      - statistics.median(r.wall for r in plain[1:]),
                                      "s")
        result["metrics"] = layers
        faults = []
        if tracer.orphans:
            faults.append("%d spans outside an operation" % tracer.orphans)
        # verify always integrates circle lengths, so zero points there
        # means a wrapper was bypassed
        if (any(op.kind == "verify" for op in ops)
                and not layers["geometry.curve_length.points"][0]):
            faults.append("no curve_length points under verify")
        for f in faults:
            print("trace: " + f, file=sys.stderr)
        result["correct"] = result["correct"] and not faults
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
