"""End-to-end benchmark of the cfrealize command line.

Usage (from the repository root):

    python3 cfbench/run.py --workload exact_bilinear --seed 1 --seconds 20 --trace 0

Calls ``cfrealize.cli.main(argv)`` in this process on model files generated
from ``--seed``, in whole passes over the workload's command calls for
``--seconds`` seconds, then checks every output against the oracles in
``oracles.py``.  Times are at reference speed (see ``timing.py``).  The last
line of standard output is one JSON object: with ``--trace 0`` it holds the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of
``spans.py``.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".cfbench-runs"
SETUP_REPS = 3

# One BLAS thread: the SVDs here are small, and a second thread would compete
# with the timed call for the host's two CPUs.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import timing  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _import_cli():
    if not (SRC / "cfrealize" / "__init__.py").is_file():
        raise SystemExit(f"error: no cfrealize sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from cfrealize import cli

    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"error: imported cfrealize from {cli.__file__}, not from {SRC}")
    return cli


def _call(cli, argv):
    """(exit status, standard output) of one command call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except Exception as exc:  # a crash is a failed operation, not a benchmark abort
            rc = f"raised {type(exc).__name__}: {exc}"
    if rc != 0 and err.getvalue():
        rc = f"{rc}: {err.getvalue().strip()}"
    return rc, out.getvalue()


def _digest(paths, root) -> str:
    """SHA-256 over the files' paths relative to root and their bytes."""
    h = hashlib.sha256()
    for p in sorted(paths):
        h.update(os.path.relpath(p, root).encode())
        try:
            with open(p, "rb") as fh:
                h.update(fh.read())
        except FileNotFoundError:
            h.update(b"<missing>")
    return h.hexdigest()


def _tree_files(top):
    return [os.path.join(d, f) for d, _, files in os.walk(top) for f in files]


class Runner:
    def __init__(self, cli, plan, out_dir, clock):
        self.cli, self.plan, self.out_dir, self.clock = cli, plan, out_dir, clock
        self.scales = []  # scale factor of every timed call, in order
        self.results = None  # per-op (status, stdout) of the first pass
        self.deterministic = True

    def run_pass(self, tracer=None):
        """One pass over the plan; returns (scaled s, raw s, per-op scaled s).

        Clears ``deterministic`` if a pass's outputs differ from the first
        pass's.
        """
        shutil.rmtree(self.out_dir, ignore_errors=True)
        total = raw_total = 0.0
        per_op = []
        results = []
        for op in self.plan.ops:
            gc.collect()
            if tracer is not None:
                tracer.call_index = len(self.scales)
            (rc, stdout), scaled, raw = self.clock.time(_call, self.cli, op.argv)
            self.scales.append(scaled / raw if raw > 0 else 1.0)
            total += scaled
            raw_total += raw
            per_op.append(scaled)
            results.append((rc, stdout))
        fingerprint = (results, _digest(_tree_files(self.out_dir), self.out_dir))
        if self.results is None:
            self.results, self._fingerprint = results, fingerprint
        elif fingerprint != self._fingerprint:
            self.deterministic = False
        return total, raw_total, per_op


def _setup(cli, clock, workload, seed, work):
    """Generate the inputs and warm up each command kind; scaled seconds.

    Removing the previous set-up's tree is harness work and is not timed.
    """
    shutil.rmtree(work, ignore_errors=True)

    def setup():
        plan = WORKLOADS[workload](seed, f"{work}/in", f"{work}/out")
        for argv in plan.warmups:
            _call(cli, argv)
        return plan

    plan, secs, _ = clock.time(setup)
    return plan, secs


def _check(plan, results):
    """Failure reasons per op name (ops that passed are absent)."""
    failed = {}
    for op, (rc, stdout) in zip(plan.ops, results):
        if rc != 0:
            failed[op.name] = [f"exit status {rc}"]
            continue
        try:
            reasons = op.check(stdout)
        except Exception:
            reasons = ["check raised: " + traceback.format_exc(limit=1).strip().splitlines()[-1]]
        if reasons:
            failed[op.name] = reasons
    return failed


def main(argv=None) -> int:
    args = _parse_args(argv)
    work = RUNS / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        return _run(args, str(work))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            RUNS.rmdir()


def _run(args, work) -> int:
    clock = timing.Clock()
    cli, import_s, _ = clock.time(_import_cli)
    setups = []
    for _ in range(SETUP_REPS):
        plan, secs = _setup(cli, clock, args.workload, args.seed, work)
        setups.append(secs)
    setup_s = import_s + statistics.median(setups)

    runner = Runner(cli, plan, f"{work}/out", clock)
    tracer = spans.Tracer() if args.trace else None
    plain, traced, raws, per_ops = [], [], [], []
    # Whole passes; a pass starts only if one more, as long as the last,
    # still ends within --seconds (the first pass always runs).
    t_begin = perf_counter()
    while True:
        t_pass = perf_counter()
        total, raw, per_op = runner.run_pass()
        plain.append(total)
        raws.append(raw)
        per_ops.append(per_op)
        if tracer is not None:
            tracer.install()
            try:
                traced.append(runner.run_pass(tracer)[0])
            finally:
                tracer.uninstall()
        now = perf_counter()
        if now - t_begin + (now - t_pass) > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    check_start = perf_counter()
    failed = _check(plan, runner.results)
    check_s = perf_counter() - check_start
    pass_s = statistics.median(plain)
    op_s = [statistics.median(col) for col in zip(*per_ops)]
    failed_s = sum(s for op, s in zip(plan.ops, op_s) if op.name in failed)

    print(f"workload {args.workload} seed {args.seed}: {len(plain)} timed passes"
          + (f" + {len(traced)} traced" if traced else ""))
    print(f"pass_s per pass: {[round(x, 4) for x in plain]}")
    print(f"raw wall s per pass: {[round(x, 4) for x in raws]}; "
          f"reference loop median {clock.median_ref_s():.6f} s (nominal {timing.NOMINAL_SAMPLE_S} s)")
    print(f"setup_s: import {import_s:.4f} + median of {[round(x, 4) for x in setups]}")
    for op, s in zip(plan.ops, op_s):
        print(f"  {op.name:<24} {s:9.4f} s  " + ("; ".join(failed.get(op.name, [])) or "ok"))
    print(f"failed ops take {failed_s:.4f} s of pass_s {pass_s:.4f} s ({failed_s / pass_s:.1%})")
    print(f"checks took {check_s:.2f} s (raw)")
    print(f"exact artifacts sha256 {_digest(plan.exact_artifacts, work)}")

    if args.trace:
        metrics = tracer.metrics(runner.scales, len(traced))
        metrics["harness.wall_s"] = (statistics.median(raws), "s")
        metrics["harness.ref_s"] = (clock.median_ref_s(), "s")
        metrics["harness.trace_overhead_s"] = (statistics.median(traced) - pass_s, "s")
    else:
        metrics = {
            "pass_s": (pass_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "setup_s": (setup_s, "s"),
        }
    print(json.dumps({
        "correct": runner.deterministic,
        # Per pass: every pass runs the same calls, and a pass whose outputs
        # differ from the first pass's clears ``correct``.
        "attempted": len(plan.ops),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
