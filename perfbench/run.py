#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload crawl --seed 1 --seconds 10 --trace 0

Workloads: ``crawl``, ``scan``, ``surface`` and ``crawl-procs`` (see
``perfbench/workloads.py`` and ``perfbench/baseline/NOTES.md``). The
last line of standard output is one JSON object::

    {"correct": true, "attempted": 140, "failed": 0,
     "metrics": {"ops_per_s": {"value": 13.9, "unit": "1/s"}, ...}}

With ``--trace 0`` the metrics are the end-to-end ones; ``--trace 1``
wraps each layer's entry points (``perfbench/layers.py``) and reports
per-layer cost per op instead. The line before it, starting with
``perfbench-meta``, stamps the run: CPU count, Python version, source
revision, seed and workload parameters. The exit status is 0 only when
every op completed and passed the workload's output check.

Set-up time is measured in fresh interpreters (``--probe`` children),
from process launch to the start of the first op, and reported as the
Harrell-Davis median of ``SETUP_PROBES`` launches.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from time import monotonic, sleep

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Scratch space inside the checkout; removed after every run.
WORK_ROOT = os.path.join(ROOT, ".bench_build", "perfbench")
SETUP_PROBES = 9
CHILD_TIMEOUT = 120.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "cpu_ms_per_op": "ms",
    "peak_rss_mb": "MB",
    "ok_share": "ratio",
}


def _source_revision() -> dict:
    """The git commit when run from a clone, and always a digest of
    ``src/`` (checkouts without ``.git`` still get a comparable stamp)."""
    rev = "unknown"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
        if done.returncode == 0:
            rev = done.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for folder, dirs, files in sorted(os.walk(SRC)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return {"git_rev": rev, "src_sha256": digest.hexdigest()[:16]}


def _child(args: argparse.Namespace, *extra: str) -> dict:
    """Run this script in a fresh interpreter; its last stdout line.
    The child leads its own process group, so a child that times out
    is killed together with every process it started."""
    command = [sys.executable, os.path.abspath(__file__),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), *extra]
    child = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, text=True,
                             start_new_session=True)
    try:
        stdout, stderr = child.communicate(timeout=CHILD_TIMEOUT)
    except BaseException:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise
    if child.returncode != 0:
        raise RuntimeError(f"{' '.join(extra)} child failed "
                           f"({child.returncode}): {stderr[-2000:]}")
    return json.loads(stdout.strip().splitlines()[-1])


def _child_pids() -> list:
    """Processes (zombies included) whose parent is this one."""
    me, pids = os.getpid(), []
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat", "rb") as handle:
                stat = handle.read()
        except OSError:
            continue
        if int(stat[stat.rindex(b")") + 2:].split()[1]) == me:
            pids.append(int(name))
    return pids


def stop_children(grace: float = 5.0) -> None:
    """Stop and reap every process this one started, so none outlives
    the run. Worker processes still alive are terminated; the
    multiprocessing resource tracker, which the ``spawn`` start method
    launches and which would otherwise exit only after this process,
    orphaned, is stopped and waited for; any other child is sent
    SIGTERM, then SIGKILL after *grace* seconds, and reaped."""
    import multiprocessing
    from multiprocessing import resource_tracker

    for proc in multiprocessing.active_children():
        proc.terminate()
        proc.join(grace)
        if proc.is_alive():
            proc.kill()
            proc.join()
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()
    if not os.path.isdir("/proc"):  # pragma: no cover - non-Linux
        return
    pending = _child_pids()
    for pid in pending:
        try:
            os.kill(pid, signal.SIGTERM)
        except ProcessLookupError:
            pass
    deadline = monotonic() + grace
    while pending:
        for pid in list(pending):
            try:
                done, _ = os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                done = pid
            if done:
                pending.remove(pid)
        if pending and monotonic() >= deadline:
            for pid in pending:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            for pid in pending:
                try:
                    os.waitpid(pid, 0)
                except ChildProcessError:
                    pass
            break
        if pending:
            sleep(0.01)


def measure_setup(args: argparse.Namespace) -> list:
    """Launch-to-first-op seconds of ``SETUP_PROBES`` fresh processes."""
    samples = []
    for _ in range(SETUP_PROBES):
        launched = monotonic()
        first_op = _child(args, "--probe")["first_op"]
        samples.append(first_op - launched)
    return samples


def end_to_end(outcome, setup_samples: list) -> dict:
    from perfbench.stats import median, tail

    ops = outcome.ops
    tail_ms, _, _ = tail(outcome.latencies)
    attempted = max(1, outcome.attempted)
    return {
        "setup_s": median(setup_samples),
        "ops_per_s": ops / (outcome.end - outcome.start),
        "op_ms_p50": 1000.0 * median(outcome.latencies),
        "op_ms_tail": 1000.0 * tail_ms,
        "cpu_ms_per_op": 1000.0 * outcome.cpu_s / ops,
        "peak_rss_mb": outcome.peak_rss_mb,
        "ok_share": (attempted - outcome.failed - outcome.check_failed)
        / attempted,
    }


def with_units(values: dict, units: dict) -> dict:
    return {name: {"value": values[name], "unit": units[name]}
            for name in units}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: a set-up probe, and the untraced throughput reference
    # of a traced run.
    parser.add_argument("--probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--measure-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, ROOT]
    from perfbench import layers, workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r} (choose from "
              f"{', '.join(workloads.WORKLOADS)})", file=sys.stderr)
        return 2
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    # SQLite and the worker processes put their temporary files here
    # too, so a run writes nothing outside the checkout.
    os.environ["TMPDIR"] = work
    tracer = None
    if args.trace:
        tracer = layers.Tracer()
        layers.install(tracer)
    ctx = workloads.Context(seed=args.seed, seconds=args.seconds,
                            work=work, probe=args.probe,
                            check=not args.measure_only, tracer=tracer)
    try:
        outcome = workloads.WORKLOADS[args.workload](ctx)
    finally:
        stop_children()
        shutil.rmtree(work, ignore_errors=True)
    if args.probe:
        print(json.dumps({"first_op": outcome.first_op}))
        return 0
    if outcome.ops == 0:
        print("error: no op completed", file=sys.stderr)
        return 1
    if args.measure_only:
        print(json.dumps({"ops_per_s":
                          outcome.ops / (outcome.end - outcome.start)}))
        return 0

    from perfbench.report import layer_metrics
    from perfbench.stats import tail

    correct = outcome.failed == 0 and outcome.check_failed == 0
    _, tail_pct, samples = tail(outcome.latencies)
    meta = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": workloads.nproc(),
        "python": platform.python_version(), **_source_revision(),
        "params": outcome.params, "ops": outcome.ops,
        "op_ms_tail": {"percentile": round(tail_pct, 2),
                       "samples": samples},
        "op_ms_sample_median": 1000.0 * statistics.median(
            outcome.latencies),
        "check": outcome.check,
    }
    if args.trace:
        untraced = _child(args, "--measure-only")["ops_per_s"]
        values, units, reconciliation = layer_metrics(
            tracer, outcome, untraced)
        meta["reconciliation"] = reconciliation
        correct = correct and reconciliation["ok"]
    else:
        setup_samples = measure_setup(args)
        meta["setup_samples_s"] = [round(s, 4) for s in setup_samples]
        values = end_to_end(outcome, setup_samples)
        units = END_TO_END_UNITS
    print("perfbench-meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, outcome.attempted),
        "failed": outcome.failed + outcome.check_failed,
        "metrics": with_units(values, units)}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
