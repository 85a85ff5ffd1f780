"""Benchmark of the rggdist command line, run from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace {0,1}

NAME is one of ``exact-n3``, ``mc-n6``, ``oracles`` (see ``workloads.py``)
or ``all``.  Each workload is a closed-loop session with one client: its
CLI commands run back to back in one fresh process that calls
``rggdist.cli.main(argv)``, with ``--seed N`` and at most
``min(2, nproc)`` workers.  The BLAS thread count is pinned to 1, so the
thread count is the worker count.

``--trace 0`` repeats the session in fresh processes for about S seconds
(at least ``MIN_PASSES`` times, unless that would overrun
``RUN_DEADLINE_S``) and reports the end-to-end metrics: ``setup_s``
(median time from spawn until ``rggdist.cli`` is imported, also timed in
set-up-only processes), ``wall_s`` (mean time of one pass over the
session) and ``peak_rss_mb`` (median over passes).  The per-command
times (``pmf_s``, ``sweep_entropy_s``, ``sweep_connectivity_s``,
``entropy_mc_s``, ``validate_s``; means over passes) and ``fail_frac``
are printed and stored too; they are left out of the final JSON line
because not every workload runs every command.

Pass times are averaged, not taken as a median or minimum, because the
shared host slows this deterministic work by up to a third in spells of
seconds to minutes: the mean weighs every second of the run alike, and of
the three it spread least from run to run.  Every pass's times stay in
the stored record.

``--trace 1`` runs the session once untraced and once under the
outside-in tracer (``tracing.py``), then the probes (``probes.py``), and
reports per-layer metrics.

Every command's output is checked (``checks.py``), and must be
byte-identical across passes and between the traced and untraced pass.
The last line of stdout is ``{"correct", "attempted", "failed",
"metrics"}``; a full record, with the machine, goes to
``.perfbench_out/results/<workload>/`` for ``compare.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time

from tracing import LAYERS
from workloads import COMMAND_METRICS, PROBES, SESSIONS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MAX_WORKERS = 2
MIN_PASSES = 2
SETUP_SPAWNS_PER_PASS = 3
CHILD_TIMEOUT_S = 160.0
# No pass starts when it would be predicted to end after this many seconds.
RUN_DEADLINE_S = 150.0

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


class ChildFailed(RuntimeError):
    pass


def spawn(mode: str, workload: str, seed: int, workers: int, *extra: str) -> tuple[float, dict]:
    """Run one ``session.py`` child; returns (set-up seconds, its JSON result)."""
    argv = [sys.executable, os.path.join(HERE, "session.py"), mode, workload, str(seed),
            str(workers), *extra]
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    lines = rest.strip().splitlines()
    if ready != "ready\n" or code != 0 or not lines:
        raise ChildFailed(f"{mode} child for {workload} exited with {code}")
    return setup_s, json.loads(lines[-1])


def machine_record(workers: int, versions: dict) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                              text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "rggdist")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "nproc": nproc(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        **versions,
        "blas_threads": {k: os.environ[k] for k in BLAS_THREAD_VARS},
        "workers": workers,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _count_failures(passes: list[list[dict]]) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages) over passes of the same commands.

    A command fails when it exits nonzero, fails its output check, or
    prints other bytes than in the first pass.
    """
    attempted = failed = 0
    messages = []
    first = {c["key"]: c["stdout_sha256"] for c in passes[0]}
    for k, commands in enumerate(passes):
        for c in commands:
            attempted += 1
            if c["exit_code"] != 0 or c["failures"]:
                failed += 1
                messages.append(f"pass {k}: {c['key']} exit {c['exit_code']}, "
                                f"{c['failures']} check failures")
            elif c["stdout_sha256"] != first[c["key"]]:
                failed += 1
                messages.append(f"pass {k}: {c['key']} output differs from pass 0")
    return attempted, failed, messages


def run_untraced(workload: str, seed: int, seconds: float, workers: int) -> dict:
    start = time.perf_counter()
    setups, passes, rss = [], [], []
    while True:
        elapsed = time.perf_counter() - start
        if passes:
            predicted = elapsed + statistics.median(
                sum(c["seconds"] for c in p) + SETUP_SPAWNS_PER_PASS * statistics.median(setups)
                for p in passes
            )
            if predicted > RUN_DEADLINE_S or (len(passes) >= MIN_PASSES and predicted > seconds):
                break
        for _ in range(SETUP_SPAWNS_PER_PASS):
            setups.append(spawn("setup", workload, seed, workers)[0])
        setup_s, result = spawn("pass", workload, seed, workers)
        setups.append(setup_s)
        passes.append(result["commands"])
        rss.append(result["peak_rss_mb"])
        versions = result["versions"]

    walls = [sum(c["seconds"] for c in p) for p in passes]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.fmean(walls),
        "peak_rss_mb": statistics.median(rss),
    }
    extra = {}
    for name in COMMAND_METRICS:
        per_pass = [sum(c["seconds"] for c in p if c["metric"] == name) for p in passes]
        if any(c["metric"] == name for c in passes[0]):
            extra[name] = statistics.fmean(per_pass)
    attempted, failed, messages = _count_failures(passes)
    extra["fail_frac"] = failed / attempted
    return {
        "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()},
        "extra_metrics": {
            k: {"value": v, "unit": "ratio" if k == "fail_frac" else "s"} for k, v in extra.items()
        },
        "attempted": attempted,
        "failed": failed,
        "failures": messages,
        "versions": versions,
        "raw": {"setup_s": setups, "wall_s": walls, "peak_rss_mb": rss, "passes": passes},
    }


def run_traced(workload: str, seed: int, workers: int) -> dict:
    os.makedirs(OUT_DIR, exist_ok=True)
    trace_path = os.path.join(OUT_DIR, f"trace-{workload}-seed{seed}.json.gz")
    _, plain = spawn("pass", workload, seed, workers)
    _, traced = spawn("traced", workload, seed, workers, trace_path)
    _, probes = spawn("probes", workload, seed, workers)

    attempted, failed, messages = _count_failures([plain["commands"], traced["commands"]])
    wall_plain = sum(c["seconds"] for c in plain["commands"])
    wall_traced = sum(c["seconds"] for c in traced["commands"])
    self_sum = sum(traced["layer_self_s"].values())
    attempted += 1
    if abs(self_sum - wall_traced) > 1e-3 * wall_traced:
        failed += 1
        messages.append(f"layer self times sum to {self_sum:.6f} s, traced wall {wall_traced:.6f} s")
    attempted += probes["attempted"]
    failed += len(probes["failures"])
    messages += probes["failures"]

    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = {"value": traced["layer_self_s"][layer], "unit": "s"}
        metrics[f"{layer}.calls"] = {"value": traced["layer_calls"][layer], "unit": "count"}
    metrics["trace.overhead_s"] = {"value": wall_traced - wall_plain, "unit": "s"}
    metrics["trace.other_threads_s"] = {"value": traced["other_threads_s"], "unit": "s"}
    for name, (unit, _) in PROBES.items():
        metrics[name] = {"value": probes["metrics"][name], "unit": unit}
    return {
        "metrics": metrics,
        "extra_metrics": {
            "trace.wall_s": {"value": wall_traced, "unit": "s"},
            "trace.untraced_wall_s": {"value": wall_plain, "unit": "s"},
            "trace.spans": {"value": traced["spans"], "unit": "count"},
        },
        "attempted": attempted,
        "failed": failed,
        "failures": messages,
        "versions": plain["versions"],
        "trace_file": os.path.relpath(trace_path, ROOT),
        "probe_moves": {name: moves for name, (_, moves) in PROBES.items()},
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool, results_dir: str) -> dict:
    workers = min(MAX_WORKERS, nproc())
    if trace:
        record = run_traced(workload, seed, workers)
    else:
        record = run_untraced(workload, seed, seconds, workers)
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "machine": machine_record(workers, record.pop("versions")),
        **record,
    }
    out = os.path.join(results_dir, workload)
    os.makedirs(out, exist_ok=True)
    name = f"trace{int(trace)}-seed{seed}-{time.time_ns()}.json"
    with open(os.path.join(out, name), "w") as fh:
        json.dump(record, fh, indent=1)
    return record


def summary_line(record: dict) -> str:
    items = {**record["metrics"], **record["extra_metrics"]}
    body = "  ".join(f"{k}={v['value']:.6g} {v['unit']}" for k, v in items.items())
    return (f"{record['workload']} seed={record['seed']} trace={record['trace']} "
            f"failed={record['failed']}/{record['attempted']}  {body}")


def check_checkout() -> str | None:
    for path in (("src", "rggdist", "__init__.py"), ("perfbench", "reference.json")):
        if not os.path.isfile(os.path.join(ROOT, *path)):
            return f"{os.path.join(*path)} is missing: run from the root of an rggdist checkout"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*SESSIONS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", default=os.path.join(OUT_DIR, "results"),
                        help="directory for the full result records")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**63 - 100:
        parser.error("--seed must be a nonnegative 63-bit integer")

    # A terminated run still kills and reaps its child (see spawn).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    problem = check_checkout()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"

    workloads = list(SESSIONS) if args.workload == "all" else [args.workload]
    records = []
    try:
        for workload in workloads:
            records.append(
                run_workload(workload, args.seed, args.seconds, bool(args.trace), args.results)
            )
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print("machine: " + json.dumps(records[0]["machine"]))
    for record in records:
        for message in record["failures"]:
            print(f"failure: {record['workload']}: {message}")
        print(summary_line(record))
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
