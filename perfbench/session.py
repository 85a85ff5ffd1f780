"""One benchmark child process.

    python3 perfbench/session.py MODE WORKLOAD SEED WORKERS [TRACE_PATH]

Imports ``rggdist`` from the checkout's ``src/`` and prints ``ready`` once
the package is loaded: the parent times set-up from spawn to that line.
Then, by MODE:

* ``setup``  -- exit at once;
* ``pass``   -- run the workload's session, untraced;
* ``traced`` -- run it with the outside-in tracer installed, and write the
  spans to TRACE_PATH;
* ``probes`` -- time the public calls listed in :mod:`probes`.

The last line of stdout is one JSON object with the results.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import threading
import time
import traceback

from checks import check_output
from workloads import SESSIONS, argv_for

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def import_cli():
    """Import ``rggdist.cli`` from this checkout, then signal readiness."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import rggdist.cli

    if os.path.dirname(os.path.abspath(rggdist.__file__)) != os.path.join(src, "rggdist"):
        sys.exit(f"rggdist was imported from {rggdist.__file__}, not from {src}")
    print("ready", flush=True)
    return rggdist.cli


def load_reference() -> dict:
    with open(os.path.join(ROOT, "perfbench", "reference.json")) as fh:
        return json.load(fh)["commands"]


def run_session(workload: str, seed: int, workers: int, main) -> list[dict]:
    """Run every command of the session back to back; time and check each."""
    reference = load_reference()
    records = []
    for command in SESSIONS[workload]:
        argv = argv_for(command, workers, seed)
        out = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                code = main(argv)
        except Exception:
            traceback.print_exc()
            code = -1
        seconds = time.perf_counter() - start
        text = out.getvalue()
        failures = check_output(command.check, code, text, reference.get(command.key))
        for message in failures[:3]:
            print(f"check failed: {command.key}: {message}", file=sys.stderr)
        records.append({
            "key": command.key,
            "metric": command.metric,
            "seconds": seconds,
            "exit_code": code,
            "stdout_sha256": hashlib.sha256(text.encode()).hexdigest(),
            "failures": len(failures),
        })
    return records


def versions() -> dict:
    import numpy as np

    blas = "unknown"
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info['name']} {info['version']}"
    except (TypeError, KeyError):
        pass
    return {"numpy": np.__version__, "blas": blas}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> dict:
    mode, workload, seed, workers = sys.argv[1], sys.argv[2], int(sys.argv[3]), int(sys.argv[4])
    cli = import_cli()
    if mode == "setup":
        return {}
    if mode == "pass":
        commands = run_session(workload, seed, workers, cli.main)
        return {"commands": commands, "peak_rss_mb": peak_rss_mb(), "versions": versions()}
    if mode == "traced":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        traced_main = tracer.wrap("cli.main", "cli", cli.main)
        commands = run_session(workload, seed, workers, traced_main)
        tracer.uninstall()
        self_s, calls, other_threads_s = tracer.layer_totals(threading.get_ident())
        tracer.write(sys.argv[5])
        return {
            "commands": commands,
            "layer_self_s": self_s,
            "layer_calls": calls,
            "other_threads_s": other_threads_s,
            "spans": tracer.span_count(),
        }
    if mode == "probes":
        from probes import run_probes

        return run_probes(seed, workers, load_reference())
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    print(json.dumps(main()), flush=True)
