"""Regenerate ``reference.json``, the data the output checks compare with.

    python3 perfbench/make_reference.py

Run it from the root of a checkout whose outputs are trusted; it takes a
few minutes on two cores.  Exact commands are stored as printed, with the
error estimate of every value; values the CLI prints without one get the
first-order error computed here from the library's pmfs.  Monte Carlo
commands are stored as the mean and spread over ``SEEDS`` seeds at the
benchmark's own settings (so the estimator's bias is matched), or, for the
connectivity sweep, as one run with ``REF_SAMPLES`` samples per point.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402

import rggdist  # noqa: E402
from rggdist.cli import main as cli_main  # noqa: E402

from checks import entropy_tolerance, extract_exact, parse_csv  # noqa: E402
from workloads import SESSIONS, argv_for  # noqa: E402

SEEDS = range(1001, 1009)
REF_SAMPLES = 2_000_000
WORKERS = 2
DOMAIN = rggdist.DiskDomain(1.0)


def run(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(list(argv))
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} exited with {code}")
    return out.getvalue()


def h_err(pmf) -> float:
    return entropy_tolerance(pmf.probs, pmf.error_estimate)


def sweep_models(text):
    settings, _, rows = parse_csv(text)
    beta = float(settings["beta"])
    for row in rows:
        r0 = row["r0"]
        if settings["model-kind"] == "hard":
            yield row, rggdist.HardDisk(r0)
        else:
            yield row, rggdist.ExponentialSoft(r0, beta)


def bound_errs(n, model):
    """First-order errors of the n-node bounds from G2 and G3."""
    e2 = float(rggdist.shearer_factor(n, 2)) * h_err(rggdist.pmf_n2(model, DOMAIN))
    e3 = float(rggdist.shearer_factor(n, 3)) * h_err(rggdist.pmf_n3(model, DOMAIN)) if n > 3 else 0.0
    return e2, e3


def exact_reference(command, text):
    ref = extract_exact(command.check, text)
    if command.check == "exact_sweep_entropy":
        for i, (_, model) in enumerate(sweep_models(text)):
            e2, e3 = bound_errs(3, model)
            ref[f"bound_from_G2.{i}"][1] = e2
            ref[f"bound_from_G3.{i}"][1] = e3
    elif command.check == "exact_bounds":
        rec = json.loads(text)
        n = rec["n"]
        model = rggdist.parse_model(rec["settings"]["model"])
        h = {2: h_err(rggdist.pmf_n2(model, DOMAIN)), 3: h_err(rggdist.pmf_n3(model, DOMAIN))}
        for e in rec["entries"]:
            m = e["m"]
            ref[f"h_{m}_bits"][1] = h[m]
            ref[f"bound_from_{m}_bits"][1] = float(rggdist.shearer_factor(n, m)) * h[m]
        ref["tightest_bound_bits"][1] = max(
            float(rggdist.shearer_factor(n, e["m"])) * h[e["m"]] for e in rec["entries"]
        )
    return ref


def mc_entropy_reference(command):
    values = [
        json.loads(run(argv_for(command, WORKERS, seed)))["entropy_bits"] for seed in SEEDS
    ]
    model = next(a for a in command.argv if ":" in a)
    bounds = json.loads(run(["bounds", "--n", "6", "--model", model]))
    return {
        "mean": statistics.fmean(values),
        "sd": statistics.stdev(values),
        "seeds": len(values),
        "bound": bounds["tightest_bound_bits"],
    }


def mc_sweep_entropy_reference(command):
    texts = [run(argv_for(command, WORKERS, seed)) for seed in SEEDS]
    runs = [parse_csv(text)[2] for text in texts]
    h = np.array([[row["H_exact_or_mc"] for row in rows] for rows in runs])
    ref = {
        "r0": [row["r0"] for row in runs[0]],
        "H_mean": h.mean(axis=0).tolist(),
        "H_sd": h.std(axis=0, ddof=1).tolist(),
        "seeds": len(runs),
        "bound_from_G3": [],
        "bound_from_G2": [],
    }
    n = int(parse_csv(texts[0])[0]["n"])
    for row, model in sweep_models(texts[0]):
        e2, e3 = bound_errs(n, model)
        ref["bound_from_G3"].append([row["bound_from_G3"], e3])
        ref["bound_from_G2"].append([row["bound_from_G2"], e2])
    return ref


def mc_sweep_connectivity_reference(command):
    argv = argv_for(command, WORKERS, SEEDS[0])
    argv[argv.index("--samples") + 1] = str(REF_SAMPLES)
    settings, _, rows = parse_csv(run(argv))
    return {
        "samples": int(settings["samples"]),
        "r0": [row["r0"] for row in rows],
        "p_connected": [row["p_connected"] for row in rows],
        "p_complete": [row["p_complete"] for row in rows],
    }


def main():
    commands = {}
    for session in SESSIONS.values():
        for command in session:
            print(f"reference: {command.key}", file=sys.stderr, flush=True)
            if command.check.startswith("exact_"):
                commands[command.key] = exact_reference(command, run(argv_for(command, WORKERS, 1)))
            elif command.check == "mc_entropy":
                commands[command.key] = mc_entropy_reference(command)
            elif command.check == "mc_sweep_entropy":
                commands[command.key] = mc_sweep_entropy_reference(command)
            elif command.check == "mc_sweep_connectivity":
                commands[command.key] = mc_sweep_connectivity_reference(command)
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump({"workers": WORKERS, "commands": commands}, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
