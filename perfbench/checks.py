"""Output checks for the benchmark's CLI commands.

Exact outputs are compared with ``reference.json`` within the error
estimates they report: a value passes when it lies within its own
estimate plus the reference's estimate (plus the rounding of 12
significant digits).  Values printed without an estimate borrow the
reference's estimate for both sides.

Monte Carlo outputs are checked statistically, so a change of the random
stream layout is not a failure: each value must lie within ``Z`` combined
standard errors of a reference measured at the same settings over
several seeds, and entropies must lie below their bound chain.

Every check returns a list of failure messages; an empty list passes.
"""

from __future__ import annotations

import json
import math

Z = 5.0
_ROUNDING = 1e-11


def entropy_tolerance(probs, error_estimate: float) -> float:
    """First-order bound on the entropy error of a pmf whose entries are
    off by at most ``error_estimate`` in total."""
    tiny = 1e-300
    slope = max(abs(math.log2(max(p, tiny)) + 1.0 / math.log(2.0)) for p in probs)
    return error_estimate * slope


def parse_csv(text: str):
    """(settings from the comment line, header, rows of floats or strings)."""
    lines = text.strip().splitlines()
    settings = dict(item.split("=", 1) for item in lines[0].lstrip("# ").split())
    header = lines[1].split(",")
    rows = []
    for line in lines[2:]:
        row = {}
        for name, cell in zip(header, line.split(",")):
            try:
                row[name] = float(cell)
            except ValueError:
                row[name] = cell
        rows.append(row)
    return settings, header, rows


def extract_exact(kind: str, text: str) -> dict:
    """Flat ``name -> [value, error estimate or None]`` of an exact output."""
    out = {}
    if kind == "exact_pmf":
        rec = json.loads(text)
        err = rec["error_estimate"]
        for i, p in enumerate(rec["probs"]):
            out[f"probs.{i}"] = [p, err]
        out["p_connected"] = [rec["p_connected"], err]
        out["p_complete"] = [rec["p_complete"], err]
        out["entropy_bits"] = [rec["entropy_bits"], entropy_tolerance(rec["probs"], err)]
    elif kind == "exact_bounds":
        rec = json.loads(text)
        for e in rec["entries"]:
            out[f"h_{e['m']}_bits"] = [e["h_m_bits"], None]
            out[f"bound_from_{e['m']}_bits"] = [e["bound_on_h_n_bits"], None]
        out["tightest_bound_bits"] = [rec["tightest_bound_bits"], None]
        out["monotonic"] = [float(rec["monotonic"]), 0.0]
    elif kind == "exact_sweep_entropy":
        _, _, rows = parse_csv(text)
        for i, row in enumerate(rows):
            out[f"r0.{i}"] = [row["r0"], 0.0]
            out[f"H.{i}"] = [row["H_exact_or_mc"], row["H_std_err"]]
            out[f"bound_from_G3.{i}"] = [row["bound_from_G3"], None]
            out[f"bound_from_G2.{i}"] = [row["bound_from_G2"], None]
    elif kind == "exact_sweep_connectivity":
        _, _, rows = parse_csv(text)
        for i, row in enumerate(rows):
            out[f"r0.{i}"] = [row["r0"], 0.0]
            out[f"p_connected.{i}"] = [row["p_connected"], row["err_est"]]
            out[f"p_complete.{i}"] = [row["p_complete"], row["err_est"]]
    else:
        raise KeyError(kind)
    return out


def _close(value, ref, tol) -> bool:
    if math.isnan(ref):
        return math.isnan(value)
    return abs(value - ref) <= tol + _ROUNDING * max(1.0, abs(ref))


def check_exact(kind: str, text: str, ref: dict) -> list[str]:
    got = extract_exact(kind, text)
    if set(got) != set(ref):
        return [f"fields differ from the reference: {sorted(set(got) ^ set(ref))[:5]}"]
    failures = []
    for name, (value, err) in got.items():
        ref_value, ref_err = ref[name]
        tol = (ref_err if err is None else err) + ref_err
        if not _close(value, ref_value, tol):
            failures.append(f"{name}={value!r}, reference {ref_value!r} +- {tol:.3g}")
    return failures


def check_mc_entropy(text: str, ref: dict) -> list[str]:
    rec = json.loads(text)
    h, se = rec["entropy_bits"], rec["std_error"]
    tol = Z * math.sqrt(se * se + ref["sd"] ** 2 / ref["seeds"])
    failures = []
    if not se > 0.0:
        failures.append(f"std_error={se!r} is not positive")
    if not _close(h, ref["mean"], tol):
        failures.append(f"entropy_bits={h!r}, reference {ref['mean']!r} +- {tol:.3g}")
    if h > ref["bound"] + Z * se:
        failures.append(f"entropy_bits={h!r} above the bound chain {ref['bound']!r}")
    return failures


def check_mc_sweep_connectivity(text: str, ref: dict) -> list[str]:
    settings, _, rows = parse_csv(text)
    n, n_ref = int(settings["samples"]), ref["samples"]
    if [row["r0"] for row in rows] != ref["r0"]:
        return ["r0 grid differs from the reference"]
    failures = []
    for i, row in enumerate(rows):
        for col in ("p_connected", "p_complete"):
            p = ref[col][i]
            tol = Z * math.sqrt(p * (1.0 - p) * (1.0 / n + 1.0 / n_ref)) + Z / n
            if not _close(row[col], p, tol):
                failures.append(f"{col}[{i}]={row[col]!r}, reference {p!r} +- {tol:.3g}")
    return failures


def check_mc_sweep_entropy(text: str, ref: dict) -> list[str]:
    _, _, rows = parse_csv(text)
    if [row["r0"] for row in rows] != ref["r0"]:
        return ["r0 grid differs from the reference"]
    failures = []
    for i, row in enumerate(rows):
        h, se = row["H_exact_or_mc"], row["H_std_err"]
        tol = Z * math.sqrt(se * se + ref["H_sd"][i] ** 2 / ref["seeds"])
        if not _close(h, ref["H_mean"][i], tol):
            failures.append(f"H[{i}]={h!r}, reference {ref['H_mean'][i]!r} +- {tol:.3g}")
        for col in ("bound_from_G3", "bound_from_G2"):
            ref_value, ref_err = ref[col][i]
            if not _close(row[col], ref_value, 2.0 * ref_err):
                failures.append(f"{col}[{i}]={row[col]!r}, reference {ref_value!r}")
        if h > min(row["bound_from_G3"], row["bound_from_G2"]) + Z * se:
            failures.append(f"H[{i}]={h!r} above the bound chain")
    return failures


def check_validate(text: str, ref: dict) -> list[str]:
    rec = json.loads(text)
    return [] if rec.get("pass") is True else [f"validate {rec.get('target')} did not pass"]


CHECKS = {
    "mc_entropy": check_mc_entropy,
    "mc_sweep_connectivity": check_mc_sweep_connectivity,
    "mc_sweep_entropy": check_mc_sweep_entropy,
    "validate": check_validate,
}


def check_output(kind: str, exit_code: int, text: str, ref: dict | None) -> list[str]:
    """Failure messages for one command's exit code and stdout."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    try:
        if kind.startswith("exact_"):
            return check_exact(kind, text, ref)
        return CHECKS[kind](text, ref)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]
