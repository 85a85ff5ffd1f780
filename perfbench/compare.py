"""Compare two sets of untraced benchmark results, workload by workload.

    python3 perfbench/compare.py BASE_DIR [NEW_DIR]

Each directory holds the records ``run.py --trace 0`` writes (by default
under ``.perfbench_out/results``).  For every workload row and every
end-to-end metric -- those of ``BENCHMARK.json`` plus the per-command
times and ``fail_frac`` -- it prints the median and quartiles of each set
and the spread (interquartile distance over the median).

With two sets it also gives a verdict from paired runs:
``better`` when the new set wins at least nine tenths of the pairs (ties
count for neither) and the medians differ by more than the base set's
interquartile distance; ``worse`` by the mirror rule; ``unresolved``
otherwise.  Runs are paired by seed when both sets used the same seeds,
else in run order.  The ``bound`` column says whether the new median is
within the metric's bound of the base median (``unresolved`` when the
base spread is wider than the bound and not every new run is better
than every base run).
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys

from workloads import COMMAND_METRICS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(directory: str) -> dict[str, list[dict]]:
    """Trace-0 records by workload, in run order."""
    by_workload: dict[str, list[dict]] = {}
    paths = glob.glob(os.path.join(directory, "*", "trace0-*.json"))
    for path in sorted(paths, key=lambda p: int(p.rsplit("-", 1)[1].split(".")[0])):
        with open(path) as fh:
            record = json.load(fh)
        by_workload.setdefault(record["workload"], []).append(record)
    return by_workload


def metric_specs() -> list[dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        end_to_end = json.load(fh)["end_to_end"]
    wall_bound = next(m["bound"] for m in end_to_end if m["name"] == "wall_s")
    extra = [{"name": n, "unit": "s", "better": "lower", "bound": wall_bound} for n in COMMAND_METRICS]
    extra.append({"name": "fail_frac", "unit": "ratio", "better": "lower", "bound": 0.0})
    return end_to_end + extra


def values(records: list[dict], name: str) -> list[tuple[int, float]]:
    out = []
    for r in records:
        m = r["metrics"].get(name) or r["extra_metrics"].get(name)
        if m is not None:
            out.append((r["seed"], m["value"]))
    return out


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def verdict(base, new, spec) -> tuple[str, str]:
    sign = 1.0 if spec["better"] == "lower" else -1.0
    a = [v for _, v in base]
    b = [v for _, v in new]
    if len(set(a + b)) == 1:
        return "same", "ok"
    seeds_a = [s for s, _ in base]
    seeds_b = [s for s, _ in new]
    if sorted(seeds_a) == sorted(seeds_b) and len(set(seeds_a)) == len(seeds_a):
        lookup = dict(new)
        pairs = [(v, lookup[s]) for s, v in base]
    else:
        pairs = list(zip(a, b))
    new_wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    base_wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    q1a, med_a, q3a = quartiles(a)
    med_b = quartiles(b)[1]
    iqr_a = q3a - q1a
    diff = sign * (med_b - med_a)
    if pairs and new_wins >= 0.9 * len(pairs) and diff < 0 and -diff > iqr_a:
        result = "better"
    elif pairs and base_wins >= 0.9 * len(pairs) and diff > 0 and diff > iqr_a:
        result = "worse"
    else:
        result = "unresolved"
    allowed = spec["bound"] * abs(med_a)
    if med_a != 0 and iqr_a / abs(med_a) > spec["bound"]:
        all_better = max(sign * y for y in b) < min(sign * x for x in a)
        bound = "ok" if all_better else "unresolved"
    else:
        bound = "ok" if diff <= allowed else "EXCEEDED"
    return result, bound


def main(argv: list[str]) -> int:
    if not 1 <= len(argv) <= 2:
        print(__doc__, file=sys.stderr)
        return 2
    sets = [load(d) for d in argv]
    specs = metric_specs()
    header = f"{'workload':<10} {'metric':<22} {'unit':<6} {'n':>3} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}"
    if len(sets) == 2:
        header += f" | {'n':>3} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}  verdict     bound"
    print(header)
    for workload in sorted(set().union(*sets)):
        for spec in specs:
            columns = []
            series = [values(s.get(workload, []), spec["name"]) for s in sets]
            if not all(series):
                continue
            for data in series:
                xs = [v for _, v in data]
                q1, med, q3 = quartiles(xs)
                spread = (q3 - q1) / abs(med) if med else 0.0
                columns.append(f"{len(xs):>3} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.3f}")
            line = f"{workload:<10} {spec['name']:<22} {spec['unit']:<6} " + " | ".join(columns)
            if len(series) == 2:
                result, bound = verdict(series[0], series[1], spec)
                line += f"  {result:<11} {bound}"
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
