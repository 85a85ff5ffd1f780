"""Command-line front end.

Single evaluations print JSON with a ``settings`` record; sweeps print
CSV under a ``# seed=...`` comment line holding the same record.  The
record echoes every option the command parsed except ``--out``, in parser
order, each as it was resolved: the model as the spec string of the model
that ran (it reads back through ``parse_model`` as the same model) and a
sweep's ``r0-stop`` as the grid's last point.  All numeric output uses
12 significant digits with a plain decimal point, and every command is a
deterministic function of its flags (including ``--seed``), so repeated
runs are byte-identical.

Every command resolves and checks all its flags before any work
(:func:`_resolve`), so a run that samples nothing still refuses a bad
``--samples``, ``--seed`` or ``--workers``, and a sweep refuses more
than ``MAX_STEPS`` (4096) steps.

Exit codes: 0 success, 1 validation/accuracy failure, 2 usage error,
3 unsupported request.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from fractions import Fraction

import numpy as np

from .bounds import _check_chain_n, bound_chain, shearer_factor
from .connection import ExponentialSoft, HardDisk, parse_model
from .distances import (
    classify_triple,
    joint_pdf3,
    joint_pdf3_cell_masses,
    joint_pdf3_values,
    joint_pdf3_via_conditioning_many,
    pair_pdf,
)
from .errors import AccuracyError, DomainError, UnsupportedError
from .geometry import (
    DiskDomain,
    TriangleSides,
    triangle_quantities,
)
from .graphdist import (
    DEFAULT_PMF_SETTINGS,
    _exact_pmfs,
    entropy_bits,
    entropy_error_bound,
    exact_pmf,
    pmf_n3,
    prob_complete,
    prob_connected,
)
from .montecarlo import (
    RNG_NAME,
    McSettings,
    _count_fit,
    _distance_counts,
    _outcome_bits,
    _outcome_counts,
    distance_histogram3,
    estimate_entropy,
    estimate_entropy_sweep,
    estimate_pmf_sweep,
)
from .quadrature import QuadratureSettings, integrate_many

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_USAGE = 2
EXIT_UNSUPPORTED = 3


def _fmt(x) -> str:
    """Locale-independent rendering at 12 significant digits."""
    return format(float(x), ".12g")


def _jnum(x):
    if x is None:
        return None
    return float(_fmt(x))


def _write(out_path: str, text: str) -> None:
    if out_path == "-":
        sys.stdout.write(text)
    else:
        with open(out_path, "w") as fh:
            fh.write(text)


# Names that route the output or pick the command, not settings.
_UNECHOED = ("command", "handler", "out", "target")

# Most grid points of one sweep: 16 times CI's widest sweep (256 steps).
# It is checked before np.linspace, so a mistyped --steps is refused
# instead of allocated.
MAX_STEPS = 4096


def _sweep_stop(args, D) -> float:
    """A sweep's effective ``--r0-stop``, its node count and grid checked."""
    if args.mc:
        if args.n < 2:
            raise UnsupportedError(f"Monte Carlo sweeps need n >= 2, got n={args.n}")
        # One outcome table per grid point, each of at most
        # 2**MAX_OUTCOME_BITS entries (n <= 6).
        _outcome_bits(args.n, args.steps)
    elif args.n not in (2, 3):
        raise UnsupportedError(f"exact sweeps support n in (2, 3); pass --mc for n={args.n}")
    start = args.r0_start
    stop = args.r0_stop if args.r0_stop is not None else D
    if not (0.0 <= start < stop <= D):
        raise DomainError(
            f"need 0 <= r0-start < r0-stop <= diameter, got [{start}, {stop}] with D={D}"
        )
    if not 2 <= args.steps <= MAX_STEPS:
        raise DomainError(f"steps must be between 2 and {MAX_STEPS}, got {args.steps}")
    if args.model_kind == "exp" and start <= 0.0:
        raise DomainError("exponential sweeps need --r0-start > 0")
    return stop


def _resolve(args):
    """The domain, model, ``--abs-tol`` quadrature settings and (where the
    command takes ``--samples``) Monte Carlo settings a command runs on,
    each built and checked, with node counts, a sweep's grid and a
    writable ``--out``, before any work; :class:`McSettings`' rules check
    ``--seed`` and ``--workers`` on every command that has them.  ``args``
    then holds the model's spec string (``validate pmf3``'s default is
    ``hard:r0=0.4*D``) and a sweep's effective ``r0-stop``."""
    target = getattr(args, "target", None)
    if target not in (None, "pmf3") and args.model is not None:
        raise DomainError(f"--model applies to the pmf3 target only, not to {target}")
    domain = DiskDomain(args.diameter)
    model = quad = mc = None
    if target == "pmf3" and not args.model:
        model = HardDisk(r0=0.4 * domain.diameter)
    elif getattr(args, "model", None) is not None:
        model = parse_model(args.model)
    if model is not None:
        args.model = model.spec_string()
    if args.command == "bounds":
        _check_chain_n(args.n)
        if args.samples is not None:
            _outcome_bits(args.n)
    elif args.command.startswith("sweep-"):
        args.r0_stop = _sweep_stop(args, domain.diameter)
    if getattr(args, "abs_tol", None) is not None:
        quad = replace(DEFAULT_PMF_SETTINGS, abs_tol=args.abs_tol)
    samples = getattr(args, "samples", None)
    sampling = McSettings(1 if samples is None else samples, args.seed, getattr(args, "workers", 1))
    mc = None if samples is None else sampling
    if args.out != "-":
        # Append mode creates the file and truncates nothing.
        try:
            open(args.out, "a").close()
        except OSError as exc:
            raise DomainError(f"cannot write --out {args.out!r}: {exc.strerror}") from None
    return domain, model, quad, mc


def _settings(args) -> dict:
    """Every option in ``args``, in parser order, and ``rng`` if it takes ``--samples``."""
    settings = {k: v for k, v in vars(args).items() if k not in _UNECHOED}
    if "samples" in settings:
        settings["rng"] = RNG_NAME
    return settings


def _token(value) -> str:
    if isinstance(value, float):
        return _fmt(value)
    if value is None or isinstance(value, bool):
        return json.dumps(value)
    return str(value)


def _emit_json(args, record) -> None:
    settings = _settings(args)
    record["settings"] = {k: _jnum(v) if isinstance(v, float) else v for k, v in settings.items()}
    _write(args.out, json.dumps(record, indent=2) + "\n")


def _emit_csv(args, header, rows) -> None:
    settings = _settings(args)
    pairs = [("seed", settings.pop("seed")), *settings.items()]
    comment = "# " + " ".join(f"{k.replace('_', '-')}={_token(v)}" for k, v in pairs)
    lines = [comment, ",".join(header)]
    for row in rows:
        lines.append(",".join(cell if isinstance(cell, str) else _fmt(cell) for cell in row))
    _write(args.out, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# single evaluations
# ---------------------------------------------------------------------------

def _cmd_pdf3(args, domain, model, quad, mc) -> int:
    sides = TriangleSides(args.r12, args.r13, args.r23)
    tq = triangle_quantities(sides)
    record = {
        "density": _jnum(joint_pdf3(sides, domain)),
        "case_tag": classify_triple(sides, domain).value,
        "Q": _jnum(tq.q),
        "d": _jnum(tq.circumdiameter) if tq.circumdiameter is not None else None,
        "rbar": _jnum(tq.longest),
    }
    _emit_json(args, record)
    return EXIT_OK


def _cmd_pairpdf(args, domain, model, quad, mc) -> int:
    _emit_json(args, {"r": _jnum(args.r), "density": _jnum(pair_pdf(args.r, domain))})
    return EXIT_OK


def _cmd_pmf(args, domain, model, quad, mc) -> int:
    pmf = exact_pmf(args.n, model, domain, quad)
    record = {
        "n": args.n,
        "method": pmf.method,
        "probs": [_jnum(p) for p in pmf.probs],
        "error_estimate": _jnum(pmf.error_estimate),
        "p_connected": _jnum(prob_connected(pmf)),
        "p_complete": _jnum(prob_complete(pmf)),
        "entropy_bits": _jnum(entropy_bits(pmf)),
    }
    _emit_json(args, record)
    return EXIT_OK


def _cmd_entropy(args, domain, model, quad, mc) -> int:
    pmf = exact_pmf(args.n, model, domain, quad)
    record = {
        "n": args.n,
        "entropy_bits": _jnum(entropy_bits(pmf)),
        "error_bound_bits": _jnum(entropy_error_bound(pmf)),
        "method": pmf.method,
    }
    _emit_json(args, record)
    return EXIT_OK


def _cmd_entropy_mc(args, domain, model, quad, mc) -> int:
    est = estimate_entropy(
        args.n, model, domain, mc, bias_correction=not args.no_bias_correction
    )
    record = {
        "n": args.n,
        "entropy_bits": _jnum(est.bits),
        "std_error": _jnum(est.std_error),
        "bias_correction": not args.no_bias_correction,
    }
    _emit_json(args, record)
    return EXIT_OK


def _cmd_bounds(args, domain, model, quad, mc) -> int:
    exact = _exact_pmfs({m for m in (2, 3) if m < args.n}, [model], domain, quad)
    h_values = {m: entropy_bits(pmf) for m, [pmf] in exact.items()}
    chain = bound_chain(args.n, h_values, dict.fromkeys(exact, "quadrature"))
    record = {
        "n": args.n,
        "entries": [
            {
                "m": e.m,
                "h_m_bits": _jnum(e.h_m_bits),
                "bound_on_h_n_bits": _jnum(e.bound_on_h_n_bits),
                "provenance": e.provenance,
            }
            for e in chain.entries
        ],
        "tightest_bound_bits": _jnum(chain.tightest_bound_bits),
        "monotonic": chain.monotonic,
    }
    if mc is not None:
        est = estimate_entropy(args.n, model, domain, mc)
        record["h_n_estimate_bits"] = _jnum(est.bits)
        record["h_n_std_error"] = _jnum(est.std_error)
    _emit_json(args, record)
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def _sweep_models(args):
    """The checked grid of a sweep and its connection models."""
    grid = np.linspace(args.r0_start, args.r0_stop, args.steps)
    if args.model_kind == "hard":
        return grid, [HardDisk(r0=float(r0)) for r0 in grid]
    return grid, [ExponentialSoft(r0=float(r0), beta=args.beta) for r0 in grid]


def _cmd_sweep_connectivity(args, domain, model, quad, mc) -> int:
    grid, models = _sweep_models(args)
    if args.mc:
        pmfs = estimate_pmf_sweep(args.n, models, domain, mc)
    else:
        pmfs = _exact_pmfs({args.n}, models, domain, quad)[args.n]
    rows = [
        (float(r0), prob_connected(pmf), prob_complete(pmf), pmf.method, float(pmf.error_estimate))
        for r0, pmf in zip(grid, pmfs)
    ]
    _emit_csv(args, ("r0", "p_connected", "p_complete", "method", "err_est"), rows)
    return EXIT_OK


def _cmd_sweep_entropy(args, domain, model, quad, mc) -> int:
    grid, models = _sweep_models(args)
    n = args.n
    sizes = {m for m in (2, 3) if m < n}  # the G_m that bound H(G_n)
    if args.mc:
        # The sampler runs first, so a sampler error is the one reported;
        # the exact bound columns follow on this thread.
        estimates = estimate_entropy_sweep(n, models, domain, mc)
        exact = _exact_pmfs(sizes, models, domain, quad)
    else:
        exact = _exact_pmfs(sizes | {n}, models, domain, quad)
        estimates = [(entropy_bits(pmf), entropy_error_bound(pmf)) for pmf in exact[n]]
    bound3, bound2 = (
        [float(shearer_factor(n, m) * Fraction(entropy_bits(pmf))) for pmf in exact[m]]
        if m < n else [np.nan] * len(grid)
        for m in (3, 2)
    )
    rows = [
        (float(r0), h, std, b3, b2)
        for r0, (h, std), b3, b2 in zip(grid, estimates, bound3, bound2)
    ]
    _emit_csv(args, ("r0", "H_exact_or_mc", "H_std_err", "bound_from_G3", "bound_from_G2"), rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# validation oracles
# ---------------------------------------------------------------------------

def _validate_pair(domain, model, mc) -> dict:
    nbins = 50
    edges = np.linspace(0.0, domain.diameter, nbins + 1)
    counts = _distance_counts(2, domain, mc, nbins)

    settings = QuadratureSettings(abs_tol=1e-12, rel_tol=1e-12, max_subdivisions=200)
    masses, _ = integrate_many(
        lambda r, which: pair_pdf(r, domain),
        np.column_stack([edges[:-1], edges[1:]]),
        settings,
    )
    fit = _count_fit(counts, masses, mc.samples)
    return {"name": "pair-distance histogram vs density", **fit}


def _validate_pdf3(domain, model, mc) -> dict:
    hist = distance_histogram3(domain, mc, bins=20)
    fit = _count_fit(hist.counts, joint_pdf3_cell_masses(domain, hist.bin_edges), mc.samples)
    return {"name": "three-distance histogram vs joint density", **fit}


def _condpdf_triples(D) -> np.ndarray:
    """The 1000 side triples ``validate condpdf`` checks on a disk of diameter D."""
    grid = np.linspace(0.1, 0.9, 10) * D
    triples = []
    for a in grid:
        for b in grid:
            lo, hi = abs(a - b), min(a + b, D)
            margin = 0.04 * (hi - lo)
            for c in np.linspace(lo + margin, hi - margin, 10):
                triples.append((a, b, c))
    return np.asarray(triples)


def _validate_condpdf(domain, model, mc) -> dict:
    r12, r13, r23 = _condpdf_triples(domain.diameter).T
    direct = joint_pdf3_values(r12, r13, r23, domain)
    via, _ = joint_pdf3_via_conditioning_many(r12, r13, r23, domain)
    scale = np.maximum(np.abs(direct), 1e-12)
    rel = np.abs(via - direct) / scale
    return {
        "name": "conditional reconstruction vs closed form",
        "pass": bool(np.all(rel <= 1e-6)),
        "triples_checked": len(r12),
        "worst_rel_dev": float(np.max(rel)),
    }


def _validate_pmf3(domain, model, mc) -> dict:
    exact = pmf_n3(model, domain)
    counts = _outcome_counts(3, [model], domain, mc)[0]
    slack = np.asarray(exact.ingredients["entry_errors"])
    fit = _count_fit(counts, exact.probs, mc.samples, slack=slack)
    return {"name": "three-node pmf vs sampled outcome frequencies", **fit}


def _cmd_validate(args, domain, model, quad, mc) -> int:
    runners = {"pair": _validate_pair, "pdf3": _validate_pdf3,
               "condpdf": _validate_condpdf, "pmf3": _validate_pmf3}
    check = runners[args.target](domain, model, mc)
    check = {k: _jnum(v) if isinstance(v, float) else v for k, v in check.items()}
    report = {"target": args.target, "pass": check["pass"], "checks": [check]}
    _emit_json(args, report)
    return EXIT_OK if check["pass"] else EXIT_VALIDATION


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rggdist",
        description=(
            "Distributions, connectivity, and entropy of random geometric "
            "graphs on uniform points in a disk."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--diameter", type=float, default=1.0, help="disk diameter (default 1)")
    common.add_argument("--seed", type=int, default=1, help="random seed (echoed in output)")
    common.add_argument("--out", default="-", help="output path, '-' for stdout")

    p = sub.add_parser("pdf3", parents=[common], help="evaluate the three-distance joint density")
    p.add_argument("--r12", type=float, required=True)
    p.add_argument("--r13", type=float, required=True)
    p.add_argument("--r23", type=float, required=True)
    p.set_defaults(handler=_cmd_pdf3)

    p = sub.add_parser("pairpdf", parents=[common], help="evaluate the two-point distance density")
    p.add_argument("--r", type=float, required=True)
    p.set_defaults(handler=_cmd_pairpdf)

    p = sub.add_parser("pmf", parents=[common], help="exact graph pmf (n = 2 or 3)")
    p.add_argument("--n", type=int, choices=(2, 3), required=True)
    p.add_argument("--model", required=True, help="hard:r0=..., exp:r0=...,beta=..., table:@file")
    p.add_argument("--abs-tol", type=float, default=None, help="per-entry quadrature tolerance")
    p.set_defaults(handler=_cmd_pmf)

    p = sub.add_parser("entropy", parents=[common], help="exact graph entropy (n = 2 or 3)")
    p.add_argument("--n", type=int, choices=(2, 3), required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--abs-tol", type=float, default=None)
    p.set_defaults(handler=_cmd_entropy)

    p = sub.add_parser("entropy-mc", parents=[common], help="Monte Carlo graph entropy")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--samples", type=int, default=1_000_000)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument(
        "--no-bias-correction", action="store_true",
        help="disable the Miller-Madow correction",
    )
    p.set_defaults(handler=_cmd_entropy_mc)

    p = sub.add_parser("bounds", parents=[common], help="entropy bound chain for n nodes")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--abs-tol", type=float, default=None)
    p.add_argument(
        "--samples", type=int, default=None,
        help="also Monte Carlo estimate H(G_n) with this many samples",
    )
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(handler=_cmd_bounds)

    sweep = argparse.ArgumentParser(add_help=False)
    sweep.add_argument("--n", type=int, default=3)
    sweep.add_argument("--model-kind", choices=("hard", "exp"), default="hard")
    sweep.add_argument("--beta", type=float, default=2.0, help="exponent for --model-kind exp")
    sweep.add_argument("--r0-start", type=float, default=0.0)
    sweep.add_argument("--r0-stop", type=float, default=None, help="default: the diameter")
    sweep.add_argument("--steps", type=int, default=40)
    sweep.add_argument("--mc", action="store_true", help="estimate by Monte Carlo")
    sweep.add_argument("--samples", type=int, default=1_000_000)
    sweep.add_argument("--workers", type=int, default=1)
    sweep.add_argument("--abs-tol", type=float, default=None)

    p = sub.add_parser(
        "sweep-connectivity", parents=[common, sweep],
        help="connectedness and completeness probabilities over a range grid",
    )
    p.set_defaults(handler=_cmd_sweep_connectivity)

    p = sub.add_parser(
        "sweep-entropy", parents=[common, sweep],
        help="graph entropy and its upper bounds over a range grid",
    )
    p.set_defaults(handler=_cmd_sweep_entropy)

    p = sub.add_parser("validate", parents=[common], help="run a sampling or consistency oracle")
    p.add_argument("target", choices=("pdf3", "pair", "condpdf", "pmf3"))
    p.add_argument("--samples", type=int, default=1_000_000)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--model", default=None, help="model for the pmf3 target")
    p.set_defaults(handler=_cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.handler(args, *_resolve(args))
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except UnsupportedError as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except AccuracyError as exc:
        print(f"accuracy failure: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
