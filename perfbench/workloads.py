"""The three CLI sessions the benchmark replays.

Each session is one closed-loop client: its commands run back to back in
one fresh process that calls ``rggdist.cli.main(argv)``.  ``{w}`` in an
argv stands for the worker count (at most 2, and never above ``nproc``);
the workload seed is appended to every command as ``--seed``.

``metric`` names the per-command end-to-end time the command feeds.
``check`` names the output check in :mod:`checks` and the key of the
command's reference data in ``reference.json``.
"""

from __future__ import annotations

from typing import NamedTuple


class Command(NamedTuple):
    key: str
    argv: tuple[str, ...]
    metric: str | None
    check: str


def _cmd(key, argv, metric, check):
    return Command(key, tuple(argv.split()), metric, check)


SESSIONS = {
    # Exact n <= 3 paths: quadrature and distances do nearly all the work,
    # montecarlo none.  Truncated (hard) and weighted (soft) integrands, at
    # the default and at a tight tolerance.
    "exact-n3": (
        _cmd("sweep-entropy-hard", "sweep-entropy --n 3", "sweep_entropy_s", "exact_sweep_entropy"),
        _cmd("sweep-entropy-exp", "sweep-entropy --n 3 --model-kind exp --r0-start 0.05",
             "sweep_entropy_s", "exact_sweep_entropy"),
        _cmd("sweep-connectivity-n3", "sweep-connectivity --n 3", "sweep_connectivity_s",
             "exact_sweep_connectivity"),
        _cmd("pmf-hard", "pmf --n 3 --abs-tol 1e-6 --model hard:r0=0.4", "pmf_s", "exact_pmf"),
        _cmd("pmf-exp", "pmf --n 3 --abs-tol 1e-6 --model exp:r0=0.3,beta=2", "pmf_s", "exact_pmf"),
        _cmd("bounds-exp", "bounds --n 6 --model exp:r0=0.3,beta=2", None, "exact_bounds"),
    ),
    # Monte Carlo at the largest outcome table the CLI sweeps (2**15):
    # montecarlo and graphdist do most of the work, quadrature only fills
    # the bound columns.
    "mc-n6": (
        _cmd("entropy-mc-hard", "entropy-mc --n 6 --samples 2000000 --workers {w} --model hard:r0=0.4",
             "entropy_mc_s", "mc_entropy"),
        _cmd("entropy-mc-exp",
             "entropy-mc --n 6 --samples 2000000 --workers {w} --model exp:r0=0.3,beta=2",
             "entropy_mc_s", "mc_entropy"),
        _cmd("sweep-connectivity-n6", "sweep-connectivity --n 6 --mc --samples 100000 --steps 20 --workers {w}",
             "sweep_connectivity_s", "mc_sweep_connectivity"),
        _cmd("sweep-entropy-n5", "sweep-entropy --n 5 --mc --samples 1000000 --workers {w}",
             "sweep_entropy_s", "mc_sweep_entropy"),
    ),
    # The same layers used differently: the n=3 sampler feeds histograms,
    # the closed form is integrated per grid cell, and integrate_many runs
    # a thousand lockstep integrals.
    "oracles": (
        _cmd("validate-pdf3", "validate pdf3 --samples 1000000 --workers {w}", "validate_s", "validate"),
        _cmd("validate-condpdf", "validate condpdf", "validate_s", "validate"),
        _cmd("validate-pair", "validate pair --samples 2000000", "validate_s", "validate"),
        _cmd("validate-pmf3", "validate pmf3 --samples 2000000 --workers {w}", "validate_s", "validate"),
    ),
}

# Per-command end-to-end times, in ROADMAP's order.  Each is the summed time
# of the session's commands that feed it; a session reports the ones its
# commands feed.  ``bounds`` feeds none but still counts towards ``wall_s``.
COMMAND_METRICS = ("pmf_s", "sweep_entropy_s", "sweep_connectivity_s", "entropy_mc_s", "validate_s")


def argv_for(command: Command, workers: int, seed: int) -> list[str]:
    return [a.replace("{w}", str(workers)) for a in command.argv] + ["--seed", str(seed)]


# Per-layer probes (probes.py): metric -> (unit, the end-to-end metrics it
# should move, by workload).
PROBES = {
    "distances.pdf3_ns_per_point": ("ns", "pmf_s, sweep_entropy_s (exact-n3); validate_s (oracles)"),
    "distances.cell_masses_s": ("s", "validate_s (oracles)"),
    "quadrature.panels": ("count", "validate_s (oracles); pmf_s (exact-n3)"),
    "quadrature.us_per_panel": ("us", "validate_s (oracles); pmf_s (exact-n3)"),
    "graphdist.pmf_n3_s": ("s", "pmf_s, sweep_entropy_s (exact-n3); sweep_entropy_s (mc-n6)"),
    "graphdist.pmf_n3_prob_points": (
        "count", "pmf_s, sweep_entropy_s (exact-n3); sweep_entropy_s (mc-n6)"),
    "graphdist.connected_mask_s": ("s", "sweep_connectivity_s (mc-n6)"),
    "montecarlo.pmf_ns_per_sample": ("ns", "entropy_mc_s, sweep_connectivity_s (mc-n6)"),
    "montecarlo.soft_ns_per_sample": ("ns", "entropy_mc_s, sweep_connectivity_s (mc-n6)"),
    "montecarlo.bootstrap_s": ("s", "entropy_mc_s, sweep_entropy_s (mc-n6)"),
    "montecarlo.speedup_2w": ("ratio", "entropy_mc_s (mc-n6)"),
    "montecarlo.peak_mb": ("MB", "peak_rss_mb (mc-n6)"),
    "montecarlo.hist3_ns_per_sample": ("ns", "validate_s (oracles)"),
    "geometry.sample_ns_per_point": ("ns", "validate_s (oracles)"),
}
