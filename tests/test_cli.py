"""Command-line interface: formats, exit codes, and byte determinism."""

import argparse
import dataclasses
import importlib.util
import json
import math
import os
import sys
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from rggdist import (
    AccuracyError,
    DiskDomain,
    DomainError,
    ExponentialSoft,
    HardDisk,
    JointPdfCase,
    McSettings,
    TriangleSides,
    UnsupportedError,
    classify_triple,
    entropy_bits,
    entropy_error_bound,
    estimate_entropy_sweep,
    estimate_pmf,
    joint_pdf3,
    pair_pdf,
    pmf_n2,
    pmf_n3,
    prob_complete,
    parse_model,
    prob_connected,
    shearer_factor,
    triangle_quantities,
)
from rggdist import cli, distances, graphdist, montecarlo
from rggdist.cli import main
from rggdist.distances import joint_pdf3_cell_masses
from rggdist.montecarlo import MAX_WORKERS, substream
from rggdist.quadrature import QuadratureSettings, integrate_many

from helpers import (
    distance_sq_blocks_reference,
    run_cli_process,
    run_python_process,
    valid_triple_grid,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_cli_bytes(*argv):
    proc = run_cli_process(*argv)
    return proc.returncode, proc.stdout


class TestPdf3Command:
    def test_zero_support_triple(self, capsys):
        code, out, _ = run_cli(
            capsys, "pdf3", "--r12", "0.3", "--r13", "0.3", "--r23", "0.9"
        )
        assert code == 0
        rec = json.loads(out)
        assert rec["density"] == 0.0
        assert rec["case_tag"] == "zero"
        assert rec["d"] is None

    def test_matches_library(self, capsys):
        code, out, _ = run_cli(
            capsys, "pdf3", "--r12", "0.5", "--r13", "0.5", "--r23", "0.5"
        )
        rec = json.loads(out)
        lib = joint_pdf3(TriangleSides(0.5, 0.5, 0.5), DiskDomain(1.0))
        assert rec["density"] == pytest.approx(lib, rel=1e-11)
        assert rec["case_tag"] == "acute_inscribed"

    @pytest.mark.parametrize("a, b", [(0.3, 0.5), (0.05, 0.9), (0.45, 0.45)])
    def test_d_and_case_tag_follow_one_degeneracy_rule(self, capsys, a, b):
        # Near-collinear triples are obtuse with d > D, so they are ZERO only
        # when degenerate.  The longest side walks down from a + b one float
        # at a time, across the threshold Q = DEGENERATE_Q_EPS*(c*c)**2.
        domain = DiskDomain(1.0)
        c, degenerate = a + b, {}
        for _ in range(400):
            sides = TriangleSides(a, b, c)
            degenerate[c] = triangle_quantities(sides).circumdiameter is None
            assert degenerate[c] == (classify_triple(sides, domain) is JointPdfCase.ZERO)
            c = math.nextafter(c, 0.0)
        assert set(degenerate.values()) == {True, False}
        # The command, on the triples either side of the threshold.
        last_degenerate = min(c for c, d in degenerate.items() if d)
        first_regular = max(c for c, d in degenerate.items() if not d)
        for c, flag in ((last_degenerate, True), (first_regular, False)):
            code, out, _ = run_cli(
                capsys, "pdf3", "--r12", repr(a), "--r13", repr(b), "--r23", repr(c)
            )
            rec = json.loads(out)
            assert code == 0
            assert (rec["d"] is None, rec["case_tag"] == "zero") == (flag, flag)

    def test_negative_length_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "pdf3", "--r12", "-0.1", "--r13", "0.3", "--r23", "0.3"
        )
        assert code == 2
        assert "error" in err.lower()


class TestPairPdfCommand:
    def test_value_and_tail(self, capsys):
        code, out, _ = run_cli(capsys, "pairpdf", "--r", "0.5")
        assert code == 0
        assert json.loads(out)["density"] == pytest.approx(
            pair_pdf(0.5, DiskDomain(1.0)), rel=1e-11
        )
        _, out, _ = run_cli(capsys, "pairpdf", "--r", "2.0")
        assert json.loads(out)["density"] == 0.0


class TestPmfCommand:
    def test_two_node(self, capsys):
        code, out, _ = run_cli(capsys, "pmf", "--n", "2", "--model", "hard:r0=0.5")
        assert code == 0
        rec = json.loads(out)
        assert len(rec["probs"]) == 2
        assert rec["probs"][0] + rec["probs"][1] == pytest.approx(1.0, abs=1e-9)
        assert rec["p_complete"] <= rec["p_connected"]

    def test_three_node_fields(self, capsys):
        code, out, _ = run_cli(capsys, "pmf", "--n", "3", "--model", "hard:r0=0.4")
        rec = json.loads(out)
        assert len(rec["probs"]) == 8
        assert 0.0 <= rec["entropy_bits"] <= 3.0

    def test_unsupported_n_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "pmf", "--n", "4", "--model", "hard:r0=0.4")
        assert code == 2

    def test_malformed_model(self, capsys):
        code, _, err = run_cli(capsys, "pmf", "--n", "2", "--model", "weird:x=1")
        assert code == 2

    @pytest.mark.parametrize("n,tol", [("2", "nan"), ("3", "inf")])
    def test_non_finite_tolerance_is_usage_error(self, capsys, n, tol):
        code, out, err = run_cli(
            capsys, "pmf", "--n", n, "--model", "hard:r0=0.4", "--abs-tol", tol
        )
        assert code == 2
        assert out == ""
        assert "finite" in err


class TestEntropyCommands:
    def test_exact(self, capsys):
        code, out, _ = run_cli(capsys, "entropy", "--n", "3", "--model", "hard:r0=0.4")
        assert code == 0
        assert 2.0 <= json.loads(out)["entropy_bits"] <= 3.0

    def test_mc(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "entropy-mc", "--n", "4", "--model", "hard:r0=0.4",
            "--samples", "50000", "--seed", "9",
        )
        assert code == 0
        rec = json.loads(out)
        assert rec["settings"]["rng"] == "pcg64dxsm"
        assert rec["std_error"] > 0.0

    def test_mc_too_many_workers_refused_before_sampling(self, capsys, monkeypatch):
        def estimator(*args, **kwargs):
            raise AssertionError("sampled before refusing the worker count")

        monkeypatch.setattr(cli, "estimate_entropy", estimator)
        code, out, err = run_cli(
            capsys,
            "entropy-mc", "--n", "4", "--model", "hard:r0=0.4", "--samples", "1000",
            "--workers", str(MAX_WORKERS + 1),
        )
        assert code == 2
        assert out == ""
        assert "workers" in err

    def test_mc_too_many_nodes(self, capsys):
        code, _, _ = run_cli(
            capsys,
            "entropy-mc", "--n", "7", "--model", "hard:r0=0.4", "--samples", "1000",
        )
        assert code == 3


class TestBoundsCommand:
    def test_chain(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--n", "5", "--model", "hard:r0=0.4")
        assert code == 0
        rec = json.loads(out)
        ms = [e["m"] for e in rec["entries"]]
        assert ms == [3, 2]
        b3, b2 = (e["bound_on_h_n_bits"] for e in rec["entries"])
        assert b3 <= b2
        assert rec["tightest_bound_bits"] == pytest.approx(b3)

    @pytest.mark.parametrize("argv", [
        ("--n", "6", "--model", "exp:r0=0.3,beta=2"),
        ("--n", "5", "--model", "hard:r0=0.4"),
        ("--n", "6", "--model", "exp:r0=0.3,beta=2", "--abs-tol", "1e-6"),
        ("--n", "5", "--model", "hard:r0=0.4", "--abs-tol", "1e-6"),
    ])
    def test_g2_from_the_three_node_m1(self, capsys, monkeypatch, argv):
        # At any tolerance the G2 entry takes the M1 its three-node pmf
        # holds: one pair integral, not one more for pmf_n2, and the same
        # M1 as pmf_n2's at the default settings.
        calls = []
        pair = distances._pair_connect_prob
        monkeypatch.setattr(
            distances, "_pair_connect_prob", lambda *args: calls.append(args) or pair(*args)
        )
        code, out, _ = run_cli(capsys, "bounds", *argv)
        assert code == 0
        assert len(calls) == 1
        model = parse_model(argv[3])
        h2 = json.loads(out)["entries"][-1]["h_m_bits"]
        assert h2 == float(format(entropy_bits(pmf_n2(model, DiskDomain(1.0))), ".12g"))

    @pytest.mark.parametrize("n", ["2", "1", "-3"])
    def test_too_few_nodes_refused_before_exact_work(self, capsys, monkeypatch, n):
        def fail(*args):
            raise AssertionError("pair integral computed before the node check")

        monkeypatch.setattr(distances, "_pair_connect_prob", fail)
        code, out, err = run_cli(
            capsys, "bounds", "--n", n, "--model", "exp:r0=0.3,beta=2", "--samples", "100"
        )
        assert code == 2
        assert out == ""
        assert "n must be an integer >= 3" in err
        code, out, err = run_cli(capsys, "bounds", "--n", n, "--model", "exp:r0=0.3,beta=2")
        assert code == 2
        assert out == ""
        assert "n must be an integer >= 3" in err

    @pytest.mark.parametrize("flags", [("--samples", "10", "--workers", "5000"),
                                       ("--samples", "0"), ("--workers", "5000")])
    def test_bad_sampling_flags_refused_before_exact_work(self, capsys, monkeypatch, flags):
        def fail(*args):
            raise AssertionError("pair integral computed before the sampling flags were checked")

        monkeypatch.setattr(distances, "_pair_connect_prob", fail)
        code, out, err = run_cli(
            capsys, "bounds", "--n", "4", "--model", "exp:r0=0.3,beta=2", *flags
        )
        assert code == 2
        assert out == ""
        assert "must be" in err

    def test_oversized_sample_table_refused_before_exact_work(self, capsys, monkeypatch):
        def fail(*args):
            raise AssertionError("exact pmf computed before the table check")

        monkeypatch.setattr(cli, "_exact_pmfs", fail)
        code, out, _ = run_cli(
            capsys, "bounds", "--n", "7", "--model", "hard:r0=0.4", "--samples", "100"
        )
        assert code == 3
        assert out == ""


class TestSweepCommands:
    def test_connectivity_format_and_properties(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep-connectivity", "--steps", "6", "--abs-tol", "1e-4"
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("# seed=1 ")
        assert lines[1] == "r0,p_connected,p_complete,method,err_est"
        assert len(lines) == 2 + 6
        rows = [line.split(",") for line in lines[2:]]
        r0s = [float(r[0]) for r in rows]
        pconn = [float(r[1]) for r in rows]
        pcomp = [float(r[2]) for r in rows]
        assert r0s == sorted(r0s)
        assert all(c <= p + 1e-12 for p, c in zip(pconn, pcomp))
        assert all(b >= a - 1e-6 for a, b in zip(pconn, pconn[1:]))
        assert all(b >= a - 1e-6 for a, b in zip(pcomp, pcomp[1:]))

    def test_connectivity_needs_mc_for_larger_graphs(self, capsys):
        code, _, _ = run_cli(capsys, "sweep-connectivity", "--n", "4", "--steps", "3")
        assert code == 3

    @pytest.mark.parametrize("n", ["1", "7"])
    def test_mc_sweep_node_range(self, capsys, n):
        code, out, _ = run_cli(capsys, "sweep-connectivity", "--n", n, "--mc", "--steps", "3")
        assert code == 3
        assert out == ""

    def test_connectivity_mc_path(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep-connectivity", "--n", "4", "--mc", "--samples", "20000",
            "--steps", "3", "--seed", "4",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 5
        assert lines[2].split(",")[3] == "monte_carlo"

    def test_entropy_sweep_endpoints(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep-entropy", "--n", "5", "--mc", "--samples", "20000",
            "--steps", "5", "--seed", "6",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[1] == "r0,H_exact_or_mc,H_std_err,bound_from_G3,bound_from_G2"
        first = lines[2].split(",")
        last = lines[-1].split(",")
        assert float(first[1]) == 0.0
        assert float(last[1]) == 0.0

    def test_entropy_sweep_exact_n3(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep-entropy", "--n", "3", "--steps", "4", "--abs-tol", "1e-4"
        )
        assert code == 0
        rows = [line.split(",") for line in out.strip().split("\n")[2:]]
        quad = QuadratureSettings(abs_tol=1e-4, rel_tol=0.0)
        for r0, row in zip(np.linspace(0.0, 1.0, 4), rows):
            assert row[3] == "nan"  # no three-node bound on itself
            h, h_err, bound2 = float(row[1]), float(row[2]), float(row[4])
            # Both columns are quadrature results, so H(G3) <= bound holds
            # within their reported bounds: the row's own, and the G2
            # entropy's bound times the Shearer factor.  At r0 = D, H(G3)
            # reads 4.0e-6 within 0.0016 and the G2 bound 4.3e-12.
            pmf2 = pmf_n2(HardDisk(r0=float(r0)), DiskDomain(1.0), quad)
            allowance = h_err + float(shearer_factor(3, 2)) * entropy_error_bound(pmf2)
            assert h <= bound2 + allowance

    def test_entropy_sweep_takes_g2_from_the_three_node_m1(self, capsys, monkeypatch):
        # At any tolerance every row's M1 is integrated once, at the pair
        # settings and in one lockstep call, and serves both columns: the
        # G2 column is pmf_n2's at the default settings.
        calls = []
        pair = distances._pair_connect_prob
        monkeypatch.setattr(
            distances, "_pair_connect_prob", lambda *args: calls.append(args) or pair(*args)
        )
        domain = DiskDomain(1.0)
        want = [
            format(float(shearer_factor(3, 2) * Fraction(entropy_bits(pmf_n2(model, domain)))),
                   ".12g")
            for model in (ExponentialSoft(r0=float(r0), beta=2.0) for r0 in np.linspace(0.1, 1, 4))
        ]
        for tol in ((), ("--abs-tol", "1e-6")):
            calls.clear()
            code, out, _ = run_cli(
                capsys, "sweep-entropy", "--n", "3", "--steps", "4", "--model-kind", "exp",
                "--r0-start", "0.1", *tol,
            )
            assert code == 0
            assert len(calls) == 1 and len(calls[0][1]) == 4
            assert [line.split(",")[4] for line in out.strip().split("\n")[2:]] == want

    @pytest.mark.parametrize("n, moments", [
        ("2", ()),
        ("3", ("_pair_connect_prob",)),
    ], ids=["n2", "n3"])
    def test_mc_entropy_sweep_computes_only_printed_exact_columns(
        self, capsys, monkeypatch, n, moments
    ):
        # At n = 3 only the G2 column is exact: its pair integrals run, in
        # one lockstep call, and no three-node moment; at n = 2 no exact
        # column is printed.
        calls = {}
        for name in ("_pair_connect_prob", "_coverage_moment", "_longest_side_moment"):
            original = getattr(distances, name)

            def counted(*args, name=name, original=original):
                calls[name] = calls.get(name, 0) + 1
                return original(*args)

            monkeypatch.setattr(distances, name, counted)
        code, _, _ = run_cli(
            capsys, "sweep-entropy", "--n", n, "--mc", "--samples", "2000", "--steps", "4",
        )
        assert code == 0
        assert calls == dict.fromkeys(moments, 1)

    @pytest.mark.parametrize("kind", [("--model-kind", "hard"),
                                      ("--model-kind", "exp", "--r0-start", "0.05")],
                             ids=["hard", "exp"])
    @pytest.mark.parametrize("tol", [(), ("--abs-tol", "1e-6")], ids=["default", "abs_tol=1e-6"])
    def test_mc_entropy_sweep_g2_column_is_the_exact_sweeps(self, capsys, kind, tol):
        argv = ("sweep-entropy", "--n", "3", "--steps", "4", *kind, *tol)
        columns = []
        for mc in ((), ("--mc", "--samples", "2000")):
            code, out, _ = run_cli(capsys, *argv, *mc)
            assert code == 0
            columns.append([line.split(",")[4] for line in out.strip().split("\n")[2:]])
        assert columns[0] == columns[1]
        assert "nan" not in columns[0]

    @pytest.mark.parametrize(
        "argv",
        [
            ("sweep-connectivity", "--n", "3", "--mc"),
            ("sweep-entropy", "--n", "3", "--mc", "--model-kind", "exp", "--r0-start", "0.1"),
        ],
    )
    def test_largest_seed_accepted(self, capsys, argv):
        # Every grid point samples the one pool seeded --seed.
        code, out, _ = run_cli(
            capsys, *argv, "--samples", "2000", "--steps", "3", "--seed", str(2**64 - 1),
        )
        assert code == 0
        assert out.startswith(f"# seed={2**64 - 1} ")

    @pytest.mark.parametrize("command", ["sweep-connectivity", "sweep-entropy"])
    def test_mc_table_too_large_refused_before_work(self, capsys, monkeypatch, command):
        # 257 grid points of 2**15-entry tables at n=6 exceed 2**23 entries;
        # neither the sampler nor the exact bound columns start.
        calls = []

        def refuse(*args, **kwargs):
            calls.append(args)
            raise AssertionError("worked before refusing the table")

        monkeypatch.setattr(montecarlo, "_fan_out", refuse)
        monkeypatch.setattr(cli, "_exact_pmfs", refuse)
        code, out, err = run_cli(
            capsys, command, "--n", "6", "--mc", "--samples", "1000", "--steps", "257",
        )
        assert code == 3
        assert out == ""
        assert "outcome tables" in err
        assert calls == []

    @pytest.mark.parametrize("kind, r0_start", [("hard", 0.0), ("exp", 0.1)])
    def test_connectivity_mc_rows_equal_single_model_estimates(self, capsys, kind, r0_start):
        code, out, _ = run_cli(
            capsys, "sweep-connectivity", "--n", "4", "--mc", "--samples", "20000",
            "--steps", "4", "--seed", "17", "--workers", "2",
            "--model-kind", kind, "--r0-start", str(r0_start),
        )
        assert code == 0
        domain = DiskDomain(1.0)
        mc = McSettings(samples=20000, seed=17, workers=2)
        rows = ["r0,p_connected,p_complete,method,err_est"]
        for r0 in np.linspace(r0_start, 1.0, 4):
            if kind == "hard":
                model = HardDisk(r0=float(r0))
            else:
                model = ExponentialSoft(r0=float(r0), beta=2.0)
            pmf = estimate_pmf(4, model, domain, mc)
            cells = (r0, prob_connected(pmf), prob_complete(pmf), pmf.error_estimate)
            r0_, pconn, pcomp, err = (format(float(c), ".12g") for c in cells)
            rows.append(f"{r0_},{pconn},{pcomp},monte_carlo,{err}")
        assert out.split("\n")[1:] == rows + [""]

    @pytest.mark.parametrize(
        "argv",
        [
            ("sweep-connectivity", "--n", "3"),
            ("sweep-entropy", "--n", "3"),
            ("sweep-connectivity", "--n", "4", "--mc", "--samples", "1000"),
            ("sweep-entropy", "--n", "4", "--mc", "--samples", "1000"),
        ],
    )
    def test_too_many_steps_refused_before_the_grid(self, capsys, monkeypatch, argv):
        def fail(*args, **kwargs):
            raise AssertionError("grid allocated before the step count was checked")

        monkeypatch.setattr(np, "linspace", fail)
        code, out, err = run_cli(capsys, *argv, "--steps", str(cli.MAX_STEPS + 1))
        assert code == 2
        assert out == ""
        assert f"steps must be between 2 and {cli.MAX_STEPS}" in err

    def test_bad_tolerance_refused_before_sampling(self, capsys, monkeypatch):
        # The tolerance is checked before the sampler, which runs before
        # the exact bound columns that use it.
        def sampler(*args, **kwargs):
            raise AssertionError("sampled before the tolerance was checked")

        monkeypatch.setattr(cli, "estimate_entropy_sweep", sampler)
        code, out, err = run_cli(
            capsys, "sweep-entropy", "--n", "4", "--mc", "--samples", "1000", "--steps", "3",
            "--abs-tol", "nan",
        )
        assert code == 2
        assert out == ""
        assert "tolerances must be finite" in err

    @pytest.mark.parametrize("argv, flag", [
        pytest.param(("sweep-connectivity", "--n", "3", "--steps", "3", "--seed", "-1"), "seed",
                     id="sweep-connectivity"),
        pytest.param(("sweep-entropy", "--n", "3", "--steps", "3", "--seed", "-1"), "seed",
                     id="sweep-entropy"),
        pytest.param(("bounds", "--n", "3", "--model", "hard:r0=0.4", "--workers", "0"), "workers",
                     id="bounds-workers-0"),
        pytest.param(("bounds", "--n", "3", "--model", "hard:r0=0.4", "--workers", "5000"),
                     "workers", id="bounds-workers-5000"),
        pytest.param(("bounds", "--n", "3", "--model", "hard:r0=0.4", "--seed", "-3"), "seed",
                     id="bounds-seed"),
        pytest.param(("pmf", "--n", "2", "--model", "hard:r0=0.4", "--seed", "-1"), "seed",
                     id="pmf-seed"),
        pytest.param(("pdf3", "--r12", "0.3", "--r13", "0.4", "--r23", "0.5",
                      "--seed", "99999999999999999999999"), "seed", id="pdf3-seed"),
    ])
    def test_sampling_flags_checked_where_nothing_samples(self, capsys, argv, flag):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and flag in err

    def test_invalid_grid(self, capsys):
        code, _, _ = run_cli(
            capsys, "sweep-connectivity", "--r0-start", "0.9", "--r0-stop", "0.5"
        )
        assert code == 2


class TestValidateCommand:
    def test_pair_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "validate", "pair", "--samples", "400000", "--seed", "2"
        )
        rec = json.loads(out)
        assert code == 0
        assert rec["pass"] is True

    def test_condpdf_passes(self, capsys):
        code, out, _ = run_cli(capsys, "validate", "condpdf")
        rec = json.loads(out)
        assert code == 0
        assert rec["checks"][0]["worst_rel_dev"] <= 1e-6

    def test_pmf3_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "validate", "pmf3", "--samples", "300000", "--seed", "8"
        )
        assert code == 0
        assert json.loads(out)["pass"] is True

    def test_pmf3_slack_is_each_entrys_own_error(self, capsys, monkeypatch):
        # Each expected count moves by its own entry's error estimate, not
        # by the whole table's.
        slacks = []

        def fit(counts, probs, samples, slack=0.0):
            slacks.append(slack)
            return montecarlo._count_fit(counts, probs, samples, slack)

        monkeypatch.setattr(cli, "_count_fit", fit)
        model = ExponentialSoft(r0=0.3, beta=2.0)
        code, _, _ = run_cli(
            capsys, "validate", "pmf3", "--model", model.spec_string(), "--samples", "20000"
        )
        exact = pmf_n3(model, DiskDomain(1.0))
        [slack] = slacks
        assert code == 0
        assert np.asarray(slack).tolist() == list(exact.ingredients["entry_errors"])
        assert len(set(exact.ingredients["entry_errors"])) == 4

    def test_pdf3_insufficient_samples_fails(self, capsys):
        code, out, _ = run_cli(
            capsys, "validate", "pdf3", "--samples", "1000", "--seed", "2"
        )
        assert code == 1
        assert json.loads(out)["pass"] is False

    def test_pdf3_leaves_numpy_ma_unimported(self):
        # The cell masses take a sorted union of breakpoints without
        # np.union1d, whose first call imports numpy.ma (0.8 MB of peak RSS).
        proc = run_python_process("-c", (
            "import sys\n"
            "from rggdist import cli\n"
            "cli.main(['validate', 'pdf3', '--samples', '20000', '--out', sys.argv[1]])\n"
            "print('numpy.ma' in sys.modules)\n"
        ), os.devnull)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == b"False\n"

    def test_cli_import_leaves_futures_and_logging_unimported(self):
        # The sampler's fan-out, the one place that starts threads, runs
        # on plain threads: concurrent.futures, which imports logging,
        # costs about 0.7 MB of resident memory.
        proc = run_python_process("-c", (
            "import sys\n"
            "import rggdist.cli\n"
            "print('concurrent.futures' in sys.modules, 'logging' in sys.modules)\n"
        ))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == b"False False\n"

    @pytest.mark.parametrize("flags", [("--samples", "0"), ("--workers", "5000")])
    def test_pmf3_bad_sampling_flags_refused_before_exact_work(self, capsys, monkeypatch, flags):
        def fail(*args, **kwargs):
            raise AssertionError("exact pmf computed before the sampling flags were checked")

        monkeypatch.setattr(cli, "pmf_n3", fail)
        code, out, err = run_cli(capsys, "validate", "pmf3", *flags)
        assert code == 2
        assert out == ""
        assert "must be" in err

    def test_condpdf_triples_match_their_copies(self):
        # The benchmark probe and the test helpers keep their own copies of
        # the grid; all three must cover the same triples.
        path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "probes.py")
        spec = importlib.util.spec_from_file_location("perfbench_probes", path)
        probes = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(probes)
        triples = cli._condpdf_triples(1.0)
        assert triples.shape == (1000, 3)
        assert triples.tobytes() == valid_triple_grid().tobytes()
        assert triples.tobytes() == probes._condpdf_triples(1.0).tobytes()

    @pytest.mark.parametrize("target", ["pair", "pdf3", "condpdf"])
    def test_model_refused_where_unused(self, capsys, monkeypatch, target):
        def refuse(*args, **kwargs):
            raise AssertionError("ran before --model was refused")

        for name in ("_distance_counts", "distance_histogram3", "joint_pdf3_values"):
            monkeypatch.setattr(cli, name, refuse)
        code, out, err = run_cli(capsys, "validate", target, "--model", "hard:r0=0.4")
        assert code == 2
        assert out == ""
        assert "--model" in err


class TestValidateCatchesWrongClosedForms:
    # Each command runs at the benchmark's settings against a deliberately
    # broken closed form, which the goodness-of-fit rule must refuse.

    def run(self, capsys, *argv):
        code, out, _ = run_cli(capsys, "validate", *argv)
        assert code == 1
        assert json.loads(out)["pass"] is False

    def test_pair_largest_bin_scaled(self, capsys, monkeypatch):
        def scaled(*args, **kwargs):
            masses, errors = integrate_many(*args, **kwargs)
            masses[np.argmax(masses)] *= 1.03
            return masses, errors

        monkeypatch.setattr(cli, "integrate_many", scaled)
        self.run(capsys, "pair", "--samples", "2000000")

    def test_pdf3_extreme_cells_swapped(self, capsys, monkeypatch):
        # The largest cell and the smallest one of at least 100 expected
        # counts trade masses.
        def swapped(domain, edges):
            masses = joint_pdf3_cell_masses(domain, edges)
            flat = masses.reshape(-1)
            tested = np.flatnonzero(flat * 1_000_000 >= 100.0)
            pair = [tested[np.argmax(flat[tested])], tested[np.argmin(flat[tested])]]
            flat[pair] = flat[pair[::-1]]
            return masses

        monkeypatch.setattr(cli, "joint_pdf3_cell_masses", swapped)
        self.run(capsys, "pdf3", "--samples", "1000000", "--workers", "2")

    def test_pmf3_entry_moved(self, capsys, monkeypatch):
        def moved(model, domain, quad=None):
            pmf = pmf_n3(model, domain, quad)
            probs = pmf.probs.copy()
            probs[0] += 8.0 * math.sqrt(probs[0] * (1.0 - probs[0]) / 2_000_000)
            return dataclasses.replace(pmf, probs=probs)

        monkeypatch.setattr(cli, "pmf_n3", moved)
        self.run(capsys, "pmf3", "--samples", "2000000", "--workers", "2")


class TestValidatePairBlocks:
    # ``validate pair --samples 524291 --seed 5`` as the block-major
    # sampler prints it; the last block holds 3 pairs.
    RECORDED = (
        '{\n  "target": "pair",\n  "pass": true,\n  "checks": [\n    {\n'
        '      "name": "pair-distance histogram vs density",\n      "pass": true,\n'
        '      "alpha": 0.0001,\n      "entries_checked": 50,\n'
        '      "z_crit": 4.75342430882,\n      "worst_z": 2.16399174977\n    }\n  ],\n'
        '  "settings": {\n    "diameter": 1.0,\n    "seed": 5,\n    "samples": 524291,\n'
        '    "workers": 1,\n    "model": null,\n    "rng": "pcg64dxsm"\n  }\n}\n'
    )

    def test_output_recorded(self, capsys):
        code, out, _ = run_cli(capsys, "validate", "pair", "--samples", str(2**19 + 3), "--seed", "5")
        assert code == 0
        assert out == self.RECORDED

    def test_peak_memory(self, capsys):
        # Read a block at a time, never a 2**19-pair chunk (56.9 MiB traced
        # for the whole-chunk sampler).
        tracemalloc.start()
        try:
            code = main(["validate", "pair", "--samples", "2000000"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert code == 0
        assert peak < 8 * 2**20

    def test_workers_split_the_stream(self, capsys, monkeypatch):
        # ``--workers 2`` bins 50,001 pairs of substream 0 and 50,000 of
        # substream 1, and prints the same bytes on every run.
        binned = []

        def recorded(*args):
            counts = montecarlo._distance_counts(*args)
            binned.append(counts.copy())
            return counts

        monkeypatch.setattr(cli, "_distance_counts", recorded)
        argv = ("validate", "pair", "--samples", "100001", "--seed", "9", "--workers", "2")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert run_cli(capsys, *argv)[1] == out
        want = np.zeros(50, dtype=np.int64)
        for w, share in enumerate([50_001, 50_000]):
            for dist_sq in distance_sq_blocks_reference(
                2, DiskDomain(1.0), substream(9, w), share, montecarlo._BLOCK
            ):
                idx = np.minimum((np.sqrt(dist_sq[:, 0]) * 50).astype(np.int64), 49)
                want += np.bincount(idx, minlength=50)
        assert [counts.tolist() for counts in binned] == [want.tolist()] * 2


def serial_sweep_entropy(kind, r0_start, samples, steps, seed, workers):
    """``sweep-entropy --n 4 --mc`` stdout built from the library calls, one
    after the other."""
    domain = DiskDomain(1.0)
    grid = np.linspace(r0_start, 1.0, steps)
    if kind == "hard":
        models = [HardDisk(r0=float(r0)) for r0 in grid]
    else:
        models = [ExponentialSoft(r0=float(r0), beta=2.0) for r0 in grid]
    mc = McSettings(samples=samples, seed=seed, workers=workers)
    estimates = estimate_entropy_sweep(4, models, domain, mc)
    lines = [
        f"# seed={seed} diameter=1 n=4 model-kind={kind} beta=2 r0-start={r0_start:.12g} r0-stop=1 "
        f"steps={steps} mc=true samples={samples} workers={workers} abs-tol=null rng=pcg64dxsm",
        "r0,H_exact_or_mc,H_std_err,bound_from_G3,bound_from_G2",
    ]
    # The CLI builds the G3 column with one many-model call: the hard disks
    # share one longest-side pass.
    pmf3s = graphdist._exact_pmfs({3}, models, domain)[3]
    for r0, model, pmf3, (h, std) in zip(grid, models, pmf3s, estimates):
        bound3 = float(shearer_factor(4, 3) * Fraction(entropy_bits(pmf3)))
        bound2 = float(shearer_factor(4, 2) * Fraction(entropy_bits(pmf_n2(model, domain))))
        lines.append(",".join(format(float(x), ".12g") for x in (r0, h, std, bound3, bound2)))
    return "\n".join(lines) + "\n"


class TestSweepEntropyOverlap:
    """The Monte Carlo column is sampled first and the exact bound columns
    are computed after it, on the calling thread; the output and the
    errors are those of the library calls made one after the other."""

    ARGV = ("sweep-entropy", "--n", "4", "--mc", "--samples", "20000", "--steps", "3",
            "--seed", "13", "--workers", "2")
    KINDS = [("hard", 0.0), ("exp", 0.1)]

    def run(self, capsys, kind, r0_start):
        return run_cli(capsys, *self.ARGV, "--model-kind", kind, "--r0-start", str(r0_start))

    @pytest.mark.parametrize("kind, r0_start", KINDS)
    def test_matches_serial_library_rows(self, capsys, kind, r0_start):
        threads = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            code, out, _ = self.run(capsys, kind, r0_start)
        finally:
            sys.setswitchinterval(interval)
        assert code == 0
        assert out == serial_sweep_entropy(kind, r0_start, 20000, 3, 13, 2)
        assert threading.active_count() == threads

    @pytest.mark.parametrize("kind, r0_start", KINDS)
    @pytest.mark.parametrize(
        "error, exit_code",
        [(DomainError, 2), (UnsupportedError, 3), (AccuracyError, 1)],
    )
    def test_sampler_error(self, capsys, monkeypatch, kind, r0_start, error, exit_code):
        def sampler(*args, **kwargs):
            raise error("sampler failed")

        monkeypatch.setattr(cli, "estimate_entropy_sweep", sampler)
        threads = threading.active_count()
        code, out, err = self.run(capsys, kind, r0_start)
        assert code == exit_code
        assert out == ""
        assert "sampler failed" in err
        assert threading.active_count() == threads

    @pytest.mark.parametrize("kind, r0_start", KINDS)
    def test_exact_column_error(self, capsys, monkeypatch, kind, r0_start):
        def quadrature(*args, **kwargs):
            raise AccuracyError("quadrature failed")

        monkeypatch.setattr(cli, "_exact_pmfs", quadrature)
        threads = threading.active_count()
        code, out, err = self.run(capsys, kind, r0_start)
        assert code == 1
        assert out == ""
        assert "quadrature failed" in err
        assert threading.active_count() == threads

    @pytest.mark.parametrize("workers, started", [(1, 0), (2, 1)])
    def test_only_the_sampler_starts_threads(self, capsys, monkeypatch, workers, started):
        # The sampler's fan-out starts one thread per core in use besides
        # the calling one, and nothing else starts any: the exact bound
        # columns run on the calling thread.
        made = []

        class CountedThread(threading.Thread):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        monkeypatch.setattr(montecarlo, "Thread", CountedThread)
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 2)
        code, out, _ = run_cli(
            capsys, "sweep-entropy", "--n", "4", "--mc", "--samples", "2000", "--steps", "3",
            "--workers", str(workers),
        )
        assert code == 0
        assert len(out.splitlines()) == 5
        assert len(made) == started

    def test_hard_sampler_error_reported_first(self, capsys, monkeypatch):
        # The shared pool is sampled before the exact columns.
        def sampler(*args, **kwargs):
            raise DomainError("sampler failed")

        def quadrature(*args, **kwargs):
            raise AccuracyError("quadrature failed")

        monkeypatch.setattr(cli, "estimate_entropy_sweep", sampler)
        monkeypatch.setattr(cli, "_exact_pmfs", quadrature)
        code, out, err = self.run(capsys, "hard", 0.0)
        assert code == 2
        assert out == ""
        assert "sampler failed" in err


def echoed_settings(out):
    """The settings record of a JSON or CSV stdout, keyed by option dest."""
    if out.startswith("# "):
        first = out.split("\n", 1)[0]
        return {k.replace("-", "_"): v for k, v in (t.split("=", 1) for t in first[2:].split())}
    return json.loads(out)["settings"]


class TestSettingsRecord:
    # A cheap run of every subcommand; a new subcommand needs an entry.
    ARGVS = {
        "pdf3": ("--r12", "0.5", "--r13", "0.6", "--r23", "0.7"),
        "pairpdf": ("--r", "0.3"),
        "pmf": ("--n", "2", "--model", "hard:r0=0.4"),
        "entropy": ("--n", "2", "--model", "hard:r0=0.4"),
        "entropy-mc": ("--n", "3", "--model", "hard:r0=0.4", "--samples", "2000"),
        "bounds": ("--n", "4", "--model", "hard:r0=0.4", "--samples", "2000"),
        "sweep-connectivity": ("--n", "2", "--steps", "3"),
        "sweep-entropy": ("--n", "2", "--steps", "3", "--abs-tol", "1e-6"),
        "validate": ("pmf3", "--samples", "2000"),
    }
    SUBPARSERS = next(
        action for action in cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ).choices

    @pytest.mark.parametrize("command", sorted(SUBPARSERS))
    def test_every_option_echoed(self, capsys, command):
        code, out, _ = run_cli(capsys, command, *self.ARGVS[command])
        assert code == 0
        settings = echoed_settings(out)
        dests = [
            action.dest for action in self.SUBPARSERS[command]._actions
            if action.option_strings and action.dest not in ("help", "out")
        ]
        assert set(dests) <= set(settings)
        assert "out" not in settings
        assert ("rng" in settings) == ("samples" in dests)

    def test_what_ran_replaces_the_raw_flag(self, capsys):
        _, out, _ = run_cli(capsys, "validate", "pmf3", "--samples", "2000")
        assert echoed_settings(out)["model"] == "hard:r0=0.4"
        _, out, _ = run_cli(capsys, "pmf", "--n", "2", "--model", "HARD: r0 = 0.40")
        assert echoed_settings(out)["model"] == "hard:r0=0.4"
        _, out, _ = run_cli(capsys, "sweep-entropy", "--n", "2", "--steps", "3")
        assert echoed_settings(out)["r0_stop"] == "1"
        assert echoed_settings(out)["abs_tol"] == "null"

    def test_recorded_table_spec_runs_again(self, capsys, tmp_path):
        knots = tmp_path / "knots.csv"
        knots.write_text("r,p\n0,0.9\n0.25,0.7\n0.5,0.2\n0.8,0\n1,0\n")
        code, first, _ = run_cli(capsys, "pmf", "--n", "3", "--model", f"table:@{knots}")
        assert code == 0
        spec = echoed_settings(first)["model"]
        assert spec == "table:0:0.9;0.25:0.7;0.5:0.2;0.8:0;1:0"
        code, again, _ = run_cli(capsys, "pmf", "--n", "3", "--model", spec)
        assert code == 0
        assert again == first


class TestOutputFile:
    def test_out_flag_writes_file(self, tmp_path, capsys):
        target = tmp_path / "record.json"
        code, out, _ = run_cli(
            capsys, "pairpdf", "--r", "0.3", "--out", str(target)
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["r"] == 0.3

    @pytest.mark.parametrize("where", ["missing directory", "directory"])
    def test_unwritable_out_refused_before_work(self, tmp_path, capsys, monkeypatch, where):
        def fail(*args):
            raise AssertionError("pair integral computed before --out was checked")

        monkeypatch.setattr(distances, "_pair_connect_prob", fail)
        target = tmp_path / "missing" / "x.csv" if where == "missing directory" else tmp_path
        code, out, err = run_cli(
            capsys, "sweep-entropy", "--n", "3", "--steps", "4", "--out", str(target)
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot write --out")


class TestByteDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("pdf3", "--r12", "0.5", "--r13", "0.6", "--r23", "0.7"),
            ("pairpdf", "--r", "0.37"),
            ("pmf", "--n", "3", "--model", "hard:r0=0.55"),
            ("entropy-mc", "--n", "4", "--model", "hard:r0=0.4",
             "--samples", "30000", "--seed", "12", "--workers", "2"),
            ("sweep-entropy", "--n", "4", "--mc", "--samples", "20000",
             "--steps", "3", "--seed", "13"),
            ("validate", "pair", "--samples", "100000", "--seed", "14"),
        ],
    )
    def test_repeated_runs_identical(self, argv):
        code1, out1 = run_cli_bytes(*argv)
        code2, out2 = run_cli_bytes(*argv)
        assert code1 == code2 == 0
        assert out1 == out2
        assert len(out1) > 0
