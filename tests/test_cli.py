"""Command-line contract: exit codes, golden outputs, byte determinism,
JSON round-trips."""

import json
import subprocess
import sys
from fractions import Fraction

import pytest

from hoeffding import (
    DeFinettiMeasure,
    InternalError,
    SymmetricFunction,
    check_decomposable,
    classify,
    compare_exact_empirical,
    hoeffding_decomposition,
)
from hoeffding.cli import dispatch, parse_report, render_report
from conftest import twopoint, unif_half

F = Fraction

BETA11 = '{"type": "beta", "alpha": "1", "beta": "1"}'
UNIF_HALF = '{"type": "truncated_uniform", "epsilon": "1/2", "order": 12}'
DIRAC12 = '{"type": "discrete", "atoms": [["1/2", "1"]]}'
STATISTIC = '{"n": 2, "values": ["0", "0", "1"]}'
IDENTITY_URN = '{"f": {"type": "identity"}, "r": 1, "b": 1}'


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, content in {
        "beta11.json": BETA11,
        "unif_half.json": UNIF_HALF,
        "dirac12.json": DIRAC12,
        "stat.json": STATISTIC,
        "urn.json": IDENTITY_URN,
    }.items():
        path = tmp_path / name
        path.write_text(content, encoding="utf-8")
        paths[name] = str(path)
    return paths


class TestCheckCommand:
    def test_decomposable_exits_zero(self, files):
        code, out, err = dispatch(
            ["check", "--measure", files["beta11.json"], "--max-n", "4", "--method", "all"]
        )
        assert code == 0 and err == ""
        assert out.startswith("verdict\tDECOMPOSABLE_UP_TO_N_MAX\n")
        rows = [line for line in out.splitlines() if line[:1].isdigit()]
        assert rows and all(
            row.split("\t")[3] == "0" and row.split("\t")[4] == "0" for row in rows
        )

    def test_witness_first_for_failures(self, files):
        code, out, err = dispatch(
            ["check", "--measure", files["unif_half.json"], "--max-n", "4"]
        )
        assert code == 1
        lines = out.splitlines()
        assert lines[0] == "verdict\tNOT_DECOMPOSABLE"
        assert lines[1] == "witness\tn=2 u=2 z=0 residual=-3/56"

    def test_single_route_methods(self, files):
        for method, expected in (("prop1", "-3/56"), ("weakindep", "-1/56")):
            code, out, _ = dispatch(
                [
                    "check",
                    "--measure",
                    files["unif_half.json"],
                    "--max-n",
                    "2",
                    "--method",
                    method,
                ]
            )
            assert code == 1
            assert f"witness\tn=2 u=2 z=0 residual={expected}" in out

    def test_definition_method(self, files):
        code, out, _ = dispatch(
            [
                "check",
                "--measure",
                files["unif_half.json"],
                "--max-n",
                "3",
                "--method",
                "definition",
            ]
        )
        assert code == 1
        lines = out.splitlines()
        assert lines[0] == "verdict\tNOT_DECOMPOSABLE"
        assert lines[1] == "witness\tn=2 equal=false"
        assert "2\tfalse" in lines

    def test_json_format(self, files):
        code, out, _ = dispatch(
            [
                "check",
                "--measure",
                files["unif_half.json"],
                "--max-n",
                "3",
                "--format",
                "json",
            ]
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["verdict"] == "NOT_DECOMPOSABLE"
        assert payload["witness"] == [2, 2, 0]
        assert payload["definition"][0] == {"n": 2, "equal": False}


class TestOtherCommands:
    def test_moments(self, files):
        code, out, _ = dispatch(
            ["moments", "--measure", files["beta11.json"], "--max-n", "3"]
        )
        assert code == 0
        assert out == "n\tmoment\n0\t1\n1\t1/2\n2\t1/3\n3\t1/4\n"

    def test_probabilities(self, files):
        code, out, _ = dispatch(
            ["probabilities", "--measure", files["unif_half.json"], "--n", "2"]
        )
        assert code == 0
        assert out == "j\tprobability\tweighted\n0\t1/12\t1/12\n1\t1/6\t1/3\n2\t7/12\t7/12\n"

    def test_kernel(self, files):
        code, out, _ = dispatch(
            ["kernel", "--measure", files["unif_half.json"], "--n", "2"]
        )
        assert code == 0
        assert out == "k\tvalue\n0\t1\n1\t-1/2\n2\t1/7\n"

    def test_project_worked_example(self, files):
        code, out, _ = dispatch(
            ["project", "--measure", files["dirac12.json"], "--statistic", files["stat.json"]]
        )
        assert code == 0
        lines = out.splitlines()
        assert "mean\t1/4" in lines
        assert "component\t1\t-1/2\t0\t1/2" in lines
        assert "component\t2\t1/4\t-1/4\t1/4" in lines
        footer = [line for line in lines if line.startswith("orthogonality")]
        assert len(footer) == 3
        assert all(line.endswith("\t0") for line in footer)

    def test_recover_beta(self):
        code, out, err = dispatch(["recover-beta", "--c1", "1/2", "--c2", "3/10"])
        assert (code, out, err) == (0, "alpha\t2\nbeta\t2\n", "")

    def test_recover_beta_boundary_rejected(self):
        code, out, err = dispatch(["recover-beta", "--c1", "1/2", "--c2", "1/4"])
        assert code == 2 and out == ""
        assert err.startswith("error: ")
        assert err.count("\n") == 1

    def test_recursion_violation(self, files):
        code, out, _ = dispatch(
            ["recursion", "--measure", files["unif_half.json"], "--max-n", "4"]
        )
        assert code == 1
        lines = out.splitlines()
        assert lines[0] == "witness\tn=2 residual=-1/2304"
        assert lines[1] == "n\tresidual"
        assert lines[2] == "2\t-1/2304"

    def test_recursion_clean(self, files):
        code, out, _ = dispatch(
            ["recursion", "--measure", files["beta11.json"], "--max-n", "6"]
        )
        assert code == 0
        assert out.splitlines()[0] == "n\tresidual"

    def test_classify_exit_codes(self, files):
        code, out, _ = dispatch(
            ["classify", "--measure", files["beta11.json"], "--max-n", "4"]
        )
        assert code == 0
        assert out.splitlines()[0] == "kind\tPOLYA"
        code, out, _ = dispatch(
            ["classify", "--measure", files["unif_half.json"], "--max-n", "4"]
        )
        assert code == 1
        lines = out.splitlines()
        assert lines[0] == "kind\tNOT_DECOMPOSABLE"
        assert lines[1] == "witness\tmoment_order=3"

    def test_simulate_measure(self, files):
        code, out, _ = dispatch(
            [
                "simulate",
                "--measure",
                files["beta11.json"],
                "--n",
                "4",
                "--trials",
                "1000",
                "--seed",
                "7",
            ]
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[:3] == ["n\t4", "trials\t1000", "seed\t7"]
        assert lines[3] == "j\tcount\texpected\tempirical\tz"
        assert all(line.split("\t")[2] == "1/5" for line in lines[4:])

    def test_simulate_urn(self, files):
        code, out, _ = dispatch(
            [
                "simulate",
                "--urn",
                files["urn.json"],
                "--n",
                "4",
                "--trials",
                "1000",
                "--seed",
                "7",
            ]
        )
        assert code == 0
        assert "j\tcount" in out.splitlines()

    def test_simulate_source_flags_exclusive(self, files):
        code, _, err = dispatch(
            [
                "simulate",
                "--measure",
                files["beta11.json"],
                "--urn",
                files["urn.json"],
                "--n",
                "4",
                "--trials",
                "1000",
                "--seed",
                "7",
            ]
        )
        assert code == 2 and "exactly one" in err
        code, _, _ = dispatch(["simulate", "--n", "4", "--trials", "1000", "--seed", "7"])
        assert code == 2


class TestExitCodeContract:
    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["frobnicate"],
            ["check"],
            ["check", "--measure", "/nonexistent.json", "--max-n", "4"],
            ["check", "--max-n", "4"],
            ["moments", "--measure", "x", "--max-n", "not-a-number"],
            ["check", "--measure", "x", "--max-n", "4", "--method", "bogus"],
            ["recover-beta", "--c1", "0.5", "--c2", "1/3"],
            ["simulate", "--n", "4", "--trials", "100", "--seed", "1"],
        ],
    )
    def test_invalid_invocations_never_exit_zero(self, argv, tmp_path):
        code, _, _ = dispatch(argv)
        assert code == 2

    def test_internal_error_is_not_a_validation_error(self, files, monkeypatch):
        # a broken library invariant must surface, not pass as exit code 2
        import hoeffding.engine

        monkeypatch.setattr(
            hoeffding.engine,
            "_weak_residual_row",
            lambda measure, n, u: SymmetricFunction.constant(n - 1, 0),
        )
        with pytest.raises(InternalError):
            dispatch(["check", "--measure", files["unif_half.json"], "--max-n", "2"])

    def test_fuzzed_flag_sets_never_exit_zero(self):
        # random token soup: none of it can form a successful command (the
        # only rational token present makes recover-beta hit the region error)
        import random as _random

        pool = [
            "check",
            "classify",
            "recursion",
            "simulate",
            "recover-beta",
            "--measure",
            "--urn",
            "--max-n",
            "--n",
            "--trials",
            "--seed",
            "--method",
            "--format",
            "--c1",
            "--c2",
            "1/2",
            "4",
            "missing.json",
            "bogus",
        ]
        rng = _random.Random(99)
        for _ in range(60):
            argv = [rng.choice(pool) for _ in range(rng.randint(0, 6))]
            code, _, _ = dispatch(argv)
            assert code != 0, argv

    def test_trials_floor_is_validation_error(self, files):
        code, _, err = dispatch(
            [
                "simulate",
                "--measure",
                files["beta11.json"],
                "--n",
                "4",
                "--trials",
                "500",
                "--seed",
                "1",
            ]
        )
        assert code == 2 and "trials" in err


class TestDeterminism:
    @pytest.mark.parametrize("fmt", ["tsv", "json"])
    def test_byte_identical_across_runs(self, files, fmt):
        commands = [
            ["check", "--measure", files["beta11.json"], "--max-n", "4", "--format", fmt],
            ["check", "--measure", files["unif_half.json"], "--max-n", "4", "--format", fmt],
            ["recover-beta", "--c1", "1/2", "--c2", "3/10", "--format", fmt],
            ["classify", "--measure", files["unif_half.json"], "--max-n", "4", "--format", fmt],
            [
                "simulate",
                "--measure",
                files["beta11.json"],
                "--n",
                "5",
                "--trials",
                "2000",
                "--seed",
                "11",
                "--format",
                fmt,
            ],
        ]
        for argv in commands:
            first = dispatch(argv)
            second = dispatch(argv)
            assert first == second

    def test_subprocess_runs_match(self, files):
        argv = [
            sys.executable,
            "-m",
            "hoeffding.cli",
            "check",
            "--measure",
            files["unif_half.json"],
            "--max-n",
            "3",
        ]
        first = subprocess.run(argv, capture_output=True, text=True)
        second = subprocess.run(argv, capture_output=True, text=True)
        assert first.returncode == second.returncode == 1
        assert first.stdout == second.stdout
        assert first.stdout.splitlines()[1] == "witness\tn=2 u=2 z=0 residual=-3/56"

    def test_subprocess_success_path(self, files):
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "hoeffding.cli",
                "recover-beta",
                "--c1",
                "1/2",
                "--c2",
                "1/3",
            ],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert result.stdout == "alpha\t1\nbeta\t1\n"


class TestRenderEdgeCases:
    def test_empty_residual_map_renders_headers_only(self):
        from hoeffding import DecomposabilityReport, Verdict

        empty = DecomposabilityReport(
            n_max=2,
            residuals={},
            cross_residuals={},
            verdict=Verdict.DECOMPOSABLE_UP_TO_N_MAX,
            witness=None,
        )
        lines = render_report(empty, "tsv").splitlines()
        assert lines == ["verdict\tDECOMPOSABLE_UP_TO_N_MAX", "n\tu\tz\tprop1\tweakindep"]

    def test_order_exceeded_is_validation_error(self, tmp_path):
        path = tmp_path / "short.json"
        path.write_text('{"type": "moments", "values": ["1", "1/2", "1/3"]}')
        code, out, err = dispatch(["moments", "--measure", str(path), "--max-n", "9"])
        assert code == 2 and out == ""
        assert "order" in err


class TestJsonRoundTrip:
    def test_decomposition(self):
        report = hoeffding_decomposition(
            SymmetricFunction((F(0), F(0), F(1))), DeFinettiMeasure.dirac(F(1, 2))
        )
        assert parse_report(render_report(report, "json")) == report

    def test_decomposability(self):
        report = check_decomposable(unif_half(), 3)
        parsed = parse_report(render_report(report, "json"))
        assert parsed.n_max == report.n_max
        assert parsed.verdict == report.verdict
        assert parsed.witness == report.witness
        assert parsed.residuals == dict(report.residuals)
        assert parsed.cross_residuals == dict(report.cross_residuals)

    @pytest.mark.parametrize(
        "measure,n_max",
        [
            (DeFinettiMeasure.dirac(F(1, 2)), 4),
            (DeFinettiMeasure.beta(2, 2), 4),
        ],
    )
    def test_classification(self, measure, n_max):
        result = classify(measure, n_max)
        assert parse_report(render_report(result, "json")) == result

    def test_classification_with_witness(self):
        result = classify(twopoint(), 3)
        assert parse_report(render_report(result, "json")) == result

    def test_sample(self):
        report = compare_exact_empirical(DeFinettiMeasure.beta(1, 1), 4, 1000, seed=3)
        assert parse_report(render_report(report, "json")) == report

    def test_sample_without_comparison(self):
        from hoeffding import ReinforcementFunction, UrnSpec, urn_histogram

        report = urn_histogram(
            UrnSpec(f=ReinforcementFunction.identity(), r=1, b=1), 4, 1000, seed=3
        )
        assert parse_report(render_report(report, "json")) == report
