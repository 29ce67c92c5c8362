"""Command-line contract: exit codes, golden outputs, byte determinism,
JSON round-trips."""

import json
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from hoeffding import (
    DeFinettiMeasure,
    InternalError,
    ParseError,
    SymmetricFunction,
    check_decomposable,
    classify,
    compare_exact_empirical,
    hoeffding_decomposition,
)
from hoeffding.cli import MAX_ORDER, MAX_TRIALS, dispatch, render_report
from hoeffding.measures import MAX_MOMENT_ORDER
from hoeffding.symmetric import MAX_STATISTIC_ARITY
from hoeffding.rationals import format_rational, parse_rational
from conftest import parse_report, twopoint, unif_half, urn_law

F = Fraction

BETA11 = '{"type": "beta", "alpha": "1", "beta": "1"}'
UNIF_HALF = '{"type": "truncated_uniform", "epsilon": "1/2", "order": 12}'
DIRAC12 = '{"type": "discrete", "atoms": [["1/2", "1"]]}'
STATISTIC = '{"n": 2, "values": ["0", "0", "1"]}'
IDENTITY_URN = '{"f": {"type": "identity"}, "r": 1, "b": 1}'
TWOPOINT = '{"type": "discrete", "atoms": [["1/3", "1/2"], ["2/3", "1/2"]]}'
# Beta(2,2) moments cut at order 5: too short for a verdict at n_max 6
BETA22_ORDER5 = '{"type": "moments", "values": ["1", "1/2", "3/10", "1/5", "1/7", "3/28"]}'
# laws on which classify and check once disagreed: a point mass departing
# at order 4, a point mass cut at order 4, and draws without replacement
# from an urn of 20 ones and 17 zeros (a finite exchangeable law)
BENT_POINT = '{"type": "moments", "values": ["1", "1/2", "1/4", "1/8", "127/2000", "1/32"]}'
SHORT_POINT = '{"type": "moments", "values": ["1", "1/2", "1/4", "1/8", "1/16"]}'
URN_20_17 = json.dumps(
    {"type": "moments", "values": [format_rational(v) for v in urn_law(20, 17).moment_values]}
)
GOLDEN = json.loads(Path(__file__).with_name("cli_golden.json").read_text(encoding="utf-8"))


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, content in {
        "beta11.json": BETA11,
        "unif_half.json": UNIF_HALF,
        "dirac12.json": DIRAC12,
        "stat.json": STATISTIC,
        "urn.json": IDENTITY_URN,
        "twopoint.json": TWOPOINT,
        "beta22_order5.json": BETA22_ORDER5,
        "bent_point.json": BENT_POINT,
        "short_point.json": SHORT_POINT,
        "urn_20_17.json": URN_20_17,
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


MEASURE_FILES = [
    "beta11.json",
    "unif_half.json",
    "dirac12.json",
    "twopoint.json",
    "beta22_order5.json",
    "bent_point.json",
    "short_point.json",
    "urn_20_17.json",
]


class TestClassifyAgreesWithCheck:
    @pytest.mark.parametrize("depth", ["3", "4", "6", "9"])
    @pytest.mark.parametrize("name", MEASURE_FILES)
    def test_exit_codes_agree(self, files, name, depth):
        # classify exits 1 exactly when check at the same depth does, unless
        # classify is INCONCLUSIVE or the moments are too short for check
        argv = ["--measure", files[name], "--max-n", depth, "--format", "json"]
        code, out, _ = dispatch(["classify", *argv])
        check_code, _, _ = dispatch(["check", *argv])
        inconclusive = code == 0 and json.loads(out)["kind"] == "INCONCLUSIVE"
        if check_code != 2 and not inconclusive:
            assert code == check_code


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
            lambda measure, n, u, numerators, common: SymmetricFunction.constant(n - 1, 0),
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


BOUNDED_ARGVS = [
    ["moments", "--measure", "missing.json", "--max-n", "{order}"],
    ["probabilities", "--measure", "missing.json", "--n", "{order}"],
    ["kernel", "--measure", "missing.json", "--n", "{order}"],
    ["check", "--measure", "missing.json", "--max-n", "{order}"],
    ["classify", "--measure", "missing.json", "--max-n", "{order}"],
    ["recursion", "--measure", "missing.json", "--max-n", "{order}"],
    ["simulate", "--urn", "missing.json", "--n", "{order}", "--trials", "1000", "--seed", "1"],
    ["simulate", "--urn", "missing.json", "--n", "4", "--trials", "{trials}", "--seed", "1"],
]


VERBS = [
    "moments",
    "probabilities",
    "kernel",
    "project",
    "check",
    "classify",
    "recover-beta",
    "recursion",
    "simulate",
]


def order_document(kind, order):
    if kind == "truncated_uniform":
        return json.dumps({"type": kind, "epsilon": "1/2", "order": order})
    # Beta(1,1) moments 1/(n+1), a completely monotone sequence
    return json.dumps({"type": kind, "values": [f"1/{n + 1}" for n in range(order + 1)]})


def bounded(argv, excess):
    values = {"order": MAX_ORDER + excess, "trials": MAX_TRIALS + excess}
    return [token.format(**values) for token in argv]


class TestSizeBounds:
    # a missing input file stops every accepted command before any work, so
    # no test here starts a computation
    @pytest.mark.parametrize("argv", BOUNDED_ARGVS, ids=lambda argv: " ".join(argv[::3]))
    @pytest.mark.parametrize("excess", [1, 10**12])
    def test_above_bound_is_refused(self, argv, excess):
        code, out, err = dispatch(bounded(argv, excess))
        assert code == 2 and out == ""
        assert "must be at most" in err

    @pytest.mark.parametrize("argv", BOUNDED_ARGVS, ids=lambda argv: " ".join(argv[::3]))
    def test_bound_itself_is_accepted(self, argv):
        code, out, err = dispatch(bounded(argv, 0))
        assert code == 2 and out == ""
        assert "cannot read missing.json" in err

    @pytest.mark.parametrize("verb", [verb for verb in VERBS if verb != "recover-beta"])
    def test_help_states_bounds(self, verb):
        code, text, err = dispatch([verb, "--help"])
        assert (code, err) == (0, "")
        assert f"at most {MAX_ORDER}" in text
        if verb == "simulate":
            assert str(MAX_TRIALS) in text

    def test_readme_examples_within_bounds(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        sizes = re.findall(r"--(max-n|n|trials) (\d+)", readme)
        assert ("trials", "100000") in sizes
        for flag, value in sizes:
            assert int(value) <= (MAX_TRIALS if flag == "trials" else MAX_ORDER)
        assert f"--max-n` and `--n` at most {MAX_ORDER}" in readme
        assert f"`--trials` at most {MAX_TRIALS}" in readme
        assert f"statistic of arity at most {MAX_ORDER}" in readme
        assert f"moment order at most {MAX_MOMENT_ORDER}" in readme

    def test_moment_order_bound_covers_max_order(self):
        # check --max-n MAX_ORDER reads moments up to order 2 * MAX_ORDER - 1
        assert MAX_MOMENT_ORDER == 2 * MAX_ORDER - 1

    def test_statistic_arity_bound_is_the_order_bound(self):
        # the --statistic help states MAX_ORDER; the parser enforces its own
        assert MAX_STATISTIC_ARITY == MAX_ORDER

    @pytest.mark.parametrize(
        "document,accepted",
        [
            (order_document("truncated_uniform", MAX_MOMENT_ORDER), True),
            (order_document("moments", MAX_MOMENT_ORDER), True),
            (order_document("truncated_uniform", MAX_MOMENT_ORDER + 1), False),
            (order_document("moments", MAX_MOMENT_ORDER + 1), False),
            (order_document("truncated_uniform", 10**12), False),
        ],
        ids=["uniform-bound", "moments-bound", "uniform-above", "moments-above", "uniform-huge"],
    )
    def test_measure_order(self, tmp_path, document, accepted):
        path = tmp_path / "measure.json"
        path.write_text(document, encoding="utf-8")
        code, out, err = dispatch(["moments", "--measure", str(path), "--max-n", "2"])
        if accepted:
            assert (code, err) == (0, "") and out.startswith("n\tmoment\n")
        else:
            assert code == 2 and out == ""
            assert f"measure order must be at most {MAX_MOMENT_ORDER}" in err

    @pytest.mark.parametrize("excess,accepted", [(0, True), (1, False)])
    def test_project_arity(self, files, tmp_path, excess, accepted):
        arity = MAX_ORDER + excess
        path = tmp_path / "statistic.json"
        path.write_text(
            json.dumps({"n": arity, "values": [str(z % 3) for z in range(arity + 1)]}),
            encoding="utf-8",
        )
        argv = ["project", "--measure", files["beta11.json"], "--statistic", str(path)]
        code, out, err = dispatch(argv)
        if accepted:
            assert (code, err) == (0, "") and out.startswith("measure\tbeta(1,1)\n")
        else:
            assert code == 2 and out == ""
            assert f"--statistic arity must be at most {MAX_ORDER}" in err

    def test_project_arity_refused_before_values_are_parsed(self, files, tmp_path):
        # none of the values is a rational, so only a check that reads the
        # arity first can report it
        arity = MAX_ORDER + 1
        path = tmp_path / "statistic.json"
        path.write_text(json.dumps({"n": arity, "values": ["x"] * (arity + 1)}), encoding="utf-8")
        argv = ["project", "--measure", files["beta11.json"], "--statistic", str(path)]
        code, out, err = dispatch(argv)
        assert code == 2 and out == ""
        assert f"--statistic arity must be at most {MAX_ORDER}" in err


THREE_ATOM = '{"type": "discrete", "atoms": [["2/7", "1/3"], ["5/11", "1/3"], ["9/10", "1/3"]]}'


class TestLongNumbers:
    """Rationals longer than the 4300 digits CPython converts between int
    and text at once by default."""

    @pytest.fixture(autouse=True)
    def default_limit(self):
        previous = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            yield
        finally:
            sys.set_int_max_str_digits(previous)

    @pytest.mark.parametrize("limit", [640, 4300])
    @pytest.mark.parametrize("digits", [4299, 4300, 4301, 9000, 20001])
    def test_format_and_parse_round_trip(self, limit, digits):
        sys.set_int_max_str_digits(limit)
        big = 10 ** (digits - 1) + 7 * 10 ** (digits // 2) + 3
        for value in (F(big), F(-big), F(big, big // 7 + 1), F(-1, big)):
            text = format_rational(value)
            sys.set_int_max_str_digits(0)
            expected = str(value)
            sys.set_int_max_str_digits(limit)
            assert text == expected
            assert parse_rational(text) == value

    def test_project_prints_and_reads_back_long_components(self, tmp_path):
        # arity 30 is the smallest at which the layers of this statistic
        # under the 3-atom law have a term of more than 4300 digits
        arity = 30
        values = [str(z % 3) for z in range(arity + 1)]
        measure_path = tmp_path / "measure.json"
        measure_path.write_text(THREE_ATOM, encoding="utf-8")
        statistic_path = tmp_path / "statistic.json"
        statistic_path.write_text(json.dumps({"n": arity, "values": values}), encoding="utf-8")
        expected = hoeffding_decomposition(
            SymmetricFunction(tuple(F(v) for v in values)),
            DeFinettiMeasure.discrete([(F(2, 7), F(1, 3)), (F(5, 11), F(1, 3)), (F(9, 10), F(1, 3))]),
        )
        terms = [x for c in expected.components for v in c.values for x in (v.numerator, v.denominator)]
        assert max(abs(x) for x in terms) >= 10**4300
        argv = ["project", "--measure", str(measure_path), "--statistic", str(statistic_path)]

        code, out, err = dispatch(argv + ["--format", "json"])
        assert (code, err) == (0, "")
        assert parse_report(out) == expected

        code, out, err = dispatch(argv)
        assert (code, err) == (0, "")
        rows = [line.split("\t") for line in out.splitlines()]
        components = [[parse_rational(v) for v in row[2:]] for row in rows if row[0] == "component"]
        assert components == [list(c.values) for c in expected.components]
        footer = [row for row in rows if row[0] == "orthogonality"]
        assert len(footer) == arity * (arity + 1) // 2
        assert all(row[2] == "0" for row in footer)


class TestHelp:
    @pytest.mark.parametrize(
        "argv", [[verb, "--help"] for verb in VERBS] + [["--help"]], ids=" ".join
    )
    def test_dispatch_returns_what_the_command_prints(self, argv, monkeypatch):
        # argparse wraps help to the terminal width; pin it on both sides
        monkeypatch.setenv("COLUMNS", "80")
        result = subprocess.run(
            [sys.executable, "-m", "hoeffding", *argv],
            capture_output=True,
            text=True,
        )
        assert (result.returncode, result.stderr) == (0, "")
        assert dispatch(argv) == (0, result.stdout, "")


GOLDEN_CASES = [
    ["moments", "--measure", "beta11.json", "--max-n", "3"],
    ["probabilities", "--measure", "twopoint.json", "--n", "3"],
    ["kernel", "--measure", "unif_half.json", "--n", "2"],
    ["project", "--measure", "dirac12.json", "--statistic", "stat.json"],
    *(
        ["check", "--measure", measure, "--max-n", "3", "--method", method]
        for measure in ("beta11.json", "unif_half.json")
        for method in ("prop1", "weakindep", "definition", "all")
    ),
    ["classify", "--measure", "beta11.json", "--max-n", "4"],
    ["classify", "--measure", "dirac12.json", "--max-n", "3"],
    ["classify", "--measure", "unif_half.json", "--max-n", "4"],
    ["classify", "--measure", "twopoint.json", "--max-n", "3"],
    ["classify", "--measure", "beta22_order5.json", "--max-n", "6"],
    ["recover-beta", "--c1", "1/2", "--c2", "3/10"],
    ["recursion", "--measure", "unif_half.json", "--max-n", "4"],
    ["simulate", "--measure", "beta11.json", "--n", "4", "--trials", "1000", "--seed", "7"],
    ["simulate", "--urn", "urn.json", "--n", "4", "--trials", "1000", "--seed", "7"],
    ["simulate", "--measure", "twopoint.json", "--n", "4", "--trials", "1000", "--seed", "7"],
]


class TestGoldenOutput:
    """Exact stdout and exit code of every verb, pinned in ``cli_golden.json``.

    The file maps each argv (input files by name) to the output recorded
    before the code behind it was last rewritten; any byte of difference
    is a change of the CLI contract.
    """

    @pytest.mark.parametrize("fmt", ["tsv", "json"])
    @pytest.mark.parametrize("case", GOLDEN_CASES, ids=" ".join)
    def test_matches_recorded_output(self, files, case, fmt):
        expected = GOLDEN[" ".join(case + ["--format", fmt])]
        argv = [files.get(token, token) for token in case] + ["--format", fmt]
        code, out, err = dispatch(argv)
        assert (code, out, err) == (expected["code"], expected["stdout"], "")


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


CLASSIFICATION = (
    '{"report": "classification", "kind": %s, "p": %s, "alpha": null, '
    '"beta": null, "witness": %s, "verified_order": %s}'
)
SAMPLE = (
    '{"report": "sample", "n": 1, "trials": %s, "seed": 3, "histogram": %s, '
    '"comparison": %s}'
)
ROW = '{"zeros": %d, "expected": "1/2", "empirical": 0.5, "z": %s}'


class TestParseReportErrors:
    @pytest.mark.parametrize(
        "text",
        [
            "[]",
            '{"report": "decomposition"}',
            # unknown enumeration value (used to leak ValueError)
            CLASSIFICATION % ('"bogus"', '"1/2"', "null", "4"),
            # residual rows that are not objects (used to leak TypeError)
            '{"report": "decomposability", "n_max": 2, "verdict": "DECOMPOSABLE_UP_TO_N_MAX", '
            '"witness": null, "residuals": [1]}',
            '{"report": "decomposability", "n_max": 2, "verdict": "nope", '
            '"witness": null, "residuals": []}',
            '{"report": "decomposability", "n_max": 2, "verdict": "NOT_DECOMPOSABLE", '
            '"witness": [2, 2], "residuals": []}',
            '{"report": "decomposition", "n": "2", "measure": "m", "mean": "0", '
            '"components": []}',
            '{"report": "decomposition", "n": 1, "measure": "m", "mean": "0", '
            '"components": 7}',
            CLASSIFICATION % ('"IID"', '"3/2"', "null", "4"),
            CLASSIFICATION % ('"IID"', '"1/2"', "null", "true"),
            CLASSIFICATION % ('"NOT_DECOMPOSABLE"', "null", '"n=2"', "4"),
            SAMPLE % ("5", "[1, 2]", "null"),
            SAMPLE % ("3", "[1, 2, 0]", "null"),
            SAMPLE % ("3", '[1, "2"]', "null"),
            SAMPLE % ("3", "[1, 2]", "[%s, %s]" % (ROW % (0, '"0"'), ROW % (1, "0.0"))),
            SAMPLE % ("3", "[1, 2]", "[%s, %s]" % (ROW % (1, "0.0"), ROW % (0, "0.0"))),
        ],
    )
    def test_malformed_document_is_parse_error(self, text):
        with pytest.raises(ParseError):
            parse_report(text)
