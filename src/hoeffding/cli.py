"""Command-line front end.

Verbs map one-to-one onto the engine operations; every input is a UTF-8
JSON document and every output is TSV (default) or JSON with rationals
rendered as "p/q" text. Exit codes: 0 success, 1 when check/classify/
recursion finds a violation (with a machine-readable witness on the first
lines), 2 on parse or validation errors (one-line diagnostic on stderr).
Output is byte-deterministic for identical inputs, seeds included.
Sizes are bounded up front: --max-n, --n, --trials and the --statistic
arity above the bound shown in the verb's help, and a measure document of
moment order above 63, exit with code 2 before any work starts.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING, Optional

from . import __version__
from .errors import HoeffdingError, InternalError, ParseError
from .rationals import binom, format_rational, parse_rational

if TYPE_CHECKING:
    from .dynamics import Classification
    from .engine import DecomposabilityReport, HoeffdingDecomposition
    from .measures import DeFinettiMeasure
    from .montecarlo import SampleReport

# Each verb imports the library layers it runs inside its handler, so a
# request loads only those: `moments` never loads the engine or the
# samplers.

# Largest accepted --max-n and --n. A Beta law's `check --max-n 32 --method
# all` takes about 2 s on a 2-vCPU machine, and the cost grows faster than
# n**3.
MAX_ORDER = 32
# Largest accepted simulate --trials; a million Beta draws of 32 bits also
# take about half a minute.
MAX_TRIALS = 1_000_000
_BOUNDS = {"max_n": MAX_ORDER, "n": MAX_ORDER, "trials": MAX_TRIALS}
_ORDER_HELP = f"at most {MAX_ORDER}"


class _HelpRequested(Exception):
    """Carries the text of --help or --version out of argparse instead of
    its SystemExit."""


class _Version(argparse.Action):
    def __call__(self, parser, namespace, values, option_string=None):
        raise _HelpRequested(f"hoeffding {__version__}\n")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse's SystemExit replaced by ParseError
        raise ParseError(message)

    def print_help(self, file=None):
        raise _HelpRequested(self.format_help())


def _build_parser() -> _Parser:
    # --format is global but accepted on either side of the verb
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--format", choices=("tsv", "json"), default="tsv")

    parser = _Parser(prog="hoeffding", description=__doc__, parents=[shared])
    parser.add_argument(
        "--version", action=_Version, nargs=0, help="print the version and exit"
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("moments", parents=[shared], help="moment sequence of a measure")
    p.add_argument("--measure", required=True)
    p.add_argument("--max-n", type=int, required=True, help=_ORDER_HELP)

    p = sub.add_parser(
        "probabilities", parents=[shared], help="configuration probabilities at one order"
    )
    p.add_argument("--measure", required=True)
    p.add_argument("--n", type=int, required=True, help=_ORDER_HELP)

    p = sub.add_parser(
        "kernel", parents=[shared], help="canonical completely degenerate kernel"
    )
    p.add_argument("--measure", required=True)
    p.add_argument("--n", type=int, required=True, help=_ORDER_HELP)

    p = sub.add_parser(
        "project", parents=[shared], help="orthogonal decomposition of a statistic"
    )
    p.add_argument("--measure", required=True)
    p.add_argument("--statistic", required=True, help=f"arity {_ORDER_HELP}")

    p = sub.add_parser("check", parents=[shared], help="decomposability residual scan")
    p.add_argument("--measure", required=True)
    p.add_argument("--max-n", type=int, required=True, help=_ORDER_HELP)
    p.add_argument(
        "--method",
        choices=("prop1", "weakindep", "definition", "all"),
        default="all",
        help="prop1: alternating conditional-probability residuals; "
        "weakindep: symmetrized overlap conditionals of the canonical "
        "kernel; definition: per-level subspace equality by exact "
        "orthogonality",
    )

    p = sub.add_parser(
        "classify", parents=[shared], help="i.i.d. / Polya / not-decomposable verdict"
    )
    p.add_argument("--measure", required=True)
    p.add_argument("--max-n", type=int, required=True, help=_ORDER_HELP)

    p = sub.add_parser(
        "recover-beta", parents=[shared], help="Beta parameters from two moments"
    )
    p.add_argument("--c1", required=True)
    p.add_argument("--c2", required=True)

    p = sub.add_parser("recursion", parents=[shared], help="moment recursion residuals")
    p.add_argument("--measure", required=True)
    p.add_argument("--max-n", type=int, required=True, help=_ORDER_HELP)

    p = sub.add_parser(
        "simulate", parents=[shared], help="seeded sampling with exact comparison"
    )
    p.add_argument("--measure")
    p.add_argument("--urn")
    p.add_argument("--n", type=int, required=True, help=_ORDER_HELP)
    p.add_argument(
        "--trials", type=int, required=True, help=f"1000 to {MAX_TRIALS}"
    )
    p.add_argument("--seed", type=int, required=True)

    return parser


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _read_measure(path: str) -> DeFinettiMeasure:
    from .measures import parse_measure_spec

    return parse_measure_spec(_read(path))


# ---------------------------------------------------------------------------
# report rendering
# ---------------------------------------------------------------------------


# One renderer per report type, each with stable field ordering in both
# formats and a trailing newline.


def _render_decomposition(
    report: HoeffdingDecomposition, fmt: str, measure: Optional[DeFinettiMeasure] = None
) -> str:
    """Passing the measure adds exact orthogonality-check footer rows to the
    TSV rendering."""
    if fmt == "json":
        return json.dumps(
            {
                "report": "decomposition",
                "n": report.n,
                "measure": report.measure_digest,
                "mean": format_rational(report.mean),
                "components": [
                    [format_rational(v) for v in comp.values] for comp in report.components
                ],
            }
        ) + "\n"
    lines = [f"measure\t{report.measure_digest}", f"mean\t{format_rational(report.mean)}"]
    for k, comp in enumerate(report.components):
        values = "\t".join(format_rational(v) for v in comp.values)
        lines.append(f"component\t{k}\t{values}")
    if measure is not None:
        from .symmetric import pairwise_inner_products

        products = pairwise_inner_products(report.components, measure)
        lines.extend(
            f"orthogonality\t{i}:{j}\t{format_rational(product)}"
            for (i, j), product in products.items()
        )
    return "\n".join(lines) + "\n"


def _render_decomposability(
    report: DecomposabilityReport, fmt: str, method: str = "all", definition=None
) -> str:
    """Residual table of a check; both routes' columns under method "all".

    A single route renders only its own column, headed ``residual``.
    ``definition`` rows ``(n, equal)`` from the subspace route follow the
    residual table.
    """
    triples = sorted(report.residuals)
    if method == "all":
        columns = {"prop1": report.residuals, "weakindep": report.cross_residuals}
    elif method == "prop1":
        columns = {"residual": report.residuals}
    else:
        columns = {"residual": report.cross_residuals}
    if fmt == "json":
        payload = {"report": "decomposability", "n_max": report.n_max}
        if method != "all":
            payload["method"] = method
        payload["verdict"] = report.verdict.value
        payload["witness"] = list(report.witness) if report.witness else None
        payload["residuals"] = [
            {"n": n, "u": u, "z": z}
            | {name: format_rational(source[(n, u, z)]) for name, source in columns.items()}
            for (n, u, z) in triples
        ]
        if definition is not None:
            payload["definition"] = [{"n": n, "equal": ok} for n, ok in definition]
        return json.dumps(payload) + "\n"
    lines = [f"verdict\t{report.verdict.value}"]
    if report.witness is not None:
        n, u, z = report.witness
        residual = next(iter(columns.values()))[report.witness]
        lines.append(f"witness\tn={n} u={u} z={z} residual={format_rational(residual)}")
    lines.append("\t".join(["n", "u", "z", *columns]))
    for triple in triples:
        cells = [str(i) for i in triple]
        cells += [format_rational(source[triple]) for source in columns.values()]
        lines.append("\t".join(cells))
    if definition is not None:
        lines.append("definition\tn\tequal")
        lines.extend(
            f"definition\t{n}\t{'true' if ok else 'false'}" for n, ok in definition
        )
    return "\n".join(lines) + "\n"


def _render_classification(result: Classification, fmt: str) -> str:
    from .dynamics import ClassificationKind

    witness = result.witness
    if fmt == "json":
        return json.dumps(
            {
                "report": "classification",
                "kind": result.kind.value,
                "p": None if result.iid_p is None else format_rational(result.iid_p),
                "alpha": None
                if result.polya_alpha is None
                else format_rational(result.polya_alpha),
                "beta": None
                if result.polya_beta is None
                else format_rational(result.polya_beta),
                "witness": list(witness) if isinstance(witness, tuple) else witness,
                "verified_order": result.verified_order,
            }
        ) + "\n"
    lines = [f"kind\t{result.kind.value}"]
    if result.kind is ClassificationKind.NOT_DECOMPOSABLE:
        if isinstance(witness, tuple):
            n, u, z = witness
            lines.append(f"witness\tn={n} u={u} z={z}")
        else:
            lines.append(f"witness\tmoment_order={witness}")
    if result.iid_p is not None:
        lines.append(f"p\t{format_rational(result.iid_p)}")
    if result.polya_alpha is not None:
        lines.append(f"alpha\t{format_rational(result.polya_alpha)}")
        lines.append(f"beta\t{format_rational(result.polya_beta)}")
    lines.append(f"verified_order\t{result.verified_order}")
    return "\n".join(lines) + "\n"


def _render_sample(report: SampleReport, fmt: str) -> str:
    if fmt == "json":
        comparison = None
        if report.comparison is not None:
            comparison = [
                {
                    "zeros": row.zeros,
                    "expected": format_rational(row.expected_probability),
                    "empirical": row.empirical_frequency,
                    "z": row.z_score,
                }
                for row in report.comparison
            ]
        return json.dumps(
            {
                "report": "sample",
                "n": report.n,
                "trials": report.trials,
                "seed": report.seed,
                "histogram": list(report.zero_count_histogram),
                "comparison": comparison,
            }
        ) + "\n"
    lines = [
        f"n\t{report.n}",
        f"trials\t{report.trials}",
        f"seed\t{report.seed}",
    ]
    if report.comparison is None:
        lines.append("j\tcount")
        for j, count in enumerate(report.zero_count_histogram):
            lines.append(f"{j}\t{count}")
    else:
        lines.append("j\tcount\texpected\tempirical\tz")
        for row in report.comparison:
            count = report.zero_count_histogram[row.zeros]
            lines.append(
                f"{row.zeros}\t{count}\t{format_rational(row.expected_probability)}"
                f"\t{row.empirical_frequency!r}"
                f"\t{row.z_score!r}"
            )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# verb handlers
# ---------------------------------------------------------------------------


def _cmd_moments(args) -> tuple[int, str]:
    measure = _read_measure(args.measure)
    if args.max_n < 0:
        raise ParseError("--max-n must be non-negative")
    values = [measure.moment(n) for n in range(args.max_n + 1)]
    if args.format == "json":
        return 0, json.dumps(
            {"measure": measure.describe(), "moments": [format_rational(v) for v in values]}
        ) + "\n"
    lines = ["n\tmoment"] + [f"{n}\t{format_rational(v)}" for n, v in enumerate(values)]
    return 0, "\n".join(lines) + "\n"


def _cmd_probabilities(args) -> tuple[int, str]:
    measure = _read_measure(args.measure)
    if args.n < 0:
        raise ParseError("--n must be non-negative")
    n = args.n
    rows = []
    for j in range(n + 1):
        p = measure.config_probability(n, j)
        rows.append((j, format_rational(p), format_rational(binom(n, j) * p)))
    if args.format == "json":
        return 0, json.dumps(
            {
                "measure": measure.describe(),
                "n": n,
                "probabilities": [
                    {"j": j, "probability": p, "weighted": w} for j, p, w in rows
                ],
            }
        ) + "\n"
    lines = ["j\tprobability\tweighted"] + [f"{j}\t{p}\t{w}" for j, p, w in rows]
    return 0, "\n".join(lines) + "\n"


def _cmd_kernel(args) -> tuple[int, str]:
    from .engine import canonical_degenerate_kernel

    measure = _read_measure(args.measure)
    kernel = canonical_degenerate_kernel(measure, args.n)
    if args.format == "json":
        return 0, json.dumps(
            {
                "measure": measure.describe(),
                "n": args.n,
                "kernel": [format_rational(v) for v in kernel.values],
            }
        ) + "\n"
    lines = ["k\tvalue"] + [f"{k}\t{format_rational(v)}" for k, v in enumerate(kernel.values)]
    return 0, "\n".join(lines) + "\n"


def _cmd_project(args) -> tuple[int, str]:
    from .engine import hoeffding_decomposition
    from .symmetric import parse_statistic_spec

    measure = _read_measure(args.measure)
    statistic = parse_statistic_spec(_read(args.statistic))
    report = hoeffding_decomposition(statistic, measure)
    return 0, _render_decomposition(report, args.format, measure)


def _cmd_check(args) -> tuple[int, str]:
    from .engine import Verdict, check_decomposable, level_subspace_check

    measure = _read_measure(args.measure)
    if args.max_n < 2:
        raise ParseError("--max-n must be at least 2")
    method = args.method
    code = 0
    if method in ("prop1", "weakindep", "all"):
        report = check_decomposable(measure, args.max_n)
        if report.verdict is Verdict.NOT_DECOMPOSABLE:
            code = 1
    else:
        report = None

    definition_rows = None
    if method in ("definition", "all"):
        definition_rows = [
            (n, level_subspace_check(measure, n)) for n in range(2, args.max_n + 1)
        ]
        if any(not ok for _, ok in definition_rows):
            code = 1

    if method == "definition":
        return code, _render_definition_only(definition_rows, args.max_n, args.format)
    return code, _render_decomposability(report, args.format, method, definition_rows)


def _render_definition_only(rows, n_max: int, fmt: str) -> str:
    from .engine import Verdict

    verdict = (
        Verdict.DECOMPOSABLE_UP_TO_N_MAX
        if all(ok for _, ok in rows)
        else Verdict.NOT_DECOMPOSABLE
    )
    if fmt == "json":
        return json.dumps(
            {
                "report": "subspace-check",
                "n_max": n_max,
                "verdict": verdict.value,
                "levels": [{"n": n, "equal": ok} for n, ok in rows],
            }
        ) + "\n"
    lines = [f"verdict\t{verdict.value}"]
    first_bad = next((n for n, ok in rows if not ok), None)
    if first_bad is not None:
        lines.append(f"witness\tn={first_bad} equal=false")
    lines.append("n\tequal")
    for n, ok in rows:
        lines.append(f"{n}\t{'true' if ok else 'false'}")
    return "\n".join(lines) + "\n"


def _cmd_classify(args) -> tuple[int, str]:
    from .dynamics import ClassificationKind, classify

    measure = _read_measure(args.measure)
    result = classify(measure, args.max_n)
    code = 1 if result.kind is ClassificationKind.NOT_DECOMPOSABLE else 0
    return code, _render_classification(result, args.format)


def _cmd_recover_beta(args) -> tuple[int, str]:
    from .dynamics import recover_beta

    fitted = recover_beta(parse_rational(args.c1), parse_rational(args.c2))
    alpha, beta = map(format_rational, fitted)
    if args.format == "json":
        return 0, json.dumps({"alpha": alpha, "beta": beta}) + "\n"
    return 0, f"alpha\t{alpha}\nbeta\t{beta}\n"


def _cmd_recursion(args) -> tuple[int, str]:
    from .dynamics import moment_recursion_residual

    measure = _read_measure(args.measure)
    if args.max_n < 2:
        raise ParseError("--max-n must be at least 2")
    rows = [
        (n, moment_recursion_residual(measure, n)) for n in range(2, args.max_n + 1)
    ]
    witness = next((n for n, r in rows if r != 0), None)
    code = 0 if witness is None else 1
    if args.format == "json":
        return code, json.dumps(
            {
                "measure": measure.describe(),
                "witness": witness,
                "residuals": [{"n": n, "residual": format_rational(r)} for n, r in rows],
            }
        ) + "\n"
    lines = []
    if witness is not None:
        residual = dict(rows)[witness]
        lines.append(f"witness\tn={witness} residual={format_rational(residual)}")
    lines.append("n\tresidual")
    for n, r in rows:
        lines.append(f"{n}\t{format_rational(r)}")
    return code, "\n".join(lines) + "\n"


def _cmd_simulate(args) -> tuple[int, str]:
    from .montecarlo import compare_exact_empirical, parse_urn_spec, urn_histogram

    if (args.measure is None) == (args.urn is None):
        raise ParseError("exactly one of --measure and --urn is required")
    if args.measure is not None:
        measure = _read_measure(args.measure)
        report = compare_exact_empirical(measure, args.n, args.trials, args.seed)
    else:
        spec = parse_urn_spec(_read(args.urn))
        report = urn_histogram(spec, args.n, args.trials, args.seed)
    return 0, _render_sample(report, args.format)


_HANDLERS = {
    "moments": _cmd_moments,
    "probabilities": _cmd_probabilities,
    "kernel": _cmd_kernel,
    "project": _cmd_project,
    "check": _cmd_check,
    "classify": _cmd_classify,
    "recover-beta": _cmd_recover_beta,
    "recursion": _cmd_recursion,
    "simulate": _cmd_simulate,
}


def dispatch(argv: list[str]) -> tuple[int, str, str]:
    """Run one command; returns (exit code, stdout text, stderr text)."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        for name, limit in _BOUNDS.items():
            value = getattr(args, name, None)
            if value is not None and value > limit:
                raise ParseError(f"--{name.replace('_', '-')} must be at most {limit}")
        code, output = _HANDLERS[args.verb](args)
        return code, output, ""
    except _HelpRequested as help_text:
        return 0, str(help_text), ""
    except ParseError as exc:
        return 2, "", f"error: {exc}\n"
    except InternalError:
        raise  # a library defect, not bad input: exit 2 would misreport it
    except HoeffdingError as exc:
        return 2, "", f"error: {exc}\n"


def main(argv: Optional[list[str]] = None) -> int:
    code, out, err = dispatch(sys.argv[1:] if argv is None else argv)
    if out:
        sys.stdout.write(out)
    if err:
        sys.stderr.write(err)
    return code


if __name__ == "__main__":
    sys.exit(main())
