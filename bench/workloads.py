"""The four seeded workloads: input generation, the timed op, and its check.

Each workload draws its inputs from ``random.Random(seed)`` as plain data
(JSON documents, integers, rational text) and hands only those to the
library. Ops come in blocks with a fixed mix of parameter classes, shuffled,
so that runs with different seeds execute the same mix and differ only in the
random rationals; that keeps run-to-run spread low. Runs end on a block
boundary.

Every op is checked outside its timed region against an oracle that does not
share the code path under test (closed-form cell probabilities, the residual
route for the subspace route, the law that generated the input, in-process
dispatch for the CLI). A failed check raises ``Mismatch``.
"""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction

BLOCKS = 8  # blocks generated per run; the op loop cycles through them


class Mismatch(Exception):
    """An op returned a result its oracle rejects."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


# -- random laws -------------------------------------------------------------


def text(value: Fraction) -> str:
    value = Fraction(value)
    return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


def beta_law(rng):
    return ("beta", Fraction(rng.randint(1, 12), rng.randint(1, 6)),
            Fraction(rng.randint(1, 12), rng.randint(1, 6)))


def interior(rng, den_max=12):
    den = rng.randint(2, den_max)
    return Fraction(rng.randint(1, den - 1), den)


def atoms_law(rng, count):
    """``count`` distinct atoms strictly inside (0, 1) with rational weights."""
    locations = set()
    while len(locations) < count:
        locations.add(interior(rng))
    weights = [rng.randint(1, 5) for _ in range(count)]
    total = sum(weights)
    return ("discrete", tuple((loc, Fraction(w, total)) for loc, w in zip(sorted(locations), weights)))


def truncated_uniform_law(rng, order):
    # epsilon = 1 would be Beta(1, 1), which is decomposable
    return ("truncated_uniform", interior(rng, 9), order)


def measure_doc(law) -> str:
    if law[0] == "beta":
        return json.dumps({"type": "beta", "alpha": text(law[1]), "beta": text(law[2])})
    if law[0] == "discrete":
        return json.dumps({"type": "discrete", "atoms": [[text(l), text(w)] for l, w in law[1]]})
    return json.dumps({"type": "truncated_uniform", "epsilon": text(law[1]), "order": law[2]})


def is_iid(law) -> bool:
    return law[0] == "discrete" and len(law[1]) == 1


def is_decomposable(law) -> bool:
    return law[0] == "beta" or is_iid(law)


def law_of_kind(rng, kind, n_max=None):
    if kind == "beta":
        return beta_law(rng)
    if kind == "iid":
        return atoms_law(rng, 1)
    if kind == "mixture":
        return atoms_law(rng, rng.randint(2, 3))
    return truncated_uniform_law(rng, rng.randint(2 * n_max - 1, 3 * n_max))


def blocks(rng, make_block):
    ops = []
    for _ in range(BLOCKS):
        block = make_block(rng)
        rng.shuffle(block)
        ops.extend(block)
    return ops


# -- exact oracles -----------------------------------------------------------


def exact_cells(law, n):
    """C(n, j) * P(a length-n configuration has j zeros), by closed form."""
    if law[0] == "beta":
        a, b = law[1], law[2]
        cells = []
        for j in range(n + 1):
            value = Fraction(math.comb(n, j))
            for i in range(n - j):
                value *= a + i
            for i in range(j):
                value *= b + i
            for i in range(n):
                value /= a + b + i
            cells.append(value)
        return cells
    return [
        math.comb(n, j) * sum((w * loc ** (n - j) * (1 - loc) ** j for loc, w in law[1]), Fraction(0))
        for j in range(n + 1)
    ]


def check_histogram(histogram, cells, trials, z_max=5.0, min_expected=10.0):
    """|z| < z_max on every cell whose expected count is at least min_expected
    (the normal approximation behind z is poor on rarer cells)."""
    for j, (count, cell) in enumerate(zip(histogram, cells)):
        p = float(cell)
        if p * trials < min_expected:
            continue
        z = (count / trials - p) / math.sqrt(p * (1 - p) / trials)
        expect(abs(z) < z_max, f"cell {j}: z={z:.2f} against the exact probability")


# a rational literal in rendered output, not part of a float such as 0.25 or 1e-05
RATIONAL_TEXT = re.compile(r"(?<![\d.eE-])-?\d+(?:/\d+)?(?![\d.eE])")


def fractions_in(value):
    """Every Fraction reachable in a result (dataclasses, tuples, dicts, and
    rational literals in rendered text)."""
    if isinstance(value, Fraction):
        yield value
    elif isinstance(value, str):
        for literal in RATIONAL_TEXT.findall(value):
            yield Fraction(literal)
    elif isinstance(value, dict):
        for key, item in value.items():
            yield from fractions_in(key)
            yield from fractions_in(item)
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from fractions_in(item)
    elif hasattr(value, "__dataclass_fields__"):
        for name in value.__dataclass_fields__:
            if not name.startswith("_"):
                yield from fractions_in(getattr(value, name))


def result_bits(result) -> int:
    return max(
        (max(f.numerator.bit_length(), f.denominator.bit_length()) for f in fractions_in(result)),
        default=0,
    )


# -- scan: decomposability decisions -----------------------------------------


class Scan:
    name = "scan"
    block = 50
    trace_ops = 50
    exercised = (
        "measures.from_moments", "measures.config_probability", "measures.moment",
        "measures.is_nondeterministic", "measures.conditional_zero_count",
        "symmetric.cond_expectation_overlap", "symmetric.symmetrize",
        "engine.check_decomposable", "engine.decomposability_residual",
        "engine.canonical_degenerate_kernel", "dynamics.classify", "dynamics.recover_beta",
    )

    @staticmethod
    def generate(rng):
        def block(rng):
            # Beta laws twice: the Polya case is the paper's positive answer,
            # and with 50 ops the p50 and p90 ranks fall inside groups of
            # similar cost (n_max 7 and n_max 10 scans), not between groups
            return [
                {"method": method, "n_max": n_max, "law": law, "doc": measure_doc(law)}
                for kind in ("beta", "beta", "iid", "mixture", "truncated_uniform")
                for n_max in range(6, 11)
                for method in ("check", "classify")
                for law in [law_of_kind(rng, kind, n_max)]
            ]
        return blocks(rng, block)

    @staticmethod
    def run(lib, op):
        measure = lib.measures.parse_measure_spec(op["doc"])
        if op["method"] == "check":
            return lib.engine.check_decomposable(measure, op["n_max"])
        return lib.dynamics.classify(measure, op["n_max"])

    @staticmethod
    def check(lib, op, result):
        law, n_max = op["law"], op["n_max"]
        if op["method"] == "check":
            expect(result.n_max == n_max, "n_max changed")
            if is_decomposable(law):
                expect(result.verdict.value == "DECOMPOSABLE_UP_TO_N_MAX", f"{law[0]} law judged not decomposable")
                expect(result.witness is None, "witness for a decomposable law")
                expect(all(r == 0 for r in result.residuals.values()), "nonzero residual")
                expect(all(r == 0 for r in result.cross_residuals.values()), "nonzero cross residual")
            else:
                expect(result.verdict.value == "NOT_DECOMPOSABLE", f"{law[0]} law judged decomposable")
                expect(result.witness is not None and result.residuals[result.witness] != 0,
                       "witness residual is zero")
            return
        kind = result.kind.value
        if law[0] == "beta":
            expect(kind == "POLYA", f"Beta law classified {kind}")
            expect((result.polya_alpha, result.polya_beta) == (law[1], law[2]), "wrong Beta parameters")
        elif is_iid(law):
            expect(kind == "IID", f"point mass classified {kind}")
            expect(result.iid_p == law[1][0][0], "wrong i.i.d. parameter")
        else:
            expect(kind == "NOT_DECOMPOSABLE" and result.witness is not None,
                   f"{law[0]} law classified {kind}")


# -- project: Hoeffding layers by Gram projection ----------------------------


class Project:
    name = "project"
    block = 19
    trace_ops = 19
    exercised = (
        "symmetric.inner_product", "symmetric.lift_ustatistic",
        "engine.hoeffding_decomposition", "engine.ustatistic_basis", "engine.level_subspace_check",
        "linalg.rank", "linalg.solve", "linalg.nullspace",
    )

    @staticmethod
    def generate(rng):
        def block(rng):
            # laws rotate across arities from a random start: every block
            # decomposes each arity once and runs each level under four laws,
            # which puts the p50 rank inside the group of ~100 ms ops
            kinds = ("beta", "iid", "mixture")
            start = rng.randrange(3)
            ops = []
            for i, n in enumerate(range(8, 15)):
                law = law_of_kind(rng, kinds[(start + i) % 3])
                values = [text(Fraction(rng.randint(-9, 9), rng.randint(1, 9))) for _ in range(n + 1)]
                ops.append({"method": "decompose", "law": law, "doc": measure_doc(law),
                            "statistic": json.dumps({"n": n, "values": values})})
            for n in range(3, 6):
                for kind in kinds + ("mixture",):
                    law = law_of_kind(rng, kind)
                    ops.append({"method": "subspace", "n": n, "law": law, "doc": measure_doc(law)})
            return ops
        return blocks(rng, block)

    @staticmethod
    def run(lib, op):
        measure = lib.measures.parse_measure_spec(op["doc"])
        if op["method"] == "decompose":
            statistic = lib.symmetric.parse_statistic_spec(op["statistic"])
            return lib.engine.hoeffding_decomposition(statistic, measure)
        n = op["n"]
        return lib.engine.level_subspace_check(measure, n), lib.engine.degenerate_kernel_basis(measure, n)

    @staticmethod
    def check(lib, op, result):
        measure = lib.measures.parse_measure_spec(op["doc"])
        if op["method"] == "decompose":
            statistic = lib.symmetric.parse_statistic_spec(op["statistic"])
            components = result.components
            n = statistic.n
            expect(len(components) == n + 1, "wrong number of layers")
            sums = [sum((c.values[z] for c in components), Fraction(0)) for z in range(n + 1)]
            expect(sums == list(statistic.values), "layers do not sum to the statistic")
            for i in range(len(components)):
                for j in range(i + 1, len(components)):
                    expect(lib.symmetric.inner_product(components[i], components[j], measure) == 0,
                           f"layers {i} and {j} are not orthogonal")
            if is_iid(op["law"]):
                p = op["law"][1][0][0]
                for k in range(1, n + 1):
                    expect(components[k] == lib.engine.iid_projection(statistic, p, k),
                           f"layer {k} differs from the i.i.d. closed form")
            return
        n = op["n"]
        holds, basis = result
        vanish = all(
            lib.engine.decomposability_residual(measure, n, u, z) == 0
            for u in range(2, n + 1) for z in range(n)
        )
        expect(holds == vanish, f"subspace route says {holds}, residual route says {vanish}")
        if is_decomposable(op["law"]):
            expect(holds, f"{op['law'][0]} law fails the subspace route")
        expect(basis == [lib.engine.canonical_degenerate_kernel(measure, n)],
               "kernel basis is not the canonical kernel")


# -- sample: seeded Monte Carlo ----------------------------------------------


class Sample:
    name = "sample"
    block = 42
    trace_ops = 21
    exercised = ("montecarlo.compare_exact_empirical", "montecarlo.urn_histogram", "montecarlo.trial_stream")
    KINDS = ("beta", "iid", "mixture", "identity", "constant", "table")

    @staticmethod
    def generate(rng):
        sizes = range(4, 11)
        count = len(Sample.KINDS) * len(sizes)
        # the same trial counts in every block, in seeded order
        grid = [10000 + round(20000 * i / (count - 1)) for i in range(count)]

        def block(rng):
            trials = grid[:]
            rng.shuffle(trials)
            ops = []
            for kind in Sample.KINDS:
                for n in sizes:
                    op = {"kind": kind, "n": n, "trials": trials.pop(), "seed": rng.getrandbits(32)}
                    if kind in ("beta", "iid", "mixture"):
                        op["law"] = law_of_kind(rng, kind)
                        op["doc"] = measure_doc(op["law"])
                    else:
                        op["urn"] = urn_doc(rng, kind)
                    ops.append(op)
            return ops
        return blocks(rng, block)

    @staticmethod
    def run(lib, op):
        mc = lib.montecarlo
        if "doc" in op:
            return mc.compare_exact_empirical(lib.measures.parse_measure_spec(op["doc"]), op["n"], op["trials"], op["seed"])
        return mc.urn_histogram(mc.parse_urn_spec(op["urn"]), op["n"], op["trials"], op["seed"])

    @staticmethod
    def check(lib, op, result):
        n, trials = op["n"], op["trials"]
        histogram = result.zero_count_histogram
        expect(len(histogram) == n + 1 and sum(histogram) == trials, "histogram does not sum to the trials")
        if "doc" in op:
            cells = exact_cells(op["law"], n)
            expect([row.expected_probability for row in result.comparison] == cells,
                   "exact column differs from the closed form")
            check_histogram(histogram, cells, trials)
            return
        urn = json.loads(op["urn"])
        if urn["f"]["type"] == "identity":
            # a Polya urn with r ones and b zeros is exchangeable with Beta(r, b) mixing
            check_histogram(histogram, exact_cells(("beta", Fraction(urn["r"]), Fraction(urn["b"])), n), trials)
        elif urn["f"]["type"] == "constant":
            check_histogram(histogram, exact_cells(("discrete", ((Fraction(urn["f"]["value"]), 1),)), n), trials)


def urn_doc(rng, kind):
    if kind == "identity":
        f = {"type": "identity"}
    elif kind == "constant":
        f = {"type": "constant", "value": text(interior(rng))}
    else:
        knots = [Fraction(0), interior(rng, 6), Fraction(1)]
        f = {"type": "table", "points": [[text(x), text(Fraction(rng.randint(1, 9), 10))] for x in knots]}
    return json.dumps({"f": f, "r": rng.randint(1, 4), "b": rng.randint(1, 4)})


# -- cli: one process per request --------------------------------------------


class Cli:
    name = "cli"
    block = 18
    trace_ops = 36
    exercised = ("cli.dispatch", "rationals.format_rational", "measures.from_moments")

    @staticmethod
    def generate(rng):
        return blocks(rng, cli_block)

    @staticmethod
    def prepare(ops, work):
        """Write each op's documents and bind its argv to their paths."""
        for index, op in enumerate(ops):
            paths = {}
            for name, content in op["files"].items():
                path = os.path.join(work, f"{index}-{name}")
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write(content)
                paths["@" + name] = path
            op["bound"] = [paths.get(arg, arg) for arg in op["argv"]]

    @staticmethod
    def child(argv, env, root):
        return subprocess.run(
            [sys.executable, *argv], cwd=root, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, timeout=60, check=False,
        )

    @staticmethod
    def run(lib, op):
        return Cli.child(["-m", "hoeffding", *op["bound"]], lib.child_env, lib.root)

    @staticmethod
    def check(lib, op, result):
        code, out, _ = lib.cli.dispatch(list(op["bound"]))
        expect(result.returncode == op["code"], f"{op['argv'][0]} exited {result.returncode}, expected {op['code']}")
        expect(code == op["code"], f"in-process {op['argv'][0]} returned {code}, expected {op['code']}")
        expect(result.stdout == out.encode("utf-8"), f"{op['argv'][0]} stdout differs from in-process dispatch")

    # traced runs execute the same argv in-process: a child process cannot be traced

    @staticmethod
    def run_inprocess(lib, op):
        return lib.cli.dispatch(list(op["bound"]))

    @staticmethod
    def check_inprocess(lib, op, result):
        expect(result[0] == op["code"], f"{op['argv'][0]} returned {result[0]}, expected {op['code']}")


def cli_block(rng):
    ops = []

    def add(code, argv, **files):
        if rng.random() < 0.3:
            argv = argv + ["--format", "json"]
        ops.append({"code": code, "argv": argv, "files": files})

    def with_measure(code, verb, law, *rest):
        add(code, [verb, "--measure", "@measure.json", *rest], **{"measure.json": measure_doc(law)})

    def max_n(low=2):
        return str(rng.randint(low, 5))

    beta = beta_law
    with_measure(0, "moments", beta(rng), "--max-n", max_n(0))
    with_measure(0, "probabilities", atoms_law(rng, rng.randint(1, 3)), "--n", max_n(0))
    with_measure(0, "kernel", rng.choice((beta(rng), atoms_law(rng, 1))), "--n", max_n(1))
    n = rng.randint(2, 5)
    statistic = json.dumps({"n": n, "values": [text(Fraction(rng.randint(-9, 9), rng.randint(1, 9))) for _ in range(n + 1)]})
    add(0, ["project", "--measure", "@measure.json", "--statistic", "@statistic.json"],
        **{"measure.json": measure_doc(rng.choice((beta(rng), atoms_law(rng, rng.randint(1, 3))))),
           "statistic.json": statistic})
    # the three definition-route checks are the block's heaviest requests; at
    # 3 of 18 ops the p90 rank falls inside their group, not at its edge
    with_measure(0, "check", beta(rng), "--max-n", "4", "--method", "all")
    with_measure(0, "check", atoms_law(rng, 1), "--max-n", "4", "--method", "all")
    with_measure(1, "check", atoms_law(rng, 2), "--max-n", "4", "--method", "all")
    m = rng.randint(3, 5)
    with_measure(1, "check", truncated_uniform_law(rng, rng.randint(2 * m - 1, 3 * m)), "--max-n", str(m),
                 "--method", rng.choice(("prop1", "weakindep", "definition")))
    with_measure(2, "check", beta(rng), "--max-n", "1")
    with_measure(0, "classify", rng.choice((beta(rng), atoms_law(rng, 1))), "--max-n", max_n(3))
    m = rng.randint(3, 5)
    with_measure(1, "classify", rng.choice((atoms_law(rng, 2), truncated_uniform_law(rng, rng.randint(2 * m - 1, 3 * m)))),
                 "--max-n", str(m))
    _, a, b = beta(rng)
    c1, c2 = a / (a + b), a * (a + 1) / ((a + b) * (a + b + 1))
    add(0, ["recover-beta", "--c1", text(c1), "--c2", text(c2)])
    add(2, ["recover-beta", "--c1", text(c1), "--c2", text(c1 * c1)])
    with_measure(0, "recursion", rng.choice((beta(rng), atoms_law(rng, 1))), "--max-n", max_n())
    with_measure(1, "recursion", truncated_uniform_law(rng, 6), "--max-n", max_n())
    sim = ["--n", max_n(1), "--trials", str(rng.randint(1000, 2000)), "--seed", str(rng.getrandbits(32))]
    with_measure(0, "simulate", rng.choice((beta(rng), atoms_law(rng, rng.randint(1, 3)))), *sim)
    add(0, ["simulate", "--urn", "@urn.json", "--n", max_n(1), "--trials", str(rng.randint(1000, 2000)),
            "--seed", str(rng.getrandbits(32))], **{"urn.json": urn_doc(rng, rng.choice(("identity", "constant", "table")))})
    add(2, ["moments", "--measure", "@measure.json", "--max-n", max_n()],
        **{"measure.json": json.dumps({"type": "beta", "alpha": "0", "beta": text(interior(rng))})})
    return ops


WORKLOADS = {w.name: w for w in (Scan, Project, Cli, Sample)}
