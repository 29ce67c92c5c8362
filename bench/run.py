"""Benchmark of the hoeffding library and CLI.

    python3 bench/run.py --workload scan --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``. One process drives a closed loop with a single client: the next op
starts only after the previous one and its check have finished, and at most
one child process (the ``cli`` workload's request) runs at a time.

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` runs a fixed prefix of the op list twice, first untraced and
then with every public library function wrapped (see ``tracer.py``), and
reports per-layer metrics plus the tracing overhead. The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``; a readable summary goes to standard error.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import random
import resource
import statistics
import sys
import tempfile
import time
import types
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS, Cli, result_bits  # noqa: E402

SETUP_REPS = 7
MIN_OPS = 100  # leaves at least ten latency samples beyond p90
HARD_STOP_S = 150.0
CHILD_REPS = 7

# (module.function) whose calls and self time are reported per layer
REPORTED = (
    "measures.from_moments", "measures.config_probability", "measures.moment",
    "measures.is_nondeterministic", "measures.conditional_zero_count",
    "symmetric.cond_expectation_overlap", "symmetric.symmetrize", "symmetric.inner_product",
    "symmetric.lift_ustatistic", "symmetric.cond_expectation_prefix",
    "engine.check_decomposable", "engine.decomposability_residual",
    "engine.canonical_degenerate_kernel", "engine.hoeffding_decomposition",
    "engine.ustatistic_basis", "engine.level_subspace_check",
    "linalg.rank", "linalg.solve", "linalg.nullspace",
    "dynamics.classify", "dynamics.recover_beta",
    "montecarlo.compare_exact_empirical", "montecarlo.urn_histogram", "montecarlo.trial_stream",
    "rationals.format_rational",
)

clock = time.perf_counter


def metric(value, unit):
    return {"value": value, "unit": unit}


def load_library(root: Path):
    """Import the package afresh from ``src`` (every set-up pays the import)."""
    for name in [n for n in sys.modules if n == "hoeffding" or n.startswith("hoeffding.")]:
        del sys.modules[name]
    lib = types.SimpleNamespace(package=importlib.import_module("hoeffding"), root=str(root))
    for layer in LAYERS:
        setattr(lib, layer, importlib.import_module(f"hoeffding.{layer}"))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    lib.child_env = env
    return lib


def set_up(workload, seed, root, work):
    lib = load_library(root)
    ops = workload.generate(random.Random(seed))
    if workload is Cli:
        Cli.prepare(ops, work)
        # the first request after import pays for cold files; users pay it once
        Cli.child(["-m", "hoeffding", "recover-beta", "--c1", "1/2", "--c2", "3/10"], lib.child_env, lib.root)
    return lib, ops


def measured_loop(workload, lib, ops, seconds, errors):
    """Closed loop until ``seconds`` have passed, MIN_OPS ops are done and
    the last block is complete (every run then holds whole blocks)."""
    latencies, failed = [], 0
    start = clock()
    index = 0
    while True:
        elapsed = clock() - start
        if elapsed >= HARD_STOP_S or (
            elapsed >= seconds and len(latencies) >= MIN_OPS and index % workload.block == 0
        ):
            break
        op = ops[index % len(ops)]
        index += 1
        began = clock()
        try:
            result = workload.run(lib, op)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            latencies.append(clock() - began)
            failed += 1
            errors.append(f"op {index - 1} raised {exc!r}")
            continue
        latencies.append(clock() - began)
        try:
            workload.check(lib, op, result)
        except Exception as exc:
            failed += 1
            errors.append(f"op {index - 1}: {exc}")
    return latencies, failed


def traced_phase(run, check, lib, ops, tracer, errors):
    """Run ``ops`` once; returns per-op seconds, result digests, max result bits."""
    times, digests, bits, failed = [], [], 0, 0
    for index, op in enumerate(ops):
        tracer.begin_op()
        began = clock()
        try:
            result = run(lib, op)
        except Exception as exc:
            tracer.end_op()
            times.append(clock() - began)
            failed += 1
            errors.append(f"traced op {index} raised {exc!r}")
            digests.append(None)
            continue
        times.append(clock() - began)
        tracer.end_op()
        try:
            check(lib, op, result)
        except Exception as exc:
            failed += 1
            errors.append(f"traced op {index}: {exc}")
        digests.append(repr(result))
        bits = max(bits, result_bits(result))
    return times, digests, bits, failed


def child_seconds(code, lib):
    times = []
    for _ in range(CHILD_REPS):
        began = clock()
        Cli.child(["-c", code], lib.child_env, lib.root)
        times.append(clock() - began)
    return statistics.median(times)


def traced_run(workload, lib, ops, errors, checks):
    if workload is Cli:
        run, check = Cli.run_inprocess, Cli.check_inprocess
    else:
        run, check = workload.run, workload.check
    ops = ops[: workload.trace_ops]
    tracer = Tracer(lib.package)
    tracer.install_counters()
    plain_times, plain_digests, plain_bits, failed = traced_phase(run, check, lib, ops, tracer, errors)
    plain_counts = Counter(tracer.counts)
    tracer.counts.clear()
    installed = set(tracer.install_timers())
    times, digests, bits, failed_traced = traced_phase(run, check, lib, ops, tracer, errors)
    failed += failed_traced

    if digests != plain_digests:
        checks.append("traced and untraced phases returned different results")
    if tracer.counts != plain_counts or bits != plain_bits:
        checks.append(f"work counts do not repeat: {dict(plain_counts)}/{plain_bits} vs {dict(tracer.counts)}/{bits}")

    per_function = tracer.per_function()
    absent = [name for name in REPORTED if name not in installed]
    for name in workload.exercised:
        if name in installed and per_function.get(name, [0])[0] == 0:
            checks.append(f"{name} was never called on {workload.name}; is its wrapper installed?")

    metrics = {}
    for name in REPORTED:
        calls, _, self_s = per_function.get(name, (0, 0.0, 0.0))
        metrics[f"{name}.calls"] = metric(calls, "count")
        metrics[f"{name}.self_s"] = metric(self_s, "s")
    config_calls = per_function.get("measures.config_probability", (0,))[0]
    metrics["measures.config_probability.distinct"] = metric(tracer.distinct_configs, "count")
    metrics["measures.config_probability.hit_ratio"] = metric(
        1 - tracer.distinct_configs / config_calls if config_calls else 0.0, "ratio")
    sampling_s = sum(per_function.get(name, (0, 0.0))[1]
                     for name in ("montecarlo.compare_exact_empirical", "montecarlo.urn_histogram"))
    trials = tracer.counts["montecarlo.trials"]
    metrics["montecarlo.trials"] = metric(trials, "count")
    metrics["montecarlo.trials_per_s"] = metric(trials / sampling_s if sampling_s else 0.0, "1/s")
    if workload is Cli:
        interpreter = child_seconds("pass", lib)
        metrics["cli.interpreter_s"] = metric(interpreter, "s")
        metrics["cli.import_s"] = metric(child_seconds("import hoeffding.cli", lib) - interpreter, "s")
        metrics["cli.dispatch_s"] = metric(statistics.median(plain_times), "s")
    else:
        for name in ("interpreter_s", "import_s", "dispatch_s"):
            metrics[f"cli.{name}"] = metric(0.0, "s")
    metrics["engine.triples"] = metric(tracer.counts["engine.triples"], "count")
    metrics["engine.layers"] = metric(tracer.counts["engine.layers"], "count")
    metrics["rationals.result_bits_max"] = metric(bits, "bits")
    traced_s = sum(times)
    for layer in LAYERS:
        layer_self = sum(v[2] for k, v in per_function.items() if k.split(".", 1)[0] == layer)
        metrics[f"{layer}.self_share"] = metric(layer_self / traced_s, "ratio")
    metrics["trace.overhead_ratio"] = metric(traced_s / sum(plain_times), "ratio")

    summary = [f"traced {len(ops)} ops: {sum(plain_times):.3f} s untraced, {traced_s:.3f} s traced"]
    if absent:
        summary.append("absent: " + ", ".join(absent))
    summary.append("top (parent -> function) by self time:")
    for parent, name, calls, self_s in tracer.top_edges(12):
        summary.append(f"  {parent} -> {name}: {calls} calls, {self_s:.3f} s")
    summary.append("self share: " + ", ".join(f"{l}={metrics[f'{l}.self_share']['value']:.3f}" for l in LAYERS))
    return metrics, 2 * len(ops), failed, summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "hoeffding" / "__init__.py").is_file():
        print(f"error: no hoeffding sources under {root / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    workload = WORKLOADS[args.workload]
    errors, checks = [], []

    with tempfile.TemporaryDirectory(prefix=".bench_tmp-", dir=root) as work:
        setup_times, generated = [], []
        for _ in range(SETUP_REPS):
            began = clock()
            lib, ops = set_up(workload, args.seed, root, work)
            setup_times.append(clock() - began)
            generated.append(ops)
        if any(ops != generated[0] for ops in generated):
            checks.append("input generation is not a pure function of the seed")

        if args.trace:
            metrics, attempted, failed, summary = traced_run(workload, lib, ops, errors, checks)
        else:
            latencies, failed = measured_loop(workload, lib, ops, args.seconds, errors)
            attempted = len(latencies)
            who = resource.RUSAGE_CHILDREN if workload is Cli else resource.RUSAGE_SELF
            metrics = {
                "setup_s": metric(statistics.median(setup_times), "s"),
                "ops_per_s": metric(attempted / sum(latencies), "1/s"),
                "latency_p50_ms": metric(1000 * statistics.median(latencies), "ms"),
                "latency_p90_ms": metric(1000 * statistics.quantiles(latencies, n=10)[8], "ms"),
                "peak_rss_mb": metric(resource.getrusage(who).ru_maxrss / 1024, "MB"),
            }
            summary = [
                f"{workload.name} seed={args.seed}: {attempted} ops, failed_ratio={failed / attempted:.4f}, "
                + ", ".join(f"{k}={v['value']:.4g}" for k, v in metrics.items())
            ]

    for line in summary + errors[:20] + checks:
        print(line, file=sys.stderr)
    correct = failed == 0 and not checks
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
