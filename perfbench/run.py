"""Benchmark of the gradua engine on seeded homogeneity structures.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; gradua is imported from its `src`. The
load is one process, one thread and a closed loop: each operation starts
when the previous one returns. A run does a fixed amount of work, whole
passes over a seeded list of operations, with the number of passes set by
--seconds and the workload's nominal pass time (never by the clock), so
every run attempts the same operations. Every output is checked against
the benchmark's own construction (checks.py); the timed region holds only
the engine call.

Times are reported at the reference host speed: a fixed pure-Fraction
probe is timed before every op (and once after the last), and each op's
time is divided by the mean of the probes on either side of it over
PROBE_REFERENCE_MS. See README.md for why.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics (the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1). Raw times, probes, spans and counts go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import checks
import gen
import progs
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOADS = ("corpus", "deep", "programs")
OPS_PER_PASS = 100
# seconds one pass takes on the reference host with an idle core
NOMINAL_PASS_S = {"corpus": 1.1, "deep": 5.0, "programs": 5.5}
MIN_PASSES = 3
SETUP_PROBES = 9
AROUND_PROBES = 40  # probes before and after each timed process
PROCESS_ROUNDS = 7
PROBE_ITERATIONS = 200
PROBE_REFERENCE_MS = 1.0  # the probe's time on the reference host with an idle core
SPAN_OPS_KEPT = 10

CORPUS_SHAPES = [  # (weight-0, weight-1, weight-2, weight-3 counts): ranks up to (3, 2, 1)
    (0, 1, 1), (0, 2, 1), (1, 1, 1), (0, 3, 2, 1), (1, 2, 0, 1),
    (2, 1, 1), (0, 1, 1, 1), (1, 3, 2, 1), (0, 2, 2), (1, 1, 2),
]
CORPUS_DEGREES = (2, 1, 2)
DEEP_SHAPE = (0, 1, 1, 1, 1, 1, 1)
DEEP_DEGREES = (2, 1, 2, 1)


# --- inputs and operations --------------------------------------------------


@dataclass
class Op:
    """One engine call on a generated input, and the check of its output."""

    run: object
    check: object


def _family(structure):
    from gradua import ActionFamily, GradedChart, WPolynomial

    chart = GradedChart("C", tuple(zip(structure.names, structure.weights)))
    ext = chart.extend((("t", 0),))
    entries = {
        v: WPolynomial(ext, {tuple((i, e) for i, e in enumerate(m) if e): c for m, c in p.items()})
        for v, p in zip(structure.names, structure.entries)
    }
    family = ActionFamily(chart, "t", entries)
    theta = dict(zip(structure.names, structure.theta)) if structure.theta else None
    return family, theta


def _analysis_op(structure, index: int) -> Op:
    from gradua.action import analyze

    family, theta = _family(structure)

    def check(report):
        checks.check_analysis(structure, checks.analysis_entry(report), random.Random(index))

    return Op(lambda: analyze(family, theta), check)


def _program_ops(program, index: int) -> list[Op]:
    """Two ops: the program through `gradua run` with a JSON report, then a text one."""
    from gradua import cli

    def run_cli(fmt: str):
        stdin, sink = sys.stdin, io.StringIO()
        sys.stdin = io.StringIO(program.source)
        try:
            with redirect_stdout(sink):
                code = cli.main(["run", "-", "--format", fmt])
        finally:
            sys.stdin = stdin
        return code, sink.getvalue()

    def check_json(result):
        code, report = result
        checks.check_program(program, json.loads(report), code, random.Random(index))

    def check_text(result):
        code, text = result
        checks.check_text(program, text, code)

    return [Op(lambda: run_cli("json"), check_json), Op(lambda: run_cli("text"), check_text)]


def build_ops(workload: str, seed: int) -> list[Op]:
    rng = random.Random(f"{workload}:{seed}")
    ops: list[Op] = []
    for i in range(OPS_PER_PASS if workload != "programs" else OPS_PER_PASS // 2):
        if workload == "corpus":
            # each shape appears ten times: twice broken, four times shifted
            shape, k = CORPUS_SHAPES[i % len(CORPUS_SHAPES)], i // len(CORPUS_SHAPES) % 5
            s = gen.build_structure(rng, shape, CORPUS_DEGREES, shifted=k in (1, 3),
                                    broken=k == 4)
            ops.append(_analysis_op(s, i))
        elif workload == "deep":
            s = gen.build_structure(rng, DEEP_SHAPE, DEEP_DEGREES, shifted=i % 2 == 1,
                                    broken=False)
            ops.append(_analysis_op(s, i))
        else:
            ops.extend(_program_ops(progs.build(rng, i), i))
    return ops


def passes_for(workload: str, seconds: int) -> int:
    return max(MIN_PASSES, round(seconds / NOMINAL_PASS_S[workload]))


# --- host speed ------------------------------------------------------------------


def probe_ms() -> float:
    """A fixed pure-Fraction kernel, timed to read how fast the host is right now."""
    started = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, PROBE_ITERATIONS + 1):
        acc += Fraction(i % 7 + 1, i % 11 + 2) * Fraction(3, i % 5 + 1)
    return (time.perf_counter() - started) * 1000


def slowdown(probes: list[float]) -> float:
    """How much slower than the reference host the probes ran, on average."""
    return statistics.mean(probes) / PROBE_REFERENCE_MS


def at_reference_speed(fn) -> float:
    """Seconds fn takes, divided by the slowdown read by probes just before and after."""
    before = [probe_ms() for _ in range(AROUND_PROBES)]
    started = time.perf_counter()
    fn()
    elapsed = time.perf_counter() - started
    after = [probe_ms() for _ in range(AROUND_PROBES)]
    return elapsed / slowdown(before + after)


# --- measurement ----------------------------------------------------------------


@dataclass
class Passes:
    latencies: list[list[float | None]] = field(default_factory=list)  # raw ms, None if raised
    probes: list[list[float]] = field(default_factory=list)  # raw ms: before each op, then one more
    failed: int = 0    # ops that raised
    wrong: int = 0     # outputs that failed their check
    layer: dict | None = None

    def normalized(self) -> list[list[float | None]]:
        """Op times at the reference host speed: each over the probes on either side of it."""
        return [[None if t is None else t / slowdown(probes[i:i + 2]) for i, t in enumerate(times)]
                for times, probes in zip(self.latencies, self.probes)]


def run_passes(ops: list[Op], passes: int, tracer=None, traced_passes=()) -> Passes:
    """Time every op in every pass; check each output outside the timed region."""
    out = Passes()
    if tracer is not None:
        out.layer = {"self_ns": {}, "calls": {}, "op_ns": [], "spans": [],
                     "untraced": [], "traced": []}
    for p in range(passes):
        traced = p in traced_passes
        times: list[float | None] = []
        probes: list[float] = []
        op_selfs: dict[int, dict[str, int]] = {}
        for i, op in enumerate(ops):
            probes.append(probe_ms())
            started = time.perf_counter_ns()
            try:
                if traced:
                    result, op_spans = tracer.run_op(op.run)
                else:
                    result = op.run()
            except Exception as exc:  # an engine error is a failed op; keep measuring
                out.failed += 1
                times.append(None)
                print(f"op {i} pass {p} raised {exc!r}", file=sys.stderr)
                continue
            times.append((time.perf_counter_ns() - started) / 1e6)
            try:
                if traced:
                    keep = p == traced_passes[0] and i < SPAN_OPS_KEPT
                    op_selfs[i] = _fold(out.layer, op_spans, keep, i)
                op.check(result)
            except AssertionError as exc:
                out.wrong += 1
                print(f"op {i} pass {p}: {exc}", file=sys.stderr)
        probes.append(probe_ms())
        out.latencies.append(times)
        out.probes.append(probes)
        if out.layer is not None:
            normalized = out.normalized()[-1]
            out.layer["traced" if traced else "untraced"].append(
                sum(t for t in normalized if t is not None))
            for i, selfs in op_selfs.items():
                s = slowdown(probes[i:i + 2])
                for name, ns in selfs.items():
                    out.layer["self_ns"][name] = out.layer["self_ns"].get(name, 0) + ns / s
    return out


def _fold(layer, op_spans, keep: bool, op: int) -> dict[str, int]:
    """Check that self times add up, count calls, keep spans; return self ns by name."""
    selfs = spans.self_times(op_spans)
    root_ns = op_spans[0][3] - op_spans[0][2]
    total_self = sum(ns for _, ns in selfs.values())
    if total_self != root_ns:
        raise AssertionError(f"self times sum to {total_self} ns, op span is {root_ns} ns")
    layer["op_ns"].append(root_ns)
    for name, (calls, _) in selfs.items():
        layer["calls"][name] = layer["calls"].get(name, 0) + calls
    if keep:
        layer["spans"].extend([op, i, *span] for i, span in enumerate(op_spans))
    return {name: ns for name, (_, ns) in selfs.items()}


def setup_probe_seconds(args) -> float:
    """Time from starting a fresh interpreter to its first timed op."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
    lines = []

    def start_child():
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT) as child:
            lines.append(child.stdout.readline())
            child.stdout.read()
            if child.wait(timeout=120) != 0:
                raise RuntimeError(f"set-up probe exited with {child.returncode}")

    seconds = at_reference_speed(start_child)
    if lines[0].strip() != b"ready":
        raise RuntimeError(f"set-up probe said {lines[0]!r}")
    return seconds


def process_split(program_source: str) -> dict[str, float]:
    """Bare interpreter, + import of gradua, + `python -m gradua run` on one program."""
    path = OUT / "process-probe.gradua"
    path.write_text(program_source, encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    commands = {
        "python": [sys.executable, "-c", "pass"],
        "import": [sys.executable, "-c", "import gradua.cli"],
        "run": [sys.executable, "-m", "gradua", "run", str(path)],
    }
    rounds: dict[str, list[float]] = {key: [] for key in commands}
    for _ in range(PROCESS_ROUNDS):  # interleaved, so host drift hits the three alike
        for key, cmd in commands.items():
            seconds = at_reference_speed(lambda: subprocess.run(
                cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL, timeout=60))
            rounds[key].append(seconds * 1000)
    path.unlink()

    def step(later: str, earlier: str) -> float:
        return statistics.median(a - b for a, b in zip(rounds[later], rounds[earlier]))

    return {
        "process.python_ms": statistics.median(rounds["python"]),
        "process.import_ms": step("import", "python"),
        "process.run_ms": step("run", "import"),
    }


# --- reports ----------------------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def latency_figures(latencies) -> dict[str, float]:
    """Median over passes of the pass throughput; per op, median over passes."""
    per_pass = [len(done) / (sum(done) / 1000)
                for done in ([t for t in times if t is not None] for times in latencies) if done]
    per_op = [statistics.median(done) for done in
              ([t for t in samples if t is not None] for samples in zip(*latencies)) if done]
    return {
        "ops_per_s": statistics.median(per_pass),
        "latency_p50_ms": statistics.median(per_op),
        "latency_p90_ms": percentile(per_op, 0.9),
    }


def end_to_end(figures: dict[str, float], setup_s: float) -> dict:
    units = {"ops_per_s": "1/s", "latency_p50_ms": "ms", "latency_p90_ms": "ms"}
    metrics = {"setup_s": {"value": setup_s, "unit": "s"}}
    metrics.update({k: {"value": v, "unit": units[k]} for k, v in figures.items()})
    metrics["peak_rss_mb"] = {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                              "unit": "MB"}
    return metrics


LAYER_TIMES = [
    "linalg.mat_mul", "linalg.inverse", "linalg.independent_columns",
    "wpoly.mul", "wpoly.substitute", "wpoly.pow", "wpoly.differentiate", "wpoly.coefficients_in",
    "action.verify_laws", "action.taylor_projections", "action.homogenize", "action.invert",
    "graded.then", "graded.is_graded_morphism",
    "jets.prolong", "jets.prolong_action",
    "multigrade.check_commuting", "multigrade.bihomogenize", "multigrade.total_action",
    "dsl.parse", "cli.run", "cli.emit",
]
LAYER_CALLS = ["linalg.mat_mul", "wpoly.mul", "wpoly.substitute", "graded.at"]
LAYER_COUNTS = ["linalg.mat_mul.scalar_mults", "linalg.mat_mul.zero_operand_calls",
                "wpoly.mul.term_pairs", "dsl.tokens", "cli.emit.bytes"]


def per_layer(run: Passes, tracer, split: dict[str, float]) -> dict:
    layer = run.layer
    ops = len(layer["op_ns"])
    metrics = {}
    for name in LAYER_TIMES:
        metrics[f"{name}.self_ms"] = (layer["self_ns"].get(name, 0) / ops / 1e6, "ms")
    for name in LAYER_CALLS:
        metrics[f"{name}.calls"] = (layer["calls"].get(name, 0) / ops, "count")
    for name in LAYER_COUNTS:
        metrics[name] = (tracer.counts.get(name, 0) / ops, "count")
    inverts = layer["calls"].get("action.invert", 0)
    attempts = layer["calls"].get("action.invert.attempt", 0)
    metrics["action.invert.attempts"] = (attempts / inverts if inverts else 0.0, "count")
    metrics["wpoly.peak_terms"] = (tracer.peaks["wpoly.peak_terms"], "count")
    metrics["wpoly.max_coeff_bits"] = (tracer.peaks["wpoly.max_coeff_bits"], "bits")
    for name, value in split.items():
        metrics[name] = (value, "ms")
    metrics["host.ref_ms"] = (statistics.mean(x for p in run.probes for x in p), "ms")
    untraced = statistics.median(layer["untraced"])
    traced = statistics.median(layer["traced"])
    metrics["trace.overhead_pct"] = (100 * (traced / untraced - 1), "%")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="stop just before the first timed op (used to time set-up)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "gradua" / "__init__.py").is_file():
        print(f"no gradua sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import gradua.cli  # noqa: F401  (the import is part of set-up)

    ops = build_ops(args.workload, args.seed)
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    passes = passes_for(args.workload, args.seconds)
    tracer = None
    traced_passes: tuple[int, ...] = ()
    if args.trace:
        tracer = spans.Tracer()
        spans.install(tracer)
        traced_passes = tuple(range(1, passes, 2))  # alternate untraced and traced passes
    run = run_passes(ops, passes, tracer, traced_passes)
    raw = latency_figures(run.latencies)

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    extra = {}
    if args.trace:
        program = progs.build(random.Random(f"programs:{args.seed}"), 0).source
        metrics = per_layer(run, tracer, process_split(program))
        with open(f"{stem}.spans.jsonl", "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"columns": ["op", "id", "name", "parent", "start_ns", "end_ns"]}) + "\n")
            for span in run.layer["spans"]:
                fh.write(json.dumps(span) + "\n")
            fh.write(json.dumps({"counts": dict(tracer.counts), "peaks": dict(tracer.peaks),
                                 "calls": run.layer["calls"],
                                 "self_ns_at_reference_speed": run.layer["self_ns"]}) + "\n")
    else:
        setup = [setup_probe_seconds(args) for _ in range(SETUP_PROBES)]
        metrics = end_to_end(latency_figures(run.normalized()), statistics.median(setup))
        extra = {"raw": raw, "setup_s_samples": setup}
        slow = [slowdown(p) for p in run.probes]
        print(f"raw {json.dumps(raw)}; slowdown per pass {[round(s, 3) for s in slow]}",
              file=sys.stderr)
    result = {"correct": run.wrong == 0, "attempted": passes * len(ops), "failed": run.failed,
              "metrics": metrics}
    with open(f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"passes": passes, "ops_per_pass": len(ops), "latencies_ms": run.latencies,
                   "probes_ms": run.probes, **extra, **result}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
