"""softcc's benchmark: time to a verdict on three workloads, checked.

    python3 bench/run.py --workload network|genprog|deep_tell \\
        [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a checkout; it imports softcc from ``src/``.  It
prints a readable report and, as its last line, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: with
``--trace 0`` the end-to-end metrics ``setup_s``, ``verdict_s``,
``verdict_p50_ms`` and ``peak_rss_mb``, with ``--trace 1`` the per-layer
ones of tracing.py and the tracing overhead.  README.md defines each
metric, workload and check.  The exit code is 0 when every operation
passed its checks, 1 when one failed, 2 when softcc cannot be found.
"""

import argparse
import gc
import json
import pathlib
import random
import resource
import statistics
import subprocess
import sys
from collections import defaultdict
from time import perf_counter

import workloads

HERE = pathlib.Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_PROCESSES = 10
OP_METRIC = {"observe": "observe", "solve_bb": "bb", "run_one": "run"}


def parse_args(argv):
    p = argparse.ArgumentParser(description="softcc benchmark")
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=0, help="orders the inputs within a pass")
    p.add_argument("--seconds", type=float, default=30.0, help="time to spend on passes")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--program-seed", type=int, default=7, help="genprog: generator seed")
    p.add_argument("--programs", type=int, default=200, help="genprog: program count")
    p.add_argument("--steps", type=int, default=160, help="deep_tell: step limit")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def measure_setup(args):
    """Median wall time of fresh processes that only set the workload up."""
    cmd = [
        sys.executable, str(HERE / "run.py"), "--setup-only",
        "--workload", args.workload, "--program-seed", str(args.program_seed),
        "--programs", str(args.programs), "--steps", str(args.steps),
    ]  # fmt: skip
    times = []
    for _ in range(SETUP_PROCESSES):
        start = perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        times.append(perf_counter() - start)
    return statistics.median(times)


class Bench:
    """Timed passes over one workload, with their checks and tallies."""

    def __init__(self, api, workload, cfg, seed):
        self.api = api
        self.workload = workload
        self.cfg = cfg
        self.texts = workload.texts(cfg)
        self.order = list(range(len(self.texts)))
        random.Random(seed).shuffle(self.order)
        self.passes = 0
        self.latency = defaultdict(list)  # (input, op) -> seconds, one per pass
        self.first = {}  # input -> {op: (counts, result)} of the first pass
        self.failed = set()  # (pass, input, op)
        self.attempted = 0
        self.problems = []

    def one_pass(self, tracer=None):
        """Run every operation on every input once; return the timed total."""
        api, ops, cfg = self.api, self.workload.ops, self.cfg
        call = workloads.run_op if tracer is None else tracer.wrap("op", workloads.run_op)
        programs = {}
        if tracer:
            tracer.enabled = True
        for i in self.order:
            for op in ops:
                programs[i, op] = api.parse_program(self.texts[i][1])
        if tracer:
            tracer.enabled = False
        gc.collect()
        outs, took = {}, 0.0
        if tracer:
            tracer.enabled = True
        for i in self.order:
            for op in ops:
                start = perf_counter()
                try:
                    out = call(api, op, programs[i, op], cfg)
                except Exception as e:  # a failed operation, reported below
                    out = e
                t = perf_counter() - start
                outs[i, op] = out
                took += t
                self.latency[i, op].append(t)
        if tracer:
            tracer.enabled = False
        n = self.passes
        self.passes += 1
        self.attempted += len(outs)
        for i in self.order:
            self._check_input(n, i, {op: outs[i, op] for op in ops}, programs[i, ops[0]])
        return took

    def _fail(self, n, i, ops, why):
        self.failed.update((n, i, op) for op in ops)
        self.problems.append(f"pass {n} input {self.texts[i][0]}: {why}")

    def _check_input(self, n, i, outs, program):
        api, name = self.api, self.workload.name
        raised = [op for op, out in outs.items() if isinstance(out, Exception)]
        for op in raised:
            self._fail(n, i, [op], f"{op} raised {outs[op]!r}")
        if raised:
            return
        summaries = {op: workloads.summarize(op, out) for op, out in outs.items()}
        for why in workloads.check_pass(api, name, self.cfg, program, summaries):
            self._fail(n, i, list(outs), why)
        first = self.first.setdefault(i, summaries)
        for op, (counts, result) in summaries.items():
            if counts != first[op][0] or not workloads.same_result(api, result, first[op][1]):
                self._fail(n, i, [op], f"{op} output differs from the first pass")

    def check_references(self):
        """Compare the first pass with independent definitions."""
        for i, summaries in self.first.items():
            program = self.api.parse_program(self.texts[i][1])
            for why in workloads.check_reference(self.api, self.workload.name, program, summaries):
                for n in range(self.passes):
                    self._fail(n, i, list(summaries), why)

    def totals(self):
        """Behaviour counts of the first pass, summed over inputs."""
        out = defaultdict(int)
        for summaries in self.first.values():
            for counts, _ in summaries.values():
                for k, v in counts.items():
                    out[k] += v
        return dict(sorted(out.items()))

    def check_recorded(self, recorded):
        totals = self.totals()
        if recorded is not None and totals != recorded:
            self.problems.append(f"behaviour counts {totals} differ from recorded {recorded}")
            for n in range(self.passes):
                for i in self.order:
                    self.failed.update((n, i, op) for op in self.workload.ops)

    # -- summaries ------------------------------------------------------

    def samples(self, ops):
        """Latency of each input in each pass, summed over the given ops."""
        return [
            sum(self.latency[i, op][n] for op in ops) for i in self.order for n in range(self.passes)
        ]

    def total(self, ops):
        """Sum over inputs of each input's median latency over passes."""
        return sum(
            statistics.median(sum(self.latency[i, op][n] for op in ops) for n in range(self.passes))
            for i in self.order
        )


def load_recorded(cfg_key):
    doc = json.loads((HERE / "baseline.json").read_text())
    return doc["counts"].get(cfg_key)


def run_traced(bench, seconds):
    """Alternate untraced and traced passes; return the tracer and the
    timed totals of each kind."""
    import tracing

    tracer = tracing.Tracer()
    untraced, traced = [], []
    start = perf_counter()
    while not traced or perf_counter() - start < seconds:
        untraced.append(bench.one_pass())
        tracer.install()
        try:
            traced.append(bench.one_pass(tracer))
        finally:
            tracer.uninstall()
    return tracer, untraced, traced


def trace_report(args, tracer, untraced, traced):
    metrics = tracer.layer_metrics(len(traced))
    traced_s, untraced_s = statistics.median(traced), statistics.median(untraced)
    # passes of a pair ran back to back, so a slow spell of the machine
    # mostly hits both
    overhead_s = statistics.median(t - u for t, u in zip(traced, untraced))
    metrics["trace.untraced_pass_s"] = (untraced_s, "s")
    metrics["trace.traced_pass_s"] = (traced_s, "s")
    metrics["trace.overhead_s"] = (overhead_s, "s")
    pairs = ", ".join(f"{u:.3f}/{t:.3f}" for u, t in zip(untraced, traced))
    print(
        f"tracing overhead {overhead_s:.4f} s per pass ({overhead_s / untraced_s:+.1%}), the median"
        f" over {len(traced)} untraced/traced pairs of passes: {pairs} s"
    )
    shares = ", ".join(f"{name} {share:.1%}" for share, name in tracer.self_shares()[:6])
    print(f"largest self-time shares: {shares}")
    path = pathlib.Path(".bench_trace") / f"{args.workload}-seed{args.seed}.json"
    tracer.write(path, {"workload": args.workload, "seed": args.seed, "traced_passes": len(traced)})
    print(f"spans written to {path} ({len(tracer.spans)} kept, {tracer.dropped} dropped)")
    return metrics


def timing_report(bench, setup_s, peak_rss_mb):
    ops = bench.workload.ops
    for op in ops:
        name, xs = OP_METRIC[op], bench.samples([op])
        # a percentile is shown only with at least ten samples beyond it
        p90 = ""
        if len(xs) >= 100:
            p90 = f"{name}_p90_ms {1000 * statistics.quantiles(xs, n=10, method='inclusive')[-1]:.3f} ms"
        print(
            f"{name}_s {bench.total([op]):.4f} s  {name}_p50_ms {1000 * statistics.median(xs):.3f} ms"
            f"  {p90}  ({len(xs)} samples: {len(bench.order)} inputs x {bench.passes} passes)"
        )
    return {
        "setup_s": (setup_s, "s"),
        "verdict_s": (bench.total(ops), "s"),
        "verdict_p50_ms": (1000 * statistics.median(bench.samples(ops)), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "softcc" / "__init__.py").is_file():
        print(f"softcc sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import softcc

    workload = workloads.WORKLOADS[args.workload]
    cfg = workloads.Config(args.program_seed, args.programs, args.steps)
    if args.setup_only:
        for _, text in workload.texts(cfg):
            softcc.parse_program(text)
        return 0

    setup_s = None if args.trace else measure_setup(args)
    bench = Bench(softcc, workload, cfg, args.seed)
    if args.trace:
        tracer, untraced, traced = run_traced(bench, args.seconds)
    else:
        start = perf_counter()
        while bench.passes == 0 or perf_counter() - start < args.seconds:
            bench.one_pass()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    bench.check_references()
    recorded = load_recorded(cfg.key(args.workload))
    bench.check_recorded(recorded)

    print(f"workload {args.workload}  seed {args.seed}  inputs {len(bench.order)}  passes {bench.passes}")
    if args.workload == "genprog":
        print(f"program seed {cfg.program_seed}  programs {cfg.programs}")
    if args.workload == "deep_tell":
        print(f"step limit {cfg.steps}")
    print(f"behaviour counts per pass: {json.dumps(bench.totals())}")
    if recorded is None:
        print(f"no counts recorded for {cfg.key(args.workload)} in baseline.json; not compared")
    for line in bench.problems[:20]:
        print(f"FAILED {line}")
    if args.trace:
        metrics = trace_report(args, tracer, untraced, traced)
    else:
        metrics = timing_report(bench, setup_s, peak_rss_mb)
        print(f"setup_s from {SETUP_PROCESSES} fresh processes")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    attempted, failed = bench.attempted, len(bench.failed)
    print(f"error_rate {failed / attempted:.4g} ratio ({failed} of {attempted} operations)")

    result = {
        "correct": failed == 0 and not bench.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
