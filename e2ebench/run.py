"""End-to-end, layer-by-layer benchmark of the ``repro`` program.

Run from the checkout root::

    python3 e2ebench/run.py --workload cold-compare --seed 1 --seconds 8 --trace 0

``--trace 0`` runs the workload untraced and prints the end-to-end
metrics; ``--trace 1`` runs it once untraced and once traced and prints
the per-layer metrics plus ``obs.trace_overhead``. Either way the last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the names of failed operations and the
traced self-time table go to stderr.

A run measures whole rounds of its workload's fixed work until
``--seconds`` have passed (at least one round). ``--size tiny`` shrinks
every workload for the benchmark's own tests. Scratch files go under
``.bench_build/e2ebench`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("cold-compare", "rescore", "served")


class Context:
    """What a workload needs from the harness."""

    def __init__(self, seed, size, work):
        self.seed = seed
        self.size = size
        self.work = work
        self.src = os.path.join(ROOT, "src")

    def env(self, trace_dir=None):
        """Environment for a program process: the checkout's sources,
        no inherited ``REPRO_*`` knobs, scratch files in the work
        directory."""
        env = {k: v for k, v in os.environ.items()
               if not k.startswith(("REPRO_", "E2EBENCH_"))}
        env["PYTHONPATH"] = self.src
        env["TMPDIR"] = self.work
        if trace_dir is not None:
            env["E2EBENCH_TRACE_DIR"] = trace_dir
        return env

    def cli(self, trace_dir=None):
        """The command prefix that launches the CLI: ``python -m
        repro.cli``, or the tracing launcher in a traced pass."""
        if trace_dir is None:
            return [sys.executable, "-m", "repro.cli"]
        return [sys.executable, os.path.join(HERE, "launch.py")]


class Op:
    """One attempted operation and the checks on its output."""

    def __init__(self, name, known_fault=None):
        self.name = name
        #: Set on operations that exercise a program fault named in
        #: README.md; they fail until the fault is mended.
        self.known_fault = known_fault
        self.errors = []

    def check(self, condition, message):
        if not condition:
            self.errors.append(message)
        return condition

    @property
    def ok(self):
        return not self.errors


def _percentile(values, q):
    """Linear-interpolated percentile ``q`` in [0, 100]."""
    values = sorted(values)
    if len(values) == 1:
        return values[0]
    pos = (len(values) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def peak_rss_mb(own_process):
    """Largest peak resident set of the program's processes: the
    benchmark process itself when the program runs in it, else its
    reaped children (and theirs)."""
    who = resource.RUSAGE_SELF if own_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0


def _load_workload(name):
    import importlib

    return importlib.import_module(name.replace("-", "_"))


def run(args):
    module = _load_workload(args.workload)
    work = os.path.join(ROOT, ".bench_build", "e2ebench",
                        f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    tempfile.tempdir = work
    ctx = Context(args.seed, args.size, work)
    ops = []
    metrics = {}
    state = None
    try:
        state = module.setup(ctx)
        setup_s = statistics.median(state.setup_times)
        rounds = []
        start = time.perf_counter()
        while True:
            result = module.round(ctx, state)
            ops.extend(result.ops)
            ops.extend(module.check(ctx, state, result))
            rounds.append(result)
            if time.perf_counter() - start >= args.seconds:
                break
        wall = statistics.fmean(r.wall_s for r in rounds)
        latencies = [ms for r in rounds for ms in r.latencies_ms]
        if args.trace:
            traced = module.traced_pass(ctx, state)
            ops.extend(traced.ops)
            ops.extend(module.check(ctx, state, traced))
            layer, selfs, calls = traced.layers
            for name, (value, unit) in layer.items():
                metrics[name] = {"value": value, "unit": unit}
            metrics["obs.trace_overhead"] = {
                "value": traced.wall_s / wall, "unit": "ratio"}
            import tracing

            print(f"[{args.workload}] traced self time per span:",
                  file=sys.stderr)
            print(tracing.self_time_table(selfs, calls), file=sys.stderr)
    finally:
        if state is not None:
            module.teardown(ctx, state)
        shutil.rmtree(work, ignore_errors=True)
    if not args.trace:
        # After teardown: a daemon's peak is known once it is reaped.
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": wall, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb(module.IN_PROCESS),
                            "unit": "MB"},
            "req_p50_ms": {"value": _percentile(latencies, 50),
                           "unit": "ms"},
            "req_p99_ms": {"value": _percentile(latencies, 99),
                           "unit": "ms"},
        }
    failed = [op for op in ops if not op.ok]
    for op in failed:
        print(f"FAILED {op.name}: {'; '.join(op.errors)}", file=sys.stderr)
    # A failure outside the known faults means the program produced a
    # wrong output somewhere it used to be right.
    return {
        "correct": all(op.known_fault for op in failed),
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": metrics,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "cli.py")):
        print(f"e2ebench: no program sources under {ROOT}/src",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
