"""Benchmark of the auslab CLI, one workload per process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workload's CLI operations run in this process through auslab.cli.main,
in whole passes, until the next pass would end after S seconds (at least one
pass).  Every report is checked against facts computed in workloads.py and
for payload determinism.  --trace 0 reports the end-to-end metrics of
BENCHMARK.json; --trace 1 alternates untraced and traced passes and reports
the per-layer metrics, the tracing overhead among them, and writes the spans
to .perfbench_out/<workload>/spans.tsv.gz.  The last line of standard output
is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import calibrate
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(workloads.ROOT, ".perfbench_out")
SETUP_PROBES = 9


def measure_setup(workload: str, seed: int) -> float:
    """Median time from starting a fresh interpreter until it has imported
    auslab and made the workload's inputs, at the reference host speed (the
    probe samples the host's speed while it sets up).  The first probe,
    which may compile bytecode, is not counted."""
    cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"), workload, str(seed)]
    times = []
    for k in range(SETUP_PROBES + 1):
        started = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            ready = proc.stdout.readline()
            elapsed = time.perf_counter() - started
            sampling = proc.stdout.readline().split()
        if proc.returncode != 0 or ready.strip() != "ready":
            raise SystemExit(f"perfbench: set-up probe failed: {' '.join(cmd)}")
        if k:
            spent, slowdown = map(float, sampling)
            times.append((elapsed - spent) / slowdown)
    return statistics.median(times)


class Checker:
    """Checks the reports of one list of operations, pass after pass."""

    def __init__(self, ops: list[workloads.Op]):
        self.ops = ops
        self.shas: list[str | None] = [None] * len(ops)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def verify(self, codes: list[int], dirs: list[str]) -> None:
        for k, (op, rc, out_dir) in enumerate(zip(self.ops, codes, dirs)):
            self.attempted += 1
            where = " ".join(op.argv)
            try:
                with open(os.path.join(out_dir, op.output)) as fh:
                    envelope = json.load(fh)
            except FileNotFoundError:
                self.failed += 1
                continue
            sha, _ = workloads.payload_sha256(envelope)
            if sha != envelope["meta"]["payload_sha256"]:
                self.problems.append(f"{where}: meta.payload_sha256 is not the sha256 of the canonical payload")
            if self.shas[k] is None:
                self.shas[k] = sha
            elif self.shas[k] != sha:
                self.problems.append(f"{where}: payload differs between passes")
            if op.failed(rc, envelope["payload"]):
                self.failed += 1
                continue
            self.problems += [f"{where}: {p}" for p in op.check(envelope["payload"], out_dir)]


def run_pass(cli, checker: Checker, out_dir: str, tracer: tracing.Tracer | None = None) -> tuple[float, float, float]:
    """One pass over the operations; returns its wall and CPU seconds at the
    reference speed, and the host's slowdown during the pass."""
    dirs = []
    for k in range(len(checker.ops)):
        op_dir = os.path.join(out_dir, f"op{k}")
        shutil.rmtree(op_dir, ignore_errors=True)
        os.makedirs(op_dir)
        dirs.append(op_dir)
    if tracer:
        tracer.install()
    try:
        with calibrate.Sampler() as sampler:
            wall, cpu = time.perf_counter(), time.process_time()
            codes = [cli.main([*op.argv, "--out", op_dir]) for op, op_dir in zip(checker.ops, dirs)]
            wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
    finally:
        if tracer:
            tracer.uninstall()
    checker.verify(codes, dirs)
    return sampler.correct(wall), sampler.correct(cpu), sampler.slowdown()


def timed_run(cli, args, checker: Checker, out_dir: str) -> dict:
    setup_s = measure_setup(args.workload, args.seed)
    walls, cpus, slowdowns = [], [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        started = time.perf_counter()
        wall, cpu, slowdown = run_pass(cli, checker, out_dir)
        walls.append(wall)
        cpus.append(cpu)
        slowdowns.append(slowdown)
        now = time.perf_counter()
        if now + (now - started) > deadline:
            break
    print(f"{len(walls)} passes; wall_s per pass: {' '.join(f'{w:.4f}' for w in walls)}")
    print(f"host slowdown per pass: {' '.join(f'{x:.3f}' for x in slowdowns)}")
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced_run(cli, args, checker: Checker, out_dir: str) -> dict:
    checker.problems += tracing.check_self_time_arithmetic()
    untraced, traced, tracers, per_pass = [], [], [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        started = time.perf_counter()
        untraced.append(run_pass(cli, checker, out_dir)[0])
        tracers.append(tracing.Tracer())
        wall, _, slowdown = run_pass(cli, checker, out_dir, tracers[-1])
        traced.append(wall)
        # Self times at the reference host speed, like wall_s.
        per_pass.append({k: v / slowdown if k.endswith(".s") else v for k, v in tracers[-1].metrics().items()})
        now = time.perf_counter()
        if now + (now - started) > deadline:
            break
    counts = {k: v for k, v in per_pass[0].items() if not k.endswith(".s")}
    for k, m in enumerate(per_pass[1:], 1):
        if {key: m[key] for key in counts} != counts:
            checker.problems.append(f"per-layer counts of traced pass {k} differ from pass 0")
    reference = workloads.make_ops(args.workload, None)
    if [op.argv for op in reference] != [op.argv for op in checker.ops]:
        # The reference spelling names the same group, so every count must
        # match; its passes count as attempts like any other.
        ref_checker = Checker(reference)
        ref_tracer = tracing.Tracer()
        run_pass(cli, ref_checker, out_dir, ref_tracer)
        ref_counts = {k: v for k, v in ref_tracer.metrics().items() if not k.endswith(".s")}
        for key in sorted(set(counts) | set(ref_counts)):
            if counts.get(key) != ref_counts.get(key):
                checker.problems.append(f"{key}: {counts.get(key)} on seed {args.seed}, {ref_counts.get(key)} on the reference spelling")
        checker.attempted += ref_checker.attempted
        checker.failed += ref_checker.failed
        checker.problems += ref_checker.problems
    tracing.write_trace(os.path.join(out_dir, "spans.tsv.gz"), tracers)
    print(f"{len(traced)} traced passes; untraced wall_s {statistics.median(untraced):.4f}, traced wall_s {statistics.median(traced):.4f}")
    layer = dict(counts)
    layer.update((key, statistics.median(m[key] for m in per_pass)) for key in per_pass[0] if key.endswith(".s"))
    layer["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    return layer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with open(os.path.join(workloads.ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    cli = workloads.import_cli()
    checker = Checker(workloads.make_ops(args.workload, args.seed))
    out_dir = os.path.join(OUT, args.workload)
    shutil.rmtree(out_dir, ignore_errors=True)
    values = (traced_run if args.trace else timed_run)(cli, args, checker, out_dir)

    for op, sha in zip(checker.ops, checker.shas):
        print(f"payload_sha256 {sha}  auslab {' '.join(op.argv)}")
    for problem in checker.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']} {metric['unit']}")
    print(f"attempted {checker.attempted}, failed {checker.failed}")
    print(
        json.dumps(
            {
                "correct": not checker.problems,
                "attempted": checker.attempted,
                "failed": checker.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
