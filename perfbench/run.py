"""Benchmark of the husimilab CLI: four workloads, end-to-end metrics and a
traced pass that splits each operation's time by layer.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1]

Run it from anywhere in a checkout; it uses the sources in `src/` and
writes only under `.perfbench/` at the checkout root.  Each operation is a
fresh worker process (see worker.py) started one after another for
`--seconds` seconds, a closed loop with one client.  `run_s` is the median
of samples that each average `batch` consecutive operations.

With `--trace 0` the last line of output is a JSON object whose metrics
are the end-to-end ones.  With `--trace 1` a traced pass runs as well,
its batches alternating with the untraced ones over twice the time, and
the metrics are the per-layer ones: mean inclusive times, counts and self
times per operation, and `trace_overhead_s`, the traced mean operation
time minus the untraced one.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
TIME_LIMIT_S = 170.0  # per workload; an invocation must end within 180 s
TAIL_BEYOND = 10

E2E_UNITS = {"run_s": "s", "run_s_tail": "s", "setup_s": "s",
             "peak_rss_mb": "MB"}
OUTCOME_METRICS = {"failed_frac": "fraction", "checks_failed": "count"}
LAYER_EXTRA = {"trace_overhead_s": "s", **OUTCOME_METRICS}
FIRST_CALL = ("every operation runs in a fresh process and pays its "
              "first-call costs, as a CLI run does; imports and inputs are "
              "timed in setup_s; analyze_n2_m256 runs transform and "
              "residues in one process")


class BenchError(RuntimeError):
    pass


def layer_unit(name: str) -> str:
    if name in LAYER_EXTRA:
        return LAYER_EXTRA[name]
    if name.endswith("_s"):
        return "s"
    return "bytes" if name.endswith("_bytes") else "count"


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least TAIL_BEYOND samples beyond it,
    as (value, percentile).  Below 2 * TAIL_BEYOND + 1 samples that
    percentile would not be above the median, and the slowest sample is
    reported instead."""
    ordered = sorted(samples)
    if len(ordered) <= 2 * TAIL_BEYOND:
        return ordered[-1], 100.0
    k = len(ordered) - TAIL_BEYOND - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered)


class Bench:
    def __init__(self, tiny: bool = False):
        self.tiny = tiny
        self.deadline = time.perf_counter() + TIME_LIMIT_S
        self.nproc = len(os.sched_getaffinity(0))
        self.env = dict(os.environ, TMPDIR=str(OUT / "tmp"))
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            self.env[var] = str(self.nproc)
        (OUT / "tmp").mkdir(parents=True, exist_ok=True)
        self._ops = 0

    def run_op(self, name: str, seed: int, traced: bool) -> dict:
        self._ops += 1
        work = OUT / "work" / f"{name}-{os.getpid()}-{self._ops}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        result = work / "record.json"
        budget = self.deadline - time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), name, str(seed),
                 str(int(self.tiny)), str(int(traced)), str(work),
                 str(result)],
                env=self.env, capture_output=True, text=True,
                timeout=max(budget, 1.0))
        except subprocess.TimeoutExpired:
            raise BenchError(f"{name}: out of time ({TIME_LIMIT_S:.0f} s)")
        if proc.returncode != 0:
            raise BenchError(f"{name}: worker exited {proc.returncode}\n"
                             f"{proc.stderr[-3000:]}")
        record = json.loads(result.read_text())
        shutil.rmtree(work, ignore_errors=True)
        return record

    def run_pass(self, workload, seed: int, seconds: float,
                 trace: bool) -> tuple[list[dict], list[dict]]:
        """Whole batches of operations while the next round fits in time.

        With `trace`, each round runs an untraced and then a traced batch,
        so that both see the same machine; returns (untraced, traced).
        """
        ops = {False: [], True: []}
        walls = []
        stop = time.perf_counter() + seconds
        while not walls or (time.perf_counter() + statistics.median(walls)
                            <= stop):
            began = time.perf_counter()
            for traced in (False, True)[:1 + trace]:
                for _ in range(workload.batch):
                    ops[traced].append(self.run_op(workload.name, seed,
                                                   traced))
            walls.append(time.perf_counter() - began)
        return ops[False], ops[True]


def end_to_end(ops: list[dict], batch: int) -> dict:
    times = [op["run_s"] for op in ops]
    samples = [statistics.fmean(times[i:i + batch])
               for i in range(0, len(times) - batch + 1, batch)]
    tail_value, tail_pct = tail(samples)
    return {
        "metrics": {
            "run_s": statistics.median(samples),
            "run_s_tail": tail_value,
            "setup_s": statistics.median(op["setup_s"] for op in ops),
            "peak_rss_mb": statistics.median(op["peak_rss_mb"] for op in ops),
        },
        "outcomes": {
            "failed_frac": sum(op["failed"] for op in ops) / len(ops),
            "checks_failed": statistics.fmean(op["checks_failed"]
                                              for op in ops),
        },
        "samples": len(samples), "tail_percentile": tail_pct,
    }


def per_layer(traced: list[dict], untraced: list[dict]) -> dict:
    metrics = {name: statistics.fmean(op["layers"][name] for op in traced)
               for name in tracing.PER_LAYER}
    metrics["trace_overhead_s"] = (metrics["trace.run_s"] - statistics.fmean(
        op["run_s"] for op in untraced))
    return metrics


def accounted(op: dict) -> bool:
    """Layer self times sum to the traced operation time."""
    layers = op["layers"]
    total = sum(layers[f"{layer}.self_s"] for layer in tracing.LAYERS)
    return abs(total - layers["trace.run_s"]) <= 1e-9


def measure(bench: Bench, name: str, seed: int, seconds: float,
            trace: bool) -> dict:
    workload = workloads.WORKLOADS[name]
    bench.deadline = time.perf_counter() + TIME_LIMIT_S
    ops, traced = bench.run_pass(workload, seed, seconds * (1 + trace), trace)
    report = {"workload": name, "why": workload.why, "batch": workload.batch,
              **end_to_end(ops, workload.batch)}
    if trace:
        report["layers"] = {**per_layer(traced, ops), **report["outcomes"]}
    every = ops + traced
    report.update(
        correct=(all(op["correct"] for op in every)
                 and all(accounted(op) for op in traced)),
        attempted=len(every), failed=sum(op["failed"] for op in every),
        failing=sorted({c for op in every for c in op["failing"]}),
        notes=sorted({op["note"] for op in every if op["note"]}),
        env={**ops[0]["env"], "nproc": bench.nproc,
             "python": sys.version.split()[0]},
        first_call=FIRST_CALL,
        ops=[{k: v for k, v in op.items() if k != "spans"} for op in every])
    report["spans"] = [[k, i, *span] for k, op in enumerate(traced)
                       for i, span in enumerate(op["spans"])]
    return report


def print_report(rep: dict, trace: bool) -> None:
    name = rep["workload"]
    print(f"## {name}: {rep['why']}")
    print(f"   correct={rep['correct']} attempted={rep['attempted']} "
          f"failed={rep['failed']} failing={rep['failing'] or '-'}")
    for note in rep["notes"]:
        print(f"   note: {note}")
    units = {**E2E_UNITS, **OUTCOME_METRICS}
    values = {**rep["metrics"], **rep["outcomes"]}
    for metric, unit in units.items():
        print(f"   {metric:<34} {values[metric]:>14.6g} {unit}")
    print(f"   (run_s over {rep['samples']} samples of {rep['batch']} "
          f"operation(s); run_s_tail is p{rep['tail_percentile']:.0f})")
    if trace:
        for metric, value in rep["layers"].items():
            print(f"   {metric:<34} {value:>14.6g} {layer_unit(metric)}")
    env = rep["env"]
    print(f"   env: numpy {env['numpy']}, scipy {env['scipy']}, "
          f"nproc {env['nproc']}, BLAS threads {env['blas_threads']}")
    print(f"   first call: {rep['first_call']}")


def write_outputs(reports: list[dict], seed: int, trace: bool) -> None:
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "trace").mkdir(parents=True, exist_ok=True)
    for rep in reports:
        spans = rep.pop("spans")
        stem = f"{rep['workload']}-seed{seed}-trace{int(trace)}"
        (OUT / "results" / f"{stem}.json").write_text(
            json.dumps(rep, indent=1))
        if trace:
            with open(OUT / "trace" / f"{rep['workload']}.jsonl", "w") as fh:
                for op, sid, name, start, end, parent in spans:
                    fh.write(json.dumps({"op": op, "id": sid, "parent": parent,
                                         "name": name, "start": start,
                                         "end": end}) + "\n")


def result_line(reports: list[dict], trace: bool) -> dict:
    prefix = len(reports) > 1
    metrics = {}
    for rep in reports:
        if trace:
            values = rep["layers"]
            units = {m: layer_unit(m) for m in values}
        else:
            values, units = rep["metrics"], E2E_UNITS
        for metric, value in values.items():
            key = f"{rep['workload']}.{metric}" if prefix else metric
            metrics[key] = {"value": value, "unit": units[metric]}
    return {"correct": all(r["correct"] for r in reports),
            "attempted": sum(r["attempted"] for r in reports),
            "failed": sum(r["failed"] for r in reports),
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *workloads.WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "husimilab" / "cli.py").is_file():
        print(f"no husimilab sources under {ROOT / 'src'}; run the "
              "benchmark from a checkout of the repository", file=sys.stderr)
        return 2
    names = (list(workloads.WORKLOADS) if args.workload == "all"
             else [args.workload])
    bench = Bench()
    try:
        reports = [measure(bench, name, args.seed, args.seconds,
                           bool(args.trace)) for name in names]
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for rep in reports:
        print_report(rep, bool(args.trace))
    write_outputs(reports, args.seed, bool(args.trace))
    print(json.dumps(result_line(reports, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
