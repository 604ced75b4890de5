"""Run one benchmark operation in a fresh process and write its record.

    python3 perfbench/worker.py WORKLOAD SEED TINY TRACE WORKDIR RESULT

Each operation runs in its own process, so it pays every first-call cost
(lazy imports, FFT plans, first touch of large arrays) the way a CLI run
does.  The imports and the workload's input generation are timed as
`setup_s`; the `husimilab` commands, called through `husimilab.cli.main`,
are timed as `run_s`.
"""

import time

STARTED = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


def main(argv: list[str]) -> int:
    name, seed, tiny, trace, work, result = argv
    work = Path(work)
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    import numpy
    import scipy
    from husimilab import cli

    modules = [sys.modules[f"husimilab.{layer}"] for layer in tracing.LAYERS]
    workload = workloads.WORKLOADS[name]
    commands = workload.setup(int(seed), work, tiny == "1")
    setup_s = time.perf_counter() - STARTED

    tracer = None
    if trace == "1":
        tracer = tracing.Tracer()
        tracer.install(modules)
    outcomes = []
    run_s = 0.0
    for command in commands:
        rc = error = None
        started = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(command)
        except Exception as exc:  # the outcome is the measurement
            error = f"{type(exc).__name__}: {exc}"
        run_s += time.perf_counter() - started
        outcomes.append({"command": command[0], "rc": rc, "error": error})
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    try:
        verdict = workload.check(work, outcomes)
    except (KeyError, TypeError, ValueError) as exc:
        verdict = {"correct": False, "failed": True, "checks_failed": 0,
                   "failing": [], "note": f"unreadable output: {exc!r}"}
    record = {
        "setup_s": setup_s,
        "run_s": run_s,
        "peak_rss_mb": peak_rss_mb,
        "outcomes": outcomes,
        **verdict,
        "env": {"numpy": numpy.__version__, "scipy": scipy.__version__,
                "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")},
    }
    if tracer is not None:
        record["layers"] = tracing.layer_metrics(tracer.spans, run_s)
        record["spans"] = [s[:4] for s in tracer.spans]
    Path(result).write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
