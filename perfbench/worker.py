"""One workload in one fresh process.

Started by ``run.py``; not meant to be run by hand.  The worker imports
``torsionlab`` from the ``src`` directory of the checkout it lives in, sets
the workload up, reports ``ready`` on stdout, then runs whole rounds of ops,
checks the outputs and reports the result as one JSON line.

Every round runs the same ops on fresh inputs.  Before each op the worker
times a few reference units (``speed.py``); an op's time is scaled to
nominal speed by the median reference time of the units timed around it.  An op's
latency is then the fastest of its runs: interference only slows an op, so
the minimum is the steadiest estimate of what the op costs.  The number of
rounds follows from ``--seconds`` (one per the workload's ``round_seconds``,
at least one), never from how fast the rounds went, so every run at one
``--seconds`` does the same work.  A traced run is one round.

Protocol on stdout, one JSON object per line:
    {"event": "ready", "ops_per_round": ..., "inputs": ..., "slowdown": ...}
    {"event": "result", ...}
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
# Reference units timed before each op (and after the last one).  An op's
# time is scaled by the units timed from SCALE_MARGIN_S before it starts to
# SCALE_MARGIN_S after it ends, so long ops use the units right around them
# and short ops pool their neighbours'.
REFERENCE_UNITS_PER_OP = 3
SCALE_MARGIN_S = 0.5
SETUP_REFERENCE_UNITS = 10


def latency_metrics(latencies):
    """End-to-end op metrics from one latency per op.

    The tail is the highest percentile that still has ten ops beyond it; a
    round of ten ops or fewer has none, and reports its slowest op.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    k = n - 11 if n > 10 else n - 1
    return {
        "ops_per_s": n / sum(ordered),
        "op_p50_ms": 1000.0 * statistics.median(ordered),
        "op_tail_ms": 1000.0 * ordered[k],
        "tail_percentile": 100.0 * (k + 1) / n,
    }


def import_program():
    if not (SRC / "torsionlab" / "__init__.py").is_file():
        raise SystemExit("perfbench: no torsionlab sources under %s" % SRC)
    sys.path.insert(0, str(SRC))
    import torsionlab
    if SRC not in Path(torsionlab.__file__).resolve().parents:
        raise SystemExit("perfbench: torsionlab imported from %s, not %s"
                         % (torsionlab.__file__, SRC))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    out = sys.stdout

    def emit(obj):
        out.write(json.dumps(obj) + "\n")
        out.flush()

    import speed
    # Reference units before and after set-up scale the set-up time.
    setup_references = speed.sample(SETUP_REFERENCE_UNITS)
    import_program()
    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload](ROOT)

    if tracer is not None:
        with tracer.span("setup"):
            ops_per_round = workload.prepare(args.seed)
    else:
        ops_per_round = workload.prepare(args.seed)
    setup_references += speed.sample(SETUP_REFERENCE_UNITS)
    emit({"event": "ready", "ops_per_round": ops_per_round,
          "inputs": workload.digest,
          "slowdown": speed.slowdown(setup_references)})
    if args.setup_only:
        return 0

    clock = time.perf_counter
    rounds = []
    unscaled_rounds = []
    failed = 0
    attempted = 0
    planned = 1 if tracer else max(
        1, round(args.seconds / workload.round_seconds))
    for _ in range(planned):
        latencies = []
        references = []
        marks = []
        for run, check in workload.round_ops():
            attempted += 1
            marks.append(clock())
            references.append(speed.sample(REFERENCE_UNITS_PER_OP))
            # A full collection before every op, so that garbage earlier
            # ops left behind is not collected on this op's time.
            gc.collect()
            t0 = clock()
            try:
                if tracer is not None:
                    with tracer.span("op"):
                        output = run()
                else:
                    output = run()
            except Exception:
                latencies.append(clock() - t0)
                traceback.print_exc()
                failed += 1
                continue
            latencies.append(clock() - t0)
            if not check(output):
                failed += 1
        marks.append(clock())
        references.append(speed.sample(REFERENCE_UNITS_PER_OP))
        unscaled_rounds.append(latencies)
        rounds.append([latency / speed.slowdown(
            [t for group in references[
                bisect.bisect_left(marks, marks[i] - SCALE_MARGIN_S):
                bisect.bisect_right(marks, marks[i + 1] + SCALE_MARGIN_S)]
             for t in group])
            for i, latency in enumerate(latencies)])
    metrics = latency_metrics([min(runs) for runs in zip(*rounds)])
    unscaled = latency_metrics([min(runs) for runs in zip(*unscaled_rounds)])

    # Spans and per-layer numbers cover set-up and the ops, not the
    # cross-checks below.
    if tracer is not None:
        per_layer = tracer.per_layer(metrics["ops_per_s"])
        OUT.mkdir(exist_ok=True)
        spans = OUT / ("spans-%s-%d.bin" % (args.workload, args.seed))
        tracer.write(spans)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed += workload.finish()

    result = {
        "event": "result",
        "workload": args.workload,
        "seed": args.seed,
        "python": platform.python_version(),
        "rounds": len(rounds),
        "ops_per_round": ops_per_round,
        "attempted": attempted,
        "failed": failed,
        "tail_percentile": metrics.pop("tail_percentile"),
        "metrics": dict(metrics, peak_rss_mb=peak_rss_mb),
        "unscaled": {key: unscaled[key]
                     for key in ("ops_per_s", "op_p50_ms", "op_tail_ms")},
    }
    if tracer is not None:
        result["per_layer"] = per_layer
        result["spans_file"] = str(spans.relative_to(ROOT))
    emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
