"""torsionlab benchmark: four seeded workloads, end-to-end and per-layer.

    python3 perfbench/run.py                        # every workload, untraced
    python3 perfbench/run.py --trace 1              # every workload, traced
    python3 perfbench/run.py --workload harness --seed 7 --seconds 20
    python3 perfbench/run.py --repeat 10 --out perfbench/results/x.json

Each workload runs in its own fresh worker process (``worker.py``), one
after another, with no threads, so ``peak_rss_mb`` and ``setup_s`` belong to
that workload alone.  ``setup_s`` is the median over several worker starts,
from process launch until the worker has imported the program and built its
inputs.  The end-to-end metrics come from untraced runs; ``--trace 1`` runs
one traced round and reports the per-layer metrics instead.

With ``--workload`` the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
only when every op's output checked out.

``--repeat N`` is the steadiness mode: N untraced runs of every workload,
seeds ``--seed`` .. ``--seed + N - 1``, alternating the workload order,
followed by one traced run of each.  It reports the median and quartiles of
every end-to-end metric, flags each spread above the metric's bound in
``BENCHMARK.json``, and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
sys.path.insert(0, str(HERE))

from spans import PER_LAYER  # noqa: E402

WORKLOAD_ORDER = ("harness", "replication", "scripts", "oracle")
DEFAULT_SEED = 42
DEFAULT_SECONDS = 20
SETUP_SAMPLES = 3
# A single workload run must end within 180 s.
RUN_DEADLINE_S = 170.0

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


class BenchError(Exception):
    """A worker failed to start, crashed, or overran the deadline."""


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count()


def _read_event(proc, deadline):
    """Next JSON line from the worker's stdout, before the deadline."""
    line = b""
    while not line.endswith(b"\n"):
        remaining = deadline - time.perf_counter()
        if remaining <= 0:
            raise BenchError("worker overran the deadline")
        readable, _, _ = select.select([proc.stdout], [], [], remaining)
        if not readable:
            continue
        byte = proc.stdout.read(1)
        if not byte:
            raise BenchError("worker exited with code %s before reporting"
                             % proc.wait())
        line += byte
    return json.loads(line)


def _worker(workload, seed, seconds, trace, setup_only, deadline):
    """Run one worker; returns (set-up seconds, ready event, result event)."""
    cmd = [sys.executable, str(WORKER), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=str(ROOT), stdout=subprocess.PIPE,
                            bufsize=0)
    try:
        ready = _read_event(proc, deadline)
        setup_s = time.perf_counter() - started
        result = None if setup_only else _read_event(proc, deadline)
        code = proc.wait(timeout=max(deadline - time.perf_counter(), 0.1))
    except (BenchError, ValueError, subprocess.TimeoutExpired) as exc:
        raise BenchError("%s worker: %s" % (workload, exc))
    finally:
        # Also reached on SIGTERM (see main): never leave a worker behind.
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0:
        raise BenchError("%s worker exited with code %d" % (workload, code))
    # The worker times reference units before and after its set-up; they
    # take a few milliseconds of the measured interval.
    return setup_s / ready["slowdown"], ready, result


def run_workload(workload, seed, seconds, trace):
    """One benchmark run of one workload, as a dict."""
    deadline = time.perf_counter() + RUN_DEADLINE_S
    setups = []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(_worker(workload, seed, seconds, 0, True,
                                  deadline)[0])
    setup_s, ready, result = _worker(workload, seed, seconds, trace, False,
                                     deadline)
    setups.append(setup_s)
    metrics = dict(result["metrics"], setup_s=statistics.median(setups))
    return {
        "workload": workload,
        "seed": seed,
        "inputs": ready["inputs"],
        "python": result["python"],
        "nproc": nproc(),
        "rounds": result["rounds"],
        "ops_per_round": result["ops_per_round"],
        "tail_percentile": result["tail_percentile"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "setup_samples": len(setups),
        "metrics": metrics,
        "per_layer": result.get("per_layer"),
        "spans_file": result.get("spans_file"),
        "unscaled": result["unscaled"],
    }


def describe(run):
    """Human-readable lines for one run: every metric by name with unit."""
    lines = ["perfbench workload=%s seed=%d inputs=%s python=%s nproc=%d "
             "ops_per_round=%d rounds=%d"
             % (run["workload"], run["seed"], run["inputs"], run["python"],
                run["nproc"], run["ops_per_round"], run["rounds"])]
    if run["per_layer"] is not None:
        units = {name: unit for name, unit, _ in PER_LAYER}
        for name, value in run["per_layer"].items():
            lines.append("  %-34s %14.6g %s" % (name, value, units[name]))
        lines.append("  spans written to %s" % run["spans_file"])
        return lines
    metrics = run["metrics"]
    for name, unit in END_TO_END:
        note = ""
        if name == "setup_s":
            note = "median of %d set-ups" % run["setup_samples"]
        elif name == "op_tail_ms":
            beyond = round(run["ops_per_round"] * (1 - run["tail_percentile"] / 100))
            note = "p%.1f of %d ops, %d beyond it" % (
                run["tail_percentile"], run["ops_per_round"], beyond)
        if name in ("ops_per_s", "op_p50_ms", "op_tail_ms"):
            note += "%sfastest of %d run(s) per op" % (
                "; " if note else "", run["rounds"])
        if name in run["unscaled"]:
            note += "; %.4f unscaled" % run["unscaled"][name]
        lines.append("  %-12s %12.4f %-4s %s" % (name, metrics[name], unit, note))
    lines.append("  %-12s %12.4f      %d failed of %d attempted ops"
                 % ("failed_share", run["failed"] / run["attempted"],
                    run["failed"], run["attempted"]))
    return lines


def summary_line(run):
    """The result object the last line of stdout carries."""
    if run["per_layer"] is not None:
        metrics = {name: {"value": run["per_layer"][name], "unit": unit}
                   for name, unit, _ in PER_LAYER}
    else:
        metrics = {name: {"value": run["metrics"][name], "unit": unit}
                   for name, unit in END_TO_END}
    return {"correct": run["failed"] == 0, "attempted": run["attempted"],
            "failed": run["failed"], "metrics": metrics}


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def steadiness(base_seed, repeats, seconds):
    """Interleaved repeated runs; returns the summary dict."""
    bounds = {}
    spec = ROOT / "BENCHMARK.json"
    if spec.is_file():
        bounds = {m["name"]: m["bound"]
                  for m in json.loads(spec.read_text())["end_to_end"]}
    runs = {name: [] for name in WORKLOAD_ORDER}
    for r in range(repeats):
        order = WORKLOAD_ORDER if r % 2 == 0 else WORKLOAD_ORDER[::-1]
        for name in order:
            run = run_workload(name, base_seed + r, seconds, 0)
            print("\n".join(describe(run)), flush=True)
            runs[name].append(run)
    summary = {"python": platform.python_version(), "nproc": nproc(),
               "base_seed": base_seed, "repeats": repeats,
               "seconds": seconds, "workloads": {}}
    for name in WORKLOAD_ORDER:
        traced = run_workload(name, base_seed, seconds, 1)
        print("\n".join(describe(traced)), flush=True)
        table = {}
        for metric, unit in END_TO_END:
            values = [run["metrics"][metric] for run in runs[name]]
            q1, median, q3 = _quartiles(values)
            spread = (q3 - q1) / median
            bound = bounds.get(metric)
            table[metric] = {"unit": unit, "median": median, "q1": q1,
                             "q3": q3, "spread": spread, "bound": bound,
                             "over_bound": bound is not None and spread > bound,
                             "values": values}
        untraced = table["ops_per_s"]["median"]
        summary["workloads"][name] = {
            "seeds": [run["seed"] for run in runs[name]],
            "inputs": [run["inputs"] for run in runs[name]],
            "attempted": sum(run["attempted"] for run in runs[name]),
            "failed": sum(run["failed"] for run in runs[name]),
            "end_to_end": table,
            "traced": {"seed": base_seed, "failed": traced["failed"],
                       "per_layer": traced["per_layer"]},
            "tracing_overhead": 1.0 - traced["per_layer"]["trace.ops_per_s"]
            / untraced,
        }
    return summary


def print_summary(summary):
    print("steadiness over %d seeds from %d (median [q1, q3] spread/bound):"
          % (summary["repeats"], summary["base_seed"]))
    for name, entry in summary["workloads"].items():
        print("%s: %d failed of %d attempted, tracing overhead %.1f%%"
              % (name, entry["failed"], entry["attempted"],
                 100.0 * entry["tracing_overhead"]))
        for metric, row in entry["end_to_end"].items():
            flag = "  OVER BOUND" if row["over_bound"] else ""
            print("  %-12s %12.4f [%.4f, %.4f] %s  spread %.3f / %s%s"
                  % (metric, row["median"], row["q1"], row["q3"], row["unit"],
                     row["spread"], row["bound"], flag))


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="\n".join(__doc__.splitlines()[1:]))
    parser.add_argument("--workload", choices=WORKLOAD_ORDER)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="steadiness mode: runs per workload")
    parser.add_argument("--out", type=Path,
                        help="steadiness mode: write the summary JSON here")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    try:
        if args.repeat:
            summary = steadiness(args.seed, args.repeat, args.seconds)
            print_summary(summary)
            if args.out:
                args.out.parent.mkdir(parents=True, exist_ok=True)
                args.out.write_text(json.dumps(summary, indent=1) + "\n")
            return 0 if all(e["failed"] == 0 and e["traced"]["failed"] == 0
                            for e in summary["workloads"].values()) else 1
        names = [args.workload] if args.workload else WORKLOAD_ORDER
        runs = []
        for name in names:
            run = run_workload(name, args.seed, args.seconds, args.trace)
            print("\n".join(describe(run)), flush=True)
            runs.append(run)
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2
    if args.workload:
        print(json.dumps(summary_line(runs[0])))
    return 0 if all(run["failed"] == 0 for run in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
