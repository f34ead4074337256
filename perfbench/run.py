"""The mppfv benchmark: fixed workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py [--seed N] [--seconds S] [--out FILE]

With ``--workload`` it measures that workload for about ``S`` seconds and
prints, as its last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``END_TO_END`` with ``--trace 0``, the per-layer metrics of
``tracing.LAYER_METRICS`` with ``--trace 1``.  Without ``--workload`` it
measures every workload both ways, prints every metric by name with its
unit, and writes them all, with the run environment, to ``--out``.

Every measurement runs ``child.py`` in a fresh process with BLAS and OpenMP
pinned to one thread, one process at a time.  Per workload:

* ``--trace 0``: five set-up probes, and untraced runs of
  ``mppfv.harness.run`` repeated while the next one is expected to end
  within ``S`` seconds (at least one).  ``wall_s``, ``setup_s`` and
  ``peak_rss_mib`` are medians over them.
* ``--trace 1``: pairs of one untraced and one traced run, repeated the
  same way.  Per-layer metrics are medians over the traced runs;
  ``trace.overhead_frac`` is the median traced wall time over the median
  untraced one, minus 1.

The seed draws the order in which the measurements of all workloads
interleave, and the order within each pair; the workload inputs are fixed
named problems.  Every run is checked (``workloads.check_run``); a run
that raises ``NonConvergenceError`` or fails a check counts in ``failed``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import subprocess
import sys
import time
from importlib.metadata import version
from pathlib import Path

import numpy as np

from tracing import LAYER_METRICS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5
CHILD_TIMEOUT_S = 150
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS")

#: End-to-end metrics: name -> unit.
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB",
              "l1_error": "1"}


class Tally:
    """Everything measured for one workload."""

    def __init__(self):
        self.wall_s, self.setup_s, self.peak_rss_mib, self.l1_error = [], [], [], []
        self.pair_untraced, self.pair_traced, self.layers = [], [], []
        self.attempted = self.failed = 0
        self.failures = []

    def end_to_end(self):
        return {name: _median(getattr(self, name)) for name in END_TO_END}

    def per_layer(self):
        out = {name: _median([layers[name] for layers in self.layers])
               for name in LAYER_METRICS if name != "trace.overhead_frac"}
        out["trace.overhead_frac"] = (_median(self.pair_traced)
                                      / _median(self.pair_untraced) - 1.0)
        return out


class Lane:
    """One kind of measurement of one workload, repeated ``count`` times or
    while the next repeat is expected to end within ``seconds``."""

    def __init__(self, workload, kind, seconds=None, count=None):
        self.workload, self.kind = workload, kind
        self.seconds, self.count = seconds, count
        self.done, self.elapsed, self.last = 0, 0.0, 0.0

    def open(self):
        if self.count is not None:
            return self.done < self.count
        return self.done == 0 or self.elapsed + self.last <= self.seconds

    def record(self, seconds):
        self.done += 1
        self.elapsed += seconds
        self.last = seconds


def _median(values):
    return float(np.median(values)) if values else float("nan")


def _child_env():
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARIABLES})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def measure(kind, workload):
    """Run ``child.py kind workload`` and return its JSON result."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), kind, workload.name],
        cwd=ROOT, env=_child_env(), capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{kind} {workload.name} exited with "
                           f"{proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _run_once(kind, workload, tally):
    """One checked run of ``workload``; returns its result or ``None``."""
    tally.attempted += 1
    try:
        result = measure(kind, workload)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        result = {"failures": [str(exc)]}
    if result["failures"]:
        tally.failed += 1
        tally.failures.extend(result["failures"])
        return None
    tally.l1_error.append(result["l1_error"])
    return result


def _step(lane, tally, rng):
    workload = lane.workload
    if lane.kind == "setup":
        tally.setup_s.append(measure("setup", workload)["setup_s"])
        return
    if lane.kind == "timed":
        result = _run_once("timed", workload, tally)
        if result is not None:
            tally.wall_s.append(result["wall_s"])
            tally.peak_rss_mib.append(result["peak_rss_mib"])
        return
    order = ["timed", "traced"]
    rng.shuffle(order)
    results = {kind: _run_once(kind, workload, tally) for kind in order}
    if None not in results.values():
        tally.pair_untraced.append(results["timed"]["wall_s"])
        tally.pair_traced.append(results["traced"]["wall_s"])
        tally.layers.append(results["traced"]["layers"])


def run_benchmark(workloads, seed, seconds, traces):
    """Measure ``workloads``; return ``{name: Tally}``."""
    rng = random.Random(seed)
    tallies = {w.name: Tally() for w in workloads}
    lanes = []
    for w in workloads:
        if 0 in traces:
            lanes += [Lane(w, "setup", count=SETUP_PROBES),
                      Lane(w, "timed", seconds=seconds)]
        if 1 in traces:
            lanes.append(Lane(w, "pair", seconds=seconds))
    while True:
        open_lanes = [lane for lane in lanes if lane.open()]
        if not open_lanes:
            return tallies
        lane = rng.choice(open_lanes)
        t0 = time.perf_counter()
        _step(lane, tallies[lane.workload.name], rng)
        lane.record(time.perf_counter() - t0)


def environment(seed, seconds):
    return {"nproc": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "seed": seed, "seconds": seconds}


def _spread(values):
    if not values:
        return ""
    p25, p75 = np.percentile(values, [25, 75])
    return f"  (p25 {p25:.6g}, p75 {p75:.6g}, n={len(values)})"


def report(name, tally, traces):
    """Print every metric of one workload by name, with its unit."""
    print(f"== {name}: {WORKLOADS[name].why}")
    metrics = {}
    if 0 in traces:
        for metric, value in tally.end_to_end().items():
            unit = END_TO_END[metric]
            metrics[metric] = {"value": value, "unit": unit}
            print(f"  {metric:<46} {value:14.6g} {unit:<6}"
                  f"{_spread(getattr(tally, metric))}")
    if 1 in traces:
        for metric, value in tally.per_layer().items():
            unit = LAYER_METRICS[metric][0]
            metrics[metric] = {"value": value, "unit": unit}
            print(f"  {metric:<46} {value:14.6g} {unit}")
    print(f"  {'failed_frac':<46} "
          f"{tally.failed / max(tally.attempted, 1):14.6g}       "
          f"({tally.failed} of {tally.attempted} runs)")
    for failure in tally.failures:
        print(f"  FAILED: {failure}")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=HERE / "out" / "results.json")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "mppfv" / "harness.py").is_file():
        print(f"error: no mppfv sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    if args.workload:
        workloads, traces = [WORKLOADS[args.workload]], (args.trace,)
    else:
        workloads, traces = list(WORKLOADS.values()), (0, 1)
    env = environment(args.seed, seconds)
    print("environment: " + json.dumps(env), flush=True)
    tallies = run_benchmark(workloads, args.seed, seconds, traces)
    metrics = {name: report(name, tally, traces)
               for name, tally in tallies.items()}
    attempted = sum(t.attempted for t in tallies.values())
    failed = sum(t.failed for t in tallies.values())
    if args.workload:
        metrics = metrics[args.workload]
    else:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(
            {"environment": env,
             "workloads": {
                 name: {"config": WORKLOADS[name].config,
                        "why": WORKLOADS[name].why,
                        "metrics": metrics[name],
                        "samples": {m: getattr(t, m) for m in END_TO_END},
                        "attempted": t.attempted, "failures": t.failures}
                 for name, t in tallies.items()}}, indent=2) + "\n")
        print(f"wrote {args.out}")
        metrics = {f"{name}/{metric}": value for name, per in metrics.items()
                   for metric, value in per.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
