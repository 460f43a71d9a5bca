"""shiftprod benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload rational-verify --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src``.

``--trace 0`` measures the end-to-end metrics with tracing off.  The seeded
batch is run instance by instance, round robin, until ``--seconds`` have
passed and every instance has reached a verdict at least once.

A shared machine changes speed by up to 2x within seconds.  So between
instances the benchmark times a fixed pure-Python calibration loop, and an
instance's time is reported in reference seconds: measured seconds times
CALIBRATION_REF_S over the mean of the loop times just before and after
it.  Each instance keeps the fastest of its repeats, since contention only
ever adds time.  Raw seconds are printed in the summary too.

``--trace 1`` is the traced layer run.  It makes one untraced pass and two
traced passes over the batch, so its work is fixed and its counts must
repeat exactly, and reports the per-layer metrics.

Every verdict is checked against a reference outside the timed region.
A human-readable summary goes first; the last line of stdout is the JSON
result.  See WORKLOADS.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import re
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ["rational-verify", "field-dot", "field-membership", "cover-scan"]
SETUP_REPEATS = 11
TAIL_BEYOND = 10      # samples the tail percentile leaves above it
# the calibration loop's time on an uncontended core of the machine the
# bounds were set on (2 vCPU Intel Xeon, Python 3.11); it fixes the scale
CALIBRATION_REF_S = 0.003


def _fresh_python(*args):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *args, "-c", "import shiftprod.cli"],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          check=True, timeout=60)


def setup_seconds():
    """Median wall time of a fresh interpreter importing the CLI, the cost
    every command pays before any work.  One warm-up run fills .pyc files."""
    _fresh_python()
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        _fresh_python()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def import_numpy_seconds():
    """Median cumulative import time of numpy under ``-X importtime``."""
    times = []
    for _ in range(5):
        err = _fresh_python("-X", "importtime").stderr
        m = re.search(r"^import time:\s*\d+ \|\s*(\d+) \|\s+numpy$", err, re.M)
        times.append(int(m.group(1)) / 1e6)
    return statistics.median(times)


def quantile(xs, p):
    """Harrell-Davis estimate of the p-quantile: the mean of all order
    statistics weighted by the Beta(p(n+1), (1-p)(n+1)) density, which is
    steadier than one order statistic when instance times form clusters."""
    xs, n = sorted(xs), len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 200 * n
    weights = [0.0] * n
    for j in range(steps):
        u = (j + 0.5) / steps
        weights[j * n // steps] += math.exp(
            log_norm + (a - 1) * math.log(u) + (b - 1) * math.log1p(-u))
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def calibrate():
    """Seconds for a fixed mix of Fraction arithmetic with set inserts and
    small-integer multiply-mod steps.  The first tracks the machine's speed
    on the rational and explorer code, the second on the discrete-log walk;
    neither touches shiftprod."""
    t0 = time.perf_counter()
    seen, x = set(), Fraction(3, 2)
    for i in range(250):
        seen.add(x * i + Fraction(i, 7))
    acc = 1
    for _ in range(15000):
        acc = acc * 7 % 100003
    return time.perf_counter() - t0


def timed(inst):
    gc.collect()
    t0 = time.perf_counter()
    verdict = inst.run()
    return time.perf_counter() - t0, verdict


def check_all(batch, verdicts):
    """Reference disagreements per failed instance, by label."""
    from workloads import Refused
    failures = {}
    for inst, verdict in zip(batch, verdicts):
        errors = ([verdict.error] if isinstance(verdict, Refused)
                  else inst.check(verdict))
        if errors:
            failures[inst.label] = errors
    return failures


def measure(batch, seconds):
    """Round-robin repeats until ``seconds`` pass and each instance has a
    verdict.  Returns each instance's fastest raw and reference seconds,
    the first verdicts, and the labels whose verdict changed on a repeat."""
    raw = [[] for _ in batch]
    ref = [[] for _ in batch]
    verdicts = [None] * len(batch)
    unstable = set()
    start = time.perf_counter()
    before = calibrate()
    i = 0
    while i < len(batch) or time.perf_counter() - start < seconds:
        k = i % len(batch)
        t, verdict = timed(batch[k])
        after = calibrate()
        raw[k].append(t)
        ref[k].append(t * CALIBRATION_REF_S * 2 / (before + after))
        before = after
        if i < len(batch):
            verdicts[k] = verdict
        elif verdict != verdicts[k]:
            unstable.add(batch[k].label)
        i += 1
    return [min(s) for s in raw], [min(s) for s in ref], verdicts, unstable, i


def end_to_end(name, batch, seconds):
    setup = setup_seconds()
    raw, per_instance, verdicts, unstable, evaluations = measure(batch, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failures = check_all(batch, verdicts)
    for label in unstable:
        failures.setdefault(label, []).append("verdict changed between repeats")
    n = len(batch)
    tail_p = (n - TAIL_BEYOND) / n
    metrics = {
        "setup_s": (setup, "s"),
        "wall_s": (sum(per_instance), "s"),
        "verdict_p50_s": (quantile(per_instance, 0.5), "s"),
        "verdict_tail_s": (quantile(per_instance, tail_p), "s"),
        "pass_rate": ((n - len(failures)) / n, "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    print(f"workload {name}: {n} instances, {evaluations} verdicts timed, "
          f"tail = p{100 * tail_p:g} of {n} per-instance times")
    print(f"  fail_rate {len(failures) / n:.4f} ({len(failures)}/{n})")
    print(f"  raw seconds: wall {sum(raw):.4f}, p50 {quantile(raw, 0.5):.4f}, "
          f"tail {quantile(raw, tail_p):.4f}")
    return metrics, n, failures


def traced_layers(name, batch):
    from spans import Recorder, layer_counts, layer_metrics, layer_seconds, traced
    numpy_s = import_numpy_seconds()
    _, plain_ref, plain, _, _ = measure(batch, 0)
    failures = check_all(batch, plain)
    walls, refs, counts, seconds = [], [], [], []
    for _ in range(2):
        recorder = Recorder()
        with traced(recorder):
            raw, ref, verdicts, _, _ = measure(batch, 0)
        walls.append(sum(raw))
        refs.append(sum(ref))
        counts.append(layer_counts(recorder))
        seconds.append(layer_seconds(recorder))
        for inst, a, b in zip(batch, plain, verdicts):
            if a != b:
                failures.setdefault(inst.label, []).append(
                    "verdict differs with tracing on")
    if counts[0] != counts[1]:
        failures.setdefault("trace", []).append("work counts differ between traced passes")
    secs = {k: statistics.median(s.get(k, 0.0) for s in seconds)
            for k in seconds[0].keys() | seconds[1].keys()}
    layers = layer_metrics(*counts[0], secs)
    traced_wall, self_sum = statistics.median(walls), sum(secs.values())
    layers.update({
        "cli.import_numpy_s": numpy_s,
        "trace.wall_s": traced_wall,
        "trace.self_sum_s": self_sum,
        "trace_overhead_s": statistics.median(refs) - sum(plain_ref),
    })
    print(f"workload {name}: traced layer run, {len(batch)} instances, "
          f"traced wall {traced_wall:.3f} s, summed self time {self_sum:.3f} s")
    return {k: (v, _unit(k)) for k, v in layers.items()}, len(batch), failures


def _unit(key):
    if key.endswith(("_s", ".s")):
        return "s"
    if key.endswith("ns_per_pair"):
        return "ns"
    return "ratio" if key.endswith(("ratio", "per_pair")) else "count"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not (SRC / "shiftprod" / "__init__.py").is_file():
        print(f"error: no shiftprod sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    batch = workloads.build(args.workload, args.seed)
    if args.trace:
        metrics, attempted, failures = traced_layers(args.workload, batch)
    else:
        metrics, attempted, failures = end_to_end(args.workload, batch, args.seconds)
    for label, errors in failures.items():
        print(f"  FAILED {label}: {'; '.join(errors)}")
    for key, (value, unit) in metrics.items():
        print(f"  {key} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
