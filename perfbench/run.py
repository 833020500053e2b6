"""The weq benchmark: one workload per process, closed loop, one client.

    python3 perfbench/run.py --workload battery --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from the repository root.  With ``--trace 0`` a run measures the
end-to-end metrics listed in BENCHMARK.json for about ``--seconds``; with
``--trace 1`` it runs a fixed, seed-determined set of operations untraced and
then traced, and reports the per-layer metrics and the tracing overhead.
Every operation's output is checked.  Times are read from ``clock.Clock``,
which scales them to a reference CPU speed.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it is the full report, also
written under perfbench/out/.  ``--workload all`` runs the four workloads one
after another, each in its own process.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("battery", "hard", "pump", "hunt")
# The highest of the usual percentiles with at least ten samples beyond it at
# the sample counts a run gets here.  It is fixed per workload so that a
# faster program, which completes more operations in a run, is compared at
# the same percentile.
TAIL_PERCENTILE = {"battery": 99.9, "hard": 90.0, "pump": 95.0, "hunt": 99.9}
# Run in a fresh interpreter: the time to import weq, scaled like Clock does
# by kernel times taken just before and after.
IMPORT_PROBE = """
import statistics, time
import clock
samples = [clock.kernel_seconds() for _ in range(clock.WINDOW)]
t = time.perf_counter()
import weq
t = time.perf_counter() - t
samples += [clock.kernel_seconds() for _ in range(clock.WINDOW)]
print(t * clock.REFERENCE_S / statistics.median(samples))
"""


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# running operations


@dataclass
class Tally:
    latencies: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    known_failures: int = 0
    busy_s: float = 0.0
    wall_s: float = 0.0
    cycles: int = 0
    errors: list[str] = field(default_factory=list)


def run_op(wl, op, tally: Tally, now, tracer=None) -> None:
    """One operation, timed; then its reference check, untimed and untraced.
    An exception ends only this operation."""
    t0 = now()
    try:
        if tracer is None:
            out = wl.run(op)
        else:
            with tracer.op():
                out = wl.run(op)
    except Exception as exc:  # counted, and the run goes on
        tally.busy_s += now() - t0
        tally.attempted += 1
        tally.failed += 1
        if wl.known_defect(op, exc):
            tally.known_failures += 1
        else:
            tally.errors.append(f"{wl.describe(op)}: {type(exc).__name__}: {exc}")
            if len(tally.errors) <= 3:
                traceback.print_exc()
        return
    dt = now() - t0
    tally.busy_s += dt
    tally.attempted += 1
    tally.latencies.append(dt)
    if tracer is not None:
        tracer.on = False
    try:
        wl.check(op, out)
    except Exception as exc:  # a wrong output, whatever the check raised
        tally.failed += 1
        tally.errors.append(f"{wl.describe(op)}: wrong output: {type(exc).__name__}: {exc}")
    finally:
        if tracer is not None:
            tracer.on = True


def run_timed(wl, ops, seconds: float, now, seed: int) -> Tally:
    """Closed loop over whole cycles of `ops`: at least ``wl.min_cycles``, and
    another only if it should end within `seconds` of wall time, so that
    every run measures the same multiset of operations whatever the host's
    speed.  Each cycle after the first runs in a new seeded order, so that
    no operation always follows the same one."""
    tally = Tally()
    order = list(ops)
    rng = random.Random(seed)
    t_start = time.perf_counter()
    while True:
        c0 = time.perf_counter()
        for op in order:
            run_op(wl, op, tally, now)
        t = time.perf_counter()
        tally.cycles += 1
        if tally.cycles >= wl.min_cycles and t - t_start + (t - c0) > seconds:
            break
        rng.shuffle(order)
    tally.wall_s = time.perf_counter() - t_start
    return tally


def run_fixed(wl, ops, now, tracer=None) -> Tally:
    tally = Tally(cycles=1)
    t_start = time.perf_counter()
    for op in ops:
        run_op(wl, op, tally, now, tracer)
    tally.wall_s = time.perf_counter() - t_start
    return tally


def run_hunt_timed(wl, ops, seconds: float, now, seed: int) -> Tally:
    """Hunt: the operations are the instances that ``run_hunt`` classifies,
    timed by rebinding ``weq.hunt.classify``, which ``run_hunt`` calls through
    its module global; throughput is instances over whole calls."""
    import weq.hunt

    tally = Tally()
    original = weq.hunt.classify

    def timed(*args, **kwargs):
        t0 = now()
        result = original(*args, **kwargs)
        tally.latencies.append(now() - t0)
        return result

    weq.hunt.classify = timed
    try:
        calls = run_timed(wl, ops, seconds, now, seed)
    finally:
        weq.hunt.classify = original
    tally.attempted = len(tally.latencies) + calls.failed
    for name in ("failed", "busy_s", "wall_s", "cycles", "errors"):
        setattr(tally, name, getattr(calls, name))
    return tally


# ---------------------------------------------------------------------------
# metrics


def nearest_rank(n: int, pct: float) -> int:
    """Index, in n sorted values, of the value at percentile `pct` by the
    nearest-rank rule."""
    return max(1, math.ceil(pct / 100 * n)) - 1


def latency_summary(tally: Tally, workload: str) -> dict:
    lat = sorted(tally.latencies)
    n = len(lat)
    tail_pct = TAIL_PERCENTILE[workload]
    k = nearest_rank(n, tail_pct)
    return {
        "samples": n,
        "p50_ms": lat[nearest_rank(n, 50.0)] * 1e3,
        "tail_percentile": tail_pct,
        "tail_ms": lat[k] * 1e3,
        "samples_beyond_tail": n - k - 1,
        "max_ms": lat[-1] * 1e3,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def import_seconds() -> float:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout)


def timed_setup(wl, seed: int, now):
    """Set up `wl.setup_reps` times; each repetition is a fresh import of weq
    plus building the workload's inputs.  Returns the last inputs and the
    per-repetition times."""
    reps = []
    ops = None
    for _ in range(wl.setup_reps):
        imp = import_seconds()
        ops = None  # let the previous inputs go before building new ones
        t0 = now()
        ops = wl.setup(seed)
        reps.append(imp + now() - t0)
    return ops, reps


def environment() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "platform": platform.platform(),
        "git_commit": git_commit(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# one workload


def measure(wl, args, clock, report: dict) -> tuple[Tally, dict, str]:
    """The run proper: end-to-end metrics, or with --trace the per-layer
    ones.  Returns the tally, the metric values and the BENCHMARK.json key
    that lists the metrics to print."""
    import spans

    ops, setup_reps = timed_setup(wl, args.seed, clock.now)
    report["operations_per_cycle"] = len(ops)
    report["setup_reps_s"] = setup_reps
    if wl.warmup_ops:
        run_fixed(wl, ops[-wl.warmup_ops:], clock.now)

    if not args.trace:
        if wl.name == "hunt":
            tally = run_hunt_timed(wl, ops, args.seconds, clock.now, args.seed)
        else:
            tally = run_timed(wl, ops, args.seconds, clock.now, args.seed)
        lat = latency_summary(tally, wl.name)
        report["latency"] = lat
        values = {
            "setup_s": statistics.median(setup_reps),
            "ops_per_s": tally.attempted / tally.busy_s,
            "op_p50_ms": lat["p50_ms"],
            "op_tail_ms": lat["tail_ms"],
            "peak_rss_mb": peak_rss_mb(),
        }
        return tally, values, "end_to_end"

    fixed = wl.trace_set(ops)
    run_fixed(wl, fixed, clock.now)  # warm-up: the first pass also pays for heap growth
    untraced = run_fixed(wl, fixed, clock.now)
    tracer = spans.Tracer(clock.now)
    tracer.install()
    tracer.on = True
    try:
        tally = run_fixed(wl, fixed, clock.now, tracer)
    finally:
        tracer.on = False
        tracer.uninstall()
    values = tracer.layer_metrics()
    values["trace.untraced_s"] = untraced.busy_s
    values["trace.traced_s"] = tally.busy_s
    values["trace.overhead_s"] = tally.busy_s - untraced.busy_s
    span_file = HERE / "out" / f"spans-{wl.name}.tsv.gz"
    tracer.write(span_file)
    report["span_file"] = str(span_file.relative_to(ROOT))
    report["layers"] = {layer: {"functions": list(functions), "should_move": moves}
                        for layer, (_, functions, moves) in spans.LAYERS.items()}
    tally.errors = untraced.errors + tally.errors
    return tally, values, "per_layer"


def run_workload(args) -> int:
    sys.path.insert(0, str(SRC))
    try:
        import weq  # noqa: F401
    except ImportError as exc:
        print(f"cannot import weq from {SRC}: {exc}", file=sys.stderr)
        return 2
    import clock as clockmod
    import workloads

    spec = load_spec()
    wl = workloads.WORKLOADS[args.workload]
    report = {
        "workload": wl.name,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == wl.name),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "loop": "closed, one client, one thread",
    }
    with clockmod.Clock() as clock:
        tally, values, key = measure(wl, args, clock, report)
    report["clock"] = {"reference_s": clockmod.REFERENCE_S, "ticks": clock.ticks,
                       "last_factor": clock.factor}

    correct = not tally.errors
    report.update({
        "attempted": tally.attempted,
        "failed": tally.failed,
        "known_failures": tally.known_failures,
        "fail_ratio": tally.failed / tally.attempted,
        "cycles": tally.cycles,
        "wall_s": tally.wall_s,
        "busy_s": tally.busy_s,
        "correct": correct,
        "errors": tally.errors[:20],
        "all_values": values,
        "metrics": {},
    })
    metrics = {}
    for m in spec[key]:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        report["metrics"][m["name"]] = {**metrics[m["name"]], "better": m["better"]}
    if "latency" in report:
        for name in ("op_p50_ms", "op_tail_ms"):
            report["metrics"][name]["samples"] = report["latency"]["samples"]

    for m in spec[key]:
        print(f"{wl.name:8s} {m['name']:45s} {values[m['name']]:<22} {m['unit']} "
              f"({m['better']} is better)")
    for name in sorted(set(values) - set(metrics)):
        print(f"{wl.name:8s} {name:45s} {values[name]}")
    if "latency" in report:
        lat = report["latency"]
        print(f"{wl.name:8s} latency samples {lat['samples']}, tail at p{lat['tail_percentile']:g} "
              f"with {lat['samples_beyond_tail']} beyond")
    print(f"{wl.name:8s} attempted {tally.attempted}  failed {tally.failed} "
          f"(known defect {tally.known_failures})  fail_ratio {report['fail_ratio']:.4f}  "
          f"correct {correct}")
    for err in tally.errors[:5]:
        print(f"{wl.name:8s} error: {err}")
    out = HERE / "out" / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is that workload's."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-2]))
        result = json.loads(lines[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds < 1:
        print("--seconds must be at least 1", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
