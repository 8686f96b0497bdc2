"""Run one workload of the quiltops benchmark and print its metrics.

    python3 bench/run.py --workload relations --seed 1 --seconds 40 --trace 0

Every round is a fresh single-threaded worker process with cold module
caches, which is what a command-line user pays; processes run one after
the other, never concurrently.  With --trace 0 a run repeats whole rounds
on the same inputs while the next round still fits in --seconds (at least
MIN_ROUNDS).  After each round it starts SETUP_PER_ROUND more workers only
to build the inputs, then reference.py, a fixed amount of pure-Python work.
The host's speed drifts by up to a half over seconds and minutes, so every
time a round measured is scaled by the reference runs on either side of
it, to a host on which reference.py takes REFERENCE_S; each named call
then counts at its median over the rounds.  With --trace 1 it runs one
untraced and one traced round and reports the per-layer metrics,
unscaled, and the tracing overhead.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Each run also appends a record
with the machine, the load and the per-round figures to bench/out/runs.jsonl.
Metric names and units come from BENCHMARK.json.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_PER_ROUND = 1
MIN_ROUNDS = 3
# Times are reported as on a host where the work of reference.py takes this
# long; it took 0.25 to 0.35 s on the calibration host.
REFERENCE_S = 0.25
RUN_DEADLINE_S = 175


class RoundFailed(RuntimeError):
    pass


def spawn(workload, seed, deadline, *flags):
    """One worker process; returns its record with setup_s and round_s."""
    cmd = [sys.executable, str(BENCH / "worker.py"),
           "--workload", workload, "--seed", str(seed), *flags]
    env = dict(os.environ, PYTHONHASHSEED="0")
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        raise RoundFailed("worker for %s exceeded the run deadline" % workload)
    t1 = time.monotonic()
    if proc.returncode != 0:
        raise RoundFailed("worker exited %d: %s" % (proc.returncode, proc.stderr.strip()))
    rec = json.loads(proc.stdout.strip().splitlines()[-1])
    rec["setup_s"] = rec["ready"] - t0
    rec["round_s"] = t1 - t0
    return rec


def reference(deadline):
    """Seconds reference.py took for its fixed work."""
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "reference.py")], check=True,
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except (subprocess.TimeoutExpired, subprocess.CalledProcessError) as exc:
        raise RoundFailed("reference run failed: %s" % exc)
    return float(proc.stdout)


def machine():
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version()}


def end_to_end(rounds, setups, refs):
    """The metrics.  Round k ran between reference runs k and k + 1; each
    time it measured is multiplied by REFERENCE_S over their mean, and each
    named call then counts at its median over the rounds.  setups[k] holds
    the set-up samples taken next to round k."""
    scale = [2 * REFERENCE_S / (refs[k] + refs[k + 1]) for k in range(len(rounds))]
    scaled, verdicts = {}, []
    for k, r in enumerate(rounds):
        for name, seconds, is_verdict in r["timings"]:
            if is_verdict and name not in scaled:
                verdicts.append(name)
            scaled.setdefault(name, []).append(seconds * scale[k])
    typical = {name: statistics.median(values) for name, values in scaled.items()}
    lat = sorted(typical[name] * 1e3 for name in verdicts)
    return {
        "setup_s": statistics.median(s * scale[k] for k, group in enumerate(setups)
                                     for s in group),
        "wall_s": sum(typical.values()),
        "verdict_ms_p50": statistics.median(lat) if lat else None,
        "verdict_ms_tail": lat[-1] if lat else None,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
    }


def measure(args, spec):
    deadline = time.monotonic() + RUN_DEADLINE_S
    go = lambda *flags: spawn(args.workload, args.seed, deadline, *flags)
    if args.trace:
        OUT.mkdir(exist_ok=True)
        names = [m["name"] for m in spec["per_layer"] if m["name"] != "trace.overhead_s"]
        base = go()
        traced = go("--trace", "--metrics", ",".join(names), "--spans-out",
                    str(OUT / ("spans-%s-seed%d.json.gz" % (args.workload, args.seed))))
        wall = lambda r: sum(seconds for _, seconds, _ in r["timings"])
        values = dict(traced["layers"], **{"trace.overhead_s": wall(traced) - wall(base)})
        return [base, traced], [], [], values
    # rounds until the next one would end past --seconds, each followed by
    # set-up-only workers and a reference run
    refs = [reference(deadline)]
    rounds, setups = [], []
    start = time.monotonic()
    while True:
        rounds.append(go())
        setups.append([rounds[-1]["setup_s"]] + [
            go("--setup-only")["setup_s"] for _ in range(SETUP_PER_ROUND)])
        refs.append(reference(deadline))
        now = time.monotonic()
        per_round = (now - start) / len(rounds)
        if len(rounds) >= MIN_ROUNDS and now - start + per_round > args.seconds:
            break
        if now + per_round > deadline:
            break
    return rounds, setups, refs, end_to_end(rounds, setups, refs)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "quiltops" / "__init__.py").is_file():
        print("no quiltops source under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    try:
        with open(ROOT / "BENCHMARK.json") as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        print("cannot read BENCHMARK.json: %s" % exc, file=sys.stderr)
        return 2
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print("unknown workload %r" % args.workload, file=sys.stderr)
        return 2

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "time": time.time(), "machine": machine(),
              "load_before": os.getloadavg()[0]}
    try:
        rounds, setups, refs, values = measure(args, spec)
    except RoundFailed as exc:
        print(exc, file=sys.stderr)
        return 1
    record["load_after"] = os.getloadavg()[0]
    record["overloaded"] = max(record["load_before"], record["load_after"]) > record["machine"]["nproc"]

    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    metrics_spec = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]}
               for m in metrics_spec}
    missing = {}
    for r in rounds:
        missing.update(r.get("missing", {}))
    for name, reason in missing.items():
        metrics[name]["missing"] = reason
    result = {"correct": failed == 0 and attempted > 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    record.update(setups_s=setups, refs_s=refs, result=result, rounds=[
        {k: r.get(k) for k in ("setup_s", "round_s", "timings", "peak_rss_mb",
                               "attempted", "failed", "errors", "spans", "ranking")}
        for r in rounds])
    OUT.mkdir(exist_ok=True)
    with open(OUT / "runs.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")

    m = record["machine"]
    print("machine: %d cpus, %s, python %s; load %.2f -> %.2f%s" % (
        m["nproc"], m["cpu"], m["python"], record["load_before"],
        record["load_after"], " (OVERLOADED)" if record["overloaded"] else ""))
    print("%s seed %d: %d rounds, %d verdicts, failed_frac %.4g (1)" % (
        args.workload, args.seed, len(rounds), attempted, failed / max(attempted, 1)))
    if refs:
        print("reference process: %s ms" % " ".join("%.0f" % (t * 1e3) for t in refs))
    for r in rounds:
        for err in r["errors"]:
            print("failed: " + err.strip().splitlines()[-1])
    for name, mv in metrics.items():
        print("  %-36s %s %s%s" % (name, mv["value"], mv["unit"],
                                   "  (missing: %s)" % mv["missing"] if "missing" in mv else ""))
    if args.trace:
        ranking = rounds[-1]["ranking"]
        if ranking:
            print("span with the largest total time below the top level: "
                  "%s (%.3f s total, %.3f s self)" % tuple(ranking[0]))
        for name, total, self_s in ranking[:12]:
            print("  %-28s total %9.3f s  self %9.3f s" % (name, total, self_s))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
