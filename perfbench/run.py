"""Benchmark of the pemshuffle simulator: simulated I/Os and host time.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py            # every workload, untraced then traced

Each workload runs in a fresh Python process (worker.py), one after
another, so imports, memory and caches never carry over.  Untraced, the
run reports the end-to-end metrics and times set-up in further fresh
processes; traced, it reports the per-layer metrics.  The last line of
standard output is one JSON object; the result files go to
perfbench/results/.  The exit code is not 0 if any check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
WORKLOADS = ("sweep-acceptance", "transpose-h16", "reduce-h16")
SETUP_SAMPLES = 9       # fresh processes timed for setup_s, median reported
RUN_LIMIT_S = 170       # one workload, from start to result


def spawn(workload: str, seed: int, seconds: float, trace: int, deadline: float,
          setup_only: bool = False) -> tuple[float, dict | None]:
    """Run worker.py once; returns its set-up seconds and its result."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--results", RESULTS] + (["--setup-only"] if setup_only else [])
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired as exc:
        raise SystemExit(f"{workload}: worker did not finish in time") from exc
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload}: worker exited with {proc.returncode}")
    ready = result = None
    for line in proc.stdout.splitlines():
        if line.startswith("READY "):
            ready = float(line.split()[1])
        elif line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
    if ready is None or (result is None and not setup_only):
        raise SystemExit(f"{workload}: worker printed no result")
    return ready - t0, result


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One run of one workload: the contract's result object plus detail."""
    deadline = time.monotonic() + RUN_LIMIT_S
    setup, res = spawn(workload, seed, seconds, trace, deadline)
    if trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in res["layers"].items()}
    else:
        setups = [setup] + [spawn(workload, seed, seconds, 0, deadline, True)[0]
                            for _ in range(SETUP_SAMPLES - 1)]
        wall = statistics.median(res["walls"])
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": wall, "unit": "s"},
            "sim_io_per_s": {"value": res["sim_io"] / wall, "unit": "1/s"},
            "sim_io": {"value": res["sim_io"], "unit": "count"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    return {"correct": res["correct"], "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics,
            "detail": {k: res[k] for k in ("problems", "rounds", "rows_per_round", "walls")}}


def report(name: str, out: dict) -> None:
    d = out["detail"]
    print(f"== {name}: {d['rounds']} round(s) of {d['rows_per_round']} rows, "
          f"{out['failed']} of {out['attempted']} rows failed, "
          f"checks {'pass' if out['correct'] else 'FAIL'}")
    for problem in d["problems"]:
        print(f"   ! {problem}")
    for metric, m in out["metrics"].items():
        print(f"   {metric:42s} {m['value']:>16.6g} {m['unit']}")


def save(name: str, out: dict) -> None:
    with open(os.path.join(RESULTS, f"{name}.json"), "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


def run_all(seed: int, seconds: float) -> dict:
    """Every workload untraced, then traced; the traced machine.steps must
    equal the untraced sim_io."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        plain = run_workload(workload, seed, seconds, 0)
        traced = run_workload(workload, seed, seconds, 1)
        for trace, out in ((0, plain), (1, traced)):
            save(f"{workload}-seed{seed}-trace{trace}", out)
            report(f"{workload} trace={trace}", out)
            combined["correct"] &= out["correct"]
            combined["attempted"] += out["attempted"]
            combined["failed"] += out["failed"]
        steps = traced["metrics"]["machine.steps"]["value"]
        sim_io = plain["metrics"]["sim_io"]["value"]
        if steps != sim_io:
            print(f"   ! traced machine.steps {steps} != untraced sim_io {sim_io}")
            combined["correct"] = False
        overhead = traced["metrics"]["trace.wall_s"]["value"] / plain["metrics"]["wall_s"]["value"] - 1
        print(f"   tracing overhead on wall_s: {overhead:+.1%}")
        for out in (plain, traced):
            for metric, m in out["metrics"].items():
                combined["metrics"][f"{workload}.{metric}"] = m
        combined["metrics"][f"{workload}.trace_overhead"] = {"value": overhead * 100, "unit": "%"}
    return combined


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="run one workload (default: all, untraced and traced)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0,
                    help="run whole rounds of the workload while one more fits in "
                         "this many seconds; at least one round")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "pemshuffle", "__init__.py")):
        print(f"no pemshuffle sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.makedirs(RESULTS, exist_ok=True)
    if args.workload:
        out = run_workload(args.workload, args.seed, args.seconds, args.trace)
        save(f"{args.workload}-seed{args.seed}-trace{args.trace}", out)
        report(args.workload, out)
        del out["detail"]
    else:
        out = run_all(args.seed, args.seconds)
    print(json.dumps(out))
    return 0 if out["correct"] and not out["failed"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
