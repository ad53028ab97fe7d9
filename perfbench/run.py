"""Benchmark of omsemi: three workloads, one command.

    python3 perfbench/run.py --workload syn-render --seed 1 --seconds 25 \
        --trace 0

Run from the root of a checkout.  The parent process makes the seeded
inputs and their reference results, starts one worker process at a time
(worker.py), checks the outputs the worker returns, and prints one JSON
line last: end-to-end metrics with --trace 0, per-layer metrics from a
traced run with --trace 1.  End-to-end times are scaled to a reference
host speed by calibration samples that the worker takes (worker.py).  `--short` runs every workload, untraced and
traced, on a quarter of each pool for one round, as a quick end-to-end
test.  See README.md for the workloads and the metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import check
import gen
from spans import PER_LAYER

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_RUNS = 5                 # fresh workers whose set-up time is taken
WORKER_TIMEOUT_S = 170
UNITS = {"setup_s": "s", "ops_per_s": "1/s", "latency_p50_s": "s",
         "latency_p90_s": "s", "peak_rss_mb": "MB"}


def run_worker(job, deadline):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py")],
        input=json.dumps(job), capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError("worker exited with %d:\n%s"
                           % (proc.returncode, proc.stderr[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload, seed, seconds, trace, root, short=False):
    """Run one workload; returns the result object the benchmark prints."""
    deadline = time.monotonic() + WORKER_TIMEOUT_S
    ops = gen.WORKLOADS[workload](seed)
    if short:
        ops = [op for i, op in enumerate(ops) if i % 4 == 0 or "fault" in op]
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    job = {"root": root, "seconds": seconds, "trace": trace,
           "ops": [{"kind": op["kind"], "args": op["args"]} for op in ops],
           "trace_path": os.path.join(
               out_dir, "trace-%s-%d.jsonl" % (workload, seed))}
    # set-up only workers run before and after the measuring one, so that
    # the median set-up time samples the host at both ends of the run
    extra = 0 if trace else 1 if short else SETUP_RUNS - 1
    setup_times = [run_worker({"root": root}, deadline)["setup_s"]
                   for _ in range(extra // 2)]
    res = run_worker(job, deadline)
    setup_times.append(res["setup_s"])
    setup_times += [run_worker({"root": root}, deadline)["setup_s"]
                    for _ in range(extra - extra // 2)]

    verdicts = [check.classify(op, out)
                for op, out in zip(ops, res["outputs"])]
    wrong = [(i, v) for i, v in enumerate(verdicts) if v.startswith("wrong")]
    wrong += [(i, "wrong: a timed round gave another output")
              for i in res["mismatched"]]
    for i, why in wrong[:5]:
        print("%s op %d %s: %s" % (workload, i, ops[i]["args"], why),
              file=sys.stderr)
    rounds = len(res["round_s"])
    lat = res["latencies"]            # scaled to the calibration
    summary = {"workload": workload, "seed": seed, "trace": trace,
               "rounds": rounds, "ops_per_round": len(ops),
               "round_s": [round(t, 3) for t in res["round_s"]],
               "cal_median_s": (statistics.median(res["cal_s"])
                                if res["cal_s"] else None)}
    if trace:
        metrics = {name: {"value": res["layers"][name],
                          "unit": "s" if name.endswith("_s") else "count"}
                   for name in PER_LAYER}
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "ops_per_s": len(lat) / sum(lat),
            "latency_p50_s": statistics.median(lat),
            "latency_p90_s": statistics.quantiles(lat, n=10)[-1],
            "peak_rss_mb": res["peak_rss_mb"],
        }
        metrics = {k: {"value": v, "unit": UNITS[k]}
                   for k, v in values.items()}
    print(json.dumps(summary))
    return {"correct": not wrong,
            "attempted": len(ops) * rounds,
            "failed": verdicts.count("failed") * rounds,
            "metrics": metrics}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=sorted(gen.WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--short", action="store_true")
    args = p.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "omsemi", "cli.py")):
        print("run from the root of an omsemi checkout: src/omsemi is "
              "missing", file=sys.stderr)
        return 2
    if args.short:
        results = [measure(w, args.seed, 0, t, root, short=True)
                   for w in sorted(gen.WORKLOADS) for t in (0, 1)]
        print(json.dumps({"correct": all(r["correct"] for r in results),
                          "runs": len(results)}))
        return 0 if all(r["correct"] for r in results) else 1
    if args.workload is None:
        p.error("--workload is required")
    print(json.dumps(measure(args.workload, args.seed, args.seconds,
                             args.trace, root)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
