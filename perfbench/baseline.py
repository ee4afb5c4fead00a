"""Runs every workload over several seeds and records the summary.

    python3 perfbench/baseline.py --seeds 1 2 3 4 5 6 7 8 9 10 --output perfbench/baseline.json

For each workload: one ``run.py --trace 0`` run per seed, then one
``--trace 1`` run on the first seed.  Each end-to-end metric is summarised
by its median and quartiles over the seeds, and its spread, the distance
between the quartiles as a share of the median, is set against the bound in
``BENCHMARK.json``.  The output also keeps every run's values and
environment record, so two commits can be compared run by run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _run(spec, workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    result["env"] = json.loads(lines[-2][len("env "):])
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--output", required=True)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    summary = {"run_seconds": spec["run_seconds"], "seeds": args.seeds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [_run(spec, workload, seed, 0) for seed in args.seeds]
        traced = _run(spec, workload, args.seeds[0], 1)
        metrics = {}
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            median = statistics.median(values)
            spread = (q3 - q1) / median
            metrics[m["name"]] = {"unit": m["unit"], "median": median, "q1": q1, "q3": q3,
                                  "spread": spread, "bound": m["bound"], "values": values}
            flag = "" if spread <= m["bound"] / 3 else "  above bound/3"
            print(f"{workload:14s} {m['name']:12s} median {median:10.4f} {m['unit']:6s} "
                  f"spread {spread:.4f} (bound {m['bound']}){flag}", flush=True)
        summary["workloads"][workload] = {
            "end_to_end": metrics,
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "all_correct": all(r["correct"] for r in runs),
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "per_layer_seed": args.seeds[0],
            "env": [r["env"] for r in runs] + [traced["env"]],
        }
    with open(args.output, "w") as fh:
        json.dump(summary, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
