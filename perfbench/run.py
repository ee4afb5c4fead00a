"""Benchmark of the chain-perturb CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--quick]

Run from the root of a checkout.  One run makes the workload's inputs from
the seed, imports ``chain_perturb`` once untimed (which writes its bytecode
cache and warms the file cache), then repeats the workload for about
``--seconds`` seconds, at least three times, each repetition a fresh
``perfbench/worker.py`` process that calls ``chain_perturb.cli.main``.  Repetitions run one after another,
so load comes from one process.

A repetition fails if its exit code is not 0, if its outputs (every file but
``manifest.json``, plus the command's stdout) differ from the first
repetition's, or if the first repetition's outputs fail the workload's check.

With ``--trace 0`` the result holds the end-to-end metrics, medians over the
repetitions.  With ``--trace 1`` the repetitions cycle through three
kinds: traced by the span tracer of ``tracing.py``, traced with its memory
peaks, and untraced.  The result holds the per-layer metrics, medians over
the traced repetitions (the peaks from the memory-traced ones, the rest from
the others), and the tracing overhead, the median traced minus the median
untraced wall time.  Metric
names and units come from ``BENCHMARK.json``.  The last line of stdout is
the result as one JSON object; the line before it records the environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
WORKER = os.path.join(HERE, "worker.py")
MIN_REPS = 3
TRACE_CYCLE = ("spans", "memory", None)
REP_TIMEOUT_S = 150.0


def _git_revision():
    # The ceiling keeps git from looking for a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() or None


def _child_env():
    env = dict(os.environ)
    env.pop("CHAIN_PERTURB_THREADS", None)
    # An installed package has its bytecode cached; the warm-up import writes it.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def _spawn(job, env, log):
    """Run one worker; returns (setup seconds, result dict or None)."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER, json.dumps(job)], cwd=ROOT, env=env,
                            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=log,
                            text=True)
    timer = threading.Timer(REP_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        rest = proc.stdout.read()
        proc.wait()
    finally:
        timer.cancel()
        proc.stdout.close()
    lines = rest.splitlines()
    if ready != "ready\n" or proc.returncode != 0 or (job.get("argv") and not lines):
        return setup, None
    return setup, json.loads(lines[-1]) if lines else {}


def _digest(out_dir):
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        if name != "manifest.json":
            h.update(name.encode() + b"\0")
            with open(os.path.join(out_dir, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _output_bytes(out_dir):
    # The manifest's size moves with the digits of its timing, so it is left out.
    return sum(os.path.getsize(os.path.join(out_dir, name))
               for name in os.listdir(out_dir) if name not in ("stdout.txt", "manifest.json"))


def _median(values):
    return statistics.median(values) if values else 0


def run(workload, seed, seconds, trace, quick):
    from tracing import MEMORY_METRICS, layer_metrics
    from workloads import CheckFailed, WORKLOADS

    wl = WORKLOADS[workload]
    work = os.path.join(WORK, workload)
    shutil.rmtree(work, ignore_errors=True)
    in_dir = os.path.join(work, "input")
    os.makedirs(in_dir)
    cli_args = wl.inputs(in_dir, seed, quick)
    env = _child_env()
    out, first_out = os.path.join(work, "out"), os.path.join(work, "out0")
    reps = []
    with open(os.path.join(work, "stderr.log"), "w") as log:
        _spawn({}, env, log)
        began = time.perf_counter()
        last = 0.0
        while len(reps) < MIN_REPS or time.perf_counter() - began + last <= seconds:
            rep_start = time.perf_counter()
            traced = TRACE_CYCLE[len(reps) % len(TRACE_CYCLE)] if trace else None
            shutil.rmtree(out, ignore_errors=True)
            os.makedirs(out)
            spans = os.path.join(work, "spans.json")
            job = {"argv": ["--out-dir", out] + cli_args, "stdout": os.path.join(out, "stdout.txt"),
                   "trace": spans if traced else None, "trace_memory": traced == "memory",
                   "env": not reps}
            setup, result = _spawn(job, env, log)
            rep = {"setup_s": setup, "result": result, "traced": traced, "digest": None}
            if result is not None and result["exit"] == 0:
                rep["digest"] = _digest(out)
                if traced:
                    with open(spans) as fh:
                        rep["layers"] = layer_metrics(json.load(fh))
                    rep["layers"]["cli.output_bytes"] = _output_bytes(out)
            if not reps:
                os.rename(out, first_out)  # kept for the output check
            reps.append(rep)
            last = time.perf_counter() - rep_start

    first = reps[0]
    problems = []
    if first["digest"] is None:
        code = first["result"]["exit"] if first["result"] else "no result"
        problems.append(f"first repetition failed ({code}); see "
                        f"{os.path.join(work, 'stderr.log')}")
    if first["result"] is not None:
        # Also after a non-zero exit, so the message names what the outputs got wrong.
        try:
            wl.check(first_out, in_dir, seed, quick)
        except (CheckFailed, OSError, KeyError, ValueError) as exc:
            problems.append(f"output check: {exc}")
    problem = "; ".join(problems) or None
    if problem:
        sys.stderr.write(f"perfbench: {workload} seed {seed}: {problem}\n")
    failed = sum(1 for r in reps if problem or r["digest"] != first["digest"])

    done = [r for r in reps if r["result"] is not None]
    if trace:
        layered = {kind: [r["layers"] for r in reps if r["traced"] == kind and "layers" in r]
                   for kind in ("spans", "memory")}
        names = layered["spans"][0] if layered["spans"] else {}
        metrics = {k: _median([m[k] for m in layered["memory" if k in MEMORY_METRICS else "spans"]])
                   for k in names}
        metrics["trace.overhead_s"] = (
            _median([r["result"]["wall_s"] for r in done if r["traced"] == "spans"])
            - _median([r["result"]["wall_s"] for r in done if not r["traced"]]))
    else:
        metrics = {k: _median([r["result"][k] for r in done])
                   for k in ("wall_s", "cpu_s", "peak_rss_mb")}
        metrics["setup_s"] = _median([r["setup_s"] for r in reps])
        metrics["pass_rate"] = (len(reps) - failed) / len(reps)
    env_record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "quick": quick,
        "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "blas_threads": (first["result"] or {}).get("blas_threads"),
        "CHAIN_PERTURB_THREADS_set": "CHAIN_PERTURB_THREADS" in os.environ,
        "git_revision": _git_revision(),
        "problem": problem,
        "repetitions": len(reps), "traced_repetitions": sum(bool(r["traced"]) for r in reps),
        "wall_s_samples": [r["result"]["wall_s"] for r in done],
    }
    return failed == 0, len(reps), failed, metrics, env_record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--quick", action="store_true", help="tiny sizes, for the self-test")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "chain_perturb", "__init__.py")):
        sys.stderr.write(f"perfbench: no chain_perturb sources under {SRC}\n")
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        sys.stderr.write(f"perfbench: unknown workload {args.workload!r}\n")
        return 2
    sys.path.insert(0, SRC)
    correct, attempted, failed, values, env_record = run(
        args.workload, args.seed, args.seconds, args.trace, args.quick)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    if not correct:
        values = {m["name"]: values.get(m["name"], 0.0) for m in declared}
    if set(values) != {m["name"] for m in declared}:
        raise RuntimeError(f"computed metrics {sorted(values)} differ from BENCHMARK.json")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    for name, m in metrics.items():
        print(f"{args.workload:14s} {name:34s} {m['value']:>16.6g} {m['unit']}")
    print("env " + json.dumps(env_record))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
