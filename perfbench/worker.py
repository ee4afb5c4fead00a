"""One repetition of a workload, in a fresh process.

``python3 perfbench/worker.py '<job json>'`` imports ``chain_perturb``,
writes ``ready`` on stdout, runs ``chain_perturb.cli.main`` on the job's
arguments and writes one JSON line with the exit code, wall and CPU seconds
of the command and the process's peak RSS.  The command's own stdout goes to
the job's ``stdout`` file, so it can be compared between repetitions.  With a
``trace`` path the tracer is installed after ``ready`` and the spans are
written there; ``trace_memory`` adds the tracemalloc peaks.  A job without
``argv`` only imports: it warms the bytecode and file caches before anything
is timed.
"""

import ctypes
import json
import resource
import sys
import time


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if it cannot be read."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def main():
    job = json.loads(sys.argv[1])
    from chain_perturb import cli

    proto = sys.stdout
    proto.write("ready\n")
    proto.flush()
    if job.get("argv") is None:
        return 0
    tracer = None
    if job.get("trace"):
        from tracing import Tracer
        tracer = Tracer(memory=job["trace_memory"])
        tracer.install()
    with open(job["stdout"], "w") as out:
        sys.stdout = out
        try:
            before = resource.getrusage(resource.RUSAGE_SELF)
            start = time.perf_counter()
            try:
                code = cli.main(job["argv"])
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            wall = time.perf_counter() - start
            after = resource.getrusage(resource.RUSAGE_SELF)
        finally:
            sys.stdout = proto
    if tracer is not None:
        tracer.dump(job["trace"])
    result = {
        "exit": code,
        "wall_s": wall,
        "cpu_s": (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime),
        "peak_rss_mb": after.ru_maxrss / 1024.0,
        "blas_threads": _blas_threads() if job.get("env") else None,
    }
    proto.write(json.dumps(result) + "\n")
    proto.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
