#!/usr/bin/env python3
"""Run one workload of the GoldenEye benchmark.

    python3 perfbench/run.py --workload fig3_infer --seed 1 --seconds 10 --trace 0

Run from the repository root. The script
  1. builds perfbench/ (which compiles the library from src/) into
     .bench_build/cmake,
  2. trains the benchmark models once into a trained-weight cache owned by
     the benchmark (.bench_build/model_cache-<hash of src/>); the cache is
     built in a temporary directory and renamed into place only when
     complete, so a run never sees a partly trained cache,
  3. runs the workload and checks that its metrics are exactly the ones
     BENCHMARK.json lists for the mode (end_to_end for --trace 0, per_layer
     for --trace 1),
  4. prints the JSON result as the last line of standard output.

Build and training logs go to standard error. Any failure exits non-zero
without printing a result.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(WORK, "cmake")
BINARY = os.path.join(BUILD, "perfbench")
PINS = os.path.join(HERE, "pins.txt")
# Fixed pool size. Three workers on a four-core machine leave one core for
# the service's session threads and the in-process worker, and for the
# host: runs on a shared host spread less than with every core busy.
MAX_THREADS = 3
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def child_env():
    # Compiler and program temporaries stay inside the checkout.
    tmp = os.path.join(WORK, "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def call(cmd, **kw):
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=child_env(), **kw)
    if proc.returncode != 0:
        raise BenchError(f"command failed ({proc.returncode}): {' '.join(cmd)}")


def build(jobs):
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        call(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    call(["cmake", "--build", BUILD, "-j", str(jobs)])


def source_hash():
    """Hash of the library sources: trained weights depend on nothing else."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(src):
        raise BenchError("library sources not found at src/")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def prepare_cache(threads):
    cache = os.path.join(WORK, "model_cache-" + source_hash())
    if os.path.exists(os.path.join(cache, "READY")):
        return cache
    tmp = cache + ".partial"
    shutil.rmtree(tmp, ignore_errors=True)
    log("training the benchmark models (once per source tree)")
    call([BINARY, "prepare", "--cache", tmp, "--threads", str(threads)])
    with open(os.path.join(tmp, "READY"), "w") as f:
        f.write("complete\n")
    shutil.rmtree(cache, ignore_errors=True)
    os.rename(tmp, cache)
    return cache


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    threads = min(MAX_THREADS, usable_cpus())
    try:
        expected = expected_metrics(args.trace)
        build(usable_cpus())
        cache = prepare_cache(threads)
        scratch = os.path.join(WORK, "scratch")
        os.makedirs(scratch, exist_ok=True)
        cmd = [BINARY, "run", "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--cache", cache, "--pins", PINS,
               "--scratch", scratch, "--threads", str(threads)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              env=child_env(), text=True,
                              timeout=RUN_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchError(f"{args.workload} exited {proc.returncode}")
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != expected:
            missing = sorted(set(expected) - set(got))
            extra = sorted(set(got) - set(expected))
            raise BenchError(f"metric set differs from BENCHMARK.json: "
                             f"missing {missing}, unexpected {extra}, or "
                             f"units differ")
    except (BenchError, OSError, ValueError, KeyError,
            subprocess.TimeoutExpired) as e:
        log(f"error: {e}")
        return 1
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
