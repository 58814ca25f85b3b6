"""Writes BENCH_<n>.json: the benchmark's stage times at fixed seeds.

    python3 scripts/bench.py N

For each workload of BENCHMARK.json and each seed of SEEDS it runs
``perfbench/run.py --trace 0 --seconds 20`` and reads the two JSON lines
that run.py prints last.  Each seed first runs once with ``--seconds 0``, so
that a log workload's raw log is cached and ``peak_rss_mb`` is the
pipeline's own, not the log writer's (``ru_maxrss`` survives ``exec``).

The file holds, per workload and metric (every stage time and
``peak_rss_mb``), the median, IQR and n over the pipelines of all seeds;
per seed, run.py's info fields without samples and checks, and ``correct``;
and the git revision, CPU model and OpenBLAS core, since files compare only
on one host.  ROADMAP item 2's ``--out`` for run.py will replace this script.
"""

import ctypes
import json
import os
import subprocess
import sys
from statistics import median, quantiles

import numpy  # noqa: F401  (loads the OpenBLAS whose core is named)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (3101, 3102, 3103)
SECONDS = 20


def run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    lines = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True,
                           text=True).stdout.splitlines()
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


def blas_core():
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        for symbol in ("scipy_openblas_get_corename64_", "openblas_get_corename"):
            fn = getattr(ctypes.CDLL(path), symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_char_p
                return fn().decode()
    return None


def cpu_model():
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        return next((line.split(":", 1)[1].strip() for line in fh
                     if line.startswith("model name")), None)


def main(number):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        workloads = [w["name"] for w in json.load(fh)["workloads"]]
    revision = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=False,
                              capture_output=True, text=True).stdout.strip() or None
    bench = {"revision": revision, "cpu_model": cpu_model(), "blas_core": blas_core(),
             "seeds": list(SEEDS), "seconds": SECONDS, "workloads": {}}
    for workload in workloads:
        values, runs = {}, []
        for seed in SEEDS:
            run(workload, seed, 0)
            info, result = run(workload, seed, SECONDS)
            for name, sample in info.pop("samples").items():
                values.setdefault(name, []).extend(sample["values"])
            del info["ops"]
            runs.append(dict(info, correct=result["correct"]))
        metrics = {}
        for name, v in values.items():
            q1, _, q3 = quantiles(v, n=4) if len(v) > 1 else (v[0],) * 3
            metrics[name] = {"median": median(v), "iqr": q3 - q1, "n": len(v)}
        bench["workloads"][workload] = {"metrics": metrics, "runs": runs}
    with open(os.path.join(ROOT, "BENCH_%d.json" % number), "w", encoding="utf-8") as fh:
        json.dump(bench, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main(int(sys.argv[1]))
