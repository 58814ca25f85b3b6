"""critcf pipeline benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each pipeline (``critcf synth|prepare`` ->
``train`` -> ``evaluate``, driven through ``critcf.cli.main``) runs in a
fresh process; pipelines repeat until S seconds have passed, at least
MIN_PIPELINES times.  BLAS keeps its default thread count.

With ``--trace 0`` the last stdout line reports the end-to-end metrics of
BENCHMARK.json, each the median over all pipelines of the run.  With
``--trace 1`` untraced and traced pipelines alternate; the line reports the
per-layer metrics of the traced pipelines (median across them) and the
tracing overhead against the untraced ones.  Both print every metric by
name and unit first, and before the last line a line of run facts:
versions, BLAS threads, ``src/`` line count, adjacency nonzeros, output
digests, test HR/NDCG@10, every stage-time sample with its median, count
and tail percentile, and every check.

An operation is one pipeline stage or one output check; ``failed`` counts
stages that exit non-zero or raise and checks that do not hold.  Without
the critcf sources next to this directory the script exits 2 and prints no
result.
"""

import argparse
import ctypes
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")

MIN_PIPELINES = 2
# A run must end within 180 s of its start: no pipeline starts that is
# expected to end after LAST_END, and none may run past DEADLINE.
LAST_END = 150.0
DEADLINE = 170.0

STAGE_TIMES = ("setup_s", "epoch_s", "eval_s", "ckpt_save_s", "ckpt_load_s", "total_s")
# The stage times that BENCHMARK.json bounds.  Epoch, evaluation and
# checkpoint times are printed but not bounded: on a 2-vCPU VM their
# ten-run spread reached 0.27-0.37 of the median as host speed drifted over
# minutes, past the largest bound the benchmark may set (0.25).
BOUNDED = ("setup_s", "total_s")


def tail(values):
    """Highest percentile with at least 10 samples above it, or None."""
    n = len(values)
    if n < 11:
        return None
    return {"pct": 100.0 * (n - 10) / n, "value": sorted(values)[n - 11]}


def blas_threads():
    """Thread count of the OpenBLAS loaded into this process, if found."""
    try:
        with open("/proc/self/maps", "r", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return {"lib": os.path.basename(path), "threads": fn()}
    return None


def src_lines():
    total = 0
    for folder, _, files in os.walk(os.path.join(ROOT, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(folder, name), "rb") as fh:
                    total += sum(1 for _ in fh)
    return total


def run_pipeline(args, index, traced, raw_log, timeout):
    workdir = os.path.join(WORK, "%s-%d-%d-%d" % (args.workload, args.seed, os.getpid(), index))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    out = os.path.join(workdir, "result.json")
    cmd = [sys.executable, os.path.join(HERE, "pipeline.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--workdir", workdir, "--trace", str(int(traced)),
           "--out", out]
    if raw_log:
        cmd += ["--raw-log", raw_log]
    if index == 0:
        cmd.append("--full-checks")
    if traced:
        cmd += ["--spans", os.path.join(WORK, "spans-%s-%d.json" % (args.workload, args.seed))]
    log = os.path.join(WORK, "last-%s.log" % args.workload)
    try:
        with open(log, "w", encoding="utf-8") as fh:
            subprocess.run(cmd, stdout=fh, stderr=subprocess.STDOUT, cwd=ROOT,
                           timeout=timeout, check=False)
        with open(out, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, subprocess.TimeoutExpired) as exc:
        print("pipeline %d failed: %s (log: %s)" % (index, exc, log), file=sys.stderr)
        return {"ops": [["pipeline %d" % index, False]], "traced": traced}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None):
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS, write_raw_log

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()

    if not os.path.isfile(os.path.join(ROOT, "src", "critcf", "cli.py")):
        print("error: critcf sources not found under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2

    raw_log = None
    if WORKLOADS[args.workload].synth is None:
        raw_log = os.path.join(WORK, "cache", "log-%d.tsv" % args.seed)
        if not os.path.exists(raw_log):
            os.makedirs(os.path.dirname(raw_log), exist_ok=True)
            write_raw_log(raw_log, args.seed)

    pipelines = []
    start = time.monotonic()
    while True:
        traced = bool(args.trace) and len(pipelines) % 2 == 1
        timeout = DEADLINE - (time.monotonic() - started)
        pipelines.append(run_pipeline(args, len(pipelines), traced, raw_log, timeout))
        n = len(pipelines)
        elapsed = time.monotonic() - start
        if (n >= MIN_PIPELINES and elapsed >= args.seconds) \
                or time.monotonic() - started + elapsed / n > LAST_END:
            break

    ops = [op for p in pipelines for op in p["ops"]]
    done = [p for p in pipelines if "timings" in p]
    # Same-seed pipelines must write byte-identical outputs.
    for key in ("history_sha256", "checkpoint_sha256", "test_hr10", "test_ndcg10"):
        ops.append(["pipelines agree on %s" % key, len({p.get(key) for p in done}) == 1])
    failed = sum(1 for _, ok in ops if not ok)

    untraced = [p for p in done if not p["traced"]]
    traced_runs = [p for p in done if p["traced"]]
    if not untraced or (args.trace and not traced_runs):
        print("error: no pipeline completed; see %s" % WORK, file=sys.stderr)
        return 1

    samples = {name: [v for p in untraced for v in p["timings"][name]]
               for name in STAGE_TIMES}
    samples["peak_rss_mb"] = [p["peak_rss_mb"] for p in untraced]
    first = done[0]
    full = next((p for p in done if "records" in p), {})
    info = {
        "workload": args.workload, "seed": args.seed, "pipelines": len(pipelines),
        "python": platform.python_version(), "numpy": _version("numpy"),
        "scipy": _version("scipy"), "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), "blas": blas_threads(),
        "src_lines": src_lines(), "adjacency_nnz": full.get("adjacency_nnz"),
        "records": full.get("records"), "history_sha256": first.get("history_sha256"),
        "checkpoint_sha256": first.get("checkpoint_sha256"),
        "test_hr10": first.get("test_hr10"), "test_ndcg10": first.get("test_ndcg10"),
        "fail_frac": failed / len(ops),
        "samples": {name: {"median": median(v), "n": len(v), "tail": tail(v), "values": v}
                    for name, v in samples.items()},
        "ops": ops, "missing_calls": first.get("missing_calls"),
    }

    if args.trace:
        untraced_total = median([t for p in untraced for t in p["timings"]["total_s"]])
        traced_total = median([t for p in traced_runs for t in p["timings"]["total_s"]])
        names = traced_runs[0]["layers"]
        metrics = {name: {"value": median([p["layers"][name][0] for p in traced_runs]),
                          "unit": names[name][1]} for name in names}
        metrics["datasets.records"] = {"value": full.get("records", 0), "unit": "count"}
        metrics["trace.total_s"] = {"value": traced_total, "unit": "s"}
        metrics["trace.overhead_frac"] = {"value": traced_total / untraced_total - 1.0,
                                          "unit": "frac"}
    else:
        metrics = {name: {"value": median(samples[name]), "unit": "s"} for name in BOUNDED}
        metrics["peak_rss_mb"] = {"value": median(samples["peak_rss_mb"]), "unit": "MB"}

    # Printed but not reported as metrics: the unbounded stage times, test
    # quality (this short training leaves HR/NDCG@10 differing by 20-50% from
    # seed to seed) and fail_frac, which is 0 when all is well.
    shown = dict(metrics)
    if not args.trace:
        shown.update((name, {"value": median(samples[name]), "unit": "s"})
                     for name in STAGE_TIMES if name not in BOUNDED)
    shown.update(test_hr10={"value": first["test_hr10"], "unit": "frac"},
                 test_ndcg10={"value": first["test_ndcg10"], "unit": "frac"},
                 fail_frac={"value": failed / len(ops), "unit": "frac"})
    for name, metric in shown.items():
        print("%-32s %.6g %s" % (name, metric["value"], metric["unit"]))

    print(json.dumps({"info": info}))
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


def _version(module):
    try:
        return __import__(module).__version__
    except ImportError:
        return None


if __name__ == "__main__":
    sys.exit(main())
