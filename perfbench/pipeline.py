"""One pipeline run of a workload in a fresh process, then its output checks.

Runs ``critcf synth|prepare``, ``train`` and ``evaluate`` in-process through
``critcf.cli.main`` with the span recorder installed, then checks the
outputs with every wrapper removed, and writes the measurements as JSON.
run.py starts this script once per pipeline; it is not meant to be run by
hand.
"""

import argparse
import hashlib
import json
import math
import os
import resource
import sys
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402

from critcf import cli  # noqa: E402
from critcf.datasets import BehaviorDataset, read_dataset_dir  # noqa: E402
from critcf.models import load_checkpoint, save_checkpoint  # noqa: E402
from critcf.ranking import brute_force_metrics, evaluate, predict_scores  # noqa: E402

from spans import Recorder, layer_metrics, stage_timings  # noqa: E402
from workloads import EPOCHS, WORKLOADS  # noqa: E402

RANK_SAMPLE = 48


class _TableModel:
    """Serves fixed score rows, so evaluate() ranks exactly those scores."""

    def __init__(self, table):
        self.table = table

    def score_batch(self, user_ids, mask=None, layer=0):
        return self.table[np.asarray(user_ids)], None


def _digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _history_finite(path):
    with open(path, "r", encoding="utf-8") as fh:
        rows = [line.split() for line in fh if line.strip()]
    values = [float(tok) for row in rows for tok in row[1:]]
    return len(rows) == EPOCHS and all(math.isfinite(v) for v in values)


def _ranking_matches_oracle(split, model, bounds, report, seed):
    """Fast path vs brute_force_metrics on a seeded sample of test users.

    Also holds the pipeline's own test ranks against the oracle's.
    """
    train = split.train
    rng = np.random.default_rng(seed)
    users = np.sort(rng.choice(train.num_users, size=min(RANK_SAMPLE, train.num_users),
                               replace=False))
    table = predict_scores(model, bounds, users)
    sub = BehaviorDataset(len(users), train.num_items, train.num_behaviors,
                          [[train.positives[k][u] for u in users]
                           for k in range(train.num_behaviors)])
    held = split.test[users]
    fast = evaluate(_TableModel(table), None, sub, held)
    oracle = brute_force_metrics(table, sub, held)
    same = (fast.hr == oracle.hr and fast.ndcg == oracle.ndcg
            and fast.per_user_rank == oracle.per_user_rank)
    pipeline_ranks = {i: report.per_user_rank[u] for i, u in enumerate(users.tolist())
                      if u in report.per_user_rank}
    return same and pipeline_ranks == oracle.per_user_rank


def _dataset_facts(train):
    """Training records and the nonzeros of the LightGCN adjacency of a dataset."""
    codes = [u * train.num_items + np.asarray(items, dtype=np.int64)
             for per_user in train.positives for u, items in enumerate(per_user)]
    codes = np.concatenate(codes) if codes else np.empty(0, dtype=np.int64)
    return int(codes.size), 2 * int(np.unique(codes).size)


def run_checks(dataset_dir, run_dir, report, seed, full):
    """Output checks, outside every timed region; returns (checks, facts)."""
    history = os.path.join(run_dir, "history.txt")
    checkpoint = os.path.join(run_dir, "checkpoint.txt")
    checks = [("history losses finite", _history_finite(history))]
    facts = {"history_sha256": _digest(history), "checkpoint_sha256": _digest(checkpoint)}
    if not full:
        return checks, facts
    split, _, _, _ = read_dataset_dir(dataset_dir)
    resaved = os.path.join(run_dir, "checkpoint.resaved.txt")
    model, bounds, meta = load_checkpoint(checkpoint, train=split.train)
    save_checkpoint(resaved, model, bounds, meta=meta)
    checks.append(("checkpoint save-load-save identical",
                   _digest(resaved) == facts["checkpoint_sha256"]))
    checks.append(("fast ranking equals brute force",
                   _ranking_matches_oracle(split, model, bounds, report, seed)))
    facts["records"], facts["adjacency_nnz"] = _dataset_facts(split.train)
    return checks, facts


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--raw-log")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--full-checks", action="store_true")
    parser.add_argument("--spans", help="write the recorded spans here")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    dataset_dir = os.path.join(args.workdir, "dataset")
    run_dir = os.path.join(args.workdir, "run")
    report_dir = os.path.join(args.workdir, "report")
    stages = (
        ("cli." + ("prepare" if workload.synth is None else "synth"),
         workload.source_argv(args.seed, dataset_dir, args.raw_log)),
        ("cli.train", workload.train_argv(args.seed, dataset_dir, run_dir)),
        ("cli.evaluate", workload.evaluate_argv(dataset_dir, run_dir, report_dir)),
    )

    recorder = Recorder(traced=bool(args.trace))
    result = {"traced": bool(args.trace), "missing_calls": recorder.install(), "ops": []}
    for name, stage_argv in stages:
        recorder.begin(name)
        try:
            code = cli.main(stage_argv)
        except Exception:  # a crash in a stage is a failed operation
            traceback.print_exc()
            code = None
        finally:
            recorder.end()
        result["ops"].append([name, code == 0])
        if code != 0:
            break
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    recorder.uninstall()
    if args.spans:
        with open(args.spans, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": recorder.spans}, fh)

    if all(ok for _, ok in result["ops"]) and len(result["ops"]) == len(stages):
        report = recorder.last_report
        result["timings"] = stage_timings(recorder.spans)
        result["test_hr10"] = report.hr[10]
        result["test_ndcg10"] = report.ndcg[10]
        if args.trace:
            result["layers"] = layer_metrics(recorder)
        try:
            checks, facts = run_checks(dataset_dir, run_dir, report, args.seed,
                                       args.full_checks)
        except Exception:  # a check that cannot run has failed
            traceback.print_exc()
            checks, facts = [("output checks ran", False)], {}
        result["ops"].extend(checks)
        result.update(facts)

    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
