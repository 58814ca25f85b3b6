"""Command-line driver.

Subcommands: prepare, synth, train, evaluate, ablate, verify-bound,
dump-bounds.  Exit codes: 0 success, 1 usage or configuration error, 2 data
error, 3 numerical abort.
"""

import argparse
import os
import sys
import time

from . import __version__
from .atomic import atomic_write
from .config import (
    apply_kv,
    check_manifest_keys,
    dataset_fingerprint,
    parse_kv_file,
    write_manifest,
)
from .datasets import (
    DEFAULT_BEHAVIORS,
    MIN_SPLIT_POSITIVES,
    build_dataset,
    drop_behavior,
    leave_one_out_split,
    parse_interactions,
    read_dataset_dir,
    split_behavior_labels,
    write_dataset_dir,
)
from .errors import ConfigError, DataError, NumericalError
from .losses import get_penalty
from .models import load_bounds, load_checkpoint, save_checkpoint
from .ranking import DEFAULT_CUTOFFS, evaluate
from .synthetic import SynthConfig, generate
from .training import TrainConfig, train
from .cml import verify_random_instances


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on usage errors; the contract wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, "%s: error: %s\n" % (self.prog, message))


def _split(text, flag, cast):
    """The comma-separated values of a list flag; a bad token is a ConfigError."""
    values = []
    for tok in text.split(","):
        try:
            values.append(cast(tok))
        except ValueError:
            raise ConfigError("%s: %r is not %s"
                              % (flag, tok, "an integer" if cast is int else "a number")) from None
    return tuple(values)


def _split_cutoffs(text):
    cutoffs = _split(text, "--cutoffs", int)
    for k, n in enumerate(cutoffs):
        if n < 1:
            raise ConfigError("--cutoffs: %d is not >= 1" % n)
        if n in cutoffs[:k]:
            raise ConfigError("--cutoffs: %d is repeated" % n)
    return cutoffs


def _load_config(args, num_behaviors):
    """The run config, and (source, values) of the config file and the overrides."""
    cfg = TrainConfig()
    if num_behaviors != len(cfg.behavior_weights):
        cfg = apply_kv(cfg, {"lambdas": ",".join(["%.17g" % (1.0 / num_behaviors)] * num_behaviors)},
                       source="defaults")
    given = []
    if args.config:
        values = parse_kv_file(args.config)
        cfg = apply_kv(cfg, values, source=args.config)
        given.append((args.config, values))
    overrides = {}
    for item in args.override or []:
        if "=" not in item:
            raise ConfigError("--override expects key=value, got %r" % item)
        key, _, value = item.partition("=")
        overrides[key.strip()] = value.strip()
        cfg = apply_kv(cfg, {key.strip(): value.strip()}, source="--override")
    return cfg, given + [("--override", overrides)]


def _check_run_dir(out_dir):
    """Fail unless out_dir can be made into or written as a directory; creates nothing."""
    if os.path.exists(out_dir) and not os.path.isdir(out_dir):
        raise DataError("%s: exists and is not a directory" % out_dir)
    ancestor = os.path.abspath(out_dir)
    while not os.path.exists(ancestor):
        ancestor = os.path.dirname(ancestor)
    if not (os.path.isdir(ancestor) and os.access(ancestor, os.W_OK | os.X_OK)):
        raise DataError("%s: cannot be made a directory, because %s is not a writable directory"
                        % (out_dir, ancestor))


def _run_training(split, args, cfg, given, variant):
    """Train and write args.out_dir; the checkpoint records variant as its label."""
    out_dir = args.out_dir
    cfg.validate(split.train.num_behaviors)
    # Checked before training, so a bad path does not cost a whole run.
    _check_run_dir(out_dir)
    fingerprint = dataset_fingerprint(args.dataset_dir)
    for source, values in given:
        check_manifest_keys(values, source, fingerprint,
                            lambda msg: print("warning: %s" % msg, file=sys.stderr))

    timings = []
    last_mark = time.monotonic()

    def on_epoch(epoch, loss, hr, ndcg):
        nonlocal last_mark
        now = time.monotonic()
        timings.append((epoch, now - last_mark))
        last_mark = now

    result = train(split, cfg, epoch_callback=on_epoch)

    # Made only now, so a run that fails leaves no empty run dir behind.
    os.makedirs(out_dir, exist_ok=True)
    save_checkpoint(os.path.join(out_dir, "checkpoint.txt"), result.model,
                    result.bounds, meta={"variant": variant})
    with atomic_write(os.path.join(out_dir, "history.txt")) as fh:
        for epoch, loss, hr, ndcg in result.history:
            fh.write("%d %.17g %.17g %.17g\n" % (epoch, loss, hr, ndcg))
    with atomic_write(os.path.join(out_dir, "timing.txt")) as fh:
        for epoch, seconds in timings:
            fh.write("%d %.3f\n" % (epoch, seconds))
    write_manifest(os.path.join(out_dir, "manifest.txt"), cfg, fingerprint)
    return result


def _write_report(report, out_dir):
    """Print the metric table and, given out_dir, write report.txt and report.kv."""
    print(report.format_table())
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        with atomic_write(os.path.join(out_dir, "report.txt")) as fh:
            fh.write(report.format_table() + "\n")
        with atomic_write(os.path.join(out_dir, "report.kv")) as fh:
            fh.write(report.format_kv())


def cmd_prepare(args):
    labels = split_behavior_labels(args.behaviors, "--behaviors", ConfigError)
    if args.min_target < 0:
        raise ConfigError("--min-target: %d is not >= 0" % args.min_target)
    tabbed = [label for label in labels if "\t" in label]
    if tabbed and args.separator != "comma":
        raise ConfigError("--behaviors: behavior label %r holds a tab, which --separator %s "
                          "splits log lines on" % (tabbed[0], args.separator))
    # Checked before the log is read, so a bad path does not cost the parse.
    _check_run_dir(args.out_dir)
    separator = {"tab": "\t", "comma": ",", "auto": None}[args.separator]
    interactions, user_ids, item_ids = parse_interactions(args.raw_file, labels, separator)
    dataset, kept_users, kept_items = build_dataset(
        interactions, len(labels), min_target=args.min_target
    )
    split = leave_one_out_split(dataset, on_short="drop")
    if split.train.num_users == 0:
        raise DataError("%s: no user is left after --min-target %d filtering and the split, "
                        "which needs %d target records per user"
                        % (args.raw_file, args.min_target, MIN_SPLIT_POSITIVES))
    if split.dropped_users:
        print("dropped %d users with fewer than %d target records"
              % (split.dropped_users, MIN_SPLIT_POSITIVES))
    final_users = [user_ids[kept_users[u]] for u in split.source_users]
    final_items = [item_ids[v] for v in kept_items]
    write_dataset_dir(args.out_dir, split, final_users, final_items, labels)
    train_ds = split.train
    counts = [sum(len(p) for p in train_ds.positives[k]) for k in range(train_ds.num_behaviors)]
    print("wrote %s: %d users, %d items, train positives per behavior: %s"
          % (args.out_dir, train_ds.num_users, train_ds.num_items,
             " ".join("%s=%d" % (labels[k], counts[k]) for k in range(len(counts)))))
    return 0


def cmd_synth(args):
    densities = _split(args.densities, "--densities", float)
    labels = split_behavior_labels(args.behaviors, "--behaviors", ConfigError)
    if len(labels) != len(densities):
        raise ConfigError("%d behavior labels but %d densities" % (len(labels), len(densities)))
    cfg = SynthConfig(
        num_users=args.users,
        num_items=args.items,
        latent_dim=args.latent_dim,
        num_behaviors=len(densities),
        densities=densities,
        criterion_spread=args.spread,
        seed=args.seed,
    )
    cfg.validate()
    _check_run_dir(args.out_dir)
    try:
        dataset, user_ids, item_ids = generate(cfg)
    except MemoryError:
        raise ConfigError("--users %d, --items %d: the planted arrays do not fit in memory"
                          % (args.users, args.items)) from None
    split = leave_one_out_split(dataset, on_short="error")
    write_dataset_dir(args.out_dir, split, user_ids, item_ids, labels)
    print("wrote %s: %d users, %d items, %d behaviors, seed %d"
          % (args.out_dir, dataset.num_users, dataset.num_items,
             dataset.num_behaviors, args.seed))
    return 0


def cmd_train(args):
    split, _, _, _ = read_dataset_dir(args.dataset_dir)
    cfg, given = _load_config(args, split.train.num_behaviors)
    result = _run_training(split, args, cfg, given, cfg.variant)
    if result.history:
        epoch, loss, hr, ndcg = result.history[result.best_epoch - 1]
        print("best epoch %d: loss %.6g, validation hr@%d %.6f, ndcg@%d %.6f"
              % (epoch, loss, cfg.eval_cutoff, hr, cfg.eval_cutoff, ndcg))
    else:
        print("epochs=0: wrote initialized checkpoint, empty history")
    print("checkpoint: %s" % os.path.join(args.out_dir, "checkpoint.txt"))
    return 0


def cmd_evaluate(args):
    cutoffs = _split_cutoffs(args.cutoffs)
    split, _, _, _ = read_dataset_dir(args.dataset_dir)
    model, bounds, _ = load_checkpoint(args.checkpoint, train=split.train)
    heldout = split.test if args.split == "test" else split.validation
    _write_report(evaluate(model, bounds, split.train, heldout, cutoffs=cutoffs), args.out)
    return 0


def _ablate_split(split, labels, variant):
    drop_label = {"V": "view", "C": "cart"}[variant]
    if drop_label not in labels:
        raise ConfigError(
            "variant %s drops the %r behavior, but dataset behaviors are %s"
            % (variant, drop_label, ",".join(labels))
        )
    k = labels.index(drop_label)
    if k == len(labels) - 1:
        raise ConfigError("cannot drop the target behavior")
    return drop_behavior(split, k), k, drop_label


def cmd_ablate(args):
    cutoffs = _split_cutoffs(args.cutoffs)
    split, _, _, labels = read_dataset_dir(args.dataset_dir)
    cfg, given = _load_config(args, split.train.num_behaviors)
    variant = args.variant
    if variant in ("V", "C"):
        split, dropped, drop_label = _ablate_split(split, labels, variant)
        weights = [w for k, w in enumerate(cfg.behavior_weights) if k != dropped]
        total = sum(weights)
        if total <= 0:
            raise ConfigError("behavior weights left after dropping sum to 0")
        cfg = apply_kv(cfg, {"lambdas": ",".join(repr(w / total) for w in weights)},
                       source="ablate")
        print("dropped behavior %r; weights renormalized to %s"
              % (drop_label, ",".join("%.6g" % w for w in cfg.behavior_weights)))
    else:
        cfg = apply_kv(cfg, {"variant": variant}, source="ablate")
    result = _run_training(split, args, cfg, given, variant)
    report = evaluate(result.model, result.bounds, split.train, split.test, cutoffs=cutoffs)
    _write_report(report, args.out_dir)
    return 0


def cmd_verify_bound(args):
    if args.seed < 0:
        raise ConfigError("--seed must be >= 0, got %d" % args.seed)
    if args.instances < 1:
        raise ConfigError("--instances must be >= 1, got %d" % args.instances)
    overall_ok = True
    for name in args.penalties.split(","):
        penalty = get_penalty(name.strip())
        checked, failures, min_slack = verify_random_instances(
            args.instances, penalty, seed=args.seed
        )
        ok = failures == 0
        overall_ok = overall_ok and ok
        print("penalty=%s instances=%d min_slack=%.12g %s"
              % (penalty.name, checked, min_slack, "pass" if ok else "FAIL (%d)" % failures))
    if not overall_ok:
        raise NumericalError("upper-bound check failed")
    return 0


def cmd_dump_bounds(args):
    users = _split(args.users, "--users", int)
    items = _split(args.items, "--items", int)
    bounds = load_bounds(args.checkpoint)
    if bounds is None:
        raise DataError("%s holds no bound factors" % args.checkpoint)
    num_users, num_items = bounds.user_bound.shape[0], bounds.item_bound.shape[0]
    print("user item behavior upper lower")
    for u in users:
        if not 0 <= u < num_users:
            raise DataError("user %d out of range (%d users)" % (u, num_users))
        for v in items:
            if not 0 <= v < num_items:
                raise DataError("item %d out of range (%d items)" % (v, num_items))
            for k in range(bounds.num_behaviors):
                upper, lower = bounds.bounds(u, v, k)
                print("%d %d %d %.10g %.10g" % (u, v, k, upper, lower))
    return 0


def build_parser():
    parser = _Parser(prog="critcf",
                     description="Bound-guided non-sampling recommendation over "
                                 "multi-behavior implicit feedback")
    parser.add_argument("--version", action="version", version="critcf %s" % __version__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("prepare", help="parse a raw interaction log into a dataset directory")
    p.add_argument("raw_file")
    p.add_argument("out_dir")
    p.add_argument("--min-target", type=int, default=5,
                   help="minimum target-behavior records per user and item (default 5)")
    p.add_argument("--behaviors", default=",".join(DEFAULT_BEHAVIORS),
                   help="comma-separated behavior labels, target last")
    p.add_argument("--separator", choices=("auto", "tab", "comma"), default="auto")
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("synth", help="generate a planted synthetic dataset directory")
    p.add_argument("out_dir")
    p.add_argument("--users", type=int, default=200)
    p.add_argument("--items", type=int, default=100)
    p.add_argument("--densities", default="0.20,0.08,0.04",
                   help="per-behavior positive densities, non-increasing, target last")
    p.add_argument("--spread", type=float, default=0.5,
                   help="criterion heterogeneity spread (0 nests the behaviors)")
    p.add_argument("--latent-dim", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--behaviors", default=",".join(DEFAULT_BEHAVIORS))
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a model on a dataset directory")
    p.add_argument("dataset_dir")
    p.add_argument("out_dir")
    p.add_argument("--config", help="flat key=value config file (a manifest also works)")
    p.add_argument("--override", action="append", metavar="KEY=VALUE",
                   help="override one config key (repeatable)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="rank held-out items with a trained checkpoint")
    p.add_argument("checkpoint")
    p.add_argument("dataset_dir")
    p.add_argument("--cutoffs", default=",".join(str(n) for n in DEFAULT_CUTOFFS))
    p.add_argument("--split", choices=("test", "validation"), default="test")
    p.add_argument("--out", help="directory for report.txt and report.kv")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("ablate", help="train and evaluate a model variant")
    p.add_argument("dataset_dir")
    p.add_argument("out_dir")
    p.add_argument("--variant", required=True, choices=("O", "H", "U", "I", "V", "C"))
    p.add_argument("--config")
    p.add_argument("--override", action="append", metavar="KEY=VALUE")
    p.add_argument("--cutoffs", default=",".join(str(n) for n in DEFAULT_CUTOFFS))
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("verify-bound",
                       help="check the ranking-loss upper bound on random instances")
    p.add_argument("--instances", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--penalties", default="linear,square")
    p.set_defaults(func=cmd_verify_bound)

    p = sub.add_parser("dump-bounds", help="print selection bounds from a checkpoint")
    p.add_argument("checkpoint")
    p.add_argument("--users", required=True, help="comma-separated user indices")
    p.add_argument("--items", required=True, help="comma-separated item indices")
    p.set_defaults(func=cmd_dump_bounds)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args) or 0
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 1
    except DataError as exc:
        print("data error: %s" % exc, file=sys.stderr)
        return 2
    except NumericalError as exc:
        print("numerical error: %s" % exc, file=sys.stderr)
        return 3
    except OSError as exc:
        print("data error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
