"""The benchmark's named workloads and the seeded inputs they are built from.

A workload fixes the pipeline stages (``critcf synth|prepare`` then
``train`` then ``evaluate``) and their arguments; the benchmark seed only
changes the generated data and the training seed.  The raw interaction log
of ``log-mf-tall`` is written here, before any clock starts, and cached per
seed.
"""

import os

import numpy as np

# Epoch times vary more between processes than between the epochs of one
# process, so a run buys steadiness with pipelines, not epochs.
EPOCHS = 1

# Beibei-like per-behavior densities (view, cart, buy) on a wide item axis.
GMF_WIDE = dict(users=2048, items=4000, densities="0.014,0.0037,0.00175")
# The generator's default densities: about 1.4M training positives.
LIGHTGCN_GRAPH = dict(users=3000, items=1500, densities="0.20,0.08,0.04")

# Raw log shape for log-mf-tall: about 1M lines that `prepare --min-target 5`
# turns into about 21k users (Beibei's user count) x 600 items.
LOG_USERS = 23200
LOG_ITEMS = 700
LOG_GROUPS = 8
LOG_ZIPF = 1.9
LOG_MIN_TARGET = 5


class Workload:
    """Stage arguments of one workload; ``synth`` is None for the log workload."""

    def __init__(self, name, synth, train_overrides):
        self.name = name
        self.synth = synth
        self.train_overrides = train_overrides

    def source_argv(self, seed, dataset_dir, raw_log):
        if self.synth is None:
            return ["prepare", raw_log, dataset_dir, "--min-target", str(LOG_MIN_TARGET)]
        return ["synth", dataset_dir, "--users", str(self.synth["users"]),
                "--items", str(self.synth["items"]), "--densities", self.synth["densities"],
                "--seed", str(seed)]

    def train_argv(self, seed, dataset_dir, run_dir):
        argv = ["train", dataset_dir, run_dir]
        for item in self.train_overrides + ["epochs=%d" % EPOCHS, "seed=%d" % seed]:
            argv += ["--override", item]
        return argv

    def evaluate_argv(self, dataset_dir, run_dir, report_dir):
        return ["evaluate", os.path.join(run_dir, "checkpoint.txt"), dataset_dir,
                "--out", report_dir]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("synth-gmf-wide", GMF_WIDE,
                 ["model=gmf", "variant=full", "g=square", "d=64", "batch=512",
                  "dropout=0.5"]),
        Workload("log-mf-tall", None,
                 ["model=mf", "variant=H", "d=64", "batch=512"]),
        Workload("synth-lightgcn-graph", LIGHTGCN_GRAPH,
                 ["model=lightgcn", "variant=full", "num_layers=3", "d=64",
                  "batch=512"]),
    )
}


def _zipf(num_items, exponent):
    weights = 1.0 / np.arange(1, num_items + 1) ** exponent
    return weights / weights.sum()


def write_raw_log(path, seed):
    """Write the seeded ``user item behavior timestamp`` log for log-mf-tall.

    Item popularity is Zipf-shaped: each user draws from an even mix of a
    global ranking and one of a few group rankings, so the data has
    popularity and taste to learn.  Per user the items of each behavior
    nest (view contains cart contains buy); an item's view, cart and buy
    carry increasing timestamps.  Most users get at least LOG_MIN_TARGET
    buys.  Lines are shuffled, so ingestion cannot rely on file order.
    """
    rng = np.random.default_rng(seed)
    zipf = _zipf(LOG_ITEMS, LOG_ZIPF)
    global_p = zipf[rng.permutation(LOG_ITEMS)]
    group_p = [zipf[rng.permutation(LOG_ITEMS)] for _ in range(LOG_GROUPS)]
    groups = rng.integers(LOG_GROUPS, size=LOG_USERS)
    n_buy = 3 + rng.poisson(4.0, size=LOG_USERS)
    n_cart = n_buy + rng.poisson(5.0, size=LOG_USERS)
    n_view = n_cart + rng.poisson(12.0, size=LOG_USERS)

    users, items, kinds, stamps = [], [], [], []
    base = 0
    for u in range(LOG_USERS):
        p = 0.5 * global_p + 0.5 * group_p[groups[u]]
        viewed = rng.choice(LOG_ITEMS, size=n_view[u], replace=False, p=p)
        slot = base + 3 * rng.permutation(n_view[u])
        for kind, count in ((0, n_view[u]), (1, n_cart[u]), (2, n_buy[u])):
            users.append(np.full(count, u))
            items.append(viewed[:count])
            kinds.append(np.full(count, kind))
            stamps.append(slot[:count] + kind)
        base += 3 * n_view[u]
    users = np.concatenate(users)
    items = np.concatenate(items)
    kinds = np.concatenate(kinds)
    stamps = np.concatenate(stamps)
    order = rng.permutation(len(users))
    labels = ("view", "cart", "buy")
    lines = ["u%d\ti%d\t%s\t%d\n" % (u, v, labels[k], t)
             for u, v, k, t in zip(users[order].tolist(), items[order].tolist(),
                                   kinds[order].tolist(), stamps[order].tolist())]
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    os.replace(tmp, path)
    return len(lines)
