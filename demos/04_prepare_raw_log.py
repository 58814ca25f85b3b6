"""From a raw interaction log to a ranked report.

Builds a small tab-separated log like the ones e-commerce platforms
export (user, item, behavior, timestamp), filters it to warm users and
items, splits off each user's last two purchases, and trains briefly.
Swap the toy writer for a real file to use this on actual data.  The demo
stops at the first `critcf` subcommand that fails and exits with its code.
"""

import os
import random
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from critcf.cli import main  # noqa: E402


def write_toy_log(path, num_users=60, num_items=30, seed=1):
    rng = random.Random(seed)
    ts = 0
    with open(path, "w", encoding="utf-8") as fh:
        for u in range(num_users):
            bought = rng.sample(range(num_items), 8)
            for v in bought:
                fh.write("user%03d\titem%03d\tbuy\t%d\n" % (u, v, ts))
                ts += 1
            for v in rng.sample(range(num_items), 12):
                fh.write("user%03d\titem%03d\tview\t%d\n" % (u, v, ts))
                ts += 1
            for v in bought[:3]:
                fh.write("user%03d\titem%03d\tcart\t%d\n" % (u, v, ts))
                ts += 1


def run():
    """Run each stage in turn; returns the first nonzero exit code, else 0."""
    with tempfile.TemporaryDirectory(prefix="critcf-demo-") as workdir:
        raw = os.path.join(workdir, "log.tsv")
        write_toy_log(raw)
        print("wrote toy log: %s" % raw)

        prepared = os.path.join(workdir, "prepared")
        run_dir = os.path.join(workdir, "run")
        stages = [
            ("\n== critcf prepare (keep users and items with 5+ purchases) ==",
             ["prepare", raw, prepared, "--min-target", "5"]),
            ("\n== critcf train ==",
             ["train", prepared, run_dir,
              "--override", "epochs=15", "--override", "d=16",
              "--override", "eval_cutoff=10"]),
            ("\n== critcf evaluate ==",
             ["evaluate", os.path.join(run_dir, "checkpoint.txt"), prepared,
              "--cutoffs", "5,10"]),
        ]
        for title, argv in stages:
            print(title)
            code = main(argv)
            if code:
                return code

        return 0


if __name__ == "__main__":
    sys.exit(run())
