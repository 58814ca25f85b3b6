"""End-to-end command-line walkthrough on planted synthetic data.

Generates a dataset whose positives come from known per-user and per-item
selection criteria, trains the default model, ranks the held-out items,
and prints a few learned bounds.  Everything goes through the same `critcf`
subcommands a shell user would type; the demo stops at the first one that
fails and exits with its code.
"""

import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from critcf.cli import main  # noqa: E402


def run():
    """Run each stage in turn; returns the first nonzero exit code, else 0."""
    with tempfile.TemporaryDirectory(prefix="critcf-demo-") as workdir:
        data = os.path.join(workdir, "data")
        run_dir = os.path.join(workdir, "run")
        stages = [
            ("== critcf synth ==",
             ["synth", data, "--users", "120", "--items", "60",
              "--densities", "0.25,0.12,0.08", "--seed", "7"]),
            ("\n== critcf train (short run) ==",
             ["train", data, run_dir,
              "--override", "epochs=25", "--override", "d=16",
              "--override", "eval_cutoff=10"]),
            ("\n== critcf evaluate ==",
             ["evaluate", os.path.join(run_dir, "checkpoint.txt"), data,
              "--cutoffs", "5,10,20"]),
            ("\n== critcf dump-bounds (user 0 and 1 against item 0) ==\n"
             "upper is the acceptance threshold, lower the rejection threshold;\n"
             "behavior 2 is the prediction target here.",
             ["dump-bounds", os.path.join(run_dir, "checkpoint.txt"),
              "--users", "0,1", "--items", "0"]),
        ]
        for title, argv in stages:
            print(title)
            code = main(argv)
            if code:
                return code

        return 0


if __name__ == "__main__":
    sys.exit(run())
