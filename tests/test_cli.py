import hashlib
import os
import re
import shutil

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from critcf.cli import main
from critcf.config import apply_kv, parse_kv_file
from critcf.datasets import read_dataset_dir
from critcf.models import load_checkpoint, save_checkpoint
from critcf.training import TrainConfig, train

FAST = ["--override", "epochs=2", "--override", "d=4", "--override", "batch=16",
        "--override", "eval_cutoff=5"]


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("data") / "synth")
    code = main(["synth", path, "--users", "24", "--items", "18",
                 "--densities", "0.4,0.3,0.25", "--latent-dim", "3", "--seed", "3"])
    assert code == 0
    return path


@pytest.fixture(scope="module")
def run_dir(dataset_dir, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("runs") / "base")
    assert main(["train", dataset_dir, path] + FAST) == 0
    return path


def test_synth_writes_dataset(dataset_dir, capsys):
    split, user_ids, item_ids, labels = read_dataset_dir(dataset_dir)
    assert split.train.num_users == 24
    assert split.train.num_items == 18
    assert labels == ("view", "cart", "buy")
    assert len(user_ids) == 24 and len(item_ids) == 18


def test_train_outputs(run_dir, capsys):
    for name in ("checkpoint.txt", "history.txt", "timing.txt", "manifest.txt"):
        assert os.path.exists(os.path.join(run_dir, name)), name
    history = open(os.path.join(run_dir, "history.txt")).read().splitlines()
    assert len(history) == 2
    assert all(len(line.split()) == 4 for line in history)


def test_evaluate_prints_table(run_dir, dataset_dir, tmp_path, capsys):
    out = str(tmp_path / "report")
    code = main(["evaluate", run_dir + "/checkpoint.txt", dataset_dir,
                 "--cutoffs", "1,5,10", "--out", out])
    captured = capsys.readouterr()
    assert code == 0
    lines = captured.out.strip().splitlines()
    assert lines[0].split() == ["cutoff", "hr", "ndcg"]
    assert len(lines) == 4
    kv = open(out + "/report.kv").read()
    assert "hr@5=" in kv and "ndcg@10=" in kv
    table = open(out + "/report.txt").read()
    assert table.startswith("cutoff")
    assert main(["evaluate", run_dir + "/checkpoint.txt", dataset_dir,
                 "--cutoffs", "5", "--split", "validation"]) == 0
    capsys.readouterr()


def test_manifest_rerun_is_byte_identical(run_dir, dataset_dir, tmp_path, capsys):
    rerun = str(tmp_path / "rerun")
    code = main(["train", dataset_dir, rerun, "--config", run_dir + "/manifest.txt"])
    capsys.readouterr()
    assert code == 0
    for name in ("checkpoint.txt", "history.txt", "manifest.txt"):
        first = open(run_dir + "/" + name, "rb").read()
        second = open(rerun + "/" + name, "rb").read()
        assert first == second, name


def test_manifest_against_other_dataset_fails(run_dir, tmp_path, capsys):
    other = str(tmp_path / "other")
    assert main(["synth", other, "--users", "24", "--items", "18",
                 "--densities", "0.4,0.3,0.25", "--latent-dim", "3", "--seed", "4"]) == 0
    code = main(["train", other, str(tmp_path / "out"),
                 "--config", run_dir + "/manifest.txt"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("data error: %s/manifest.txt: dataset_hash: dataset "
                                   "fingerprint mismatch: " % run_dir)


def test_usage_and_config_errors(dataset_dir, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["train"])  # missing arguments
    assert exc.value.code == 1
    capsys.readouterr()
    out = str(tmp_path / "x")
    assert main(["train", dataset_dir, out, "--override", "nope=1"]) == 1
    assert main(["train", dataset_dir, out, "--override", "epochs=abc"]) == 1
    assert main(["train", dataset_dir, out, "--override", "epochs"]) == 1
    assert main(["train", str(tmp_path / "missing"), out] + FAST) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "data error" in err


@pytest.mark.parametrize("override,key", [
    ("lr=nan", "lr"),
    ("lr=inf", "lr"),
    ("w=nan", "(w)"),
    ("alpha=nan", "alpha"),
    ("lambdas=nan,0.5,0.5", "(lambdas)"),
    ("eval_cutoff=0", "eval_cutoff"),
    ("num_layers=-1", "num_layers"),
    # 24 x 2^40 float64 embeddings are 192 TiB: the allocation fails outright
    ("d=1099511627776", "d=1099511627776"),
    ("batch=0", "batch_size (batch) must be >= 1"),
    ("d=0", "dim (d) must be >= 1"),
    ("w=-1", "neg_weight (w) must be >= 0"),
    ("alpha=2", "bound_ratio (alpha) must lie in [0, 1]"),
    ("g=nope", "penalty (g) must be one of expm1, linear, square, got 'nope'"),
    ("lambdas=1,1,1", "behavior_weights (lambdas) must sum to 1, got 3"),
    ("lambdas=0.5,0.5", "behavior_weights (lambdas): expected 3 weights, got 2"),
    ("lambdas=2,-1,0", "behavior_weights (lambdas) must be >= 0, got 2,-1,0"),
])
def test_train_rejects_bad_values(dataset_dir, tmp_path, capsys, override, key):
    out = str(tmp_path / "run")
    assert main(["train", dataset_dir, out] + FAST + ["--override", override]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and key in err


def test_train_checks_manifest_keys_given_as_overrides(run_dir, dataset_dir, tmp_path, capsys):
    out = str(tmp_path / "run")
    assert main(["train", dataset_dir, out] + FAST
                + ["--override", "dataset_hash=nothex"]) == 2
    assert capsys.readouterr().err.startswith(
        "data error: --override: dataset_hash: dataset fingerprint mismatch: config expects "
        "nothex but directory hashes to ")
    assert not os.path.exists(out)
    manifest = parse_kv_file(run_dir + "/manifest.txt")
    assert main(["train", dataset_dir, out] + FAST
                + ["--override", "dataset_hash=" + manifest["dataset_hash"],
                   "--override", "code_version=9.9"]) == 0
    assert ("warning: --override: code_version: config was written by code version 9.9, "
            "running %s\n" % manifest["code_version"]) in capsys.readouterr().err
    assert open(out + "/manifest.txt").read() == open(run_dir + "/manifest.txt").read()


@pytest.mark.filterwarnings("error")
def test_train_stops_when_a_huge_lr_overflows_the_row_norms(dataset_dir, tmp_path, capsys):
    # the first step moves the rows to about 1e200; their norms once
    # overflowed to inf, and the projection divided every row to 0.0
    out = str(tmp_path / "run")
    assert main(["train", dataset_dir, out, "--override", "model=mf", "--override", "lr=1e200",
                 "--override", "epochs=2"]) == 3
    assert capsys.readouterr().err == (
        "numerical error: non-finite row norm for parameter 'user_emb'; use a smaller lr\n")
    assert not os.path.exists(out)


@pytest.mark.filterwarnings("error")
def test_train_stops_when_an_adagrad_step_overflows(dataset_dir, tmp_path, capsys):
    # lr * grad once overflowed to inf with only a RuntimeWarning, and an
    # inf accumulator would have frozen its entry without an error
    out = str(tmp_path / "run")
    assert main(["train", dataset_dir, out, "--override", "lr=1e308",
                 "--override", "epochs=2"]) == 3
    assert capsys.readouterr().err == (
        "numerical error: Adagrad step overflows for parameter 'user_emb' at lr 1e+308; "
        "use a smaller lr\n")
    assert not os.path.exists(out)


@pytest.mark.filterwarnings("error")
def test_train_rejects_negative_seed(dataset_dir, tmp_path, capsys):
    out = str(tmp_path / "run")
    assert main(["train", dataset_dir, out] + FAST + ["--override", "seed=-1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "seed" in err


@pytest.mark.filterwarnings("error")
def test_synth_rejects_negative_seed(tmp_path, capsys):
    out = tmp_path / "data"
    assert main(["synth", str(out), "--seed", "-1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "--seed" in err
    assert not out.exists()


@pytest.mark.parametrize("flag,value", [("--seed", "-1"), ("--latent-dim", "0"),
                                        ("--spread", "inf"), ("--densities", "0.1,0.2,0.3")])
def test_synth_flag_errors_exit_1_before_the_output_path_is_checked(tmp_path, capsys, flag,
                                                                     value):
    afile = tmp_path / "afile"
    afile.write_text("not a dataset dir\n")
    assert main(["synth", str(afile), flag, value]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "afile" not in err


@pytest.mark.parametrize("flags", [["--users", "1000000000000000000"],
                                   ["--users", "100000000000000000000"],
                                   ["--items", "10000000000000000"],
                                   ["--latent-dim", "10000000000000000"]])
def test_synth_rejects_sizes_numpy_cannot_make(tmp_path, capsys, flags):
    # numpy refuses these before allocating: "array is too big" or "Maximum
    # allowed dimension exceeded" once ended synth in a traceback
    out = tmp_path / "data"
    sizes = dict({"--users": "200", "--items": "100", "--latent-dim": "8"}, **dict([flags]))
    assert main(["synth", str(out)] + flags) == 1
    assert capsys.readouterr().err == (
        "config error: --users %(--users)s, --items %(--items)s and --latent-dim %(--latent-dim)s "
        "need arrays larger than numpy can make\n" % sizes)
    assert not out.exists()


def test_synth_reports_arrays_that_do_not_fit_in_memory(tmp_path, capsys, monkeypatch):
    def no_memory(*args, **kwargs):
        raise MemoryError

    # stands in for a size that numpy tries and fails to allocate
    monkeypatch.setattr("critcf.synthetic._floored_mask", no_memory)
    out = tmp_path / "data"
    assert main(["synth", str(out), "--users", "30", "--items", "80"]) == 1
    assert capsys.readouterr().err == (
        "config error: --users 30, --items 80: the planted arrays do not fit in memory\n")
    assert not out.exists()


def test_synth_argument_validation(tmp_path, capsys):
    assert main(["synth", str(tmp_path / "a"), "--densities", "0.4,0.3",
                 "--behaviors", "view,cart,buy"]) == 1
    assert main(["synth", str(tmp_path / "b"), "--users", "5", "--items", "20",
                 "--densities", "0.3,0.2,0.1"]) == 1  # 2 expected target items < 3
    capsys.readouterr()


UNMATCHABLE = "starts or ends with whitespace or holds a line end, so no log field can match it"


@pytest.mark.parametrize("command", ["prepare", "synth"])
@pytest.mark.parametrize("labels,message", [
    ("view,view,buy", "behavior label 'view' is repeated"),
    ("view,,buy", "behavior label '' is empty"),
    ("view, cart,buy", "behavior label ' cart' " + UNMATCHABLE),
    ("view,cart,buy\t", "behavior label 'buy\\t' " + UNMATCHABLE),
    ("\x1cview,cart,buy", "behavior label '\\x1cview' " + UNMATCHABLE),
    ("view,ca\rrt,buy", "behavior label 'ca\\rrt' " + UNMATCHABLE),
    ("view,cart,b\nuy", "behavior label 'b\\nuy' " + UNMATCHABLE),
])
def test_behaviors_rejects_empty_or_repeated_labels(tmp_path, capsys, command, labels,
                                                     message):
    # a repeated label once left the first of its behaviors without records, and
    # prepare blamed the log's first cart line for --behaviors "view, cart,buy"
    raw = tmp_path / "raw.tsv"
    raw.write_text("u0\ti0\tbuy\t1\n")
    out = tmp_path / "out"
    args = [str(raw), str(out)] if command == "prepare" else [str(out)]
    assert main([command] + args + ["--behaviors", labels]) == 1
    assert capsys.readouterr().err == "config error: --behaviors: %s\n" % message
    assert not out.exists()


@pytest.mark.parametrize("instances", ["0", "-5"])
def test_verify_bound_rejects_instances_below_one(capsys, instances):
    assert main(["verify-bound", "--instances", instances]) == 1
    assert capsys.readouterr() == (
        "", "config error: --instances must be >= 1, got %s\n" % instances)


def test_verify_bound_output(capsys):
    assert main(["verify-bound", "--instances", "40", "--seed", "1"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 2
    for line, name in zip(out, ("linear", "square")):
        assert line.startswith("penalty=%s instances=40 min_slack=" % name)
        assert line.endswith("pass")


def test_verify_bound_rejects_exponential(capsys):
    assert main(["verify-bound", "--penalties", "expm1"]) == 1
    assert "doubling factor" in capsys.readouterr().err


def test_dump_bounds_fresh_init(dataset_dir, tmp_path, capsys):
    out = str(tmp_path / "init")
    assert main(["train", dataset_dir, out, "--override", "epochs=0",
                 "--override", "d=4"]) == 0
    capsys.readouterr()
    assert main(["dump-bounds", out + "/checkpoint.txt",
                 "--users", "0,1", "--items", "0"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].split() == ["user", "item", "behavior", "upper", "lower"]
    rows = [line.split() for line in lines[1:]]
    assert len(rows) == 2 * 1 * 3  # two users, one item, three behaviors
    for row in rows:
        upper, lower = float(row[3]), float(row[4])
        # fresh bound factors start at 1 +- 0.01, so products stay near 1
        assert 0.97 <= upper <= 1.03
        assert abs(lower - 0.5 * upper) <= 1e-9 * upper


def test_dump_bounds_errors(dataset_dir, run_dir, tmp_path, capsys):
    assert main(["dump-bounds", run_dir + "/checkpoint.txt",
                 "--users", "99", "--items", "0"]) == 2
    ablate_out = str(tmp_path / "o")
    assert main(["ablate", dataset_dir, ablate_out, "--variant", "O",
                 "--cutoffs", "5"] + FAST) == 0
    assert main(["dump-bounds", ablate_out + "/checkpoint.txt",
                 "--users", "0", "--items", "0"]) == 2
    capsys.readouterr()


def test_dump_bounds_lightgcn_checkpoint(dataset_dir, tmp_path, capsys):
    # the bound factors are read without the training split the graph needs
    out = str(tmp_path / "lightgcn")
    assert main(["train", dataset_dir, out, "--override", "model=lightgcn"] + FAST) == 0
    capsys.readouterr()
    assert main(["dump-bounds", out + "/checkpoint.txt", "--users", "0,23",
                 "--items", "17"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    _, bounds, _ = load_checkpoint(out + "/checkpoint.txt", train=read_dataset_dir(
        dataset_dir)[0].train)
    assert lines[1:] == ["%d %d %d %.10g %.10g" % ((u, 17, k) + bounds.bounds(u, 17, k))
                         for u in (0, 23) for k in range(3)]


def test_evaluate_rejects_non_finite_scores(dataset_dir, run_dir, tmp_path, capsys):
    model, bounds, meta = load_checkpoint(run_dir + "/checkpoint.txt")
    model.user_emb[3, 0] = np.nan
    bad = tmp_path / "checkpoint.txt"
    save_checkpoint(str(bad), model, bounds, meta=meta)
    assert main(["evaluate", str(bad), dataset_dir, "--cutoffs", "5"]) == 3
    captured = capsys.readouterr()
    assert captured.err == "numerical error: non-finite prediction score for user 3\n"
    assert captured.out == ""


@pytest.mark.parametrize("name,edit,message", [
    ("meta.txt", lambda t: t.replace("num_items 18\n", ""), "meta.txt: missing key 'num_items'"),
    ("meta.txt", lambda t: t.replace("num_users 24", "num_users 2x"),
     "meta.txt: num_users must be a non-negative integer, got '2x'"),
    ("meta.txt", lambda t: t.replace("num_behaviors 3", "num_behaviors -3"),
     "meta.txt: num_behaviors must be a non-negative integer, got '-3'"),
    ("meta.txt", lambda t: t.replace("num_users 24", "num_users 0"),
     "meta.txt: the dataset has 0 users and 18 items; it needs at least one of each"),
    ("meta.txt", lambda t: t.replace("num_items 18", "num_items 0"),
     "meta.txt: the dataset has 24 users and 0 items; it needs at least one of each"),
    ("index_map.txt", lambda t: t.replace("i\t17\t17\n", "i\t17\t18\n"),
     "index_map.txt:42: expected 'i', a raw id and dense index 17, tab-separated"),
    ("index_map.txt", lambda t: t.replace("u\t5\t5\n", "u\t5\t-1\n"),
     "index_map.txt:6: expected 'u', a raw id and dense index 5, tab-separated"),
    ("index_map.txt", lambda t: t.replace("u\t2\t2\n", "u\t2\tx\n"),
     "index_map.txt:3: expected 'u', a raw id and dense index 2, tab-separated"),
    ("index_map.txt", lambda t: t.replace("u\t3\t3\n", "u\t3\n"),
     "index_map.txt:4: expected 'u', a raw id and dense index 3, tab-separated"),
    ("meta.txt", lambda t: t.replace("behaviors view,cart,buy", "behaviors view, cart,buy"),
     "meta.txt: behavior label ' cart' " + UNMATCHABLE),
], ids=["missing-key", "non-integer-count", "negative-count", "zero-users", "zero-items",
        "index-past-count", "negative-index", "non-integer-index", "two-field-line",
        "padded-label"])
def test_evaluate_rejects_bad_dataset_meta(dataset_dir, run_dir, tmp_path, capsys, name, edit,
                                           message):
    data = str(tmp_path / "data")
    shutil.copytree(dataset_dir, data)
    path = tmp_path / "data" / name
    path.write_text(edit(path.read_text()))
    assert main(["evaluate", run_dir + "/checkpoint.txt", data]) == 2
    assert capsys.readouterr().err == "data error: %s/%s\n" % (data, message)


def _reseal(blob):
    """blob with its header_sha256 line recomputed, so an edit to the
    header reaches the checks behind the digest."""
    head, _, rest = blob.partition(b"header_sha256 ")
    return (head + b"header_sha256 " + hashlib.sha256(head).hexdigest().encode()
            + rest[rest.index(b"\n"):])


def _edit_header(old, new):
    return lambda blob: _reseal(blob.replace(old, new, 1))


def _drop_user_bound_row(blob):
    """Declare 23 user_bound rows, drop the last one and fix the digest."""
    head, _, rest = blob.partition(b"array user_bound 24 3 ")
    data = rest[65:65 + 23 * 24]
    return (head + b"array user_bound 23 3 " + hashlib.sha256(data).hexdigest().encode()
            + b"\n" + data + rest[65 + 24 * 24:])


@pytest.mark.parametrize("edit,message", [
    (lambda b: b.replace(b"array user_bound 24 3", b"array user_bound 3 3"),
     ": array user_bound does not match its sha256"),
    (lambda b: b.replace(b"array item_bound 18 3", b"array item_bound 19 3"),
     ": array item_bound declares 19x3 float64 values, but only 436 bytes follow"),
    (lambda b: b.replace(b"array user_bound 24 3", b"array user_bound -1 3"),
     ": byte 1824: expected 'array NAME ROWS COLS SHA256' or 'end'"),
    (_edit_header(b"num_items 18", b"num_items 1.5"),
     ": header key 'num_items' must be a non-negative integer, got '1.5'"),
    (_edit_header(b"bound_ratio 0.5\n", b""), ": missing header key 'bound_ratio'"),
    (_edit_header(b"model gmf\n", b""), ": missing header key 'model'"),
    (_edit_header(b"num_behaviors 3", b"num_behaviors 2"),
     ": array user_bound is 24x3, expected 24x2"),
    (_drop_user_bound_row, ": array user_bound is 23x3, expected 24x3"),
    (lambda b: b.replace(b"array item_bound 18 3", b"array item_bound 10000000000000000 3"),
     ": array item_bound declares 10000000000000000x3 float64 values, but only 436 bytes "
     "follow"),
    (lambda b: b.replace(b"num_items 18", b"num_items 17"),
     ": header lines do not match header_sha256"),
    (_edit_header(b"dim 4\n", b"dim 4\ndim 4\n"), ": duplicate header key 'dim'"),
    (_edit_header(b"meta variant full\n", b"meta variant full\nmeta variant H\n"),
     ": duplicate header key 'meta variant'"),
    (lambda b: b[:b.index(b"array item_emb")] + b[b.index(b"array user_emb"):],
     ": duplicate array user_emb"),
    (lambda b: b + b"end\n", ": bytes follow the end marker"),
], ids=["short-row-count", "long-row-count", "negative-row-count", "non-integer-count",
        "missing-bound-ratio", "missing-model", "bound-columns",
        "bound-rows", "huge-row-count", "header-edited", "duplicate-key",
        "duplicate-meta-key", "duplicate-array", "after-end"])
def test_dump_bounds_rejects_bad_checkpoint(run_dir, tmp_path, capsys, edit, message):
    bad = tmp_path / "checkpoint.txt"
    bad.write_bytes(edit(open(run_dir + "/checkpoint.txt", "rb").read()))
    assert main(["dump-bounds", str(bad), "--users", "0", "--items", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "data error: %s%s\n" % (bad, message)
    assert captured.out == ""


def _truncate(blob, at, _):
    return blob[:at % len(blob)]


def _flip(blob, at, mask):
    at %= len(blob)
    return blob[:at] + bytes([blob[at] ^ mask]) + blob[at + 1:]


def _duplicate_line(blob, at, _):
    """Repeat one text line: a header line or an array line (not its data)."""
    starts = [0] + [m.end() for m in re.finditer(rb"\n", blob)]
    lines = [i for i in starts[:-1] if not blob[i:].startswith(b"end")
             and (i < blob.index(b"array ") or blob[i:].startswith(b"array "))]
    start = lines[at % len(lines)]
    line = blob[start:blob.index(b"\n", start) + 1]
    return blob[:start] + line + blob[start:]


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(corrupt=st.sampled_from([_truncate, _flip, _duplicate_line]),
       at=st.integers(0, 2**20), mask=st.integers(1, 255))
def test_corrupt_checkpoint_exits_2(dataset_dir, run_dir, tmp_path, capsys, corrupt, at, mask):
    """Whatever byte is cut, flipped or line repeated, both commands exit 2
    with a message naming the file."""
    bad = str(tmp_path / "corrupt.txt")
    with open(run_dir + "/checkpoint.txt", "rb") as fh:
        blob = fh.read()
    with open(bad, "wb") as fh:
        fh.write(corrupt(blob, at, mask))
    capsys.readouterr()
    for argv in (["dump-bounds", bad, "--users", "0", "--items", "0"],
                 ["evaluate", bad, dataset_dir, "--cutoffs", "5"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("data error: %s: " % bad)
        assert "Traceback" not in captured.err
        assert captured.out == ""


@pytest.mark.parametrize("command", [["train"], ["ablate", "--variant", "H"]])
def test_failed_run_leaves_no_run_dir(dataset_dir, tmp_path, capsys, command):
    out = tmp_path / "run"
    assert main([command[0], dataset_dir, str(out)] + command[1:] + FAST
                + ["--override", "d=1099511627776"]) == 1
    assert capsys.readouterr().err.startswith("config error: d=1099511627776")
    assert not out.exists()


@pytest.mark.parametrize("where", ["file", "under-file"])
@pytest.mark.parametrize("command", [["train"], ["ablate", "--variant", "H"]])
def test_unusable_run_dir_fails_before_training(dataset_dir, tmp_path, capsys, monkeypatch,
                                                command, where):
    def no_training(*args, **kwargs):
        raise AssertionError("train ran although the run dir is unusable")

    monkeypatch.setattr("critcf.cli.train", no_training)
    blocker = tmp_path / "runfile"
    blocker.write_text("not a run dir\n")
    out = blocker if where == "file" else blocker / "run"
    assert main([command[0], dataset_dir, str(out)] + command[1:] + FAST) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: %s: " % out)
    assert "Traceback" not in err
    assert blocker.read_text() == "not a run dir\n"


@pytest.mark.parametrize("argv", [["prepare", "{missing}"], ["synth"]])
def test_unusable_dataset_dir_fails_before_reading_or_generating(tmp_path, capsys, argv):
    blocker = tmp_path / "afile"
    blocker.write_text("not a dataset dir\n")
    argv = [a.format(missing=tmp_path / "missing.tsv") for a in argv]
    assert main(argv + [str(blocker)]) == 2
    assert capsys.readouterr().err == "data error: %s: exists and is not a directory\n" % blocker
    assert blocker.read_text() == "not a dataset dir\n"


def test_prepare_rejects_non_utf8(tmp_path, capsys):
    raw = tmp_path / "raw.tsv"
    raw.write_bytes(b"u0\ti0\tbuy\t1\nu0\ti\xff1\tbuy\t2\n")
    assert main(["prepare", str(raw), str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "data error: %s:2: not UTF-8 text (byte 0xff)\n" % raw


@pytest.mark.filterwarnings("error")
def test_verify_bound_rejects_negative_seed(capsys):
    assert main(["verify-bound", "--instances", "2", "--seed", "-1"]) == 1
    assert capsys.readouterr().err == "config error: --seed must be >= 0, got -1\n"


def test_ablate_drop_renormalizes_weights(dataset_dir, tmp_path, capsys):
    out = str(tmp_path / "v")
    code = main(["ablate", dataset_dir, out, "--variant", "V", "--cutoffs", "5"] + FAST)
    captured = capsys.readouterr()
    assert code == 0
    assert "dropped behavior 'view'" in captured.out
    manifest = parse_kv_file(out + "/manifest.txt")
    weights = [float(tok) for tok in manifest["lambdas"].split(",")]
    # (4/6, 1/6) renormalized
    assert weights == pytest.approx([0.8, 0.2], rel=1e-12)
    out_c = str(tmp_path / "c")
    assert main(["ablate", dataset_dir, out_c, "--variant", "C", "--cutoffs", "5"] + FAST) == 0
    capsys.readouterr()
    manifest = parse_kv_file(out_c + "/manifest.txt")
    weights = [float(tok) for tok in manifest["lambdas"].split(",")]
    assert weights == pytest.approx([0.5, 0.5], rel=1e-12)


def test_ablate_requires_droppable_label(tmp_path, capsys):
    data = str(tmp_path / "named")
    assert main(["synth", data, "--users", "20", "--items", "15",
                 "--densities", "0.4,0.3", "--behaviors", "click,buy",
                 "--latent-dim", "3"]) == 0
    assert main(["ablate", data, str(tmp_path / "out"), "--variant", "C",
                 "--override", "lambdas=0.5,0.5"] + FAST) == 1
    capsys.readouterr()


def test_ablate_o_matches_direct_training(dataset_dir, tmp_path, capsys):
    out = str(tmp_path / "o_run")
    assert main(["ablate", dataset_dir, out, "--variant", "O", "--cutoffs", "5"] + FAST) == 0
    capsys.readouterr()
    split, _, _, _ = read_dataset_dir(dataset_dir)
    cfg = apply_kv(TrainConfig(), {"epochs": "2", "d": "4", "batch": "16",
                                   "eval_cutoff": "5", "variant": "O"},
                   source="test")
    result = train(split, cfg)
    model, bounds, meta = load_checkpoint(out + "/checkpoint.txt")
    assert bounds is None
    assert meta["variant"] == "O"
    for name, arr in result.model.param_arrays().items():
        np.testing.assert_array_equal(arr, model.param_arrays()[name])


RUN_FILES = {"checkpoint.txt", "history.txt", "manifest.txt", "timing.txt"}


@pytest.mark.parametrize("variant,model", [
    ("O", "gmf"), ("H", "gmf"), ("U", "gmf"), ("I", "gmf"), ("H", "lightgcn"),
])
def test_ablate_writes_train_run_and_evaluate_report(dataset_dir, tmp_path, capsys, variant,
                                                     model):
    config = FAST + ["--override", "model=" + model]
    ablated, trained, report = (str(tmp_path / name) for name in ("ablate", "train", "report"))
    assert main(["ablate", dataset_dir, ablated, "--variant", variant,
                 "--cutoffs", "1,5"] + config) == 0
    assert main(["train", dataset_dir, trained, "--override", "variant=" + variant] + config) == 0
    assert main(["evaluate", trained + "/checkpoint.txt", dataset_dir, "--cutoffs", "1,5",
                 "--out", report]) == 0
    capsys.readouterr()
    for name in ("checkpoint.txt", "history.txt", "manifest.txt"):
        with open(ablated + "/" + name, "rb") as a, open(trained + "/" + name, "rb") as t:
            assert a.read() == t.read(), name
    for name in ("report.txt", "report.kv"):
        with open(ablated + "/" + name, "rb") as a, open(report + "/" + name, "rb") as r:
            assert a.read() == r.read(), name


def test_ablate_and_train_write_the_same_run_files(dataset_dir, run_dir, tmp_path, capsys):
    out = str(tmp_path / "u")
    assert main(["ablate", dataset_dir, out, "--variant", "U", "--cutoffs", "5"] + FAST) == 0
    capsys.readouterr()
    assert set(os.listdir(run_dir)) == RUN_FILES
    assert set(os.listdir(out)) == RUN_FILES | {"report.txt", "report.kv"}


@pytest.mark.parametrize("argv,flag", [
    (["evaluate", "{run}/checkpoint.txt", "{data}", "--cutoffs", "x"], "--cutoffs"),
    (["evaluate", "{run}/checkpoint.txt", "{data}", "--cutoffs", "0,-3"], "--cutoffs"),
    (["ablate", "{data}", "{out}", "--variant", "H", "--cutoffs", "5,x"], "--cutoffs"),
    (["ablate", "{data}", "{out}", "--variant", "H", "--cutoffs", "0"], "--cutoffs"),
    (["dump-bounds", "{run}/checkpoint.txt", "--users", "a", "--items", "0"], "--users"),
    (["dump-bounds", "{run}/checkpoint.txt", "--users", "0", "--items", "1.5"], "--items"),
    (["synth", "{out}", "--densities", "0.4,x"], "--densities"),
    (["evaluate", "{run}/checkpoint.txt", "{data}", "--cutoffs", "5,5"], "--cutoffs"),
    (["ablate", "{data}", "{out}", "--variant", "H", "--cutoffs", "10,5,10"], "--cutoffs"),
    (["prepare", "{out}/missing.tsv", "{out}", "--min-target", "-5"], "--min-target"),
], ids=["evaluate-token", "evaluate-below-one", "ablate-token", "ablate-below-one",
        "dump-bounds-users", "dump-bounds-items", "synth-densities", "evaluate-repeated",
        "ablate-repeated", "prepare-min-target"])
def test_malformed_list_flags_are_config_errors(dataset_dir, run_dir, tmp_path, capsys, argv,
                                                flag):
    out = tmp_path / "out"
    argv = [a.format(run=run_dir, data=dataset_dir, out=out) for a in argv]
    assert main(argv + (FAST if argv[0] == "ablate" else [])) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: %s: " % flag)
    assert not (out / "checkpoint.txt").exists()


def test_evaluate_rejects_checkpoint_of_other_size(tmp_path, capsys):
    small, other = str(tmp_path / "small"), str(tmp_path / "other")
    assert main(["synth", small, "--users", "20", "--items", "15",
                 "--densities", "0.4,0.3,0.25", "--latent-dim", "3"]) == 0
    assert main(["synth", other, "--users", "24", "--items", "18",
                 "--densities", "0.4,0.3,0.25", "--latent-dim", "3"]) == 0
    run = str(tmp_path / "run")
    assert main(["train", small, run, "--override", "model=mf"] + FAST) == 0
    capsys.readouterr()
    assert main(["evaluate", run + "/checkpoint.txt", other]) == 2
    assert capsys.readouterr().err == (
        "data error: %s/checkpoint.txt: checkpoint is 20x15 but dataset is 24x18\n" % run)


def test_prepare_roundtrip(tmp_path, capsys):
    raw = tmp_path / "raw.tsv"
    lines = []
    ts = 0
    for u in range(5):
        for v in range(6):
            lines.append("u%d\ti%d\tbuy\t%d" % (u, v, ts))
            ts += 1
        lines.append("u%d\ti0\tview\t%d" % (u, ts))
        ts += 1
    raw.write_text("\n".join(lines) + "\n")
    out = str(tmp_path / "prepared")
    code = main(["prepare", str(raw), out, "--min-target", "5"])
    captured = capsys.readouterr()
    assert code == 0
    assert "5 users, 6 items" in captured.out
    split, user_ids, item_ids, labels = read_dataset_dir(out)
    assert user_ids == ["u0", "u1", "u2", "u3", "u4"]
    assert labels == ("view", "cart", "buy")
    # six buys each: last two by timestamp went to validation and test
    assert all(len(p) == 4 for p in split.train.positives[-1])
    run = str(tmp_path / "prepared_run")
    assert main(["train", out, run] + FAST) == 0
    capsys.readouterr()


@pytest.mark.parametrize("name,line", [("behavior_2.txt", "0 1 2"), ("test.txt", "0 1")])
def test_train_rejects_a_repeated_user_line(dataset_dir, tmp_path, capsys, name, line):
    data = str(tmp_path / "data")
    shutil.copytree(dataset_dir, data)
    with open(os.path.join(data, name), "a", encoding="utf-8") as fh:
        fh.write(line + "\n")
    assert main(["train", data, str(tmp_path / "run")] + FAST) == 2
    assert capsys.readouterr().err == (
        "data error: %s/%s:25: expected user 24, got 0\n" % (data, name))
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("text", ["", "u0\ti0\tbuy\t1\nu0\ti1\tbuy\t2\n"],
                         ids=["empty-log", "no-user-survives"])
def test_prepare_rejects_a_log_that_leaves_no_user(tmp_path, capsys, text):
    raw = tmp_path / "raw.tsv"
    raw.write_text(text)
    out = tmp_path / "out"
    assert main(["prepare", str(raw), str(out)]) == 2
    assert capsys.readouterr().err == (
        "data error: %s: no user is left after --min-target 5 filtering and the split, "
        "which needs 3 target records per user\n" % raw)
    assert not out.exists()


def test_prepare_rejects_unknown_behavior(tmp_path, capsys):
    raw = tmp_path / "raw.tsv"
    raw.write_text("u0\ti0\tpurchase\n")
    assert main(["prepare", str(raw), str(tmp_path / "out")]) == 2
    assert "unknown behavior" in capsys.readouterr().err


def test_prepare_rejects_timestamp_outside_int64(tmp_path, capsys):
    raw = tmp_path / "raw.tsv"
    raw.write_text("u0\ti0\tbuy\t1\nu0\ti1\tbuy\t9223372036854775808\n")
    assert main(["prepare", str(raw), str(tmp_path / "out")]) == 2
    assert ":2: timestamp '9223372036854775808' outside the int64 range" \
        in capsys.readouterr().err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("critcf ")


def test_prepare_comma_rejects_an_id_holding_a_tab(tmp_path, capsys):
    # six users with six buys each; only the first user's id holds a tab
    raw = tmp_path / "raw.csv"
    raw.write_text("".join("%s,i%d,buy,%d\n" % ("u\t0" if u == 0 else "u%d" % u, v, 6 * u + v)
                           for u in range(6) for v in range(6)))
    out = tmp_path / "out"
    assert main(["prepare", str(raw), str(out), "--separator", "comma"]) == 2
    assert capsys.readouterr().err == (
        "data error: %s:1: id 'u\\t0' holds a tab, which a dataset dir cannot store\n" % raw)
    assert not out.exists()


@pytest.mark.parametrize("separator", ["tab", "auto"])
def test_prepare_rejects_a_tab_in_a_label_when_lines_split_on_tabs(tmp_path, capsys, separator):
    # such a label once made prepare blame log line 2 with "expected 3 or 4 columns"
    raw = tmp_path / "raw.tsv"
    raw.write_text("u0\ti0\tview\t1\nu0\ti1\ta\tb\t2\n")
    out = tmp_path / "out"
    assert main(["prepare", str(raw), str(out), "--behaviors", "view,a\tb,buy",
                 "--separator", separator]) == 1
    assert capsys.readouterr().err == (
        "config error: --behaviors: behavior label 'a\\tb' holds a tab, which --separator %s "
        "splits log lines on\n" % separator)
    assert not out.exists()


def test_prepare_comma_accepts_a_tab_in_a_label(tmp_path, capsys):
    raw = tmp_path / "raw.csv"
    raw.write_text("".join("u%d,i%d,buy,%d\nu%d,i0,a\tb,%d\n" % (u, v, 6 * u + v, u, u)
                           for u in range(6) for v in range(6)))
    out = str(tmp_path / "out")
    assert main(["prepare", str(raw), out, "--behaviors", "view,a\tb,buy", "--separator",
                 "comma"]) == 0
    split, _, _, labels = read_dataset_dir(out)
    assert labels == ("view", "a\tb", "buy")
    assert [sum(map(len, split.train.positives[k])) for k in range(3)] == [0, 6, 24]


def _config_file(tmp_path, data):
    path = tmp_path / "run.cfg"
    path.write_bytes(data)
    return str(path)


def test_config_file_must_be_utf8(dataset_dir, tmp_path, capsys):
    cfg = _config_file(tmp_path, b"epochs=1\n# caf\xc3\xa9\nlr=0.\xff5\n")
    assert main(["train", dataset_dir, str(tmp_path / "run"), "--config", cfg]) == 1
    assert capsys.readouterr().err == "config error: %s:3: not UTF-8 text (byte 0xff)\n" % cfg


def test_config_file_sets_each_key_once(dataset_dir, tmp_path, capsys):
    cfg = _config_file(tmp_path, b"epochs=1\n# then two\n\nepochs = 2\n")
    run = tmp_path / "run"
    assert main(["train", dataset_dir, str(run), "--config", cfg]) == 1
    assert capsys.readouterr().err == (
        "config error: %s:4: key 'epochs' is already set on an earlier line\n" % cfg)
    # repeated --override flags keep the last value
    assert FAST[:2] == ["--override", "epochs=2"]
    assert main(["train", dataset_dir, str(run), "--override", "epochs=1",
                 "--override", "epochs=2"] + FAST[2:]) == 0
    assert len((run / "history.txt").read_text().splitlines()) == 2


def test_rewritten_dataset_dir_drops_stale_behavior_files(tmp_path, capsys):
    synth = ["--users", "24", "--items", "18", "--latent-dim", "3", "--seed", "3"]
    two = ["--densities", "0.4,0.25", "--behaviors", "view,buy"]
    reused, fresh = str(tmp_path / "reused"), str(tmp_path / "fresh")
    assert main(["synth", reused, "--densities", "0.4,0.3,0.25"] + synth) == 0
    assert main(["synth", reused] + two + synth) == 0
    assert sorted(os.listdir(reused)) == ["behavior_0.txt", "behavior_1.txt", "index_map.txt",
                                          "meta.txt", "test.txt", "validation.txt"]
    run, rerun = str(tmp_path / "run"), str(tmp_path / "rerun")
    assert main(["train", reused, run] + FAST) == 0
    assert main(["synth", fresh] + two + synth) == 0
    assert main(["train", fresh, rerun, "--config", run + "/manifest.txt"]) == 0
    for name in ("checkpoint.txt", "history.txt", "manifest.txt"):
        with open(os.path.join(run, name), "rb") as a, open(os.path.join(rerun, name), "rb") as b:
            assert a.read() == b.read(), name


# Config fuzzing: values that every key rejects or that cost nothing, plus
# per-key values.  d, epochs, patience and num_layers draw only small values
# or values validation rejects; seed, eval_cutoff and batch also draw huge ones.
JUNK_VALUES = ["", "nan", "inf", "-inf", "abc", "-1", "-0.5", "2.5", "1e400", "1,2", " 1 "]
HUGE = str(10 ** 30)
KEY_VALUES = {
    "model": ["mf", "gmf", "lightgcn", "MF"],
    "d": ["1", "4", "0"],
    "lr": ["0.05", "1.0", "0", "1e300"],
    "batch": ["1", "7", "16", HUGE, "0"],
    "epochs": ["0", "1", "2"],
    "dropout": ["0", "0.3", "1", "0.999"],
    "w": ["0", "0.1", "1e300"],
    "alpha": ["0", "0.5", "1", "2"],
    "lambdas": ["0.2,0.3,0.5", "1,1,1", "0.5,0.5", "1,0,0", "nan,0.5,0.5", "0.5,,0.5"],
    "g": ["linear", "square", "expm1", "nope"],
    "seed": ["0", "7", HUGE],
    "patience": ["1", "2", "0"],
    "num_layers": ["0", "1", "2"],
    "variant": ["full", "O", "H", "U", "I", "X"],
    "eval_cutoff": ["1", "5", HUGE, "0"],
    "code_version": ["0.1.0", "9.9"],
    "nope": ["1"],  # unknown keys
    "": ["1"],
}


def _now_and_then(draw, one_in):
    return draw(st.sampled_from([False] * (one_in - 1) + [True]))


@st.composite
def config_files(draw):
    """(file bytes, keys its lines set): distinct keys, mostly with usable
    values, now and then a line without '=', a repeated key or a byte that
    is not UTF-8; comments and blank lines anywhere."""
    keys = draw(st.lists(st.sampled_from(list(KEY_VALUES) + ["dataset_hash"]),
                         unique=True, max_size=6))
    keys += [key for key in ("epochs", "d") if key not in keys]
    lines = []
    for key in keys:
        values = KEY_VALUES.get(key, ["0123abcd"])
        if _now_and_then(draw, 4):
            values = JUNK_VALUES
        lines.append("%s%s=%s" % (key, draw(st.sampled_from(["", " "])),
                                  draw(st.sampled_from(values)))
                     + draw(st.sampled_from(["", "", " # note"])))
    if _now_and_then(draw, 5):
        lines.append(draw(st.sampled_from(lines)))
    if _now_and_then(draw, 8):
        lines.append("no equals here")
    lines += draw(st.lists(st.sampled_from(["# a comment", "", "  "]), max_size=2))
    lines = draw(st.permutations(lines))
    data = "\n".join(lines).encode("utf-8") + draw(st.sampled_from([b"", b"\n", b"\r\n"]))
    if _now_and_then(draw, 8):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\x80"])) + data[at:]
    return data, keys


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@example(config=(b"model=gmf\nlr=1e300\nepochs=2\nd=4\n", ["model", "lr", "epochs", "d"]))
@example(config=(b"epochs=1\nd=4\ndataset_hash=0123abcd\n", ["epochs", "d", "dataset_hash"]))
@example(config=(b"epochs=1\nd=4\nseed=%d\nbatch=%d\neval_cutoff=%d\n" % ((10 ** 30,) * 3),
                 ["epochs", "d", "seed", "batch", "eval_cutoff"]))
@given(config=config_files())
def test_train_on_a_random_config_file_exits_cleanly(dataset_dir, tmp_path, capsys, config):
    """exit 0, 1, 2 or 3 and never a traceback; a config or data error names
    the config file, a line of it or a key, and exit 3 is a numerical error."""
    data, keys = config
    cfg = _config_file(tmp_path, data)
    run = tmp_path / "run"
    shutil.rmtree(run, ignore_errors=True)
    capsys.readouterr()
    code = main(["train", dataset_dir, str(run), "--config", cfg])
    err = capsys.readouterr().err
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    if code in (1, 2):
        assert err.startswith(("config error: ", "data error: "))
        assert cfg in err or any(re.search(r"(?<!\w)%s(?!\w)" % re.escape(key), err)
                                 for key in keys if key), err
    if code == 3:
        assert err.startswith("numerical error: ")
