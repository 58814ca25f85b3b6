"""Flat key=value run configuration and the reproducibility manifest.

A run manifest is the training config with every default materialized plus
the dataset fingerprint and code version; it doubles as a config file, so
re-running `train` against a manifest reproduces the original run.
"""

import hashlib
import os

from . import __version__
from .atomic import atomic_write
from .errors import ConfigError, DataError
from .training import TrainConfig

# key in the flat file -> TrainConfig field
CONFIG_KEYS = (
    ("model", "model"),
    ("d", "dim"),
    ("lr", "lr"),
    ("batch", "batch_size"),
    ("epochs", "epochs"),
    ("dropout", "dropout"),
    ("w", "neg_weight"),
    ("alpha", "bound_ratio"),
    ("lambdas", "behavior_weights"),
    ("g", "penalty"),
    ("seed", "seed"),
    ("patience", "patience"),
    ("num_layers", "num_layers"),
    ("variant", "variant"),
    ("eval_cutoff", "eval_cutoff"),
)

MANIFEST_KEYS = ("dataset_hash", "code_version")


def parse_kv_file(path):
    """Read UTF-8 key=value lines, each key at most once.

    '#' starts a comment and blank lines are skipped.  Lines end at LF, CRLF
    or CR, as in text mode.
    """
    values = {}
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ConfigError("cannot read config file %s: %s" % (path, exc)) from None
    for lineno, raw in enumerate(data.splitlines(), start=1):
        try:
            raw = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigError("%s:%d: not UTF-8 text (byte 0x%02x)"
                              % (path, lineno, raw[exc.start])) from None
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("%s:%d: expected key=value, got %r" % (path, lineno, raw.strip()))
        key, _, value = line.partition("=")
        key = key.strip()
        if key in values:
            raise ConfigError("%s:%d: key %r is already set on an earlier line"
                              % (path, lineno, key))
        values[key] = value.strip()
    return values


def apply_kv(cfg, values, source="config"):
    """Return a new TrainConfig with key=value strings cast to each default's type."""
    known = dict(CONFIG_KEYS)
    updates = {}
    for key, raw in values.items():
        if key in MANIFEST_KEYS:
            continue
        if key not in known:
            raise ConfigError(
                "%s: unknown key %r (valid: %s)"
                % (source, key, ", ".join(k for k, _ in CONFIG_KEYS))
            )
        field = known[key]
        kind = type(getattr(TrainConfig, field))
        try:
            if kind is tuple:
                value = tuple(float(tok) for tok in raw.split(","))
            else:
                value = kind(raw)
        except ValueError:
            raise ConfigError("%s: bad value %r for key %r" % (source, raw, key)) from None
        updates[field] = value
    merged = {**cfg.__dict__, **updates}
    return TrainConfig(**merged)


def config_to_kv(cfg):
    """Materialize every field of a TrainConfig as flat strings."""
    out = {}
    for key, field in CONFIG_KEYS:
        value = getattr(cfg, field)
        if key == "lambdas":
            out[key] = ",".join(repr(float(v)) for v in value)
        elif isinstance(value, float):
            out[key] = repr(value)
        else:
            out[key] = str(value)
    return out


def dataset_fingerprint(dataset_dir):
    """Content hash of a dataset directory (file names and bytes, sorted)."""
    digest = hashlib.sha256()
    try:
        names = sorted(os.listdir(dataset_dir))
    except OSError as exc:
        raise DataError("cannot read dataset directory %s: %s" % (dataset_dir, exc)) from None
    for name in names:
        path = os.path.join(dataset_dir, name)
        if not os.path.isfile(path):
            continue
        digest.update(name.encode("utf-8"))
        digest.update(b"\0")
        with open(path, "rb") as fh:
            digest.update(fh.read())
        digest.update(b"\0")
    return digest.hexdigest()


def write_manifest(path, cfg, dataset_hash):
    kv = config_to_kv(cfg)
    with atomic_write(path) as fh:
        for key, _ in CONFIG_KEYS:
            fh.write("%s=%s\n" % (key, kv[key]))
        fh.write("dataset_hash=%s\n" % dataset_hash)
        fh.write("code_version=%s\n" % __version__)


def check_manifest_keys(values, source, dataset_hash, warn):
    """Validate manifest-only keys when a manifest (source) is reused as config."""
    expected = values.get("dataset_hash")
    if expected is not None and expected != dataset_hash:
        raise DataError(
            "%s: dataset_hash: dataset fingerprint mismatch: config expects %s but "
            "directory hashes to %s" % (source, expected, dataset_hash)
        )
    version = values.get("code_version")
    if version is not None and version != __version__:
        warn("config was written by code version %s, running %s" % (version, __version__))
