"""Pluggable collaborative-filtering scorers and checkpoint serialization.

All scorers share one contract: ``score_batch(user_ids)`` produces the
(B, num_items) score matrix for a batch of users against every item, plus an
opaque cache, and ``backward(cache, d_scores)`` turns a gradient w.r.t. that
matrix into one gradient per named parameter array.  The parameters a scorer
lists in ``row_block_params`` get a (B, ...) row block: row i is the gradient
of row ``user_ids[i]``, and every other row's gradient is zero.  Every other
parameter gets a dense gradient shaped like the parameter.

Embedding rows live inside the unit Euclidean ball; the trainer re-projects
after every optimizer step and ``project_rows`` implements that projection.

A checkpoint (version 2, see ``save_checkpoint``) is a text header that
``head`` can show, sealed by its sha256, then each array as raw
little-endian float64 bytes with their own sha256; loading checks every
digest, byte count, name and shape (see ``_read_checkpoint``).
"""

import hashlib
import math
import os
import re

import numpy as np
import scipy.sparse as sp

from .atomic import atomic_write
from .errors import ConfigError, DataError

MODEL_KINDS = ("mf", "gmf", "lightgcn")

CHECKPOINT_MAGIC = "critcf-checkpoint"
CHECKPOINT_VERSION = 2
_ARRAY_LINE = re.compile(rb"array ([a-z_]+) ([0-9]+) ([0-9]+) ([0-9a-f]{64})\n")


def project_rows(arr):
    """Project each row of arr onto the unit Euclidean ball, in place.

    Rows with norm <= 1 are left untouched.  A single division can leave the
    recomputed norm one ulp above 1, so the scaling repeats until every row
    either measures <= 1 or stops changing; both outcomes are fixed points,
    which makes the projection exactly idempotent.
    """
    for _ in range(8):
        norms = np.linalg.norm(arr, axis=1)
        over = norms > 1.0
        if not over.any():
            break
        before = arr[over]
        arr[over] = before / norms[over, None]
        if np.array_equal(arr[over], before):
            break
    return arr


class MfModel:
    """Dot-product factorization: score(u, v) = <user_emb[u], item_emb[v]>."""

    kind = "mf"
    row_block_params = ("user_emb",)

    def __init__(self, user_emb, item_emb):
        self.user_emb = user_emb
        self.item_emb = item_emb

    @property
    def dim(self):
        return self.user_emb.shape[1]

    def param_arrays(self):
        return {"user_emb": self.user_emb, "item_emb": self.item_emb}

    def embedding_param_names(self):
        return ("user_emb", "item_emb")

    def score_batch(self, user_ids, mask=None, layer=0):
        user_ids = np.asarray(user_ids, dtype=np.int64)
        scores = self.user_emb[user_ids] @ self.item_emb.T
        return scores, user_ids

    def backward(self, cache, d_scores):
        user_ids = cache
        d_user = d_scores @ self.item_emb
        d_user += 0.0  # -0.0 -> +0.0, as scattering into zeros would
        d_item = d_scores.T @ self.user_emb[user_ids]
        return {"user_emb": d_user, "item_emb": d_item}


class GmfModel:
    """Generalized factorization: score(u, v) = <w, user_emb[u] * item_emb[v]>.

    pred_weight has shape (layers, dim); the base configuration has a single
    output layer, the per-behavior regression variant one per behavior.  An
    optional (B, dim) dropout mask multiplies the user factor of the
    element-wise product; inverted-dropout scaling is baked into the mask by
    the caller.
    """

    kind = "gmf"
    row_block_params = ("user_emb",)

    def __init__(self, user_emb, item_emb, pred_weight):
        self.user_emb = user_emb
        self.item_emb = item_emb
        self.pred_weight = pred_weight

    @property
    def dim(self):
        return self.user_emb.shape[1]

    def param_arrays(self):
        return {
            "user_emb": self.user_emb,
            "item_emb": self.item_emb,
            "pred_weight": self.pred_weight,
        }

    def embedding_param_names(self):
        return ("user_emb", "item_emb")

    def score_batch(self, user_ids, mask=None, layer=0):
        user_ids = np.asarray(user_ids, dtype=np.int64)
        users = self.user_emb[user_ids]
        if mask is not None:
            users = users * mask
        weight = self.pred_weight[layer]
        scores = (users * weight) @ self.item_emb.T
        return scores, (user_ids, mask, layer)

    def backward(self, cache, d_scores):
        user_ids, mask, layer = cache
        weight = self.pred_weight[layer]
        users = self.user_emb[user_ids]
        masked = users if mask is None else users * mask
        back = d_scores @ self.item_emb  # (B, dim)
        d_user = back * weight
        if mask is not None:
            d_user = d_user * mask
        d_user += 0.0  # -0.0 -> +0.0, as scattering into zeros would
        d_item = d_scores.T @ (masked * weight)
        d_pred = np.zeros_like(self.pred_weight)
        d_pred[layer] = np.sum(back * masked, axis=0)
        return {"user_emb": d_user, "item_emb": d_item, "pred_weight": d_pred}


class LightGcnModel:
    """Layer-averaged embedding propagation over the user-item graph.

    Base embeddings are propagated num_layers times through the symmetric
    normalized adjacency and averaged with weight 1/(num_layers + 1); the
    score is the dot product of the propagated embeddings.  Propagation is
    recomputed from the current base embeddings on every call, and the
    adjacency is constant, so the backward pass applies the same linear
    operator to the upstream gradient.

    build_adjacency gives each node without an edge a unit self-loop, so
    such a node keeps its own embedding at every layer.
    """

    kind = "lightgcn"
    # Propagation spreads every batch row's gradient over the whole graph.
    row_block_params = ()

    def __init__(self, user_emb, item_emb, adjacency, num_layers):
        self.user_emb = user_emb
        self.item_emb = item_emb
        self.adjacency = adjacency  # (N, N) csr, N = users + items
        self.num_layers = num_layers

    @property
    def dim(self):
        return self.user_emb.shape[1]

    def param_arrays(self):
        return {"user_emb": self.user_emb, "item_emb": self.item_emb}

    def embedding_param_names(self):
        return ("user_emb", "item_emb")

    def _propagate(self, base):
        """Layer-averaged propagation of a full (N, dim) stack."""
        acc = base
        total = base.copy()
        for _ in range(self.num_layers):
            acc = self.adjacency @ acc
            total += acc
        return total / (self.num_layers + 1)

    def propagated_embeddings(self):
        num_users = self.user_emb.shape[0]
        stack = np.vstack([self.user_emb, self.item_emb])
        final = self._propagate(stack)
        return final[:num_users], final[num_users:]

    def score_batch(self, user_ids, mask=None, layer=0):
        user_ids = np.asarray(user_ids, dtype=np.int64)
        user_final, item_final = self.propagated_embeddings()
        scores = user_final[user_ids] @ item_final.T
        return scores, (user_ids, user_final, item_final)

    def backward(self, cache, d_scores):
        user_ids, user_final, item_final = cache
        num_users = self.user_emb.shape[0]
        d_final = np.zeros((num_users + self.item_emb.shape[0], self.dim))
        np.add.at(d_final, user_ids, d_scores @ item_final)
        d_final[num_users:] += d_scores.T @ user_final[user_ids]
        # The adjacency is symmetric, so the Jacobian of the propagation is
        # the propagation operator itself.
        d_base = self._propagate(d_final)
        return {"user_emb": d_base[:num_users], "item_emb": d_base[num_users:]}


def build_adjacency(train):
    """Symmetric normalized bipartite adjacency from a training split.

    Edges are the union of every behavior's observed pairs, and each node
    without one gets a unit self-loop.  Returns the (N, N) csr matrix with
    entries 1/sqrt(deg_u * deg_v), N = num_users + num_items.
    """
    from .losses import _positive_index

    num_users = train.num_users
    n = num_users + train.num_items
    # Each edge (u, U + v) is encoded as u * N + U + v, so sorting the codes
    # orders the edges row-major and repeated edges become neighbours.
    codes = [np.empty(0, dtype=np.int64)]
    for per_user in train.positives:
        users, items = _positive_index(per_user)
        codes.append(users * n + num_users + items)
    codes = np.sort(np.concatenate(codes))
    first = np.ones(len(codes), dtype=bool)
    np.not_equal(codes[1:], codes[:-1], out=first[1:])
    users, items = np.divmod(codes[first], n)
    degrees = np.bincount(np.concatenate([users, items]), minlength=n)
    loops = np.flatnonzero(degrees == 0)
    rows = np.concatenate([users, items, loops])
    cols = np.concatenate([items, users, loops])
    inv_sqrt = 1.0 / np.sqrt(np.maximum(degrees, 1))  # a self-loop is degree 1
    data = inv_sqrt[rows] * inv_sqrt[cols]
    return sp.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()


def init_model(kind, num_users, num_items, dim, rng, num_layers=3,
               behavior_layers=0, train=None):
    """Construct a scorer with fresh parameters.

    Embedding entries are drawn uniformly from [-1/sqrt(dim), 1/sqrt(dim)]
    and then projected, keeping initial scores O(1).  The GMF output layer
    is one all-ones row (identical to MF), or, given behavior_layers > 0,
    that many rows drawn like embedding rows, one per behavior.
    """
    if kind not in MODEL_KINDS:
        raise ConfigError("unknown model %r; valid choices: %s" % (kind, ", ".join(MODEL_KINDS)))
    bound = 1.0 / np.sqrt(dim)
    user_emb = rng.uniform(-bound, bound, size=(num_users, dim))
    item_emb = rng.uniform(-bound, bound, size=(num_items, dim))
    project_rows(user_emb)
    project_rows(item_emb)
    if kind == "mf":
        return MfModel(user_emb, item_emb)
    if kind == "gmf":
        if behavior_layers:
            pred = rng.uniform(-bound, bound, size=(behavior_layers, dim))
        else:
            pred = np.ones((1, dim))
        return GmfModel(user_emb, item_emb, pred)
    if train is None:
        raise ConfigError("lightgcn requires the training split to build its graph")
    return LightGcnModel(user_emb, item_emb, build_adjacency(train), num_layers)


def init_bounds(num_users, num_items, num_behaviors, bound_ratio, rng):
    """Bound factors near 1, recovering the plain 1/0 criterion at start."""
    from .losses import BoundParams

    user_bound = 1.0 + rng.uniform(-0.01, 0.01, size=(num_users, num_behaviors))
    item_bound = 1.0 + rng.uniform(-0.01, 0.01, size=(num_items, num_behaviors))
    return BoundParams(user_bound, item_bound, bound_ratio)


def save_checkpoint(path, model, bounds, meta=None):
    """Write model and bound parameters as a version-2 checkpoint.

    The file opens with text lines, so ``head`` shows them: the magic and
    version, the model kind, the counts, ``bound_ratio`` at 17 significant
    digits, one ``meta KEY VALUE`` line per meta entry, and then
    ``header_sha256 HEX``, the sha256 of every byte before that line.  Each
    array follows as one line ``array NAME ROWS COLS HEX`` and exactly
    ROWS*COLS little-endian float64 values as raw bytes, HEX being the
    sha256 of those bytes.  The file ends with ``end\\n``.  The raw bytes are
    the arrays' own bits, so save/load/save produces byte-identical files.
    path is replaced only by a complete file.
    """
    header = ["%s %d" % (CHECKPOINT_MAGIC, CHECKPOINT_VERSION),
              "model %s" % model.kind,
              "num_users %d" % model.user_emb.shape[0],
              "num_items %d" % model.item_emb.shape[0],
              "dim %d" % model.dim]
    if model.kind == "lightgcn":
        header.append("num_layers %d" % model.num_layers)
    arrays = dict(model.param_arrays())
    if bounds is not None:
        header += ["num_behaviors %d" % bounds.num_behaviors,
                   "bound_ratio %.17g" % bounds.bound_ratio]
        arrays.update(user_bound=bounds.user_bound, item_bound=bounds.item_bound)
    header += ["meta %s %s" % item for item in sorted((meta or {}).items())]
    head = "".join(line + "\n" for line in header).encode("utf-8")
    with atomic_write(path, binary=True) as fh:
        fh.write(head)
        fh.write(b"header_sha256 %s\n" % hashlib.sha256(head).hexdigest().encode())
        for name, arr in arrays.items():
            arr = np.atleast_2d(np.asarray(arr, dtype="<f8"))
            raw = arr.tobytes()
            fh.write(("array %s %d %d %s\n" % (name, arr.shape[0], arr.shape[1],
                                               hashlib.sha256(raw).hexdigest())).encode())
            fh.write(raw)
        fh.write(b"end\n")


def _header_value(path, header, key, cast):
    """header[key] as a non-negative int or a finite float, else DataError."""
    if key not in header:
        raise DataError("%s: missing header key %r" % (path, key))
    try:
        value = cast(header[key])
        ok = value >= 0 if cast is int else math.isfinite(value)
    except ValueError:
        ok = False
    if not ok:
        raise DataError("%s: header key %r must be a non-negative %s, got %r"
                        % (path, key, "integer" if cast is int else "finite number",
                           header[key]))
    return value


def _check_shapes(path, header, arrays):
    """The header names a model kind and every count, and every array the
    kind and the bound factors need is present with the header's shape."""
    kind = header.get("model")
    if kind is None:
        raise DataError("%s: missing header key 'model'" % path)
    if kind not in MODEL_KINDS:
        raise DataError("%s: unknown model kind %r" % (path, kind))
    num_users, num_items, dim = (_header_value(path, header, key, int)
                                 for key in ("num_users", "num_items", "dim"))
    if kind == "lightgcn":
        _header_value(path, header, "num_layers", int)
    names = ("user_emb", "item_emb") + (("pred_weight",) if kind == "gmf" else ())
    shapes = {"user_emb": (num_users, dim), "item_emb": (num_items, dim)}
    if "pred_weight" in arrays:
        # One output layer, or one per behavior (variant O); never none.
        shapes["pred_weight"] = (max(arrays["pred_weight"].shape[0], 1), dim)
    if "num_behaviors" in header or "user_bound" in arrays or "item_bound" in arrays:
        num_behaviors = _header_value(path, header, "num_behaviors", int)
        _header_value(path, header, "bound_ratio", float)
        shapes["user_bound"] = (num_users, num_behaviors)
        shapes["item_bound"] = (num_items, num_behaviors)
        names += ("user_bound", "item_bound")
    for name in names:
        if name not in arrays:
            raise DataError("%s: missing array %s" % (path, name))
        if arrays[name].shape != shapes[name]:
            raise DataError("%s: array %s is %dx%d, expected %dx%d"
                            % ((path, name) + arrays[name].shape + shapes[name]))


def _read_checkpoint(path):
    """(header, meta, arrays, bounds) of a checkpoint; bounds may be None.

    The file must be version 2, its text header must match header_sha256
    and repeat no key, and each array must name itself once, have the bytes
    it declares and match its sha256; then _check_shapes must accept the
    header and the arrays.  Otherwise DataError names the file and the key
    or array, or the byte offset of a malformed array line.  The arrays are
    native, C-contiguous and writable.
    """
    from .losses import BoundParams

    header, meta, arrays = {}, {}, {}
    truncated = DataError("%s: truncated checkpoint (missing end marker)" % path)
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        line = fh.readline()
        magic, _, version = line.rstrip(b"\n").partition(b" ")
        if magic != CHECKPOINT_MAGIC.encode():
            raise DataError("%s: not a checkpoint file" % path)
        if version != b"%d" % CHECKPOINT_VERSION:
            raise DataError("%s: checkpoint version %s is not supported; re-run train"
                            % (path, version.decode("utf-8", "replace")))
        digest = hashlib.sha256(line)
        while True:
            line = fh.readline()
            if not line.endswith(b"\n"):
                raise truncated
            key, _, value = line[:-1].decode("utf-8", "replace").partition(" ")
            if key == "header_sha256":
                break
            if key in ("array", "end"):
                raise DataError("%s: no header_sha256 line before the arrays" % path)
            digest.update(line)
            target = header
            if key == "meta":
                target, (key, _, value) = meta, value.partition(" ")
            if key in target:
                raise DataError("%s: duplicate header key %r"
                                % (path, ("meta " if target is meta else "") + key))
            target[key] = value
        if value != digest.hexdigest():
            raise DataError("%s: header lines do not match header_sha256" % path)
        while True:
            offset = fh.tell()
            line = fh.readline()
            if not line.endswith(b"\n"):
                raise truncated
            if line == b"end\n":
                break
            match = _ARRAY_LINE.fullmatch(line)
            if match is None:
                raise DataError("%s: byte %d: expected 'array NAME ROWS COLS SHA256' or 'end'"
                                % (path, offset))
            name, rows, cols = match[1].decode(), int(match[2]), int(match[3])
            if name in arrays:
                raise DataError("%s: duplicate array %s" % (path, name))
            # Checked before allocating, so a huge declared size is a DataError.
            if 8 * rows * cols > size - fh.tell():
                raise DataError("%s: array %s declares %dx%d float64 values, but only %d "
                                "bytes follow" % (path, name, rows, cols, size - fh.tell()))
            buf = bytearray(8 * rows * cols)
            fh.readinto(buf)
            if hashlib.sha256(buf).hexdigest() != match[4].decode():
                raise DataError("%s: array %s does not match its sha256" % (path, name))
            arrays[name] = np.frombuffer(buf, dtype="<f8").reshape(rows, cols)
        if fh.read(1):
            raise DataError("%s: bytes follow the end marker" % path)
    _check_shapes(path, header, arrays)
    bounds = None
    if "user_bound" in arrays:
        bounds = BoundParams(arrays["user_bound"], arrays["item_bound"],
                             float(header["bound_ratio"]))
    return header, meta, arrays, bounds


def load_bounds(path):
    """Only the bound factors of a checkpoint, or None; builds no model."""
    return _read_checkpoint(path)[3]


def load_checkpoint(path, train=None):
    """Read a checkpoint back into (model, bounds, meta).

    bounds is None when the checkpoint was written without bound factors.
    Given the training split, the checkpoint must have its user and item
    counts; lightgcn checkpoints need the split to rebuild the graph.
    """
    header, meta, arrays, bounds = _read_checkpoint(path)
    kind = header["model"]
    user_emb = arrays["user_emb"]
    item_emb = arrays["item_emb"]
    if train is not None and (train.num_users, train.num_items) != (len(user_emb), len(item_emb)):
        raise DataError("%s: checkpoint is %dx%d but dataset is %dx%d"
                        % (path, len(user_emb), len(item_emb), train.num_users, train.num_items))
    if kind == "mf":
        model = MfModel(user_emb, item_emb)
    elif kind == "gmf":
        model = GmfModel(user_emb, item_emb, arrays["pred_weight"])
    else:
        if train is None:
            raise ConfigError("loading a lightgcn checkpoint requires the training split")
        model = LightGcnModel(user_emb, item_emb, build_adjacency(train),
                              int(header["num_layers"]))
    return model, bounds, meta
