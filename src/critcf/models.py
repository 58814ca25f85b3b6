"""Pluggable collaborative-filtering scorers and checkpoint serialization.

All scorers share one contract: ``score_batch(user_ids)`` produces the
(B, num_items) score matrix for a batch of users against every item, plus an
opaque cache, and ``backward(cache, d_scores)`` turns a gradient w.r.t. that
matrix into one gradient per named parameter array.  The parameters a scorer
lists in ``row_block_params`` get a (B, ...) row block: row i is the gradient
of row ``user_ids[i]``, and every other row's gradient is zero.  Every other
parameter gets a dense gradient shaped like the parameter.  ``arrays`` names
the arrays a scorer trains and saves; ``MODELS`` maps each kind to its class.

There is one factorization head, GmfModel.  MfModel is GmfModel with its one
output row fixed at all ones, bitwise the plain dot product because
multiplying by 1.0 is exact; LightGcnModel is MfModel over propagated
embeddings.  Training and evaluation score through ``head()``, that head
over tables computed once per batch (the model itself, or an MfModel over
LightGCN's propagated tables), one row block at a time, and
``head_gradients`` turns the head's gradients into the model's.

Embedding rows live inside the unit Euclidean ball; the trainer re-projects
after every optimizer step and ``project_rows`` implements that projection.

A checkpoint (version 2, see ``save_checkpoint``) is a text header that
``head`` can show, sealed by its sha256, then each array as raw
little-endian float64 bytes with their own sha256; loading checks every
digest, byte count, name and shape, and rejects an array the model kind
does not use (see ``_read_checkpoint``).
"""

import hashlib
import math
import os
import re

import numpy as np
import scipy.sparse as sp

from . import pool
from .atomic import atomic_write
from .errors import ConfigError, DataError, NumericalError
from .losses import BoundParams

CHECKPOINT_MAGIC = "critcf-checkpoint"
CHECKPOINT_VERSION = 2
_ARRAY_LINE = re.compile(rb"array ([a-z_]+) ([0-9]+) ([0-9]+) ([0-9a-f]{64})\n")


def project_rows(arr):
    """Project each row of arr onto the unit Euclidean ball, in place.

    Rows with norm <= 1 are left untouched.  A single division can leave the
    recomputed norm one ulp above 1, so the scaling repeats until every row
    measures <= 1, which makes the projection exactly idempotent.  Each
    division changes the row (a norm above 1 needs a normal entry), and
    random rows needed at most 3 of the 8 allowed.  A row whose norm is not
    finite raises NumericalError, because dividing by that norm would zero
    the row; the squares of finite entries can overflow it.
    """
    for _ in range(8):
        with np.errstate(over="ignore"):
            norms = np.linalg.norm(arr, axis=1)
        if not np.isfinite(norms).all():
            raise NumericalError("non-finite row norm")
        over = norms > 1.0
        if not over.any():
            break
        arr[over] /= norms[over, None]
    return arr


class GmfModel:
    """Generalized factorization: score(u, v) = <w, user_emb[u] * item_emb[v]>.

    pred_weight has shape (layers, dim); the base configuration has a single
    output layer, the per-behavior regression variant one per behavior.  An
    optional (B, dim) dropout mask multiplies the user factor of the
    element-wise product; inverted-dropout scaling is baked into the mask by
    the caller.
    """

    kind = "gmf"
    arrays = ("user_emb", "item_emb", "pred_weight")  # trained and saved, in checkpoint order
    row_block_params = ("user_emb",)

    def __init__(self, user_emb, item_emb, pred_weight):
        self.user_emb = user_emb
        self.item_emb = item_emb
        self.pred_weight = pred_weight

    @property
    def dim(self):
        return self.user_emb.shape[1]

    def param_arrays(self):
        return {name: getattr(self, name) for name in self.arrays}

    def embedding_param_names(self):
        """Names of the arrays whose rows the trainer keeps in the unit ball."""
        return ("user_emb", "item_emb")

    def head(self):
        """The factorization head that scores and differentiates this model's
        batches, one row block at a time: the model itself."""
        return self

    def head_gradients(self, user_ids, grads):
        """This model's gradients from its head's: the head is the model."""
        return grads

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
        if "pred_weight" not in self.arrays:  # MF's fixed row is not trained
            return {"user_emb": d_user, "item_emb": d_item}
        d_pred = np.zeros_like(self.pred_weight)
        d_pred[layer] = np.sum(back * masked, axis=0)
        return {"user_emb": d_user, "item_emb": d_item, "pred_weight": d_pred}


class MfModel(GmfModel):
    """Dot-product factorization: GMF with one all-ones output row, which
    ``arrays`` leaves out, so that it is neither trained nor saved."""

    kind = "mf"
    arrays = ("user_emb", "item_emb")

    def __init__(self, user_emb, item_emb):
        super().__init__(user_emb, item_emb, np.ones((1, user_emb.shape[1])))


class LightGcnModel(MfModel):
    """Layer-averaged embedding propagation over the user-item graph.

    Base embeddings are propagated num_layers times through the symmetric
    normalized adjacency and averaged with weight 1/(num_layers + 1); the
    score is the dot product of the propagated embeddings.  score_batch and
    backward are those of ``head()``, an MfModel over the propagated tables
    (so a dropout mask multiplies the propagated user rows; the trainer
    draws masks for gmf only), and ``head_gradients``.  Propagation is
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
        super().__init__(user_emb, item_emb)
        self.adjacency = adjacency  # (N, N) csr, N = users + items
        self.num_layers = num_layers
        # one row partition per worker; the products do not depend on the count
        self.partitions = row_partitions(adjacency, pool.WORKERS)

    def _propagate(self, base):
        """Layer-averaged propagation of a full (N, dim) stack; consumes base.
        Each layer goes into the buffer freed two layers earlier, so three
        (N, dim) buffers are live: the total, the last layer and the next."""
        total, spare = base.copy(), None
        for _ in range(self.num_layers):
            base, spare = partitioned_product(self.partitions, base, spare), base
            total += base
        total /= self.num_layers + 1
        return total

    def propagated_embeddings(self):
        num_users = self.user_emb.shape[0]
        final = self._propagate(np.vstack([self.user_emb, self.item_emb]))
        return final[:num_users], final[num_users:]

    def head(self):
        """An MfModel over the propagated tables, propagated once: its dot
        products are bitwise this model's scores."""
        return MfModel(*self.propagated_embeddings())

    def head_gradients(self, user_ids, grads):
        """The base-embedding gradients from the head's: its user row block
        (a user repeated in user_ids gets the sum of its rows) and its item
        gradient go into one (N, dim) gradient of the propagated tables,
        propagated once."""
        num_users = self.user_emb.shape[0]
        d_final = np.zeros((num_users + self.item_emb.shape[0], self.dim))
        np.add.at(d_final, user_ids, grads["user_emb"])
        d_final[num_users:] += grads["item_emb"]
        # The adjacency is symmetric, so the Jacobian of the propagation is
        # the propagation operator itself.
        d_base = self._propagate(d_final)
        return dict(grads, user_emb=d_base[:num_users], item_emb=d_base[num_users:])

    def score_batch(self, user_ids, mask=None, layer=0):
        head = self.head()
        scores, cache = head.score_batch(user_ids, mask, layer)
        return scores, (head, cache)

    def backward(self, cache, d_scores):
        head, cache = cache
        return self.head_gradients(cache[0], head.backward(cache, d_scores))


MODELS = {cls.kind: cls for cls in (MfModel, GmfModel, LightGcnModel)}
MODEL_KINDS = tuple(MODELS)


def row_partitions(matrix, count):
    """count csr views of consecutive row ranges of matrix with about equal
    nonzeros; they share its data and indices, which the constructor copies."""
    ptr = matrix.indptr
    cuts = np.append(np.searchsorted(ptr, np.arange(count) * matrix.nnz / count), len(ptr) - 1)
    parts = []
    for start, stop in zip(cuts, cuts[1:]):
        part = sp.csr_matrix((stop - start, matrix.shape[1]))
        part.indptr, nonzeros = ptr[start:stop + 1] - ptr[start], slice(ptr[start], ptr[stop])
        part.data, part.indices = matrix.data[nonzeros], matrix.indices[nonzeros]
        parts.append(part)
    return parts


def partitioned_product(parts, x, out=None):
    """``matrix @ x`` from its row partitions, into ``out`` (a new array if
    None; it must not overlap x): block i writes ``parts[i] @ x`` into its
    own rows of out on the pool (``pool.in_order``).  scipy sums each output
    row over its nonzeros in order, so the bits are equal."""
    out = np.empty((sum(part.shape[0] for part in parts), x.shape[1])) if out is None else out
    rows = np.split(out, np.cumsum([part.shape[0] for part in parts[:-1]]))
    pool.in_order(lambda i, _: np.copyto(rows[i], parts[i] @ x), len(parts), lambda *_: None)
    return out


def build_adjacency(train):
    """Symmetric normalized bipartite adjacency from a training split.

    Edges are the union of every behavior's observed pairs, and each node
    without one gets a unit self-loop.  Returns the (N, N) csr matrix with
    entries 1/sqrt(deg_u * deg_v), N = num_users + num_items, each row's
    columns ascending: the bytes of the COO edge list's tocsr().
    """
    pairs = sum(len(store.items) for store in train.positives)
    try:
        return _csr_adjacency(train.num_users, train.num_items, train.positives, pairs)
    except MemoryError:
        raise ConfigError("the lightgcn graph of %d nodes and up to %d edges does not fit in "
                          "memory" % (train.num_users + train.num_items, pairs)) from None


def _csr_adjacency(num_users, num_items, positives, pairs):
    """build_adjacency's matrix, written in place in under twice its bytes."""
    n = num_users + num_items
    # Sorted user-major edge codes u * V + v order the user rows; below them
    # all, codes[0] = -1, so an edge's first copy differs from its left one.
    codes, start = np.full(pairs + 1, -1, dtype=np.int64), 1
    for store in positives:
        stop = start + len(store.items)
        codes[start:stop] = store.items
        codes[start:stop] += np.repeat(np.arange(num_users, dtype=np.int64) * num_items,
                                       np.diff(store.indptr))
        start = stop
    codes.sort()
    codes = codes[1:][codes[1:] != codes[:-1]]
    # The item rows order the same edges by item-major codes v * U + u.
    by_item = np.sort(codes % num_items * num_users + codes // num_items)
    degrees = np.append(np.diff(np.searchsorted(codes, np.arange(num_users + 1) * num_items)),
                        np.diff(np.searchsorted(by_item, np.arange(num_items + 1) * num_users)))
    loops = np.flatnonzero(degrees == 0)
    degrees[loops] = 1  # a self-loop is each one's only entry
    # int32 columns, as scipy's; csr_matrix narrows indptr to int32 as it does.
    cols = np.empty(2 * len(codes), dtype=np.int32)
    cols[:len(codes)] = np.remainder(codes, num_items, out=codes)
    cols[:len(codes)] += num_users
    cols[len(codes):] = np.remainder(by_item, num_users, out=by_item)
    del codes, by_item
    indptr = np.append(0, np.cumsum(degrees))
    indices = np.full(indptr[-1], -1, dtype=np.int32)
    indices[indptr[loops]] = loops
    np.place(indices, indices < 0, cols)
    del cols
    inv_sqrt = 1.0 / np.sqrt(degrees)
    data = np.empty(len(indices))
    # In row blocks of about pool.BLOCK_CELLS entries; a row's entries share its factor.
    cuts = np.unique(np.append(np.searchsorted(indptr, range(0, len(data), pool.BLOCK_CELLS)), n))
    for top, end in zip(cuts.tolist(), cuts[1:].tolist()):
        rows = slice(indptr[top], indptr[end])
        data[rows] = np.repeat(inv_sqrt[top:end], degrees[top:end]) * inv_sqrt[indices[rows]]
    return sp.csr_matrix((data, indices, indptr), shape=(n, n))


def init_model(kind, num_users, num_items, dim, rng, num_layers=3,
               behavior_layers=0, train=None):
    """Construct a scorer with fresh parameters.

    Embedding entries are drawn uniformly from [-1/sqrt(dim), 1/sqrt(dim)]
    and then projected, keeping initial scores O(1).  The GMF output layer
    is one all-ones row (identical to MF), or, given behavior_layers > 0,
    that many rows drawn like embedding rows, one per behavior.
    """
    if kind not in MODELS:
        raise ConfigError("unknown model %r; valid choices: %s" % (kind, ", ".join(MODEL_KINDS)))
    bound = 1.0 / np.sqrt(dim)
    user_emb = rng.uniform(-bound, bound, size=(num_users, dim))
    item_emb = rng.uniform(-bound, bound, size=(num_items, dim))
    project_rows(user_emb)
    project_rows(item_emb)
    arrays = {"user_emb": user_emb, "item_emb": item_emb}
    if "pred_weight" in MODELS[kind].arrays:
        arrays["pred_weight"] = (rng.uniform(-bound, bound, size=(behavior_layers, dim))
                                 if behavior_layers else np.ones((1, dim)))
    return _build_model(kind, arrays, num_layers, train)


def _build_model(kind, arrays, num_layers, train):
    """The model of kind over its arrays; lightgcn builds its graph from train."""
    cls, graph = MODELS[kind], ()
    if cls is LightGcnModel:
        if train is None:
            raise ConfigError("lightgcn needs the training split to build its graph")
        graph = (build_adjacency(train), num_layers)
    return cls(*(arrays[name] for name in cls.arrays), *graph)


def init_bounds(num_users, num_items, num_behaviors, bound_ratio, rng):
    """Bound factors near 1, recovering the plain 1/0 criterion at start."""
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
    """The header names a model kind and every count, and the arrays are
    exactly the kind's and the bound factors', each with the header's shape."""
    kind = header.get("model")
    if kind is None:
        raise DataError("%s: missing header key 'model'" % path)
    if kind not in MODELS:
        raise DataError("%s: unknown model kind %r" % (path, kind))
    num_users, num_items, dim = (_header_value(path, header, key, int)
                                 for key in ("num_users", "num_items", "dim"))
    if kind == "lightgcn":
        _header_value(path, header, "num_layers", int)
    names = MODELS[kind].arrays
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
    for name in arrays:
        if name not in names:
            raise DataError("%s: array %s is not used by model %s" % (path, name, kind))
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
    user_emb, item_emb = arrays["user_emb"], arrays["item_emb"]
    if train is not None and (train.num_users, train.num_items) != (len(user_emb), len(item_emb)):
        raise DataError("%s: checkpoint is %dx%d but dataset is %dx%d"
                        % (path, len(user_emb), len(item_emb), train.num_users, train.num_items))
    num_layers = int(header.get("num_layers", 0))
    return _build_model(header["model"], arrays, num_layers, train), bounds, meta
