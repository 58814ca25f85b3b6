"""Pluggable collaborative-filtering scorers and checkpoint serialization.

All scorers share one contract: ``score_batch(user_ids)`` produces the
(B, num_items) score matrix for a batch of users against every item, plus an
opaque cache, and ``backward(cache, d_scores)`` turns a gradient w.r.t. that
matrix into dense gradients for each named parameter array.

Embedding rows live inside the unit Euclidean ball; the trainer re-projects
after every optimizer step and ``project_rows`` implements that projection.
"""

import io

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, DataError

MODEL_KINDS = ("mf", "gmf", "lightgcn")

CHECKPOINT_MAGIC = "critcf-checkpoint"
CHECKPOINT_VERSION = 1


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
        d_user = np.zeros_like(self.user_emb)
        np.add.at(d_user, user_ids, d_scores @ self.item_emb)
        d_item = d_scores.T @ self.user_emb[user_ids]
        return {"user_emb": d_user, "item_emb": d_item}

    def score_pair(self, u, v):
        return float(self.user_emb[u] @ self.item_emb[v])


class GmfModel:
    """Generalized factorization: score(u, v) = <w, user_emb[u] * item_emb[v]>.

    pred_weight has shape (num_pred_layers, dim); the base configuration has
    a single output layer, multi-layer rows exist for the per-behavior
    regression variant.  An optional (B, dim) dropout mask multiplies the
    user factor of the element-wise product; inverted-dropout scaling is
    baked into the mask by the caller.
    """

    kind = "gmf"

    def __init__(self, user_emb, item_emb, pred_weight):
        self.user_emb = user_emb
        self.item_emb = item_emb
        self.pred_weight = pred_weight

    @property
    def dim(self):
        return self.user_emb.shape[1]

    @property
    def num_pred_layers(self):
        return self.pred_weight.shape[0]

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
        d_user = np.zeros_like(self.user_emb)
        d_rows = back * weight
        if mask is not None:
            d_rows = d_rows * mask
        np.add.at(d_user, user_ids, d_rows)
        d_item = d_scores.T @ (masked * weight)
        d_pred = np.zeros_like(self.pred_weight)
        d_pred[layer] = np.sum(back * masked, axis=0)
        return {"user_emb": d_user, "item_emb": d_item, "pred_weight": d_pred}

    def score_pair(self, u, v, layer=0):
        return float(self.pred_weight[layer] @ (self.user_emb[u] * self.item_emb[v]))


class LightGcnModel:
    """Layer-averaged embedding propagation over the user-item graph.

    Base embeddings are propagated num_layers times through the symmetric
    normalized adjacency and averaged with weight 1/(num_layers + 1); the
    score is the dot product of the propagated embeddings.  Propagation is
    recomputed from the current base embeddings on every call, and the
    adjacency is constant, so the backward pass applies the same linear
    operator to the upstream gradient.

    Nodes without any edge keep their own embedding at every layer.
    """

    kind = "lightgcn"

    def __init__(self, user_emb, item_emb, adjacency, isolated, num_layers):
        self.user_emb = user_emb
        self.item_emb = item_emb
        self.adjacency = adjacency  # (N, N) csr, N = users + items
        self.isolated = isolated  # (N,) bool, degree-0 nodes
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
        keep = self.isolated[:, None]
        acc = base
        total = base.copy()
        for _ in range(self.num_layers):
            acc = self.adjacency @ acc + np.where(keep, acc, 0.0)
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

    def score_pair(self, u, v):
        user_final, item_final = self.propagated_embeddings()
        return float(user_final[u] @ item_final[v])


def build_adjacency(train, num_users=None, num_items=None):
    """Symmetric normalized bipartite adjacency from a training split.

    Edges are the union of every behavior's observed pairs.  Returns the
    (N, N) csr matrix with entries 1/sqrt(deg_u * deg_v) and a boolean mask
    of degree-0 nodes, N = num_users + num_items.
    """
    from .losses import _positive_index

    num_users = train.num_users if num_users is None else num_users
    num_items = train.num_items if num_items is None else num_items
    n = num_users + num_items
    # Each edge (u, U + v) is encoded as u * N + U + v, so sorting the codes
    # orders the edges row-major and repeated edges become neighbours.
    codes = [np.empty(0, dtype=np.int64)]
    for per_user in train.positives:
        users, items = _positive_index(per_user[:num_users])
        codes.append(users * n + num_users + items)
    codes = np.sort(np.concatenate(codes))
    first = np.ones(len(codes), dtype=bool)
    np.not_equal(codes[1:], codes[:-1], out=first[1:])
    users, items = np.divmod(codes[first], n)
    rows = np.concatenate([users, items])
    cols = np.concatenate([items, users])
    data = np.ones(len(rows))
    adj = sp.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()
    degrees = np.asarray(adj.sum(axis=1)).ravel()
    isolated = degrees == 0.0
    inv_sqrt = np.zeros(n)
    inv_sqrt[~isolated] = 1.0 / np.sqrt(degrees[~isolated])
    norm = sp.diags(inv_sqrt) @ adj @ sp.diags(inv_sqrt)
    return norm.tocsr(), isolated


def init_model(kind, num_users, num_items, dim, rng, num_layers=3,
               num_pred_layers=1, random_pred=False, train=None):
    """Construct a scorer with fresh parameters.

    Embedding entries are drawn uniformly from [-1/sqrt(dim), 1/sqrt(dim)]
    and then projected, keeping initial scores O(1).  The GMF output layer
    starts at all-ones (identical to MF) unless random_pred is set, in which
    case each layer row is drawn like an embedding row.
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
        if random_pred:
            pred = rng.uniform(-bound, bound, size=(num_pred_layers, dim))
        else:
            pred = np.ones((num_pred_layers, dim))
        return GmfModel(user_emb, item_emb, pred)
    if train is None:
        raise ConfigError("lightgcn requires the training split to build its graph")
    adjacency, isolated = build_adjacency(train, num_users, num_items)
    return LightGcnModel(user_emb, item_emb, adjacency, isolated, num_layers)


def init_bounds(num_users, num_items, num_behaviors, bound_ratio, rng):
    """Bound factors near 1, recovering the plain 1/0 criterion at start."""
    from .losses import BoundParams

    user_bound = 1.0 + rng.uniform(-0.01, 0.01, size=(num_users, num_behaviors))
    item_bound = 1.0 + rng.uniform(-0.01, 0.01, size=(num_items, num_behaviors))
    return BoundParams(user_bound, item_bound, bound_ratio)


def _write_array(fh, name, arr):
    arr = np.atleast_2d(np.asarray(arr, dtype=float))
    fh.write("array %s %d %d\n" % (name, arr.shape[0], arr.shape[1]))
    np.savetxt(fh, arr, fmt="%.17g")


def save_checkpoint(path, model, bounds, meta=None):
    """Write model and bound parameters as self-describing text.

    Floats are rendered at 17 significant digits, which round-trips float64
    exactly, so save/load/save produces byte-identical files.
    """
    meta = dict(meta or {})
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("%s %d\n" % (CHECKPOINT_MAGIC, CHECKPOINT_VERSION))
        fh.write("model %s\n" % model.kind)
        fh.write("num_users %d\n" % model.user_emb.shape[0])
        fh.write("num_items %d\n" % model.item_emb.shape[0])
        fh.write("dim %d\n" % model.dim)
        if model.kind == "lightgcn":
            fh.write("num_layers %d\n" % model.num_layers)
        if bounds is not None:
            fh.write("num_behaviors %d\n" % bounds.num_behaviors)
            fh.write("bound_ratio %.17g\n" % bounds.bound_ratio)
        for key in sorted(meta):
            fh.write("meta %s %s\n" % (key, meta[key]))
        for name, arr in model.param_arrays().items():
            _write_array(fh, name, arr)
        if bounds is not None:
            _write_array(fh, "user_bound", bounds.user_bound)
            _write_array(fh, "item_bound", bounds.item_bound)
        fh.write("end\n")


def _read_checkpoint(path):
    """(header, meta, arrays, bounds) of a checkpoint; bounds may be None."""
    from .losses import BoundParams

    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or not lines[0].startswith(CHECKPOINT_MAGIC):
        raise DataError("%s: not a checkpoint file" % path)
    header = {}
    meta = {}
    arrays = {}
    i = 1
    while i < len(lines):
        parts = lines[i].split()
        if not parts:
            i += 1
            continue
        if parts[0] == "end":
            break
        if parts[0] == "meta":
            meta[parts[1]] = " ".join(parts[2:])
            i += 1
        elif parts[0] == "array":
            name, rows, cols = parts[1], int(parts[2]), int(parts[3])
            block = "\n".join(lines[i + 1:i + 1 + rows])
            arrays[name] = np.loadtxt(io.StringIO(block), ndmin=2).reshape(rows, cols)
            i += 1 + rows
        else:
            header[parts[0]] = parts[1]
            i += 1
    else:
        raise DataError("%s: truncated checkpoint (missing end marker)" % path)
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
    lightgcn checkpoints need the training split to rebuild the graph.
    """
    header, meta, arrays, bounds = _read_checkpoint(path)
    kind = header.get("model")
    if kind not in MODEL_KINDS:
        raise DataError("%s: unknown model kind %r" % (path, kind))
    user_emb = arrays["user_emb"]
    item_emb = arrays["item_emb"]
    if kind == "mf":
        model = MfModel(user_emb, item_emb)
    elif kind == "gmf":
        model = GmfModel(user_emb, item_emb, arrays["pred_weight"])
    else:
        if train is None:
            raise ConfigError("loading a lightgcn checkpoint requires the training split")
        if train.num_users != user_emb.shape[0] or train.num_items != item_emb.shape[0]:
            raise DataError(
                "%s: checkpoint is %dx%d but dataset is %dx%d"
                % (path, user_emb.shape[0], item_emb.shape[0],
                   train.num_users, train.num_items)
            )
        adjacency, isolated = build_adjacency(train, user_emb.shape[0], item_emb.shape[0])
        model = LightGcnModel(user_emb, item_emb, adjacency, isolated,
                              int(header["num_layers"]))
    return model, bounds, meta
