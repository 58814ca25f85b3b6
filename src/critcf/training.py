"""Mini-batch Adagrad training of the scorer and bound factors together.

Each batch performs one joint update.  The model's head scores one row
block of the batch's users at a time, about BLOCK_CELLS scores and at least
the model's dim rows (pool.block_rows, which also sizes the row blocks of
evaluation, synth's selection and LightGCN's propagation); the combined
multi-behavior loss differentiates them into the scores and the bound
factors, and the head backpropagates the score gradient, before the next
block is scored.  The user-side gradients fill the batch's rows and the
item-side ones are summed over the blocks; then a single Adagrad step moves
everything.  After every step embedding rows are projected back into the
unit ball and bound factors are clamped to the positivity floor.

Variants share this loop; train() and TrainConfig turn the variant into the
loss, the bounds and the trained arrays that the batch step reads:
    full  criterion loss, both bound factor matrices learned
    U     user factors frozen at 1 (bounds carried by items alone)
    I     item factors frozen at 1 (bounds carried by users alone)
    H     bounds learned, but residuals regress to the bounds (no hinge)
    O     plain 1/0 regression per behavior, no bounds, one output layer
          per behavior (gmf only for the extra layers)
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, NumericalError
from .losses import (
    RESIDUAL_SQUARE,
    BoundParams,
    LossConfig,
    PENALTIES,
    POSITIVITY_FLOOR,
    criterion_total_loss,
    get_penalty,
)
from .models import MODEL_KINDS, init_bounds, init_model, project_rows
from .pool import block_rows
from .ranking import evaluate

ADAGRAD_EPS = 1e-8

VARIANTS = ("full", "O", "H", "U", "I")


@dataclass
class TrainConfig:
    model: str = "gmf"
    dim: int = 64
    lr: float = 0.05
    batch_size: int = 512
    epochs: int = 200
    dropout: float = 0.5
    neg_weight: float = 0.1
    bound_ratio: float = 0.5
    behavior_weights: tuple = (1.0 / 6.0, 4.0 / 6.0, 1.0 / 6.0)
    penalty: str = "square"
    seed: int = 42
    patience: int = 10
    num_layers: int = 3
    variant: str = "full"
    eval_cutoff: int = 100

    def validate(self, num_behaviors):
        if self.model not in MODEL_KINDS:
            raise ConfigError("model must be one of %s" % (MODEL_KINDS,))
        if self.variant not in VARIANTS:
            raise ConfigError("variant must be one of %s" % (VARIANTS,))
        if self.dim < 1:
            raise ConfigError("dim (d) must be >= 1")
        if self.num_layers < 0:
            raise ConfigError("num_layers must be >= 0, got %d" % self.num_layers)
        for name, values in (("lr", (self.lr,)), ("neg_weight (w)", (self.neg_weight,)),
                             ("bound_ratio (alpha)", (self.bound_ratio,)),
                             ("behavior_weights (lambdas)", tuple(self.behavior_weights))):
            if not np.isfinite(values).all():
                raise ConfigError("%s must be finite, got %s"
                                  % (name, ",".join(repr(float(v)) for v in values)))
        if self.lr <= 0.0:
            raise ConfigError("lr must be > 0")
        if self.batch_size < 1:
            raise ConfigError("batch_size (batch) must be >= 1")
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError("dropout must lie in [0, 1)")
        if self.neg_weight < 0.0:
            raise ConfigError("neg_weight (w) must be >= 0")
        if not 0.0 <= self.bound_ratio <= 1.0:
            raise ConfigError("bound_ratio (alpha) must lie in [0, 1]")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0, got %d" % self.seed)
        if self.patience < 1:
            raise ConfigError("patience must be >= 1")
        if self.eval_cutoff < 1:
            raise ConfigError("eval_cutoff must be >= 1")
        if self.variant == "O" and self.model != "gmf":
            raise ConfigError("variant O uses per-behavior output layers; model must be gmf")
        if self.penalty not in PENALTIES:
            raise ConfigError("penalty (g) must be one of %s, got %r"
                              % (", ".join(sorted(PENALTIES)), self.penalty))
        self.loss_config().validate(num_behaviors)

    def loss_config(self):
        """The run's loss: variants H and O take RESIDUAL_SQUARE, whatever g is."""
        penalty = RESIDUAL_SQUARE if self.variant in ("H", "O") else get_penalty(self.penalty)
        return LossConfig(self.neg_weight, tuple(self.behavior_weights), penalty)


@dataclass
class TrainResult:
    model: object
    bounds: object  # None for variant O
    history: list  # (epoch, loss, val_hr, val_ndcg)
    best_epoch: int


def adagrad_step(params, grads, acc, lr, rows):
    """One Adagrad update over named parameter arrays, in place.

    acc += grad^2; param -= lr * grad / (sqrt(acc) + eps), at the rows
    ``rows.get(name, slice(None))`` of each parameter in ``params`` and of
    its accumulator ``acc[name]``; gradients of names not in ``params`` are
    ignored.  A gradient named in rows is a row block whose rows belong to
    those (unique) parameter rows, which is exactly the dense update with
    zero gradient rows elsewhere; any other gradient covers every row.
    Gradients must be finite; a non-finite entry aborts with the name, and
    so does an update that overflows.
    """
    for name, param in params.items():
        grad = grads[name]
        if not np.all(np.isfinite(grad)):
            raise NumericalError("non-finite gradient for parameter %r" % name)
        ids = rows.get(name, slice(None))
        try:
            with np.errstate(over="raise"):
                acc_rows = acc[name][ids] + grad * grad
                acc[name][ids] = acc_rows
                param[ids] -= lr * grad / (np.sqrt(acc_rows) + ADAGRAD_EPS)
        except FloatingPointError:
            raise NumericalError("Adagrad step overflows for parameter %r at lr %g; use a "
                                 "smaller lr" % (name, lr)) from None


def batch_gradients(model, bounds, user_ids, positives, loss_cfg, mask=None):
    """Loss and joint gradients for one batch of users.

    Returns (loss, grads) where grads maps every model parameter name and,
    given bounds, ``user_bound`` and ``item_bound`` to its gradient.  The
    ``user_bound`` gradient and those of ``model.row_block_params`` are
    (B, ...) row blocks, row i belonging to ``user_ids[i]``; the others are
    dense.  loss_cfg is TrainConfig.loss_config().  Without bounds, variant
    O, layer k of the model is behavior k's own head, weighted by lambdas[k].

    The model's head scores, the loss differentiates and the head
    backpropagates one row block of block_rows(V, d) users at a time, so no
    (B, V) array exists; each block's scores are validated to be finite
    before its loss is taken; the loss gathers the block's positive pairs
    from the stores in positives.  The loss's work buffer is allocated once
    per batch.  The item-side gradients are summed over the blocks in order.
    """
    user_ids = np.asarray(user_ids, dtype=np.int64)
    loss_cfg.validate(len(positives))
    heads = [(0, (positives, bounds, loss_cfg), 1.0)]  # (layer, loss args, weight)
    if bounds is None:
        # Regression toward 1/0 is variant H with unit bounds and ratio 0,
        # one behavior per output layer; the bound gradients are dropped.
        unit = BoundParams(np.ones((len(positives[0]), 1)), np.ones((len(model.item_emb), 1)), 0.0)
        one = replace(loss_cfg, behavior_weights=(1.0,))
        heads = [(k, ([positives[k]], unit, one), lam)
                 for k, lam in enumerate(loss_cfg.behavior_weights)]
    head = model.head()
    arrays = dict(head.param_arrays())
    if bounds is not None:
        arrays.update(user_bound=bounds.user_bound, item_bound=bounds.item_bound)
    row_blocks = head.row_block_params + ("user_bound",)
    grads = {name: np.zeros((len(user_ids),) + arr.shape[1:] if name in row_blocks else arr.shape)
             for name, arr in arrays.items()}
    num_items = len(head.item_emb)
    rows = block_rows(num_items, head.dim)
    work = np.empty((3, min(rows, len(user_ids)), num_items))
    total = 0.0
    for start in range(0, len(user_ids), rows):
        blk = slice(start, start + rows)
        ids, block_mask = user_ids[blk], None if mask is None else mask[blk]
        for layer, loss_args, weight in heads:
            scores, cache = head.score_batch(ids, mask=block_mask, layer=layer)
            if not np.all(np.isfinite(scores)):
                raise NumericalError("non-finite scores in batch")
            loss, d_scores, d_user, d_item = criterion_total_loss(
                scores, ids, *loss_args, work[:, :len(ids)])
            del scores  # freed before the backward pass makes its (V, d) item gradient
            if weight != 1.0:
                d_scores *= weight
            total += weight * loss
            block = head.backward(cache, d_scores)
            block.update(user_bound=d_user, item_bound=d_item)
            for name, grad in grads.items():
                grad[blk if name in row_blocks else slice(None)] += block[name]
    head = arrays = work = d_scores = None  # freed before LightGCN's backward buffers
    return total, model.head_gradients(user_ids, grads)


def batch_loss(model, bounds, user_ids, positives, loss_cfg, mask=None):
    """Forward-only loss of one batch: the finite-difference checks' oracle."""
    return batch_gradients(model, bounds, user_ids, positives, loss_cfg, mask)[0]


def _apply_constraints(model, params, rows):
    """Project embedding rows and clamp bound factors after a step.

    Each array of params that model.embedding_param_names() names is
    projected onto the unit ball, and ``user_bound`` and ``item_bound`` are
    clamped, at ``rows.get(name, slice(None))``, the rows adagrad_step
    changed; the others still satisfy the constraints, and both operations
    leave such rows as they are.
    """
    for name, arr in params.items():
        ids = rows.get(name, slice(None))
        if name in model.embedding_param_names():
            try:
                arr[ids] = project_rows(arr[ids])
            except NumericalError as exc:
                raise NumericalError("%s for parameter %r; use a smaller lr"
                                     % (exc, name)) from None
        elif name in ("user_bound", "item_bound"):
            arr[ids] = np.maximum(arr[ids], POSITIVITY_FLOOR)


def train_epoch(train, model, bounds, params, acc, cfg, rng, step_callback=None,
                step_offset=0):
    """One pass over all users in seeded-shuffle order; returns summed loss.

    Users are shuffled without replacement and cut into ceil(U / B) batches;
    each batch takes one joint Adagrad step over ``params`` (accumulators
    ``acc``) followed by the projection and positivity clamps.  The
    user-side row blocks touch only the batch rows.
    """
    loss_cfg = cfg.loss_config()
    num_users = train.num_users
    perm = rng.permutation(num_users)
    total = 0.0
    steps = step_offset
    use_dropout = model.kind == "gmf" and cfg.dropout > 0.0
    row_blocks = model.row_block_params + ("user_bound",)
    for start in range(0, num_users, cfg.batch_size):
        batch = perm[start:start + cfg.batch_size]
        mask = None
        if use_dropout:
            keep = rng.random((len(batch), model.dim)) >= cfg.dropout
            mask = keep / (1.0 - cfg.dropout)
        loss, grads = batch_gradients(model, bounds, batch, train.positives, loss_cfg, mask)
        total += loss
        rows = dict.fromkeys(row_blocks, batch)
        adagrad_step(params, grads, acc, cfg.lr, rows)
        _apply_constraints(model, params, rows)
        steps += 1
        if step_callback is not None:
            step_callback(steps, model, bounds)
    if not np.isfinite(total):
        raise NumericalError("non-finite epoch loss")
    return total, steps


def train(split, cfg, step_callback=None, epoch_callback=None):
    """Full training run with early stopping on validation ranking quality.

    An epoch improves when its (HR@cutoff, NDCG@cutoff) pair is
    lexicographically larger than the best so far; cfg.patience epochs
    without improvement stop the run.  NDCG participates because HR
    saturates once the candidate pool is not much larger than the cutoff.
    Returns the best-validation parameters and the full per-epoch history.
    """
    train_ds = split.train
    cfg.validate(train_ds.num_behaviors)
    rng = np.random.default_rng(cfg.seed)
    try:
        model = init_model(
            cfg.model, train_ds.num_users, train_ds.num_items, cfg.dim, rng,
            num_layers=cfg.num_layers,
            behavior_layers=train_ds.num_behaviors if cfg.variant == "O" else 0,
            train=train_ds,
        )
    except MemoryError:
        raise ConfigError("d=%d: the %d x %d user and %d x %d item embeddings do not fit "
                          "in memory" % (cfg.dim, train_ds.num_users, cfg.dim,
                                         train_ds.num_items, cfg.dim)) from None
    params, bounds = dict(model.param_arrays()), None
    if cfg.variant != "O":
        bounds = init_bounds(train_ds.num_users, train_ds.num_items,
                             train_ds.num_behaviors, cfg.bound_ratio, rng)
        params.update(user_bound=bounds.user_bound, item_bound=bounds.item_bound)
        if cfg.variant in ("U", "I"):  # the frozen factor stays at 1, untrained
            params.pop({"U": "user_bound", "I": "item_bound"}[cfg.variant])[...] = 1.0
    acc = {name: np.zeros_like(arr) for name, arr in params.items()}
    best = {name: arr.copy() for name, arr in params.items()}
    history = []
    best_epoch = 0
    steps = 0
    cutoff = cfg.eval_cutoff
    for epoch in range(1, cfg.epochs + 1):
        loss, steps = train_epoch(train_ds, model, bounds, params, acc, cfg, rng,
                                  step_callback, steps)
        report = evaluate(model, bounds, train_ds, split.validation, cutoffs=(cutoff,))
        hr, ndcg = report.hr[cutoff], report.ndcg[cutoff]
        history.append((epoch, loss, hr, ndcg))
        if epoch_callback is not None:
            epoch_callback(epoch, loss, hr, ndcg)
        # max keeps the first of equal rows, so only a larger pair moves it.
        best_epoch = max(history, key=lambda row: row[2:])[0]
        if best_epoch == epoch:
            best = {name: arr.copy() for name, arr in params.items()}
        elif epoch - best_epoch >= cfg.patience:
            break
    for name, arr in params.items():
        arr[...] = best[name]
    return TrainResult(model, bounds, history, best_epoch)
