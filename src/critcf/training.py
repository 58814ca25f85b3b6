"""Mini-batch Adagrad training of the scorer and bound factors together.

Each batch performs one joint update: the shared score matrix is computed
once, the combined multi-behavior loss differentiates into the scores and
the bound factors, the scorer backpropagates the score gradient into its
own parameters, and a single Adagrad step moves everything.  After every
step embedding rows are projected back into the unit ball and bound factors
are clamped to the positivity floor.

Variants share this loop:
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
        return LossConfig(self.neg_weight, tuple(self.behavior_weights),
                          get_penalty(self.penalty))


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


def _trainable_params(model, bounds, variant):
    """The arrays a run trains: the model's plus the unfrozen bound factors."""
    params = dict(model.param_arrays())
    if bounds is not None:
        if variant != "U":
            params["user_bound"] = bounds.user_bound
        if variant != "I":
            params["item_bound"] = bounds.item_bound
    return params


def batch_gradients(model, bounds, user_ids, positives, loss_cfg, variant="full",
                    mask=None):
    """Loss and joint gradients for one batch of users.

    Returns (loss, grads) where grads maps every model parameter name and,
    given bounds, ``user_bound`` and ``item_bound`` to its gradient.  The
    ``user_bound`` gradient and those of ``model.row_block_params`` are
    (B, ...) row blocks, row i belonging to ``user_ids[i]``; the others are
    dense.  Scores are validated to be finite before the loss is taken.
    """
    user_ids = np.asarray(user_ids, dtype=np.int64)
    num_behaviors = len(positives)
    if variant in ("H", "O"):
        loss_cfg = replace(loss_cfg, penalty=RESIDUAL_SQUARE)

    if variant == "O":
        # Regression toward 1/0 is variant H with unit bounds and ratio 0,
        # one behavior per output layer; the bound gradients are dropped.
        layer_cfg = replace(loss_cfg, behavior_weights=(1.0,))
        total = 0.0
        grads = None
        for k in range(num_behaviors):
            lam = loss_cfg.behavior_weights[k]
            scores, cache = model.score_batch(user_ids, mask=mask, layer=k)
            if not np.all(np.isfinite(scores)):
                raise NumericalError("non-finite scores in batch")
            unit = BoundParams(np.ones((len(positives[k]), 1)),
                               np.ones((scores.shape[1], 1)), 0.0)
            lk, d_scores, _, _ = criterion_total_loss(scores, user_ids, [positives[k]],
                                                      unit, layer_cfg)
            gk = model.backward(cache, lam * d_scores)
            total += lam * lk
            if grads is None:
                grads = gk
            else:
                for name in grads:
                    grads[name] += gk[name]
        return total, grads

    scores, cache = model.score_batch(user_ids, mask=mask)
    if not np.all(np.isfinite(scores)):
        raise NumericalError("non-finite scores in batch")
    loss, d_scores, d_user, d_item = criterion_total_loss(
        scores, user_ids, positives, bounds, loss_cfg
    )
    grads = model.backward(cache, d_scores)
    d_user += 0.0  # -0.0 -> +0.0, as scattering into zeros would
    grads["user_bound"] = d_user
    grads["item_bound"] = d_item
    return loss, grads


def batch_loss(model, bounds, user_ids, positives, loss_cfg, variant="full", mask=None):
    """Forward-only loss of one batch (used by finite-difference checks)."""
    return batch_gradients(model, bounds, user_ids, positives, loss_cfg, variant, mask)[0]


def _apply_constraints(params, rows):
    """Project embedding rows and clamp bound factors after a step.

    Each of ``user_emb``, ``item_emb``, ``user_bound`` and ``item_bound``
    in params is projected or clamped at ``rows.get(name, slice(None))``,
    the rows adagrad_step changed; the others still satisfy the
    constraints, and both operations leave such rows as they are.
    """
    for name, arr in params.items():
        ids = rows.get(name, slice(None))
        if name in ("user_emb", "item_emb"):
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
        loss, grads = batch_gradients(model, bounds, batch, train.positives,
                                      loss_cfg, cfg.variant, mask)
        total += loss
        rows = dict.fromkeys(row_blocks, batch)
        adagrad_step(params, grads, acc, cfg.lr, rows)
        _apply_constraints(params, rows)
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
    bounds = None
    if cfg.variant != "O":
        bounds = init_bounds(train_ds.num_users, train_ds.num_items,
                             train_ds.num_behaviors, cfg.bound_ratio, rng)
        if cfg.variant == "U":
            bounds.user_bound[...] = 1.0
        elif cfg.variant == "I":
            bounds.item_bound[...] = 1.0

    params = _trainable_params(model, bounds, cfg.variant)
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
