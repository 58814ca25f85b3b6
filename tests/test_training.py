import os
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from critcf import pool, training
from critcf.cli import main
from critcf.datasets import BehaviorDataset, leave_one_out_split
from critcf.errors import ConfigError, NumericalError
from critcf.losses import (
    RESIDUAL_SQUARE,
    BoundParams,
    POSITIVITY_FLOOR,
    criterion_total_loss,
    get_penalty,
)
from critcf.models import MfModel, _read_checkpoint, init_bounds, init_model, project_rows
from critcf.pool import block_rows
from critcf.synthetic import SynthConfig, generate
from critcf.training import (
    ADAGRAD_EPS,
    TrainConfig,
    adagrad_step,
    batch_gradients,
    batch_loss,
    train,
    train_epoch,
)


# Reference oracles: the dense optimizer path that the row-sparse step
# replaced.  Every gradient is scattered onto its parameter's full shape, and
# Adagrad, projection and clamp run over every row.

def oracle_adagrad_step(params, grads, acc, lr):
    """Dense Adagrad: acc += grad^2; param -= lr * grad / (sqrt(acc) + eps)."""
    for name, grad in grads.items():
        if not np.all(np.isfinite(grad)):
            raise NumericalError("non-finite gradient for parameter %r" % name)
        acc[name] += grad * grad
        params[name] -= lr * grad / (np.sqrt(acc[name]) + ADAGRAD_EPS)


def oracle_apply_constraints(model, bounds):
    """Project every embedding row and clamp every bound factor."""
    for name in model.embedding_param_names():
        project_rows(model.param_arrays()[name])
    if bounds is not None:
        np.maximum(bounds.user_bound, POSITIVITY_FLOOR, out=bounds.user_bound)
        np.maximum(bounds.item_bound, POSITIVITY_FLOOR, out=bounds.item_bound)


def oracle_dense_gradients(params, grads, user_ids, row_blocks):
    """The gradients of params, each row block scattered into zeros of its shape."""
    dense = {name: grads[name] for name in params}
    for name in row_blocks:
        if name in params:
            dense[name] = np.zeros_like(params[name])
            np.add.at(dense[name], user_ids, grads[name])
    return dense


# The two-body batch step that one loop over output heads replaced: variant O
# ran its own per-behavior loop beside the main path's single pass.

def oracle_batch_gradients(model, bounds, user_ids, positives, loss_cfg, variant="full",
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


def oracle_train_epoch(train, model, bounds, params, acc, cfg, rng, step_callback=None,
                       step_offset=0):
    """train_epoch with dense gradients and the dense Adagrad and constraints."""
    loss_cfg = cfg.loss_config()
    num_users = train.num_users
    perm = rng.permutation(num_users)
    row_blocks = model.row_block_params + ("user_bound",)
    total = 0.0
    steps = step_offset
    use_dropout = model.kind == "gmf" and cfg.dropout > 0.0
    for start in range(0, num_users, cfg.batch_size):
        batch = perm[start:start + cfg.batch_size]
        mask = None
        if use_dropout:
            keep = rng.random((len(batch), model.dim)) >= cfg.dropout
            mask = keep / (1.0 - cfg.dropout)
        loss, grads = batch_gradients(model, bounds, batch, train.positives, loss_cfg, mask)
        total += loss
        oracle_adagrad_step(params, oracle_dense_gradients(params, grads, batch, row_blocks),
                            acc, cfg.lr)
        oracle_apply_constraints(model, bounds)
        steps += 1
        if step_callback is not None:
            step_callback(steps, model, bounds)
    if not np.isfinite(total):
        raise NumericalError("non-finite epoch loss")
    return total, steps


def toy_split(seed=0):
    cfg = SynthConfig(num_users=20, num_items=15, latent_dim=3,
                      densities=(0.40, 0.30), criterion_spread=0.3, seed=seed)
    ds, _, _ = generate(cfg)
    return leave_one_out_split(ds, on_short="error")


def toy_config(**kw):
    base = dict(model="mf", dim=4, lr=0.05, batch_size=8, epochs=3,
                dropout=0.0, behavior_weights=(0.5, 0.5), seed=1, patience=10,
                eval_cutoff=5)
    base.update(kw)
    return TrainConfig(**base)


def fresh_state(model, bounds):
    """The trained arrays of a variant-full run and zero Adagrad accumulators over them."""
    params = dict(model.param_arrays(), user_bound=bounds.user_bound,
                  item_bound=bounds.item_bound)
    return params, {name: np.zeros_like(arr) for name, arr in params.items()}


def test_adagrad_first_step_is_signed_lr():
    params = {"w": np.array([1.0, 1.0, 1.0])}
    grads = {"w": np.array([4.0, -0.25, 0.0])}
    acc = {"w": np.zeros(3)}
    adagrad_step(params, grads, acc, 0.1, {})
    # first step: lr * g / (|g| + eps) = lr * sign(g)
    np.testing.assert_allclose(params["w"], [0.9, 1.1, 1.0], rtol=1e-7)
    # second step with the same gradient: magnitude lr / sqrt(2)
    first = 1.0 - 0.1 * 4.0 / (np.sqrt(16.0) + ADAGRAD_EPS)
    assert params["w"][0] == first
    adagrad_step(params, {"w": grads["w"].copy()}, acc, 0.1, {})
    expected = first - 0.1 * 4.0 / (np.sqrt(32.0) + ADAGRAD_EPS)
    assert params["w"][0] == pytest.approx(expected, rel=1e-12)
    assert params["w"][0] == pytest.approx(0.9 - 0.1 / np.sqrt(2.0), rel=1e-8)


def test_adagrad_zero_gradient_is_noop():
    params = {"w": np.array([2.0])}
    adagrad_step(params, {"w": np.array([0.0])}, {"w": np.zeros(1)}, 0.5, {})
    assert params["w"][0] == 2.0


def test_adagrad_steps_only_params():
    # a gradient without a parameter, like a frozen bound factor's, is ignored
    params = {"w": np.array([1.0, 1.0])}
    acc = {"w": np.zeros(2)}
    adagrad_step(params, {"w": np.array([2.0]), "frozen": np.array([np.nan])}, acc, 0.5,
                 {"w": np.array([1])})
    np.testing.assert_array_equal(acc["w"], [0.0, 4.0])
    assert params["w"].tolist() == [1.0, 1.0 - 0.5 * 2.0 / (2.0 + ADAGRAD_EPS)]


def test_adagrad_rejects_nonfinite():
    with pytest.raises(NumericalError, match="'w'"):
        adagrad_step({"w": np.ones(2)}, {"w": np.array([1.0, np.nan])}, {"w": np.zeros(2)},
                     0.1, {})


def test_train_epoch_lr_zero_is_noop():
    # config validation forbids lr=0 in train(); the epoch loop itself is fine
    split = toy_split()
    cfg = toy_config(lr=1.0)
    result = train(split, toy_config(epochs=1))
    model, bounds = result.model, result.bounds
    before = {n: a.copy() for n, a in model.param_arrays().items()}
    ub, ib = bounds.user_bound.copy(), bounds.item_bound.copy()
    cfg.lr = 0.0
    train_epoch(split.train, model, bounds, *fresh_state(model, bounds), cfg,
                np.random.default_rng(0))
    for name, arr in model.param_arrays().items():
        np.testing.assert_array_equal(arr, before[name])
    np.testing.assert_array_equal(bounds.user_bound, ub)
    np.testing.assert_array_equal(bounds.item_bound, ib)


def test_training_is_deterministic():
    split = toy_split()
    r1 = train(split, toy_config(epochs=3))
    r2 = train(split, toy_config(epochs=3))
    assert r1.history == r2.history
    assert r1.best_epoch == r2.best_epoch
    for name, arr in r1.model.param_arrays().items():
        np.testing.assert_array_equal(arr, r2.model.param_arrays()[name])
    np.testing.assert_array_equal(r1.bounds.user_bound, r2.bounds.user_bound)
    r3 = train(split, toy_config(epochs=3, seed=2))
    assert any(a != b for a, b in zip(r1.history, r3.history))


def test_constraints_hold_after_every_step():
    split = toy_split()
    seen = []

    def check(step, model, bounds):
        for name in model.embedding_param_names():
            norms = np.linalg.norm(model.param_arrays()[name], axis=1)
            assert norms.max() <= 1.0 + 1e-12
        assert bounds.user_bound.min() >= POSITIVITY_FLOOR
        assert bounds.item_bound.min() >= POSITIVITY_FLOOR
        seen.append(step)

    train(split, toy_config(model="gmf", dropout=0.5, lr=5.0, epochs=2),
          step_callback=check)
    # ceil(20 / 8) = 3 batches per epoch, two epochs
    assert seen == [1, 2, 3, 4, 5, 6]


def test_loss_descends_on_convex_single_pair():
    # one user, two items, one positive: fixed bounds and a linear model
    # make the criterion loss convex in the embeddings near the start
    train_ds = BehaviorDataset(1, 2, 1, [[np.array([0])]])
    model = MfModel(np.full((1, 2), 0.1), np.full((2, 2), 0.1))
    bounds = BoundParams(np.ones((1, 1)), np.ones((2, 1)), 0.5)
    cfg = toy_config(behavior_weights=(1.0,), batch_size=1, lr=0.2)
    params, acc = fresh_state(model, bounds)
    losses = []
    for _ in range(4):
        loss, _ = train_epoch(train_ds, model, bounds, params, acc, cfg,
                              np.random.default_rng(0))
        losses.append(loss)
    assert losses == sorted(losses, reverse=True)
    assert losses[-1] < losses[0]


def test_epochs_zero_returns_initialized_state():
    split = toy_split()
    result = train(split, toy_config(epochs=0))
    assert result.history == []
    assert result.best_epoch == 0
    assert result.model is not None and result.bounds is not None


def test_patience_one_stops_after_two_epochs():
    split = toy_split()
    # lr so small that rankings never move: epoch 2 ties, ties are not better
    result = train(split, toy_config(lr=1e-12, epochs=50, patience=1))
    assert len(result.history) == 2
    assert result.best_epoch == 1


@pytest.mark.parametrize("lr,patience", [(0.05, 1), (0.1, 2), (0.2, 3), (0.5, 1), (0.5, 2)])
def test_best_epoch_is_first_largest_pair_and_patience_counts_from_it(lr, patience):
    result = train(toy_split(), toy_config(lr=lr, patience=patience, epochs=8))
    keys = [(hr, ndcg) for _, _, hr, ndcg in result.history]
    assert result.best_epoch == keys.index(max(keys)) + 1
    assert len(result.history) == min(8, result.best_epoch + patience)


def test_best_epoch_snapshot_is_restored():
    split = toy_split()
    result = train(split, toy_config(epochs=4, lr=0.5))
    best = result.best_epoch
    assert 1 <= best <= 4
    # retrain to exactly the best epoch; parameters must match the snapshot
    replay = train(split, toy_config(epochs=best, lr=0.5, patience=10))
    if replay.best_epoch == best:
        for name, arr in result.model.param_arrays().items():
            np.testing.assert_array_equal(arr, replay.model.param_arrays()[name])


def test_variant_u_keeps_user_bounds_at_one():
    split = toy_split()
    result = train(split, toy_config(variant="U", epochs=2, lr=0.5))
    assert np.all(result.bounds.user_bound == 1.0)
    assert not np.all(result.bounds.item_bound == 1.0)


def test_variant_i_keeps_item_bounds_at_one():
    split = toy_split()
    result = train(split, toy_config(variant="I", epochs=2, lr=0.5))
    assert np.all(result.bounds.item_bound == 1.0)
    assert not np.all(result.bounds.user_bound == 1.0)


def test_variant_o_runs_without_bounds():
    split = toy_split()
    result = train(split, toy_config(model="gmf", variant="O", epochs=2))
    assert result.bounds is None
    assert result.model.pred_weight.shape[0] == split.train.num_behaviors
    with pytest.raises(ConfigError):
        train(split, toy_config(model="mf", variant="O"))


def test_variant_h_trains():
    split = toy_split()
    result = train(split, toy_config(variant="H", epochs=2))
    assert result.bounds is not None
    assert len(result.history) == 2


def test_batch_gradients_match_loss_fd_through_variants():
    split = toy_split()
    train_ds = split.train
    rng = np.random.default_rng(3)
    for variant in ("full", "H"):
        model = MfModel(rng.normal(scale=0.2, size=(train_ds.num_users, 3)),
                        rng.normal(scale=0.2, size=(train_ds.num_items, 3)))
        bounds = BoundParams(
            rng.uniform(0.8, 1.2, (train_ds.num_users, 2)),
            rng.uniform(0.8, 1.2, (train_ds.num_items, 2)), 0.5)
        cfg = toy_config(variant=variant)
        loss_cfg = cfg.loss_config()
        users = np.arange(train_ds.num_users)
        _, grads = batch_gradients(model, bounds, users, train_ds.positives, loss_cfg)
        step = 1e-6
        for name, arr in (("user_bound", bounds.user_bound),
                          ("item_bound", bounds.item_bound)):
            idx = (1, 0)
            keep = arr[idx]
            arr[idx] = keep + step
            up = batch_loss(model, bounds, users, train_ds.positives, loss_cfg)
            arr[idx] = keep - step
            down = batch_loss(model, bounds, users, train_ds.positives, loss_cfg)
            arr[idx] = keep
            fd = (up - down) / (2 * step)
            assert grads[name][idx] == pytest.approx(fd, rel=1e-4, abs=1e-8)


@pytest.mark.parametrize("behaviors,lambdas", [(1, (1.0,)), (2, (0.0, 1.0)),
                                               (3, (0.25, 0.0, 0.75))])
@pytest.mark.parametrize("dropout", [0.0, 0.3])
@pytest.mark.parametrize("kind,variant", [
    (kind, variant) for kind in ("mf", "gmf", "lightgcn")
    for variant in ("full", "H", "U", "I")] + [("gmf", "O")])
def test_batch_gradients_equal_two_body_oracle(kind, variant, dropout, behaviors, lambdas):
    ds, _, _ = generate(SynthConfig(num_users=20, num_items=15, latent_dim=3,
                                    densities=(0.4, 0.3, 0.25)[-behaviors:], seed=2))
    rng = np.random.default_rng(behaviors)
    model = init_model(kind, ds.num_users, ds.num_items, 4, rng, num_layers=2,
                       behavior_layers=behaviors if variant == "O" else 0, train=ds)
    bounds = None if variant == "O" else BoundParams(
        rng.uniform(0.5, 1.5, (ds.num_users, behaviors)),
        rng.uniform(0.5, 1.5, (ds.num_items, behaviors)), 0.5)
    users = rng.permutation(ds.num_users)[:13]
    mask = (rng.random((len(users), 4)) >= dropout) / (1.0 - dropout) if dropout else None
    loss_cfg = toy_config(behavior_weights=lambdas, variant=variant).loss_config()
    loss, grads = batch_gradients(model, bounds, users, ds.positives, loss_cfg, mask)
    want_loss, want = oracle_batch_gradients(model, bounds, users, ds.positives, loss_cfg,
                                             variant, mask)
    assert loss == want_loss
    assert list(grads) == list(want)
    for name, grad in want.items():
        assert grads[name].shape == grad.shape and grads[name].tobytes() == grad.tobytes(), name


@pytest.mark.parametrize("rows", [4, 5, 6])
@pytest.mark.parametrize("kind,variant", [
    (kind, variant) for kind in ("mf", "gmf", "lightgcn")
    for variant in ("full", "H", "U", "I")] + [("gmf", "O")])
def test_batch_gradients_at_small_blocks_equal_two_body_oracle(kind, variant, rows,
                                                               monkeypatch):
    # row blocks of 4, 5 and 6 of the 13 users, the d = 4 floor, with a
    # ragged last one of 1, 3 and 1; the oracle takes the whole batch in one
    # block
    ds, _, _ = generate(SynthConfig(num_users=20, num_items=15, latent_dim=3,
                                    densities=(0.4, 0.3, 0.25), seed=2))
    rng = np.random.default_rng(rows)
    model = init_model(kind, ds.num_users, ds.num_items, 4, rng, num_layers=2,
                       behavior_layers=3 if variant == "O" else 0, train=ds)
    bounds = None if variant == "O" else BoundParams(
        rng.uniform(0.5, 1.5, (ds.num_users, 3)), rng.uniform(0.5, 1.5, (ds.num_items, 3)), 0.5)
    users = rng.permutation(ds.num_users)[:13]
    mask = (rng.random((len(users), 4)) >= 0.3) / 0.7
    loss_cfg = toy_config(behavior_weights=(0.25, 0.0, 0.75), variant=variant).loss_config()
    monkeypatch.setattr(pool, "BLOCK_CELLS", rows * ds.num_items)
    loss, grads = batch_gradients(model, bounds, users, ds.positives, loss_cfg, mask)
    want_loss, want = oracle_batch_gradients(model, bounds, users, ds.positives, loss_cfg,
                                             variant, mask)
    assert loss == pytest.approx(want_loss, rel=1e-12, abs=0.0)
    assert list(grads) == list(want)
    for name, grad in want.items():
        assert grads[name].shape == grad.shape
        assert np.all(np.abs(grads[name] - grad) <= 1e-12 * np.abs(grad).max()), name


def test_lightgcn_batch_gradients_sum_a_repeated_user():
    # user 3 twice is the loss and gradient of user 3 taken twice
    ds, _, _ = generate(SynthConfig(num_users=20, num_items=15, latent_dim=3,
                                    densities=(0.4, 0.3, 0.25), seed=2))
    rng = np.random.default_rng(4)
    model = init_model("lightgcn", ds.num_users, ds.num_items, 4, rng, num_layers=2, train=ds)
    bounds = init_bounds(ds.num_users, ds.num_items, 3, 0.5, rng)
    loss_cfg = toy_config(behavior_weights=(0.25, 0.0, 0.75)).loss_config()
    once = batch_gradients(model, bounds, [3], ds.positives, loss_cfg)
    twice = batch_gradients(model, bounds, [3, 3], ds.positives, loss_cfg)
    assert twice[0] == pytest.approx(2 * once[0], rel=1e-12)
    for name in ("user_emb", "item_emb", "item_bound"):
        assert np.allclose(twice[1][name], 2 * once[1][name], rtol=1e-12, atol=0.0), name


def _wide_gmf_peak(variant):
    """tracemalloc peak of one batch_gradients call: 512 of 2000 users against
    4000 items and three behaviors, gmf at d = 32 with a dropout mask."""
    rng = np.random.default_rng(5)
    U, V, d = 2000, 4000, 32
    positives = BehaviorDataset(U, V, 3, [[np.flatnonzero(rng.random(V) < p) for _ in range(U)]
                                          for p in (0.014, 0.0037, 0.00175)]).positives
    model = init_model("gmf", U, V, d, rng, behavior_layers=3 if variant == "O" else 0)
    bounds = init_bounds(U, V, 3, 0.5, rng)
    users = rng.permutation(U)[:512]
    mask = (rng.random((512, d)) >= 0.5) / 0.5
    loss_cfg = TrainConfig(variant=variant).loss_config()
    tracemalloc.start()
    try:
        batch_gradients(model, None if variant == "O" else bounds, users, positives, loss_cfg,
                        mask)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_batch_gradients_peak_is_under_half_a_batch_array():
    # 32-row blocks (the d = 32 floor) hold no (512, 4000) array; a
    # whole-batch step held three: scores, d_scores and d_eff
    peak = _wide_gmf_peak("full")
    assert peak < 0.5 * 512 * 4000 * 8, peak / 2.0 ** 20


def test_variant_o_peak_is_full_plus_one_block():
    # each of O's three heads scores, takes its loss and backpropagates one
    # block before the next head runs
    full, per_behavior = _wide_gmf_peak("full"), _wide_gmf_peak("O")
    assert per_behavior <= full + block_rows(4000, 32) * 4000 * 8, \
        (per_behavior / 2.0 ** 20, full / 2.0 ** 20)


def test_lightgcn_batch_peak_is_under_six_stack_buffers():
    # Propagation holds three (N, d) buffers (the total, the last layer and
    # the next) plus scipy's per-partition results, and the head's tables are
    # freed before the backward propagation.  One 256-user batch on a
    # 2000 x 500 synth graph at d = 64 traced 4.59 stack buffers (5.60 MB);
    # with five buffers per propagation and the head's tables kept, 7.82
    # (9.54 MB).
    train_ds = leave_one_out_split(generate(SynthConfig(num_users=2000, num_items=500,
                                                        seed=3))[0]).train
    rng = np.random.default_rng(1)
    model = init_model("lightgcn", 2000, 500, 64, rng, train=train_ds)
    bounds = init_bounds(2000, 500, 3, 0.5, rng)
    users = rng.permutation(2000)[:256]
    tracemalloc.start()
    try:
        batch_gradients(model, bounds, users, train_ds.positives, TrainConfig().loss_config())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    stack = (2000 + 500) * 64 * 8
    assert peak < 6 * stack, peak / stack


@pytest.mark.parametrize("kind,variant,name", [("mf", "full", "user_emb"),
                                                ("gmf", "O", "pred_weight")])
def test_batch_gradients_reject_non_finite_scores(kind, variant, name):
    # O's nan sits in the last output layer, so only its last head sees it
    train_ds = toy_split().train
    rng = np.random.default_rng(0)
    model = init_model(kind, train_ds.num_users, train_ds.num_items, 4, rng,
                       behavior_layers=train_ds.num_behaviors if variant == "O" else 0)
    bounds = None if variant == "O" else init_bounds(
        train_ds.num_users, train_ds.num_items, train_ds.num_behaviors, 0.5, rng)
    model.param_arrays()[name][-1, 0] = np.nan
    with pytest.raises(NumericalError, match="^non-finite scores in batch$"):
        batch_gradients(model, bounds, np.arange(train_ds.num_users), train_ds.positives,
                        toy_config(variant=variant).loss_config())


def test_validate_rejects_bad_configs():
    split = toy_split()
    for bad in (dict(lr=0.0), dict(lr=-1.0), dict(dropout=1.0), dict(dim=0),
                dict(patience=0), dict(variant="X"), dict(model="nope"),
                dict(behavior_weights=(0.6, 0.6)), dict(epochs=-1),
                dict(bound_ratio=1.5), dict(neg_weight=-0.1)):
        with pytest.raises(ConfigError):
            train(split, toy_config(**bad))


@pytest.fixture(scope="module")
def sparse_step_dataset(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("data") / "synth")
    assert main(["synth", path, "--users", "37", "--items", "23", "--densities",
                 "0.4,0.3,0.25", "--latent-dim", "3", "--seed", "5"]) == 0
    return path


@pytest.mark.parametrize("model,variant", [
    (model, variant) for model in ("mf", "gmf", "lightgcn")
    for variant in ("full", "U", "I", "H")] + [("gmf", "O")])
def test_sparse_step_equals_dense_oracle(sparse_step_dataset, tmp_path, monkeypatch,
                                         model, variant):
    # batch 8 does not divide the 37 users; lr 1.0 drives rows onto the
    # unit sphere and bound factors onto the floor, so both constraints act
    argv = ["--override", "model=%s" % model, "--override", "variant=%s" % variant,
            "--override", "epochs=3", "--override", "batch=8", "--override", "d=4",
            "--override", "lr=1.0", "--override", "eval_cutoff=5"]
    sparse, dense = str(tmp_path / "sparse"), str(tmp_path / "dense")
    projected, clamped = [], []

    def record(step, model, bounds):
        norms = [np.linalg.norm(model.param_arrays()[name], axis=1)
                 for name in model.embedding_param_names()]
        projected.append(max(n.max() for n in norms) > 1.0 - 1e-9)
        clamped.append(bounds is not None and bool(
            (bounds.user_bound == POSITIVITY_FLOOR).any()
            or (bounds.item_bound == POSITIVITY_FLOOR).any()))

    def recording_oracle(train_ds, model, bounds, params, acc, cfg, rng, step_callback,
                         step_offset):
        return oracle_train_epoch(train_ds, model, bounds, params, acc, cfg, rng, record,
                                  step_offset)

    assert main(["train", sparse_step_dataset, sparse] + argv) == 0
    monkeypatch.setattr(training, "train_epoch", recording_oracle)
    assert main(["train", sparse_step_dataset, dense] + argv) == 0
    assert len(clamped) == 15  # ceil(37 / 8) steps in each of 3 epochs
    assert any(projected)
    assert any(clamped) == (variant != "O")
    for name in ("checkpoint.txt", "history.txt"):
        with open(os.path.join(sparse, name), "rb") as a, \
                open(os.path.join(dense, name), "rb") as b:
            assert a.read() == b.read(), name


@pytest.mark.parametrize("model,variant", [
    (model, variant) for model in ("mf", "gmf", "lightgcn")
    for variant in ("full", "H", "U", "I")] + [("gmf", "O")])
def test_run_files_do_not_depend_on_loss_block(sparse_step_dataset, tmp_path, monkeypatch,
                                               model, variant):
    # 64 cells are 4-row blocks at the 23 items and d = 4, ragged in every
    # 5-user last batch.  The item-side sums change order with the block, so the trained
    # arrays agree to rounding; a rerun at one block agrees byte for byte.
    argv = ["--override", "model=%s" % model, "--override", "variant=%s" % variant,
            "--override", "epochs=3", "--override", "batch=8", "--override", "d=4",
            "--override", "dropout=0.3", "--override", "eval_cutoff=5"]
    runs = []
    for cells in (pool.BLOCK_CELLS, 64, 64):
        monkeypatch.setattr(pool, "BLOCK_CELLS", cells)
        run = tmp_path / str(len(runs))
        assert main(["train", sparse_step_dataset, str(run)] + argv) == 0
        runs.append(run)
    for name in ("checkpoint.txt", "history.txt"):
        assert (runs[1] / name).read_bytes() == (runs[2] / name).read_bytes(), name
    default, tiny = ([line.split() for line in (run / "history.txt").read_text().splitlines()]
                     for run in runs[:2])
    assert len(default) == len(tiny) == 3
    for a, b in zip(default, tiny):
        assert a[:1] + a[2:] == b[:1] + b[2:]
        assert float(b[1]) == pytest.approx(float(a[1]), rel=1e-12)
    default, tiny = (_read_checkpoint(str(run / "checkpoint.txt"))[2] for run in runs[:2])
    assert list(default) == list(tiny)
    for name, arr in default.items():
        assert np.all(np.abs(tiny[name] - arr) <= 1e-13 * np.abs(arr).max()), name
