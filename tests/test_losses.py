"""Loss tests.

The oracle_* functions are the loss implementations that preceded the fused
kernel in critcf.losses, kept verbatim: one (B, V) temporary per step, the
hinge, bounded-regression (variant H) and regression (variant O) losses as
three separate functions.  The kernel must reproduce them bit for bit.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from critcf.errors import ConfigError
from critcf.losses import (
    POSITIVITY_FLOOR,
    RESIDUAL_SQUARE,
    BoundParams,
    LossConfig,
    PENALTIES,
    _positive_index,
    criterion_total_loss,
    get_penalty,
    hinge_criterion_loss,
)

SQUARE = PENALTIES["square"]
LINEAR = PENALTIES["linear"]
EXPM1 = PENALTIES["expm1"]


def oracle_hinge_criterion_loss(scores, pos_lists, upper, lower, neg_weight, penalty):
    """Single-behavior criterion loss for a batch of users against all items.

    Observed entries are penalized for scoring below their upper bound,
    unobserved entries for scoring above their lower bound:

        sum_{v observed} g((upper - score)_+)
        + w * sum_{v unobserved} g((score - lower)_+)

    Args:
        scores: (B, V) score matrix.
        pos_lists: length-B list of sorted arrays of observed item ids.
        upper, lower: (B, V) bound matrices.
        neg_weight: scalar w, or per-user (B,) array.
        penalty: MarginPenalty shaping the clamped margins.
    Returns:
        (loss, d_scores, d_upper, d_lower); gradient arrays match (B, V).
    """
    scores = np.asarray(scores, dtype=float)
    w = np.asarray(neg_weight, dtype=float)
    w_col = w[:, None] if w.ndim == 1 else w

    neg_margin = np.maximum(scores - lower, 0.0)
    neg_val = penalty.value(neg_margin)
    neg_grad = np.where(neg_margin > 0.0, penalty.grad(neg_margin), 0.0)

    rows, cols = _positive_index(pos_lists)
    pos_margin = np.maximum(upper[rows, cols] - scores[rows, cols], 0.0)
    pos_val = penalty.value(pos_margin)
    pos_grad = np.where(pos_margin > 0.0, penalty.grad(pos_margin), 0.0)

    w_at_pos = w[rows] if w.ndim == 1 else w
    loss = float(np.sum(pos_val) + np.sum(w_col * neg_val) - np.sum(w_at_pos * neg_val[rows, cols]))

    d_scores = w_col * neg_grad
    d_lower = -d_scores.copy()
    d_scores[rows, cols] = -pos_grad
    d_lower[rows, cols] = 0.0
    d_upper = np.zeros_like(scores)
    d_upper[rows, cols] = pos_grad
    return loss, d_scores, d_upper, d_lower


def oracle_behavior_criterion_loss(scores, user_ids, pos_lists, bounds, k, neg_weight, penalty):
    """Criterion loss of one behavior, with gradients chained into the bound factors.

    Returns (loss, d_scores, d_user_col, d_item_col) where d_user_col is the
    gradient w.r.t. user_bound[user_ids, k] (shape (B,)) and d_item_col the
    gradient w.r.t. item_bound[:, k] (shape (V,)).
    """
    ub = bounds.user_bound[user_ids, k]
    ib = bounds.item_bound[:, k]
    upper = np.outer(ub, ib)
    lower = bounds.bound_ratio * upper
    loss, d_scores, d_upper, d_lower = oracle_hinge_criterion_loss(
        scores, pos_lists, upper, lower, neg_weight, penalty
    )
    d_eff = d_upper + bounds.bound_ratio * d_lower
    d_user_col = d_eff @ ib
    d_item_col = d_eff.T @ ub
    return loss, d_scores, d_user_col, d_item_col


def oracle_criterion_total_loss(scores, user_ids, positives, bounds, cfg):
    """Weighted multi-behavior criterion loss over one batch.

    Args:
        scores: (B, V) shared score matrix.
        user_ids: (B,) user indices matching the score rows.
        positives: per-behavior list of per-user positive-item arrays,
            indexed as positives[k][u] over the FULL user axis.
        bounds: BoundParams.
        cfg: LossConfig; behavior_weights must sum to 1.
    Returns:
        (loss, d_scores, d_user_bound, d_item_bound) with d_user_bound of
        shape (B, K) aligned to user_ids and d_item_bound of shape (V, K).
    """
    num_behaviors = len(positives)
    cfg.validate(num_behaviors)
    B, V = scores.shape
    loss = 0.0
    d_scores = np.zeros_like(np.asarray(scores, dtype=float))
    d_user = np.zeros((B, num_behaviors))
    d_item = np.zeros((V, num_behaviors))
    for k in range(num_behaviors):
        lam = cfg.behavior_weights[k]
        if lam == 0.0:
            continue
        batch_pos = [positives[k][u] for u in user_ids]
        lk, dsk, duk, dik = oracle_behavior_criterion_loss(
            scores, user_ids, batch_pos, bounds, k, cfg.neg_weight, cfg.penalty
        )
        loss += lam * lk
        d_scores += lam * dsk
        d_user[:, k] = lam * duk
        d_item[:, k] = lam * dik
    return loss, d_scores, d_user, d_item


def oracle_regression_loss(scores, pos_lists, neg_weight):
    """Whole-data weighted regression toward 1 (observed) and 0 (unobserved).

        sum_{v observed} (1 - score)^2 + w * sum_{v unobserved} score^2

    Returns (loss, d_scores).
    """
    scores = np.asarray(scores, dtype=float)
    w = float(neg_weight)
    rows, cols = _positive_index(pos_lists)
    sq_all = scores * scores
    pos_scores = scores[rows, cols]
    pos_resid = 1.0 - pos_scores
    loss = float(
        np.sum(pos_resid * pos_resid) + w * (np.sum(sq_all) - np.sum(pos_scores * pos_scores))
    )
    d_scores = 2.0 * w * scores
    d_scores[rows, cols] = -2.0 * pos_resid
    return loss, d_scores


def oracle_bounded_regression_loss(scores, pos_lists, upper, lower, neg_weight):
    """Regression toward the learned bounds instead of the 1/0 constants.

    Observed entries regress to their upper bound, unobserved entries to
    their lower bound; no hinge, so overshooting is penalized too.  With
    upper fixed at 1 and lower at 0 this reduces to regression_loss.

    Returns (loss, d_scores, d_upper, d_lower).
    """
    scores = np.asarray(scores, dtype=float)
    w = float(neg_weight)
    rows, cols = _positive_index(pos_lists)

    neg_resid = scores - lower
    pos_resid = upper[rows, cols] - scores[rows, cols]
    neg_sq = neg_resid * neg_resid
    loss = float(
        np.sum(pos_resid * pos_resid) + w * (np.sum(neg_sq) - np.sum(neg_sq[rows, cols]))
    )

    d_scores = 2.0 * w * neg_resid
    d_lower = -d_scores.copy()
    d_scores[rows, cols] = -2.0 * pos_resid
    d_lower[rows, cols] = 0.0
    d_upper = np.zeros_like(scores)
    d_upper[rows, cols] = 2.0 * pos_resid
    return loss, d_scores, d_upper, d_lower


def oracle_bounded_regression_total_loss(scores, user_ids, positives, bounds, cfg):
    """Weighted multi-behavior bounded-regression loss (hinge-free variant).

    Same shapes and return convention as criterion_total_loss.
    """
    num_behaviors = len(positives)
    cfg.validate(num_behaviors)
    B, V = scores.shape
    loss = 0.0
    d_scores = np.zeros_like(np.asarray(scores, dtype=float))
    d_user = np.zeros((B, num_behaviors))
    d_item = np.zeros((V, num_behaviors))
    for k in range(num_behaviors):
        lam = cfg.behavior_weights[k]
        if lam == 0.0:
            continue
        batch_pos = [positives[k][u] for u in user_ids]
        ub = bounds.user_bound[user_ids, k]
        ib = bounds.item_bound[:, k]
        upper = np.outer(ub, ib)
        lower = bounds.bound_ratio * upper
        lk, dsk, d_up, d_lo = oracle_bounded_regression_loss(
            scores, batch_pos, upper, lower, cfg.neg_weight
        )
        d_eff = d_up + bounds.bound_ratio * d_lo
        loss += lam * lk
        d_scores += lam * dsk
        d_user[:, k] = lam * (d_eff @ ib)
        d_item[:, k] = lam * (d_eff.T @ ub)
    return loss, d_scores, d_user, d_item


def behavior_loss(scores, user_ids, pos_k, bp, k, w, penalty):
    """Behavior k alone through criterion_total_loss, unweighted.

    pos_k is positives[k] over the full user axis.  Returns (loss, d_scores,
    d_user_col, d_item_col).
    """
    single = BoundParams(bp.user_bound[:, k:k + 1], bp.item_bound[:, k:k + 1],
                         bp.bound_ratio)
    loss, d_scores, d_user, d_item = criterion_total_loss(
        scores, user_ids, [pos_k], single, LossConfig(w, (1.0,), penalty)
    )
    return loss, d_scores, d_user[:, 0], d_item[:, 0]


def regression(scores, pos_lists, w):
    """Variant O's loss: the residual square against unit bounds, ratio 0."""
    B, V = scores.shape
    unit = BoundParams(np.ones((B, 1)), np.ones((V, 1)), 0.0)
    loss, d_scores, _, _ = criterion_total_loss(
        scores, np.arange(B), [pos_lists], unit, LossConfig(w, (1.0,), RESIDUAL_SQUARE)
    )
    return loss, d_scores


def dense_criterion_loss(scores, pos_lists, upper, lower, w, penalty):
    """Loop-based reference: materialize the unobserved set explicitly."""
    total = 0.0
    B, V = scores.shape
    for u in range(B):
        pos = set(int(v) for v in pos_lists[u])
        wu = w[u] if np.ndim(w) == 1 else w
        for v in range(V):
            if v in pos:
                total += penalty.value(max(upper[u, v] - scores[u, v], 0.0))
            else:
                total += wu * penalty.value(max(scores[u, v] - lower[u, v], 0.0))
    return total


def test_penalty_point_values():
    assert SQUARE.value(3.0) == 9.0
    assert SQUARE.grad(3.0) == 6.0
    assert LINEAR.value(3.0) == 3.0
    assert LINEAR.grad(3.0) == 1.0
    assert EXPM1.value(1.0) == pytest.approx(np.e - 1.0, rel=1e-15)
    for p in PENALTIES.values():
        assert p.value(0.0) == 0.0


def test_penalty_right_derivative_at_zero():
    assert SQUARE.grad(0.0) == 0.0
    assert LINEAR.grad(0.0) == 1.0
    assert EXPM1.grad(0.0) == 1.0


def test_doubling_factor_property():
    # g(2x) <= M g(x) must hold exactly, not within tolerance
    rng = np.random.default_rng(0)
    x = rng.uniform(1e-9, 50.0, size=10000)
    assert np.all(LINEAR.value(2.0 * x) <= 2.0 * LINEAR.value(x))
    assert np.all(SQUARE.value(2.0 * x) <= 4.0 * SQUARE.value(x))
    assert EXPM1.doubling_factor is None


def test_expm1_overflow_clamp():
    assert np.isfinite(EXPM1.value(1e6))
    assert EXPM1.value(1e6) == EXPM1.value(700.0)
    assert np.isfinite(EXPM1.grad(1e6))


def test_get_penalty_unknown():
    with pytest.raises(ConfigError):
        get_penalty("cubic")


def test_bound_params_accessor():
    bp = BoundParams(np.array([[1.0], [2.0]]), np.array([[1.0], [0.3]]), 0.5)
    assert bp.bounds(0, 0, 0) == (1.0, 0.5)
    assert bp.bounds(1, 1, 0) == (pytest.approx(0.6), pytest.approx(0.3))
    degenerate = BoundParams(np.ones((1, 1)), np.ones((1, 1)), 1.0)
    s, t = degenerate.bounds(0, 0, 0)
    assert s == t


def test_single_positive_hand_case():
    # one observed pair scored 0.4 against an upper bound of 1.0
    scores = np.array([[0.4]])
    loss, d_scores, d_upper, d_lower = hinge_criterion_loss(
        scores, [np.array([0])], np.array([[1.0]]), np.array([[0.5]]), 0.1, SQUARE
    )
    assert loss == pytest.approx(0.36, rel=1e-12)
    assert d_scores[0, 0] == pytest.approx(-1.2, rel=1e-12)
    assert d_upper[0, 0] == pytest.approx(1.2, rel=1e-12)
    assert d_lower[0, 0] == 0.0


def test_single_positive_bound_factor_chain():
    # same case through the rank-1 bound factors: dL/d(user factor) carries
    # the item factor, and with both at 1 it is exactly the margin gradient
    bp = BoundParams(np.array([[1.0]]), np.array([[1.0]]), 0.5)
    loss, d_scores, d_user, d_item = behavior_loss(
        np.array([[0.4]]), np.array([0]), [np.array([0])], bp, 0, 0.1, SQUARE
    )
    assert loss == pytest.approx(0.36, rel=1e-12)
    assert d_user[0] == pytest.approx(1.2, rel=1e-12)
    assert d_item[0] == pytest.approx(1.2, rel=1e-12)


def test_single_negative_hand_case():
    scores = np.array([[0.9]])
    loss, d_scores, d_upper, d_lower = hinge_criterion_loss(
        scores, [np.empty(0, dtype=np.int64)], np.array([[1.0]]), np.array([[0.5]]),
        0.1, SQUARE
    )
    assert loss == pytest.approx(0.016, rel=1e-12)
    assert d_scores[0, 0] == pytest.approx(0.08, rel=1e-12)
    assert d_lower[0, 0] == pytest.approx(-0.08, rel=1e-12)
    assert d_upper[0, 0] == 0.0


def test_hinge_zero_is_exact():
    # positives already above their upper bound, negatives below their lower
    scores = np.array([[2.0, 0.1, 0.2], [3.0, 0.0, 2.5]])
    pos_lists = [np.array([0]), np.array([0, 2])]
    upper = np.full((2, 3), 2.0)
    lower = np.full((2, 3), 0.5)
    for penalty in PENALTIES.values():
        loss, d_scores, d_upper, d_lower = hinge_criterion_loss(
            scores, pos_lists, upper, lower, 0.1, penalty
        )
        assert loss == 0.0
        assert not d_scores.any()
        assert not d_upper.any()
        assert not d_lower.any()


def test_matches_dense_reference():
    rng = np.random.default_rng(3)
    scores = rng.uniform(0.0, 1.5, size=(5, 9))
    pos_lists = [np.sort(rng.permutation(9)[: rng.integers(0, 5)]) for _ in range(5)]
    upper = np.outer(rng.uniform(0.5, 1.5, 5), rng.uniform(0.5, 1.5, 9))
    lower = 0.5 * upper
    for penalty in PENALTIES.values():
        loss, _, _, _ = hinge_criterion_loss(scores, pos_lists, upper, lower, 0.1, penalty)
        ref = dense_criterion_loss(scores, pos_lists, upper, lower, 0.1, penalty)
        assert loss == pytest.approx(ref, rel=1e-12)


def test_per_user_negative_weight():
    rng = np.random.default_rng(4)
    scores = rng.uniform(0.0, 1.5, size=(4, 7))
    pos_lists = [np.sort(rng.permutation(7)[: rng.integers(1, 4)]) for _ in range(4)]
    upper = np.full((4, 7), 1.2)
    lower = 0.5 * upper
    w = rng.uniform(0.05, 0.9, size=4)
    loss, _, _, _ = hinge_criterion_loss(scores, pos_lists, upper, lower, w, SQUARE)
    ref = dense_criterion_loss(scores, pos_lists, upper, lower, w, SQUARE)
    assert loss == pytest.approx(ref, rel=1e-12)


def _random_nonkink_instance(rng, B=4, V=8, K=3):
    """Instance whose hinge margins all sit well away from the kink."""
    while True:
        scores = rng.uniform(0.0, 1.5, size=(B, V))
        bp = BoundParams(
            rng.uniform(0.8, 1.2, size=(B, K)),
            rng.uniform(0.8, 1.2, size=(V, K)),
            0.5,
        )
        positives = [
            [np.sort(rng.permutation(V)[: rng.integers(1, 4)]) for _ in range(B)]
            for _ in range(K)
        ]
        ok = True
        for k in range(K):
            upper = np.outer(bp.user_bound[:, k], bp.item_bound[:, k])
            lower = bp.bound_ratio * upper
            if np.abs(upper - scores).min() < 2e-3 or np.abs(scores - lower).min() < 2e-3:
                ok = False
                break
        if ok:
            return scores, positives, bp


@pytest.mark.parametrize("name", sorted(PENALTIES))
def test_gradients_match_finite_differences(name):
    penalty = PENALTIES[name]
    rng = np.random.default_rng(11)
    scores, positives, bp = _random_nonkink_instance(rng)
    user_ids = np.arange(scores.shape[0])
    cfg = LossConfig(0.1, (1 / 6, 4 / 6, 1 / 6), penalty)

    def value(s, ub, ib):
        loss, _, _, _ = criterion_total_loss(
            s, user_ids, positives, BoundParams(ub, ib, bp.bound_ratio), cfg
        )
        return loss

    loss, d_scores, d_user, d_item = criterion_total_loss(scores, user_ids, positives, bp, cfg)
    step = 1e-5
    for arr, grad, which in (
        (scores, d_scores, "scores"),
        (bp.user_bound, d_user, "user"),
        (bp.item_bound, d_item, "item"),
    ):
        flat = arr.ravel()
        for idx in rng.permutation(flat.size)[:10]:
            orig = flat[idx]
            flat[idx] = orig + step
            up = value(scores, bp.user_bound, bp.item_bound)
            flat[idx] = orig - step
            down = value(scores, bp.user_bound, bp.item_bound)
            flat[idx] = orig
            numeric = (up - down) / (2 * step)
            analytic = grad.ravel()[idx]
            denom = max(abs(numeric), abs(analytic), 1e-8)
            assert abs(numeric - analytic) / denom < 1e-4, (which, idx)


def test_monotonicity_in_scores():
    rng = np.random.default_rng(7)
    scores, positives, bp = _random_nonkink_instance(rng, K=1)
    pos_lists = [positives[0][u] for u in range(scores.shape[0])]
    upper = np.outer(bp.user_bound[:, 0], bp.item_bound[:, 0])
    lower = bp.bound_ratio * upper
    base, _, _, _ = hinge_criterion_loss(scores, pos_lists, upper, lower, 0.1, SQUARE)
    bumped = scores.copy()
    u, v = 0, int(pos_lists[0][0])
    bumped[u, v] += 0.3
    up_pos, _, _, _ = hinge_criterion_loss(bumped, pos_lists, upper, lower, 0.1, SQUARE)
    assert up_pos <= base
    neg_items = [v for v in range(scores.shape[1]) if v not in set(pos_lists[0])]
    bumped = scores.copy()
    bumped[0, neg_items[0]] += 0.3
    up_neg, _, _, _ = hinge_criterion_loss(bumped, pos_lists, upper, lower, 0.1, SQUARE)
    assert up_neg >= base


def test_regression_hand_cases():
    # exact fit
    scores = np.array([[1.0, 0.0, 0.0]])
    loss, _ = regression(scores, [np.array([0])], 0.1)
    assert loss == 0.0
    # one positive scored at zero, no negatives
    loss, d = regression(np.array([[0.0]]), [np.array([0])], 0.1)
    assert loss == 1.0
    assert d[0, 0] == -2.0
    # one positive and one negative both at 0.5
    loss, _ = regression(np.array([[0.5, 0.5]]), [np.array([0])], 0.1)
    assert loss == pytest.approx(0.275, rel=1e-12)


def test_bounded_regression_recovers_plain():
    rng = np.random.default_rng(9)
    scores = rng.uniform(-0.5, 1.5, size=(3, 6))
    pos_lists = [np.sort(rng.permutation(6)[:2]) for _ in range(3)]
    # variant H with its bounds fixed at 1 and 0 is variant O, exactly
    bp = BoundParams(np.ones((3, 1)), np.ones((6, 1)), 0.0)
    cfg = LossConfig(0.1, (1.0,), RESIDUAL_SQUARE)
    plain_loss, plain_d = oracle_regression_loss(scores, pos_lists, 0.1)
    bound_loss, bound_d, _, _ = criterion_total_loss(scores, np.arange(3), [pos_lists], bp, cfg)
    assert bound_loss == plain_loss
    assert np.array_equal(bound_d, plain_d)


def test_bounded_regression_gradients():
    rng = np.random.default_rng(13)
    scores = rng.uniform(0.0, 1.5, size=(3, 6))
    positives = [[np.sort(rng.permutation(6)[:2]) for _ in range(3)] for _ in range(2)]
    bp = BoundParams(rng.uniform(0.8, 1.2, (3, 2)), rng.uniform(0.8, 1.2, (6, 2)), 0.5)
    cfg = LossConfig(0.1, (0.25, 0.75), RESIDUAL_SQUARE)
    user_ids = np.arange(3)
    loss, d_scores, d_user, d_item = criterion_total_loss(scores, user_ids, positives, bp, cfg)
    step = 1e-5
    for arr, grad in ((scores, d_scores), (bp.user_bound, d_user), (bp.item_bound, d_item)):
        flat = arr.ravel()
        for idx in rng.permutation(flat.size)[:8]:
            orig = flat[idx]
            flat[idx] = orig + step
            up, _, _, _ = criterion_total_loss(scores, user_ids, positives, bp, cfg)
            flat[idx] = orig - step
            down, _, _, _ = criterion_total_loss(scores, user_ids, positives, bp, cfg)
            flat[idx] = orig
            numeric = (up - down) / (2 * step)
            analytic = grad.ravel()[idx]
            assert abs(numeric - analytic) / max(abs(numeric), abs(analytic), 1e-8) < 1e-4


def test_total_loss_is_weighted_sum():
    rng = np.random.default_rng(21)
    B, V, K = 4, 8, 3
    scores = rng.uniform(0.0, 1.5, size=(B, V))
    positives = [
        [np.sort(rng.permutation(V)[: rng.integers(1, 4)]) for _ in range(B)]
        for _ in range(K)
    ]
    bp = BoundParams(rng.uniform(0.8, 1.2, (B, K)), rng.uniform(0.8, 1.2, (V, K)), 0.5)
    lambdas = (1 / 6, 4 / 6, 1 / 6)
    cfg = LossConfig(0.1, lambdas, SQUARE)
    user_ids = np.arange(B)
    total, _, _, _ = criterion_total_loss(scores, user_ids, positives, bp, cfg)
    parts = []
    for k in range(K):
        lk, _, _, _ = behavior_loss(scores, user_ids, positives[k], bp, k, 0.1, SQUARE)
        parts.append(lambdas[k] * lk)
    assert total == pytest.approx(sum(parts), rel=1e-12)


def test_total_loss_degenerate_weights():
    rng = np.random.default_rng(22)
    B, V = 3, 5
    scores = rng.uniform(0.0, 1.5, size=(B, V))
    positives = [[np.sort(rng.permutation(V)[:2]) for _ in range(B)] for _ in range(3)]
    bp = BoundParams(np.ones((B, 3)), np.ones((V, 3)), 0.5)
    user_ids = np.arange(B)
    only_target, _, _, _ = criterion_total_loss(
        scores, user_ids, positives, bp, LossConfig(0.1, (0.0, 0.0, 1.0), SQUARE)
    )
    direct, _, _, _ = behavior_loss(scores, user_ids, positives[2], bp, 2, 0.1, SQUARE)
    assert only_target == pytest.approx(direct, rel=1e-12)


def test_weights_must_sum_to_one():
    cfg = LossConfig(0.1, (0.5, 0.4), SQUARE)
    with pytest.raises(ConfigError):
        cfg.validate(2)
    with pytest.raises(ConfigError):
        LossConfig(0.1, (1.0,), SQUARE).validate(2)


@pytest.mark.parametrize("name", sorted(PENALTIES))
def test_penalty_out_equals_fresh_result(name):
    penalty = PENALTIES[name]
    x = np.array([0.0, 1e-300, 0.3, 2.0, 699.0, 800.0])
    for method in (penalty.value, penalty.grad):
        fresh = method(x)
        out = np.empty_like(x)
        assert method(x, out=out) is out
        assert out.tobytes() == fresh.tobytes()
        inplace = x.copy()
        method(inplace, out=inplace)
        assert inplace.tobytes() == fresh.tobytes()


# Scores near the bounds, signed zeros, and 800, which takes expm1 past its clamp.
SCORES = st.one_of(st.floats(-3.0, 3.0), st.sampled_from([0.0, -0.0, 1.0, 800.0]))
FACTORS = st.one_of(st.floats(POSITIVITY_FLOOR, 3.0), st.just(1.0))
NEG_WEIGHTS = st.one_of(st.sampled_from([0.0, 0.1]), st.floats(0.0, 2.0))


def _array(draw, elements, shape):
    size = int(np.prod(shape))
    return np.array(draw(st.lists(elements, min_size=size, max_size=size)),
                    dtype=float).reshape(shape)


@st.composite
def loss_instances(draw):
    """(scores, user_ids, positives, bounds, lambdas, w, w_per_user)."""
    B, V, K = draw(st.integers(1, 12)), draw(st.integers(1, 12)), draw(st.integers(1, 3))
    U = B + draw(st.integers(0, 3))
    user_ids = np.array(draw(st.permutations(range(U)))[:B], dtype=np.int64)
    bounds = BoundParams(_array(draw, FACTORS, (U, K)), _array(draw, FACTORS, (V, K)),
                         draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))))
    rows = st.one_of(st.just([False] * V), st.just([True] * V),
                     st.lists(st.booleans(), min_size=V, max_size=V))
    positives = [[np.flatnonzero(draw(rows)) for _ in range(U)] for _ in range(K)]
    scores = _array(draw, SCORES, (B, V))
    # put some scores exactly on a bound: margins of exactly 0
    for r, v, k, on_upper in draw(st.lists(st.tuples(
            st.integers(0, B - 1), st.integers(0, V - 1), st.integers(0, K - 1),
            st.booleans()), max_size=4)):
        upper = bounds.user_bound[user_ids[r], k] * bounds.item_bound[v, k]
        scores[r, v] = upper if on_upper else bounds.bound_ratio * upper
    raw = draw(st.lists(st.integers(0, 3), min_size=K, max_size=K).filter(any))
    lambdas = tuple(x / sum(raw) for x in raw)
    return (scores, user_ids, positives, bounds, lambdas, draw(NEG_WEIGHTS),
            _array(draw, NEG_WEIGHTS, (B,)))


def assert_same(got, want):
    assert type(got[0]) is float and got[0] == want[0]
    for a, b in zip(got[1:], want[1:]):
        assert a.shape == b.shape and np.array_equal(a, b)


def _corner_instance():
    # empty and full rows, a zero margin on each side, expm1 past its clamp
    scores = np.array([[800.0, -0.0, 0.5], [0.0, 1.0, 0.5]])
    bounds = BoundParams(np.ones((2, 1)), np.array([[1.0], [2.0], [1.0]]), 0.5)
    positives = [[np.array([], dtype=np.int64), np.array([0, 1, 2])]]
    return scores, np.array([0, 1]), positives, bounds, (1.0,), 0.1, np.array([0.0, 2.0])


@settings(max_examples=200, deadline=None)
@example(inst=_corner_instance(), variant="full", name="expm1", per_user=False)
@example(inst=_corner_instance(), variant="full", name="linear", per_user=True)
@example(inst=_corner_instance(), variant="H", name="square", per_user=False)
@example(inst=_corner_instance(), variant="O", name="square", per_user=False)
@given(inst=loss_instances(), variant=st.sampled_from(["full", "U", "I", "H", "O"]),
       name=st.sampled_from(sorted(PENALTIES)), per_user=st.booleans())
def test_kernel_equals_oracles(inst, variant, name, per_user):
    scores, user_ids, positives, bounds, lambdas, w, w_user = inst
    if variant == "U":
        bounds.user_bound[...] = 1.0
    elif variant == "I":
        bounds.item_bound[...] = 1.0
    if variant == "O":
        for per_user_pos in positives:
            pos_lists = [per_user_pos[u] for u in user_ids]
            assert_same(regression(scores, pos_lists, w),
                        oracle_regression_loss(scores, pos_lists, w))
        return
    if variant == "H":
        cfg = LossConfig(w, lambdas, RESIDUAL_SQUARE)
        assert_same(criterion_total_loss(scores, user_ids, positives, bounds, cfg),
                    oracle_bounded_regression_total_loss(scores, user_ids, positives, bounds,
                                                         replace(cfg, penalty=SQUARE)))
        return
    penalty = PENALTIES[name]
    w = w_user if per_user else w
    cfg = LossConfig(w, lambdas, penalty)
    assert_same(criterion_total_loss(scores, user_ids, positives, bounds, cfg),
                oracle_criterion_total_loss(scores, user_ids, positives, bounds, cfg))
    for k in range(len(positives)):
        pos_lists = [positives[k][u] for u in user_ids]
        upper = np.outer(bounds.user_bound[user_ids, k], bounds.item_bound[:, k])
        lower = bounds.bound_ratio * upper
        assert_same(hinge_criterion_loss(scores, pos_lists, upper, lower, w, penalty),
                    oracle_hinge_criterion_loss(scores, pos_lists, upper, lower, w, penalty))


def oracle_positive_index(pos_lists):
    """_positive_index as it was before one concatenate replaced the
    per-user np.asarray calls."""
    sizes = [len(p) for p in pos_lists]
    total = sum(sizes)
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    rows = np.repeat(np.arange(len(pos_lists), dtype=np.int64), sizes)
    cols = np.concatenate([np.asarray(p, dtype=np.int64) for p in pos_lists if len(p)])
    return rows, cols


_item_lists = st.lists(st.integers(0, 2**40), max_size=6)


@settings(max_examples=200, deadline=None)
@example(pos_lists=[])
@example(pos_lists=[[], np.empty(0, dtype=np.int64), []])
@example(pos_lists=[[], np.array([3, 1], dtype=np.int64), [], [7]])
@given(pos_lists=st.lists(st.one_of(_item_lists, _item_lists.map(
    lambda items: np.array(items, dtype=np.int64))), max_size=8))
def test_positive_index_equals_oracle(pos_lists):
    """Int64 arrays, Python lists, empty rows and all-empty batches."""
    for got, want in zip(_positive_index(pos_lists), oracle_positive_index(pos_lists)):
        assert got.dtype == want.dtype == np.int64
        assert np.array_equal(got, want)
