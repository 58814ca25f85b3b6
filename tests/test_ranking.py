import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from critcf.datasets import BehaviorDataset
from critcf.errors import DataError, NumericalError
from critcf.losses import BoundParams
from critcf.models import MfModel, project_rows
from critcf.ranking import (
    brute_force_metrics,
    evaluate,
    predict_scores,
    rank_in_candidates,
)


class TableModel:
    """Scorer wrapper around an explicit score table, for exact control."""

    kind = "table"

    def __init__(self, table):
        self.table = np.asarray(table, dtype=float)

    def score_batch(self, user_ids, mask=None, layer=0):
        user_ids = np.asarray(user_ids, dtype=np.int64)
        return self.table[user_ids].copy(), user_ids


def oracle_rank_in_candidates(scores_row, excluded, item):
    """Reference: 1-based rank of item among the non-excluded items of one row.

    The per-row form the batch rank_in_candidates replaced.  Rank counts
    strictly better candidates plus equal-scored candidates with a smaller
    index (the ascending-index tiebreak).
    """
    target_score = scores_row[item]
    better = scores_row > target_score
    tied_before = (scores_row == target_score) & (np.arange(len(scores_row)) < item)
    contenders = better | tied_before
    if len(excluded):
        contenders[excluded] = False
    return 1 + int(np.count_nonzero(contenders))


def rank_one(row, excluded, item):
    """rank_in_candidates on a batch of one row."""
    excluded = np.asarray(excluded, dtype=np.int64)
    ranks = rank_in_candidates(np.asarray(row)[None, :], np.array([item]),
                               np.zeros(len(excluded), dtype=np.int64), excluded)
    return int(ranks[0])


def single_behavior_train(num_users, num_items, pos):
    positives = [[np.array(sorted(p), dtype=np.int64) for p in pos]]
    return BehaviorDataset(num_users, num_items, 1, positives)


def test_predict_scores_unit_bounds_pass_through():
    table = np.array([[0.3, 0.6, 0.9]])
    model = TableModel(table)
    bounds = BoundParams(np.ones((1, 2)), np.ones((3, 2)), 0.5)
    np.testing.assert_array_equal(predict_scores(model, bounds, [0]), table)
    np.testing.assert_array_equal(predict_scores(model, None, [0]), table)


def test_predict_scores_divides_by_target_bound():
    model = TableModel(np.array([[0.6]]))
    bounds = BoundParams(np.array([[1.0, 1.2]]), np.array([[1.0, 1.0]]), 0.5)
    assert predict_scores(model, bounds, [0])[0, 0] == pytest.approx(0.5, rel=1e-12)


def test_low_bound_item_ranks_first():
    # equal raw scores; item 1 has the laxer criterion and must win
    model = TableModel(np.array([[0.8, 0.8], [0.8, 0.8]]))
    bounds = BoundParams(np.ones((2, 1)), np.array([[2.0], [0.5]]), 0.5)
    train = single_behavior_train(2, 2, [[], []])
    report = evaluate(model, bounds, train, np.array([1, 0]), cutoffs=(2,))
    assert report.per_user_rank == {0: 1, 1: 2}


def test_candidate_ranks_exclude_train_positives_and_break_ties():
    # candidates exclude the train positive, even when it scores best
    train = single_behavior_train(2, 3, [[0], [0]])
    model = TableModel(np.array([[0.1, 0.9, 0.5], [0.95, 0.9, 0.5]]))
    report = evaluate(model, None, train, np.array([2, 1]), cutoffs=(3,))
    assert report.per_user_rank == {0: 2, 1: 1}
    # equal scores rank by ascending item index
    ties = TableModel(np.full((3, 3), 0.7))
    report = evaluate(ties, None, single_behavior_train(3, 3, [[], [], []]),
                      np.array([0, 1, 2]), cutoffs=(3,))
    assert report.per_user_rank == {0: 1, 1: 2, 2: 3}
    # without exclusions the top two are items 1 and 2; item 0 misses a cutoff of 2
    model = TableModel(np.tile([0.1, 0.9, 0.5], (3, 1)))
    report = evaluate(model, None, single_behavior_train(3, 3, [[], [], []]),
                      np.array([1, 2, 0]), cutoffs=(2,))
    assert report.per_user_rank == {0: 1, 1: 2}
    assert report.hr[2] == pytest.approx(2.0 / 3.0, rel=1e-15)


def test_rank_in_candidates_tiebreak():
    row = np.array([0.5, 0.7, 0.5, 0.5])
    assert rank_one(row, [], 2) == 3
    assert rank_one(row, [], 0) == 2
    assert rank_one(row, [1], 2) == 2


def test_spot_metric_rank_two():
    # held-out item lands at rank 2 among candidates
    model = TableModel(np.array([[0.2, 0.9, 0.5]]))
    train = single_behavior_train(1, 3, [[]])
    report = evaluate(model, None, train, np.array([2]), cutoffs=(1, 10))
    assert report.hr[10] == 1.0
    assert report.ndcg[10] == pytest.approx(1.0 / np.log2(3.0), abs=1e-12)
    assert report.hr[1] == 0.0
    assert report.ndcg[1] == 0.0
    assert report.per_user_rank[0] == 2


def test_ideal_and_missing_ranks():
    model = TableModel(np.array([[0.9, 0.1], [0.8, 0.2]]))
    train = single_behavior_train(2, 2, [[], []])
    ideal = evaluate(model, None, train, np.array([0, 0]), cutoffs=(1,))
    assert ideal.hr[1] == 1.0 and ideal.ndcg[1] == 1.0
    miss = evaluate(model, None, train, np.array([1, 1]), cutoffs=(1,))
    assert miss.hr[1] == 0.0 and miss.ndcg[1] == 0.0
    assert 0 not in miss.per_user_rank or miss.per_user_rank[0] > 1


def test_heldout_item_must_not_be_train_positive():
    model = TableModel(np.array([[0.9, 0.1]]))
    train = single_behavior_train(1, 2, [[0]])
    with pytest.raises(DataError):
        evaluate(model, None, train, np.array([0]), cutoffs=(1,))


@pytest.mark.parametrize("batch_users", [1, 2, 3, 1024])
def test_heldout_clash_names_first_user(batch_users):
    # users 2 and 4 hold out a training positive; the error names user 2,
    # as the per-user loop did, whether or not they share a batch
    train = single_behavior_train(6, 4, [[0], [1], [2, 3], [], [0, 1], [3]])
    heldout = np.array([1, 2, 3, 0, 1, 2])
    model = TableModel(np.zeros((6, 4)))
    with pytest.raises(DataError, match="^held-out item 3 of user 2 is a training positive$"):
        evaluate(model, None, train, heldout, cutoffs=(1,), batch_users=batch_users)


SCORE_VALUES = (-2.0, -1.0, -0.0, 0.0, 1.0, 2.0)


@st.composite
def ranking_instances(draw):
    """Small-integer and +-0.0 score tables, held-out items and exclusions."""
    num_users = draw(st.integers(1, 9))
    num_items = draw(st.integers(1, 9))
    table = np.array(draw(st.lists(st.sampled_from(SCORE_VALUES),
                                   min_size=num_users * num_items,
                                   max_size=num_users * num_items)))
    table = table.reshape(num_users, num_items)
    heldout = np.empty(num_users, dtype=np.int64)
    pos = []
    for u in range(num_users):
        item = draw(st.sampled_from(sorted({0, num_items - 1}))
                    | st.integers(0, num_items - 1))
        others = [v for v in range(num_items) if v != item]
        size = draw(st.sampled_from(sorted({0, len(others)}))
                    | st.integers(0, len(others)))
        pos.append(draw(st.permutations(others))[:size])
        heldout[u] = item
    batch_users = draw(st.integers(1, num_users + 2))
    return table, pos, heldout, batch_users


@settings(max_examples=300, deadline=None)
@example(inst=(np.array([[0.0, -0.0, 1.0, 0.0]]), [[0, 1, 2]], np.array([3]), 1))
@example(inst=(np.array([[1.0, 1.0, 1.0], [-0.0, 0.0, -0.0], [2.0, 1.0, 2.0]]),
               [[1, 2], [], [0, 1]], np.array([0, 2, 2]), 2))
@given(inst=ranking_instances())
def test_batch_ranks_equal_oracle(inst):
    table, pos, heldout, batch_users = inst
    num_users, num_items = table.shape
    train = single_behavior_train(num_users, num_items, pos)
    want = {u: oracle_rank_in_candidates(table[u].copy(), train.positives[0][u],
                                         int(heldout[u]))
            for u in range(num_users)}
    rows = np.repeat(np.arange(num_users), [len(p) for p in pos])
    cols = np.concatenate([train.positives[0][u] for u in range(num_users)])
    got = rank_in_candidates(table, heldout, rows, cols)
    assert got.tolist() == [want[u] for u in range(num_users)]
    # every rank lies within the candidate count, so the report keeps them all
    report = evaluate(TableModel(table), None, train, heldout, cutoffs=(num_items,),
                      batch_users=batch_users)
    assert report.per_user_rank == want


def _random_instance(rng, num_users, num_items):
    table = rng.uniform(0.0, 1.0, size=(num_users, num_items))
    # quantize so that score ties actually happen and exercise the tiebreak
    table = np.round(table, 1)
    pos = []
    heldout = np.empty(num_users, dtype=np.int64)
    for u in range(num_users):
        perm = rng.permutation(num_items)
        count = int(rng.integers(0, max(1, num_items // 3)))
        pos.append(perm[:count])
        heldout[u] = perm[count]
    train = single_behavior_train(num_users, num_items, pos)
    return TableModel(table), train, heldout


def test_oracle_equivalence_exact():
    rng = np.random.default_rng(2)
    cutoffs = (1, 3, 10, 25)
    for _ in range(25):
        num_users = int(rng.integers(1, 30))
        num_items = int(rng.integers(2, 25))
        model, train, heldout = _random_instance(rng, num_users, num_items)
        fast = evaluate(model, None, train, heldout, cutoffs=cutoffs)
        table = predict_scores(model, None, np.arange(num_users))
        slow = brute_force_metrics(table, train, heldout, cutoffs=cutoffs)
        for n in cutoffs:
            assert fast.hr[n] == slow.hr[n]
            assert fast.ndcg[n] == slow.ndcg[n]
        assert fast.per_user_rank == slow.per_user_rank


def test_metrics_monotone_in_cutoff():
    rng = np.random.default_rng(3)
    model, train, heldout = _random_instance(rng, 40, 30)
    report = evaluate(model, None, train, heldout, cutoffs=(5, 10, 20, 30))
    hrs = [report.hr[n] for n in (5, 10, 20, 30)]
    ndcgs = [report.ndcg[n] for n in (5, 10, 20, 30)]
    assert hrs == sorted(hrs)
    assert ndcgs == sorted(ndcgs)
    for n in (5, 10, 20, 30):
        assert report.ndcg[n] <= report.hr[n] + 1e-15


def test_score_scaling_leaves_ranking_unchanged():
    rng = np.random.default_rng(4)
    model, train, heldout = _random_instance(rng, 20, 15)
    base = evaluate(model, None, train, heldout, cutoffs=(3, 10))
    scaled = TableModel(model.table * 7.5)
    after = evaluate(scaled, None, train, heldout, cutoffs=(3, 10))
    assert base.per_user_rank == after.per_user_rank
    assert base.hr == after.hr and base.ndcg == after.ndcg
    # the raw prediction values do change
    assert not np.array_equal(predict_scores(scaled, None, [0]), predict_scores(model, None, [0]))


def test_per_user_bound_scaling_invariance():
    rng = np.random.default_rng(5)
    num_users, num_items = 10, 12
    emb = project_rows(rng.normal(size=(num_users, 6)))
    items = project_rows(rng.normal(size=(num_items, 6)))
    model = MfModel(emb, items)
    bounds = BoundParams(rng.uniform(0.5, 1.5, (num_users, 2)),
                         rng.uniform(0.5, 1.5, (num_items, 2)), 0.5)
    pos = [rng.permutation(num_items)[:3] for _ in range(num_users)]
    train = single_behavior_train(num_users, num_items, pos)
    train = BehaviorDataset(num_users, num_items, 2,
                            [train.positives[0], train.positives[0]])
    heldout = np.array([int(set(range(num_items)).difference(p).pop()) for p in
                        (set(int(x) for x in pos[u]) for u in range(num_users))])
    base = evaluate(model, bounds, train, heldout, cutoffs=(num_items,))
    scaled = BoundParams(bounds.user_bound.copy(), bounds.item_bound.copy(), 0.5)
    scaled.user_bound[4, 1] *= 3.0  # target column of one user
    after = evaluate(model, scaled, train, heldout, cutoffs=(num_items,))
    assert base.per_user_rank[4] == after.per_user_rank[4]


def test_report_formatting():
    model = TableModel(np.array([[0.2, 0.9, 0.5]]))
    train = single_behavior_train(1, 3, [[]])
    report = evaluate(model, None, train, np.array([2]), cutoffs=(1, 2))
    table = report.format_table()
    assert table.splitlines()[0].split() == ["cutoff", "hr", "ndcg"]
    assert "0.630930" in report.format_kv()
    assert "hr@2=1.000000" in report.format_kv()


def test_non_finite_scores_are_rejected_before_ranking():
    table = np.array([[0.1, 0.2, 0.3], [0.3, np.nan, 0.1], [np.inf, 0.0, 0.0]])
    train = single_behavior_train(3, 3, [[0], [0], [0]])
    bounds = BoundParams(np.ones((3, 1)), np.ones((3, 1)), 0.5)
    for b in (None, bounds):
        with pytest.raises(NumericalError, match="non-finite prediction score for user 1$"):
            evaluate(TableModel(table), b, train, np.array([1, 2, 1]), cutoffs=(1,))
        with pytest.raises(NumericalError, match="for user 2$"):
            predict_scores(TableModel(table), b, [0, 2])
