"""Full-ranking top-N evaluation with bound-normalized prediction scores.

Every unobserved item is a candidate: the ranked list for user u covers all
items except u's target-behavior training positives.  The prediction score
divides the raw model score by the target-behavior upper bound, so items a
user accepts easily (low bound) rank above equally-scored items with a
stricter bound.  Ties are broken by ascending item index, which makes the
fast counting path and the sort-everything oracle agree exactly.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, NumericalError
from .losses import POSITIVITY_FLOOR
from .models import LightGcnModel, MfModel

DEFAULT_CUTOFFS = (10, 50, 100, 200)


@dataclass
class RankingReport:
    cutoffs: tuple
    hr: dict = field(default_factory=dict)
    ndcg: dict = field(default_factory=dict)
    per_user_rank: dict = field(default_factory=dict)  # user -> 1-based rank

    def format_table(self):
        lines = ["%-8s %-10s %-10s" % ("cutoff", "hr", "ndcg")]
        for n in self.cutoffs:
            lines.append("%-8d %-10.6f %-10.6f" % (n, self.hr[n], self.ndcg[n]))
        return "\n".join(lines)

    def format_kv(self):
        lines = []
        for n in self.cutoffs:
            lines.append("hr@%d=%.6f" % (n, self.hr[n]))
            lines.append("ndcg@%d=%.6f" % (n, self.ndcg[n]))
        return "\n".join(lines) + "\n"


def predict_scores(model, bounds, user_ids):
    """Bound-normalized prediction scores for a batch of users, all items.

    Returns raw_score / max(upper_bound, floor^2) where the upper bound is
    taken at the target behavior.  Without bound factors (regression
    variants) the raw scores are returned unchanged.  A non-finite score
    raises NumericalError naming the first user that has one.
    """
    # layer=-1 picks the last output layer: the only one for the base
    # models, the target behavior's layer for the per-behavior variant.
    scores, _ = model.score_batch(user_ids, layer=-1)
    if bounds is not None:
        k = bounds.num_behaviors - 1
        denom = np.outer(bounds.user_bound[np.asarray(user_ids), k], bounds.item_bound[:, k])
        scores = scores / np.maximum(denom, POSITIVITY_FLOOR ** 2)
    bad = np.flatnonzero(~np.isfinite(scores).all(axis=1))
    if bad.size:
        raise NumericalError("non-finite prediction score for user %d"
                             % np.asarray(user_ids)[bad[0]])
    return scores


def rank_in_candidates(scores, items, excluded_rows, excluded_items):
    """1-based rank of items[r] among the non-excluded items of scores[r].

    scores is (B, V) and items (B,).  The excluded (row, item) pairs come
    as two (nnz,) vectors and hold no pair twice.  Rank counts strictly
    better candidates plus equal-scored candidates with a smaller index
    (the ascending-index tiebreak).
    """
    target = scores[np.arange(len(items)), items]
    contenders = scores > target[:, None]
    contenders |= (scores == target[:, None]) & (np.arange(scores.shape[1]) < items[:, None])
    ranks = 1 + np.count_nonzero(contenders, axis=1)
    beaten = contenders[excluded_rows, excluded_items]
    return ranks - np.bincount(excluded_rows[beaten], minlength=len(items))


def _metrics_from_ranks(ranks, num_users, cutoffs):
    # Sequential accumulation in user order, as in the brute-force oracle
    # less its no-op +0.0 terms for misses, so the two paths agree exactly.
    report = RankingReport(tuple(cutoffs))
    max_cut = max(cutoffs)
    for u in sorted(ranks):
        if ranks[u] <= max_cut:
            report.per_user_rank[u] = ranks[u]
    for n in cutoffs:
        hr_total = 0.0
        ndcg_total = 0.0
        for u in sorted(ranks):
            rank = ranks[u]
            if rank <= n:
                hr_total += 1.0
                ndcg_total += 1.0 / np.log2(rank + 1.0)
        report.hr[n] = hr_total / num_users
        report.ndcg[n] = ndcg_total / num_users
    return report


def evaluate(model, bounds, train, heldout, cutoffs=DEFAULT_CUTOFFS, batch_users=1024):
    """HR@N / NDCG@N of one held-out item per user over the full candidate set.

    heldout maps user index -> held-out item.  Candidates are all items
    minus the user's target-behavior training positives; the held-out item
    itself must not be among them.
    """
    num_users = train.num_users
    target = train.num_behaviors - 1
    heldout = np.asarray(heldout, dtype=np.int64)
    if isinstance(model, LightGcnModel):
        # The parameters do not change during evaluation, so propagate once:
        # scoring the propagated embeddings by dot product is bitwise the
        # lightgcn score.
        model = MfModel(*model.propagated_embeddings())
    ranks = {}
    for start in range(0, num_users, batch_users):
        batch = np.arange(start, min(start + batch_users, num_users))
        scores = predict_scores(model, bounds, batch)
        items = heldout[batch]
        excluded = train.positives[target][start:start + len(batch)]
        rows = np.repeat(np.arange(len(batch)), [len(e) for e in excluded])
        cols = np.concatenate(excluded).astype(np.int64, copy=False)
        clash = np.flatnonzero(cols == items[rows])
        if clash.size:
            u = batch[rows[clash[0]]]
            raise DataError("held-out item %d of user %d is a training positive"
                            % (heldout[u], u))
        batch_ranks = rank_in_candidates(scores, items, rows, cols)
        ranks.update(zip(batch.tolist(), batch_ranks.tolist()))
    return _metrics_from_ranks(ranks, num_users, cutoffs)


def brute_force_metrics(score_table, train, heldout, cutoffs=DEFAULT_CUTOFFS):
    """Oracle evaluation by materializing and fully sorting every candidate list.

    Intended for small instances and cross-checking: uses the general
    position-discounted gain sum over the whole top-N list with the ideal
    gain as normalizer, which reduces to the fast path's closed form when
    exactly one item is relevant.
    """
    num_users = train.num_users
    target = train.num_behaviors - 1
    report = RankingReport(tuple(cutoffs))
    max_cut = max(cutoffs)
    hr_totals = {n: 0.0 for n in cutoffs}
    dcg_totals = {n: 0.0 for n in cutoffs}
    for u in range(num_users):
        scores = np.asarray(score_table[u], dtype=float)
        excluded = set(int(v) for v in train.positives[target][u])
        candidates = [v for v in range(len(scores)) if v not in excluded]
        ordered = sorted(candidates, key=lambda v: (-scores[v], v))
        relevant = {int(heldout[u])}
        rank = ordered.index(int(heldout[u])) + 1
        if rank <= max_cut:
            report.per_user_rank[u] = rank
        for n in cutoffs:
            top = ordered[:n]
            hit = len(set(top) & relevant)
            hr_totals[n] += 1.0 if hit > 0 else 0.0
            dcg = sum(
                (2.0 ** (1 if re in relevant else 0) - 1.0) / np.log2(pos + 1.0)
                for pos, re in enumerate(top, start=1)
            )
            ideal = sum(
                (2.0 ** 1 - 1.0) / np.log2(pos + 1.0)
                for pos in range(1, min(len(relevant), n) + 1)
            )
            dcg_totals[n] += dcg / ideal
    for n in cutoffs:
        report.hr[n] = hr_totals[n] / num_users
        report.ndcg[n] = dcg_totals[n] / num_users
    return report
