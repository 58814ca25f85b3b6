import io
import os

import numpy as np
import pytest
import scipy.sparse as sp

from critcf.cli import main
from critcf.datasets import BehaviorDataset
from critcf.errors import ConfigError, DataError
from critcf.losses import BoundParams
from critcf.models import (
    GmfModel,
    LightGcnModel,
    MfModel,
    _check_shapes,
    _read_checkpoint,
    build_adjacency,
    init_bounds,
    init_model,
    load_checkpoint,
    project_rows,
    save_checkpoint,
)


def make_train(num_users, num_items, pos_per_behavior):
    """pos_per_behavior: [k][u] -> list of items."""
    positives = [
        [np.array(sorted(items), dtype=np.int64) for items in per_user]
        for per_user in pos_per_behavior
    ]
    return BehaviorDataset(num_users, num_items, len(pos_per_behavior), positives)


def test_mf_hand_scores():
    p = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
    q = np.array([[1.0, 0.0], [1.0 / np.sqrt(2), 1.0 / np.sqrt(2)]])
    scores, _ = MfModel(p, q).score_batch(np.arange(3))
    assert scores[0, 0] == 1.0
    assert scores[1, 0] == 0.0
    assert scores[2, 1] == pytest.approx(1.0 / np.sqrt(2), rel=1e-15)


def test_gmf_hand_scores():
    p = np.array([[1.0, 0.0], [1.0, 1.0]])
    q = np.array([[1.0, 0.0], [1.0, 0.5]])
    ones = GmfModel(p, q, np.ones((1, 2)))
    assert ones.score_batch(np.array([0]))[0][0, 0] == 1.0
    weighted = GmfModel(p, q, np.array([[1.0, 2.0]]))
    assert weighted.score_batch(np.array([1]))[0][0, 1] == pytest.approx(2.0, rel=1e-15)
    scores, _ = ones.score_batch(np.array([0]), mask=np.zeros((1, 2)))
    assert not scores.any()


def test_batch_basis_selection():
    q = np.eye(3)
    model = MfModel(np.array([[0.0, 1.0, 0.0]]), q)
    scores, _ = model.score_batch(np.array([0]))
    np.testing.assert_array_equal(scores, [[0.0, 1.0, 0.0]])


def test_gmf_with_ones_equals_mf():
    rng = np.random.default_rng(0)
    p = project_rows(rng.normal(size=(6, 5)))
    q = project_rows(rng.normal(size=(9, 5)))
    mf, _ = MfModel(p, q).score_batch(np.arange(6))
    gmf, _ = GmfModel(p, q, np.ones((1, 5))).score_batch(np.arange(6))
    np.testing.assert_array_equal(mf, gmf)


def test_batch_matches_pointwise():
    rng = np.random.default_rng(1)
    p = project_rows(rng.normal(size=(5, 4)))
    q = project_rows(rng.normal(size=(7, 4)))
    train = make_train(5, 7, [[[u % 7] for u in range(5)]])
    adjacency = build_adjacency(train)
    weight = rng.normal(size=(1, 4))
    gcn = LightGcnModel(p.copy(), q.copy(), adjacency, 3)
    user_final, item_final = gcn.propagated_embeddings()
    pointwise = [
        (MfModel(p, q), lambda u, v: p[u] @ q[v]),
        (GmfModel(p, q, weight), lambda u, v: weight[0] @ (p[u] * q[v])),
        (gcn, lambda u, v: user_final[u] @ item_final[v]),
    ]
    for model, score in pointwise:
        scores, _ = model.score_batch(np.arange(5))
        for u in range(5):
            single, _ = model.score_batch(np.array([u]))
            for v in range(7):
                assert abs(scores[u, v] - score(u, v)) < 1e-12, model.kind
                assert abs(single[0, v] - score(u, v)) < 1e-12, model.kind


def test_lightgcn_zero_layers_is_mf():
    rng = np.random.default_rng(2)
    p = project_rows(rng.normal(size=(4, 3)))
    q = project_rows(rng.normal(size=(6, 3)))
    train = make_train(4, 6, [[[0, 1], [2], [3], [4, 5]]])
    adjacency = build_adjacency(train)
    gcn = LightGcnModel(p.copy(), q.copy(), adjacency, 0)
    mf = MfModel(p, q)
    s_gcn, _ = gcn.score_batch(np.arange(4))
    s_mf, _ = mf.score_batch(np.arange(4))
    np.testing.assert_array_equal(s_gcn, s_mf)


def test_lightgcn_single_edge_one_layer():
    p = np.array([[0.6, 0.2]])
    q = np.array([[0.1, 0.4]])
    train = make_train(1, 1, [[[0]]])
    adjacency = build_adjacency(train)
    gcn = LightGcnModel(p, q, adjacency, 1)
    user_final, item_final = gcn.propagated_embeddings()
    np.testing.assert_allclose(user_final[0], (p[0] + q[0]) / 2.0, rtol=1e-15)
    np.testing.assert_allclose(item_final[0], (p[0] + q[0]) / 2.0, rtol=1e-15)


def test_lightgcn_isolated_nodes_keep_embeddings():
    rng = np.random.default_rng(3)
    p = project_rows(rng.normal(size=(3, 4)))
    q = project_rows(rng.normal(size=(4, 4)))
    # user 2 and item 3 have no interactions at all
    train = make_train(3, 4, [[[0, 1], [2], []]])
    adjacency = build_adjacency(train)
    # each of them carries a unit self-loop, and no other node does
    assert list(adjacency.diagonal()) == [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0]
    gcn = LightGcnModel(p.copy(), q.copy(), adjacency, 3)
    user_final, item_final = gcn.propagated_embeddings()
    np.testing.assert_allclose(user_final[2], p[2], rtol=1e-12)
    np.testing.assert_allclose(item_final[3], q[3], rtol=1e-12)
    # a fully edgeless graph reduces to MF at any depth
    empty_train = make_train(3, 4, [[[], [], []]])
    adjacency = build_adjacency(empty_train)
    assert (adjacency != sp.identity(7)).nnz == 0
    gcn = LightGcnModel(p.copy(), q.copy(), adjacency, 3)
    s_gcn, _ = gcn.score_batch(np.arange(3))
    s_mf, _ = MfModel(p, q).score_batch(np.arange(3))
    np.testing.assert_allclose(s_gcn, s_mf, rtol=1e-12)


def test_adjacency_normalization():
    train = make_train(2, 1, [[[0], [0]]])
    adjacency = build_adjacency(train)
    # item 0 has degree 2, each user degree 1
    assert adjacency[0, 2] == pytest.approx(1.0 / np.sqrt(2.0), rel=1e-15)
    assert adjacency[2, 0] == pytest.approx(1.0 / np.sqrt(2.0), rel=1e-15)
    assert adjacency[0, 1] == 0.0
    assert not adjacency.diagonal().any()
    # duplicate edges across behaviors collapse to one
    twice = make_train(2, 1, [[[0], [0]], [[0], []]])
    adjacency2 = build_adjacency(twice)
    assert (adjacency != adjacency2).nnz == 0


def pairwise_unique_build_adjacency(train):
    """Reference oracle for build_adjacency: per-user loop and 2-D np.unique."""
    num_users, num_items = train.num_users, train.num_items
    pair_rows = []
    pair_cols = []
    for k in range(train.num_behaviors):
        for u in range(num_users):
            items = train.positives[k][u]
            if len(items):
                pair_rows.append(np.full(len(items), u, dtype=np.int64))
                pair_cols.append(np.asarray(items, dtype=np.int64))
    n = num_users + num_items
    if pair_rows:
        users = np.concatenate(pair_rows)
        items = np.concatenate(pair_cols) + num_users
        pairs = np.unique(np.stack([users, items], axis=1), axis=0)
        rows = np.concatenate([pairs[:, 0], pairs[:, 1]])
        cols = np.concatenate([pairs[:, 1], pairs[:, 0]])
    else:
        rows = np.empty(0, dtype=np.int64)
        cols = np.empty(0, dtype=np.int64)
    data = np.ones(len(rows))
    adj = sp.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()
    degrees = np.asarray(adj.sum(axis=1)).ravel()
    isolated = degrees == 0.0
    inv_sqrt = np.zeros(n)
    inv_sqrt[~isolated] = 1.0 / np.sqrt(degrees[~isolated])
    norm = sp.diags(inv_sqrt) @ adj @ sp.diags(inv_sqrt)
    return norm.tocsr(), isolated


def random_train(seed, num_users, num_items, num_behaviors, density):
    rng = np.random.default_rng(seed)
    return make_train(num_users, num_items, [
        [np.flatnonzero(rng.random(num_items) < density * rng.random()) for _ in range(num_users)]
        for _ in range(num_behaviors)
    ])


@pytest.mark.parametrize("train", [
    random_train(0, 50, 30, 3, 0.3),
    random_train(1, 200, 400, 2, 0.05),
    random_train(2, 7, 5, 4, 0.9),
    make_train(3, 4, [[[0, 1], [2], []], [[1, 3], [], []]]),
    make_train(3, 4, [[[], [], []]]),
])
def test_build_adjacency_bitwise_equals_oracle(train):
    """The oracle's matrix plus a 1.0 self-loop at each of its isolated nodes."""
    got = build_adjacency(train)
    want, want_isolated = pairwise_unique_build_adjacency(train)
    want = (want + sp.diags(want_isolated.astype(float))).tocsr()
    assert got.shape == want.shape
    for field in ("indptr", "indices", "data"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field
    np.testing.assert_array_equal(got.diagonal()[want_isolated], 1.0)


def _fd_model_grads(model, user_ids, weights, mask=None):
    """Compare backward() against central differences of sum(weights * scores).

    A row-block gradient is scattered onto its parameter's shape first; a
    user listed twice in user_ids gets the sum of its block rows.
    """
    scores, cache = model.score_batch(user_ids, mask=mask)
    grads = model.backward(cache, weights)
    for name in model.row_block_params:
        arr = model.param_arrays()[name]
        assert grads[name].shape == (len(user_ids),) + arr.shape[1:]
        dense = np.zeros_like(arr)
        np.add.at(dense, user_ids, grads[name])
        grads[name] = dense
    rng = np.random.default_rng(99)
    step = 1e-5
    for name, arr in model.param_arrays().items():
        flat = arr.ravel()
        analytic = grads[name].ravel()
        for idx in rng.permutation(flat.size)[:8]:
            orig = flat[idx]
            flat[idx] = orig + step
            up = float(np.sum(weights * model.score_batch(user_ids, mask=mask)[0]))
            flat[idx] = orig - step
            down = float(np.sum(weights * model.score_batch(user_ids, mask=mask)[0]))
            flat[idx] = orig
            numeric = (up - down) / (2 * step)
            denom = max(abs(numeric), abs(analytic[idx]), 1e-8)
            assert abs(numeric - analytic[idx]) / denom < 1e-4, (model.kind, name, idx)


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(4)
    p = project_rows(rng.normal(size=(5, 4)))
    q = project_rows(rng.normal(size=(7, 4)))
    user_ids = np.array([1, 3, 3, 0])
    weights = rng.normal(size=(4, 7))
    _fd_model_grads(MfModel(p.copy(), q.copy()), user_ids, weights)
    _fd_model_grads(GmfModel(p.copy(), q.copy(), rng.normal(size=(1, 4))), user_ids, weights)
    mask = (rng.random((4, 4)) >= 0.5) / 0.5
    _fd_model_grads(GmfModel(p.copy(), q.copy(), rng.normal(size=(1, 4))), user_ids, weights,
                    mask=mask)
    train = make_train(5, 7, [[[0, 2], [1], [3, 4], [5], [6]]])
    adjacency = build_adjacency(train)
    for layers in (0, 1, 3):
        _fd_model_grads(LightGcnModel(p.copy(), q.copy(), adjacency, layers),
                        user_ids, weights)


def test_gmf_multi_layer_selection():
    rng = np.random.default_rng(5)
    p = project_rows(rng.normal(size=(3, 4)))
    q = project_rows(rng.normal(size=(5, 4)))
    pred = rng.normal(size=(3, 4))
    model = GmfModel(p, q, pred)
    for layer in range(3):
        scores, _ = model.score_batch(np.arange(3), layer=layer)
        single = GmfModel(p, q, pred[layer:layer + 1])
        expect, _ = single.score_batch(np.arange(3))
        np.testing.assert_array_equal(scores, expect)
        assert scores[0, 0] == pytest.approx(pred[layer] @ (p[0] * q[0]), rel=1e-15)


def test_projection_properties():
    row = np.array([[2.0, 0.0, 0.0]])
    projected = project_rows(row.copy())
    assert np.linalg.norm(projected[0]) == pytest.approx(1.0, rel=1e-15)
    np.testing.assert_allclose(projected[0] / np.linalg.norm(projected[0]),
                               row[0] / np.linalg.norm(row[0]), rtol=1e-15)
    inside = np.array([[0.3, 0.0], [0.0, 0.0]])
    np.testing.assert_array_equal(project_rows(inside.copy()), inside)
    rng = np.random.default_rng(6)
    arr = rng.normal(size=(200, 8)) * 2.0
    once = project_rows(arr.copy())
    twice = project_rows(once.copy())
    np.testing.assert_array_equal(once, twice)
    assert np.linalg.norm(once, axis=1).max() <= 1.0 + 1e-12


def test_init_model_contracts():
    rng = np.random.default_rng(7)
    model = init_model("mf", 10, 8, 4, rng)
    assert np.linalg.norm(model.user_emb, axis=1).max() <= 1.0 + 1e-12
    assert np.abs(model.user_emb).max() <= 0.5 + 1e-12
    gmf = init_model("gmf", 10, 8, 4, np.random.default_rng(7))
    np.testing.assert_array_equal(gmf.pred_weight, np.ones((1, 4)))
    multi = init_model("gmf", 10, 8, 4, rng, behavior_layers=3)
    assert multi.pred_weight.shape == (3, 4)
    assert not np.array_equal(multi.pred_weight[0], multi.pred_weight[1])
    with pytest.raises(ConfigError):
        init_model("svd", 10, 8, 4, rng)
    with pytest.raises(ConfigError):
        init_model("lightgcn", 10, 8, 4, rng)


def test_init_bounds_near_one():
    rng = np.random.default_rng(8)
    bounds = init_bounds(50, 40, 3, 0.5, rng)
    assert bounds.user_bound.min() >= 0.99
    assert bounds.user_bound.max() <= 1.01
    assert bounds.item_bound.min() >= 0.99
    assert bounds.item_bound.max() <= 1.01
    assert bounds.bound_ratio == 0.5


def _checkpoint_roundtrip(tmp_path, model, bounds, train=None):
    path = os.path.join(tmp_path, "ckpt.txt")
    save_checkpoint(path, model, bounds, meta={"variant": "full"})
    with open(path, "rb") as fh:
        first = fh.read()
    loaded, loaded_bounds, meta = load_checkpoint(path, train=train)
    assert meta["variant"] == "full"
    for name, arr in model.param_arrays().items():
        np.testing.assert_array_equal(loaded.param_arrays()[name], arr)
    if bounds is not None:
        np.testing.assert_array_equal(loaded_bounds.user_bound, bounds.user_bound)
        np.testing.assert_array_equal(loaded_bounds.item_bound, bounds.item_bound)
        assert loaded_bounds.bound_ratio == bounds.bound_ratio
    else:
        assert loaded_bounds is None
    save_checkpoint(path, loaded, loaded_bounds, meta=meta)
    with open(path, "rb") as fh:
        second = fh.read()
    assert first == second


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(9)
    bounds = init_bounds(4, 6, 3, 1.0 / 3.0, rng)
    _checkpoint_roundtrip(str(tmp_path), init_model("mf", 4, 6, 5, rng), bounds)
    _checkpoint_roundtrip(str(tmp_path), init_model("gmf", 4, 6, 5, rng), bounds)
    train = make_train(4, 6, [[[0], [1], [2], [3]]])
    gcn = init_model("lightgcn", 4, 6, 5, rng, num_layers=2, train=train)
    _checkpoint_roundtrip(str(tmp_path), gcn, bounds, train=train)
    _checkpoint_roundtrip(str(tmp_path), init_model("mf", 4, 6, 5, rng), None)


def test_checkpoint_error_paths(tmp_path):
    rng = np.random.default_rng(10)
    path = str(tmp_path / "ckpt.txt")
    model = init_model("mf", 3, 4, 2, rng)
    save_checkpoint(path, model, None)
    with open(path, "rb") as fh:
        blob = fh.read()
    with open(path, "wb") as fh:
        fh.write(blob[:-len(b"end\n")])
    with pytest.raises(DataError, match="ckpt.txt: truncated checkpoint"):
        load_checkpoint(path)
    with open(path, "w") as fh:
        fh.write("not a checkpoint\n")
    with pytest.raises(DataError, match="ckpt.txt: not a checkpoint file"):
        load_checkpoint(path)
    save_checkpoint(path, model, None)
    with pytest.raises(DataError, match="ckpt.txt: checkpoint is 3x4 but dataset is 5x4"):
        load_checkpoint(path, train=make_train(5, 4, [[[0]] * 5]))

    train = make_train(3, 4, [[[0], [1], [2]]])
    gcn = init_model("lightgcn", 3, 4, 2, rng, train=train)
    save_checkpoint(path, gcn, None)
    with pytest.raises(ConfigError):
        load_checkpoint(path)  # graph models need the training split
    other = make_train(5, 4, [[[0]] * 5])
    with pytest.raises(DataError):
        load_checkpoint(path, train=other)


def oracle_save_checkpoint_v1(path, model, bounds, meta=None):
    """Checkpoint version 1, the writer before raw arrays, kept verbatim.

    Every array row is text at 17 significant digits, which round-trips
    every finite float64 and +-inf exactly; a nan is written as ``nan``,
    without its sign or payload bits.
    """
    def write_array(fh, name, arr):
        arr = np.atleast_2d(np.asarray(arr, dtype=float))
        fh.write("array %s %d %d\n" % (name, arr.shape[0], arr.shape[1]))
        np.savetxt(fh, arr, fmt="%.17g")

    meta = dict(meta or {})
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("%s %d\n" % ("critcf-checkpoint", 1))
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
            write_array(fh, name, arr)
        if bounds is not None:
            write_array(fh, "user_bound", bounds.user_bound)
            write_array(fh, "item_bound", bounds.item_bound)
        fh.write("end\n")


def oracle_read_checkpoint_v1(path):
    """(header, meta, arrays, bounds) of a version-1 checkpoint, the text
    reader before raw arrays, kept verbatim: np.loadtxt per array block."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or not lines[0].startswith("critcf-checkpoint"):
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
        if parts[0] == "array":
            if len(parts) != 4 or not (parts[2].isdigit() and parts[3].isdigit()):
                raise DataError("%s:%d: expected 'array NAME ROWS COLS'" % (path, i + 1))
            name, rows, cols = parts[1], int(parts[2]), int(parts[3])
            block = "\n".join(lines[i + 1:i + 1 + rows])
            try:
                arrays[name] = np.loadtxt(io.StringIO(block), ndmin=2).reshape(rows, cols)
            except ValueError:
                raise DataError("%s: array %s does not hold the %dx%d numbers it declares"
                                % (path, name, rows, cols)) from None
            i += 1 + rows
        elif arrays:
            last = list(arrays)[-1]
            raise DataError("%s:%d: array %s has more rows than the %d it declares"
                            % (path, i + 1, last, arrays[last].shape[0]))
        elif parts[0] == "meta" and len(parts) > 1:
            meta[parts[1]] = " ".join(parts[2:])
            i += 1
        else:
            header[parts[0]] = " ".join(parts[1:])
            i += 1
    else:
        raise DataError("%s: truncated checkpoint (missing end marker)" % path)
    _check_shapes(path, header, arrays)
    bounds = None
    if "user_bound" in arrays:
        bounds = BoundParams(arrays["user_bound"], arrays["item_bound"],
                             float(header["bound_ratio"]))
    return header, meta, arrays, bounds


_SPECIAL_BITS = np.array([0x0000000000000000, 0x8000000000000000,  # +0.0, -0.0
                          0x0000000000000001, 0x800FFFFFFFFFFFFF,  # subnormals
                          0x7FF0000000000000, 0xFFF0000000000000,  # +-inf
                          0x7FF8000000000000, 0x7FF0000000000123,  # nan, signalling nan
                          0xFFF80000DEADBEEF], dtype=np.uint64)    # negative nan, payload


def _models_with_specials(rng):
    train = make_train(4, 6, [[[0, 5], [1], [], [3]]])
    models = [init_model("mf", 4, 6, 5, rng),
              init_model("gmf", 4, 6, 5, rng),
              init_model("gmf", 4, 6, 5, rng, behavior_layers=3),
              init_model("lightgcn", 4, 6, 5, rng, num_layers=2, train=train)]
    bounds = init_bounds(4, 6, 3, 1.0 / 3.0, rng)
    arrays = [arr for model in models for arr in model.param_arrays().values()]
    for arr in arrays + [bounds.user_bound, bounds.item_bound]:
        flat = arr.reshape(-1).view(np.uint64)
        flat[rng.permutation(flat.size)[:len(_SPECIAL_BITS)]] = _SPECIAL_BITS[:flat.size]
    return models, bounds, train


@pytest.mark.parametrize("with_bounds", [True, False])
def test_checkpoint_v2_equals_v1_oracle_bitwise(tmp_path, with_bounds):
    """v2 loads each array with its own bits; the v1 oracle loads the same
    bits, except that it turns every nan into the default quiet nan."""
    models, bounds, train = _models_with_specials(np.random.default_rng(11))
    bounds = bounds if with_bounds else None
    v1, v2 = str(tmp_path / "v1.txt"), str(tmp_path / "v2.txt")
    for model in models:
        oracle_save_checkpoint_v1(v1, model, bounds, meta={"variant": "full"})
        save_checkpoint(v2, model, bounds, meta={"variant": "full"})
        old_header, old_meta, old, old_bounds = oracle_read_checkpoint_v1(v1)
        header, meta, new, new_bounds = _read_checkpoint(v2)
        assert (header, meta) == (old_header, old_meta)
        want = dict(model.param_arrays())
        if with_bounds:
            want.update(user_bound=bounds.user_bound, item_bound=bounds.item_bound)
            assert new_bounds.bound_ratio == old_bounds.bound_ratio == bounds.bound_ratio
        assert list(new) == list(old) == list(want)
        for name, arr in new.items():
            assert arr.dtype == np.float64 and arr.dtype.isnative
            assert arr.flags.c_contiguous and arr.flags.writeable and arr.flags.aligned
            assert arr.shape == old[name].shape == want[name].shape
            bits, old_bits = arr.view(np.uint64), old[name].view(np.uint64)
            assert np.array_equal(bits, want[name].view(np.uint64)), (model.kind, name)
            nan = np.isnan(arr)
            assert np.array_equal(nan, np.isnan(old[name]))
            assert np.array_equal(bits[~nan], old_bits[~nan]), (model.kind, name)
        loaded, _, _ = load_checkpoint(v2, train=train)
        for name, arr in model.param_arrays().items():
            assert loaded.param_arrays()[name].tobytes() == arr.tobytes()


def test_version_1_checkpoint_is_rejected(tmp_path, capsys):
    data, path = str(tmp_path / "data"), str(tmp_path / "checkpoint.txt")
    assert main(["synth", data, "--users", "24", "--items", "18",
                 "--densities", "0.4,0.3,0.25", "--latent-dim", "3"]) == 0
    rng = np.random.default_rng(12)
    oracle_save_checkpoint_v1(path, init_model("gmf", 24, 18, 4, rng),
                              init_bounds(24, 18, 3, 0.5, rng), meta={"variant": "full"})
    capsys.readouterr()
    for argv in (["dump-bounds", path, "--users", "0", "--items", "0"],
                 ["evaluate", path, data]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == ("data error: %s: checkpoint version 1 is not supported; "
                                "re-run train\n" % path)
        assert captured.out == ""


class _Unwritable:
    """An item_emb stand-in that fails when the writer converts it."""

    shape = (6, 5)

    def __array__(self, dtype=None, copy=None):
        raise RuntimeError("disk full")


def test_failed_save_keeps_the_earlier_checkpoint(tmp_path):
    path = tmp_path / "checkpoint.txt"
    rng = np.random.default_rng(13)
    model = init_model("mf", 4, 6, 5, rng)
    save_checkpoint(str(path), model, None)
    before = path.read_bytes()
    with pytest.raises(RuntimeError, match="disk full"):
        save_checkpoint(str(path), MfModel(model.user_emb * 0.5, _Unwritable()), None)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["checkpoint.txt"]
