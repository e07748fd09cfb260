import numpy as np
import pytest

from pointmixer import autodiff, geom, mixer, nn
from pointmixer.autodiff import Tensor

import oracles


def zero_(*tensors):
    for t in tensors:
        t.data[...] = 0.0


def make_params(width, seed=0, store=None, name="mix", **kw):
    store = store if store is not None else nn.ParamStore()
    return store, mixer.PointMixerParams.create(store, name, width, nn.Rng(seed), **kw)


def neutral_params(width):
    """g1 = g3 = identity, g2 = 0: scores vanish, softmax turns into a mean."""
    store, p = make_params(width, seed=1)
    p.g1.W.data[...] = np.eye(width)
    p.g1.b.data[...] = 0.0
    p.g3.W.data[...] = np.eye(width)
    p.g3.b.data[...] = 0.0
    zero_(p.g2.fc1.W, p.g2.fc1.b, p.g2.fc2.W, p.g2.fc2.b)
    return store, p


# -- intra-set mixing ----------------------------------------------------------


def test_intra_constant_scores_reduce_to_mean():
    _, p = neutral_params(2)
    x = Tensor(np.array([[1.0, 3.0], [3.0, 5.0]]))
    pts = np.array([[0.0, 0, 0], [1.0, 0, 0]])
    m = geom.NeighborMap(np.array([[0, 1], [0, 1]]), source_count=2)
    y = mixer.intra_set_mix(x, pts, m, p)
    assert np.allclose(y.data, [[2.0, 4.0], [2.0, 4.0]])


def test_intra_singleton_softmax_is_g3():
    store, p = make_params(3, seed=2)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(4, 3))
    pts = rng.normal(size=(4, 3))
    m = geom.NeighborMap(np.arange(4)[:, None], source_count=4)
    y = mixer.intra_set_mix(Tensor(x), pts, m, p)
    expected = x @ p.g3.W.data.T + p.g3.b.data
    assert np.allclose(y.data, expected, atol=1e-12)


def test_intra_matches_dense_loop_oracle():
    store, p = make_params(5, seed=3)
    rng = np.random.default_rng(1)
    pts = rng.uniform(-1, 1, (12, 3))
    x = rng.normal(size=(12, 5))
    m = geom.knn(pts, pts, 4)
    y = mixer.intra_set_mix(Tensor(x), pts, m, p)
    expected = oracles.softmax_mix_rows(x, pts, pts, m.indices, store.state(), "mix")
    assert np.allclose(y.data, expected, atol=1e-10)


def test_intra_width_mismatch():
    _, p = make_params(4)
    with pytest.raises(ValueError):
        mixer.intra_set_mix(Tensor(np.zeros((3, 5))), np.zeros((3, 3)),
                            geom.NeighborMap(np.zeros((3, 1), dtype=int), 3), p)


# -- inter-set mixing -----------------------------------------------------------


def test_inter_identity_inverse_is_g3():
    store, p = make_params(3, seed=4)
    rng = np.random.default_rng(2)
    x = rng.normal(size=(3, 3))
    pts = rng.normal(size=(3, 3))
    inv = geom.invert_map(geom.NeighborMap(np.arange(3)[:, None], source_count=3))
    y = mixer.inter_set_mix(Tensor(x), pts, inv, p)
    assert np.allclose(y.data, x @ p.g3.W.data.T + p.g3.b.data, atol=1e-12)


def test_inter_full_overlap_gives_column_mean():
    _, p = neutral_params(2)
    x = np.array([[1.0, 3.0], [3.0, 5.0]])
    pts = np.array([[0.0, 0, 0], [0.5, 0, 0]])
    inv = geom.invert_map(geom.NeighborMap(np.array([[0, 1], [0, 1]]), source_count=2))
    y = mixer.inter_set_mix(Tensor(x), pts, inv, p)
    assert np.allclose(y.data, [[2.0, 4.0], [2.0, 4.0]])


def test_inter_matches_dense_loop_oracle():
    store, p = make_params(4, seed=5)
    rng = np.random.default_rng(3)
    pts = rng.uniform(-1, 1, (10, 3))
    x = rng.normal(size=(10, 4))
    inv = geom.invert_map(geom.knn(pts, pts, 3))
    y = mixer.inter_set_mix(Tensor(x), pts, inv, p)
    rows = [inv.row(i).tolist() for i in range(10)]
    expected = oracles.softmax_mix_rows(x, pts, pts, rows, store.state(), "mix")
    assert np.allclose(y.data, expected, atol=1e-10)


def test_inter_empty_rows_mix_to_zero():
    store, p = make_params(2)
    inv = geom.invert_map(geom.NeighborMap(np.array([[1], [1]]), source_count=2))
    x = np.random.default_rng(9).normal(size=(2, 2))
    y = mixer.inter_set_mix(Tensor(x), np.zeros((2, 3)), inv, p)
    assert np.array_equal(y.data[0], [0.0, 0.0])  # row 0 is empty
    expected = oracles.softmax_mix_rows(x, np.zeros((2, 3)), np.zeros((2, 3)), [[0, 1]], store.state(), "mix")
    assert np.allclose(y.data[1:], expected, atol=1e-12)


# -- hierarchical mixing -----------------------------------------------------------


def test_hier_down_self_map_is_g3():
    store, p = make_params(3, seed=6)
    rng = np.random.default_rng(4)
    x = rng.normal(size=(5, 3))
    pts = rng.normal(size=(5, 3))
    m = geom.NeighborMap(np.arange(5)[:, None], source_count=5)
    y = mixer.hier_down_mix(Tensor(x), pts, pts, m, p)
    assert np.allclose(y.data, x @ p.g3.W.data.T + p.g3.b.data, atol=1e-12)


def test_hier_down_uniform_weights_average_all():
    _, p = neutral_params(2)
    x = np.array([[1.0, 0.0], [3.0, 2.0], [5.0, 4.0], [7.0, 6.0]])
    pts = np.random.default_rng(5).normal(size=(4, 3))
    m = geom.NeighborMap(np.array([[0, 1, 2, 3]]), source_count=4)
    y = mixer.hier_down_mix(Tensor(x), pts, pts[:1], m, p)
    assert np.allclose(y.data, [[4.0, 3.0]])


def test_hier_down_matches_dense_loop_oracle():
    store, p = make_params(4, seed=7)
    rng = np.random.default_rng(6)
    pts = rng.uniform(-1, 1, (16, 3))
    x = rng.normal(size=(16, 4))
    h = geom.build_hierarchy(pts, [0.25], k=5)
    lv = h.levels[1]
    y = mixer.hier_down_mix(Tensor(x), pts, lv.positions, lv.down_map, p)
    expected = oracles.softmax_mix_rows(x, lv.positions, pts, lv.down_map.indices, store.state(), "mix")
    assert np.allclose(y.data, expected, atol=1e-10)


def test_hier_up_identity_map_is_g3():
    store, p = make_params(3, seed=8)
    rng = np.random.default_rng(7)
    x = rng.normal(size=(4, 3))
    pts = rng.normal(size=(4, 3))
    inv = geom.invert_map(geom.NeighborMap(np.arange(4)[:, None], source_count=4))
    y = mixer.hier_up_mix(Tensor(x), pts, pts, inv, p, skip=None, fallback=geom.nearest_samples(inv, pts, pts))
    assert np.allclose(y.data, x @ p.g3.W.data.T + p.g3.b.data, atol=1e-12)


def test_hier_up_fallback_to_nearest_sample():
    store, p = make_params(2, seed=9)
    pts_o = np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]])
    pts_s = pts_o[:1]
    m = geom.knn(pts_o, pts_s, 1)  # sampled point keeps itself
    inv = geom.invert_map(m)
    assert [inv.row(i).tolist() for i in range(3)] == [[0], [], []]
    x_s = np.array([[0.5, -1.5]])
    y = mixer.hier_up_mix(Tensor(x_s), pts_s, pts_o, inv, p, skip=Tensor(np.zeros((3, 2))),
                          fallback=geom.nearest_samples(inv, pts_s, pts_o))
    g3 = x_s @ p.g3.W.data.T + p.g3.b.data
    # uncovered rows 1 and 2 fall back to the only sample with weight 1
    assert np.allclose(y.data, np.repeat(g3, 3, axis=0), atol=1e-12)


def test_hier_up_counts_its_own_fallback_search():
    store, p = make_params(3, seed=50)
    rng = np.random.default_rng(500)
    pts_o = rng.uniform(-1, 1, (9, 3))
    x_s = Tensor(rng.normal(size=(3, 3)))
    outputs = []
    for use_stored in (False, True):
        # a fresh hierarchy each time, so neither call can reuse the other's maps
        lv = geom.build_hierarchy(pts_o, [1.0 / 3.0], k=1).levels[1]
        assert np.any(lv.down_inverse.row_lengths() == 0)
        fallback = lv.up_fallback if use_stored else geom.nearest_samples(lv.down_inverse, lv.positions, pts_o)
        before = geom.knn_call_count()
        y = mixer.hier_up_mix(x_s, lv.positions, pts_o, lv.down_inverse, p, skip=None, fallback=fallback)
        assert geom.knn_call_count() - before == 0
        outputs.append(y.data)
    assert np.array_equal(outputs[0], outputs[1])


def test_hier_up_uses_each_calls_own_fallback():
    store, p = make_params(2, seed=9)
    pts_o = np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]])
    pts_s = pts_o[[0, 2]]
    m = geom.knn(pts_o, pts_s, 1)  # point 1 lies in no sampled neighborhood
    inv = geom.invert_map(m)
    x_s = Tensor(np.array([[0.5, -1.5], [2.0, 1.0]]))
    outputs = []
    for fallback in (np.array([-1, 0, -1]), np.array([-1, 1, -1])):
        y = mixer.hier_up_mix(x_s, pts_s, pts_o, inv, p, skip=None, fallback=fallback).data
        fresh = mixer.hier_up_mix(x_s, pts_s, pts_o, geom.invert_map(m), p, skip=None, fallback=fallback).data
        assert np.array_equal(y, fresh)
        outputs.append(y)
    assert not np.allclose(outputs[0][1], outputs[1][1])


def test_hier_up_matches_dense_loop_oracle_and_adds_skip():
    store, p = make_params(4, seed=10)
    rng = np.random.default_rng(8)
    pts = rng.uniform(-1, 1, (20, 3))
    h = geom.build_hierarchy(pts, [0.5], k=6)
    lv = h.levels[1]
    assert np.all(lv.down_inverse.row_lengths() > 0)  # k=6 over half covers everything here
    x_s = rng.normal(size=(lv.n, 4))
    skip = rng.normal(size=(20, 4))
    y = mixer.hier_up_mix(Tensor(x_s), lv.positions, pts, lv.down_inverse, p,
                          skip=Tensor(skip), fallback=lv.up_fallback)
    rows = [lv.down_inverse.row(i).tolist() for i in range(20)]
    expected = oracles.softmax_mix_rows(x_s, pts, lv.positions, rows, store.state(), "mix") + skip
    assert np.allclose(y.data, expected, atol=1e-10)


# -- block ---------------------------------------------------------------------------


def test_block_all_zero_weights_is_identity():
    store = nn.ParamStore()
    block = mixer.MixerBlockParams.create(store, "blk", 3, nn.Rng(0))
    for name, t in store.tensors():
        t.data[...] = 0.0
    rng = np.random.default_rng(9)
    x = rng.normal(size=(6, 3))
    pts = rng.uniform(-1, 1, (6, 3))
    m = geom.knn(pts, pts, 2)
    y = mixer.mixer_block(Tensor(x), pts, m, block)
    assert np.allclose(y.data, x)


def test_block_matches_composed_oracle():
    store = nn.ParamStore()
    block = mixer.MixerBlockParams.create(store, "blk", 4, nn.Rng(3))
    rng = np.random.default_rng(10)
    x = rng.normal(size=(9, 4))
    pts = rng.uniform(-1, 1, (9, 3))
    m = geom.knn(pts, pts, 3)
    y = mixer.mixer_block(Tensor(x), pts, m, block)
    expected = oracles.mixer_block_rows(x, pts, m.indices, store.state(), "blk")
    assert np.allclose(y.data, expected, atol=1e-9)


def test_block_k1_selfmap_reduces_to_residual_g3():
    store = nn.ParamStore()
    block = mixer.MixerBlockParams.create(store, "blk", 3, nn.Rng(4))
    p = block.mix
    zero_(p.g2.fc1.W, p.g2.fc1.b, p.g2.fc2.W, p.g2.fc2.b)
    rng = np.random.default_rng(11)
    x = rng.normal(size=(5, 3))
    pts = rng.uniform(-1, 1, (5, 3))
    m = geom.NeighborMap(np.arange(5)[:, None], source_count=5)
    y = mixer.mixer_block(Tensor(x), pts, m, block)
    st = store.state()
    h = oracles.layernorm_rows(x, st["blk.norm1.gamma"], st["blk.norm1.beta"])
    x1 = x + h @ st["blk.mix.g3.W"].T + st["blk.mix.g3.b"]
    h2 = oracles.layernorm_rows(x1, st["blk.norm2.gamma"], st["blk.norm2.beta"])
    expected = x1 + np.array([oracles._apply_mlp2(st, "blk.channel", r) for r in h2])
    assert np.allclose(y.data, expected, atol=1e-9)


# -- comparison variants ----------------------------------------------------------------


def test_maxpool_single_neighbor_is_mlp_of_self():
    store = nn.ParamStore()
    v = mixer.MaxPoolParams.create(store, "v", 3, nn.Rng(5))
    rng = np.random.default_rng(12)
    x = rng.normal(size=(4, 3))
    pts = rng.uniform(-1, 1, (4, 3))
    m = geom.NeighborMap(np.arange(4)[:, None], source_count=4)
    y = mixer.variant_mix(Tensor(x), pts, m, v)
    st = store.state()
    expected = np.array([oracles._apply_mlp2(st, "v.mlp", np.concatenate([x[i], np.zeros(3)])) for i in range(4)])
    assert np.allclose(y.data, expected, atol=1e-12)


def test_maxpool_matches_loop_oracle():
    store = nn.ParamStore()
    v = mixer.MaxPoolParams.create(store, "v", 4, nn.Rng(6))
    rng = np.random.default_rng(13)
    x = rng.normal(size=(8, 4))
    pts = rng.uniform(-1, 1, (8, 3))
    m = geom.knn(pts, pts, 3)
    y = mixer.variant_mix(Tensor(x), pts, m, v)
    st = store.state()
    expected = np.zeros((8, 4))
    for i in range(8):
        cands = [oracles._apply_mlp2(st, "v.mlp", np.concatenate([x[j], pts[i] - pts[j]])) for j in m.indices[i]]
        expected[i] = np.max(cands, axis=0)
    assert np.allclose(y.data, expected, atol=1e-10)
    inv = geom.invert_map(m)
    y_inv = mixer.variant_mix(Tensor(x), pts, inv, v)
    for i in range(8):
        cands = [oracles._apply_mlp2(st, "v.mlp", np.concatenate([x[j], pts[i] - pts[j]])) for j in inv.row(i)]
        assert np.allclose(y_inv.data[i], np.max(cands, axis=0), atol=1e-10)


def test_attention_zero_psi_gives_mean_of_values():
    store = nn.ParamStore()
    v = mixer.VectorAttentionParams.create(store, "v", 3, nn.Rng(7))
    zero_(v.psi.fc1.W, v.psi.fc1.b, v.psi.fc2.W, v.psi.fc2.b)
    rng = np.random.default_rng(14)
    x = rng.normal(size=(6, 3))
    pts = rng.uniform(-1, 1, (6, 3))
    m = geom.knn(pts, pts, 3)
    y = mixer.variant_mix(Tensor(x), pts, m, v)
    st = store.state()
    expected = np.zeros((6, 3))
    for i in range(6):
        vals = []
        for j in m.indices[i]:
            pe = oracles._apply_mlp2(st, "v.delta", pts[i] - pts[j])
            vals.append(x[j] @ st["v.w3.W"].T + st["v.w3.b"] + pe)
        expected[i] = np.mean(vals, axis=0)
    assert np.allclose(y.data, expected, atol=1e-10)


def test_attention_matches_loop_oracle():
    store = nn.ParamStore()
    v = mixer.VectorAttentionParams.create(store, "v", 4, nn.Rng(8))
    rng = np.random.default_rng(15)
    x = rng.normal(size=(7, 4))
    pts = rng.uniform(-1, 1, (7, 3))
    m = geom.knn(pts, pts, 3)
    y = mixer.variant_mix(Tensor(x), pts, m, v)
    st = store.state()

    def lin(prefix, z):
        return z @ st[f"{prefix}.W"].T + st[f"{prefix}.b"]

    expected = np.zeros((7, 4))
    for i in range(7):
        scores, vals = [], []
        for j in m.indices[i]:
            pe = oracles._apply_mlp2(st, "v.delta", pts[i] - pts[j])
            scores.append(oracles._apply_mlp2(st, "v.psi", lin("v.w1", x[i]) - lin("v.w2", x[j]) + pe))
            vals.append(lin("v.w3", x[j]) + pe)
        s = np.array(scores)
        w = np.exp(s - s.max(axis=0))
        w /= w.sum(axis=0)
        expected[i] = (w * np.array(vals)).sum(axis=0)
    assert np.allclose(y.data, expected, atol=1e-10)


def test_tokenmlp_zero_token_weights_reduces_to_channel_path():
    store = nn.ParamStore()
    v = mixer.TokenMlpParams.create(store, "v", 3, 2, nn.Rng(9))
    zero_(v.token_mlp.fc1.W, v.token_mlp.fc1.b, v.token_mlp.fc2.W, v.token_mlp.fc2.b)
    rng = np.random.default_rng(16)
    x = rng.normal(size=(5, 3))
    pts = rng.uniform(-1, 1, (5, 3))
    m = geom.knn(pts, pts, 2)
    y = mixer.variant_mix(Tensor(x), pts, m, v)
    st = store.state()
    expected = np.zeros((5, 3))
    for i in range(5):
        gathered = x[m.indices[i]]  # token mixing disabled: X' = X
        h = oracles.layernorm_rows(gathered, st["v.norm2.gamma"], st["v.norm2.beta"])
        yk = gathered + np.array([oracles._apply_mlp2(st, "v.channel", r) for r in h])
        expected[i] = yk.mean(axis=0)
    assert np.allclose(y.data, expected, atol=1e-10)


def test_tokenmlp_full_matches_loop_oracle():
    store = nn.ParamStore()
    v = mixer.TokenMlpParams.create(store, "v", 4, 3, nn.Rng(10))
    rng = np.random.default_rng(17)
    x = rng.normal(size=(6, 4))
    pts = rng.uniform(-1, 1, (6, 3))
    m = geom.knn(pts, pts, 3)
    y = mixer.variant_mix(Tensor(x), pts, m, v)
    st = store.state()
    expected = np.zeros((6, 4))
    for i in range(6):
        xk = x[m.indices[i]]  # (K, C)
        h = oracles.layernorm_rows(xk, st["v.norm1.gamma"], st["v.norm1.beta"])
        mixed_cols = np.array([oracles._apply_mlp2(st, "v.token", h[:, c]) for c in range(4)]).T
        x1 = xk + mixed_cols
        h2 = oracles.layernorm_rows(x1, st["v.norm2.gamma"], st["v.norm2.beta"])
        yk = x1 + np.array([oracles._apply_mlp2(st, "v.channel", r) for r in h2])
        expected[i] = yk.mean(axis=0)
    assert np.allclose(y.data, expected, atol=1e-10)


def test_tokenmlp_rejects_inverse_map_and_wrong_k():
    store = nn.ParamStore()
    v = mixer.TokenMlpParams.create(store, "v", 3, 2, nn.Rng(11))
    pts = np.random.default_rng(18).uniform(-1, 1, (4, 3))
    x = Tensor(np.zeros((4, 3)))
    inv = geom.invert_map(geom.knn(pts, pts, 2))
    with pytest.raises(mixer.VariableCardinalityError):
        mixer.variant_mix(x, pts, inv, v)
    with pytest.raises(mixer.VariableCardinalityError):
        mixer.variant_mix(x, pts, geom.knn(pts, pts, 3), v)


# -- layer-level properties ----------------------------------------------------------


def permuted_case(seed, n=14, c=4, k=4):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1, 1, (n, 3))
    x = rng.normal(size=(n, c))
    perm = rng.permutation(n)
    return pts, x, perm


@pytest.mark.parametrize("seed", range(5))
def test_layer_permutation_invariance(seed):
    pts, x, perm = permuted_case(seed)
    _, p = make_params(4, seed=20 + seed)
    m = geom.knn(pts, pts, 4)
    y = mixer.intra_set_mix(Tensor(x), pts, m, p).data
    m2 = geom.knn(pts[perm], pts[perm], 4)
    y2 = mixer.intra_set_mix(Tensor(x[perm]), pts[perm], m2, p).data
    assert np.max(np.abs(y2 - y[perm])) < 1e-9

    inv = geom.invert_map(m)
    inv2 = geom.invert_map(m2)
    z = mixer.inter_set_mix(Tensor(x), pts, inv, p).data
    z2 = mixer.inter_set_mix(Tensor(x[perm]), pts[perm], inv2, p).data
    assert np.max(np.abs(z2 - z[perm])) < 1e-9


@pytest.mark.parametrize("seed", range(3))
def test_hier_layer_permutation_invariance(seed):
    pts, x, perm = permuted_case(100 + seed, n=16)
    _, p = make_params(4, seed=30 + seed)
    h1 = geom.build_hierarchy(pts, [0.25], k=4, start=geom.lexmin_index(pts))
    h2 = geom.build_hierarchy(pts[perm], [0.25], k=4, start=geom.lexmin_index(pts[perm]))
    lv1, lv2 = h1.levels[1], h2.levels[1]
    assert np.allclose(lv1.positions, lv2.positions)  # same geometric samples in order
    d1 = mixer.hier_down_mix(Tensor(x), pts, lv1.positions, lv1.down_map, p).data
    d2 = mixer.hier_down_mix(Tensor(x[perm]), pts[perm], lv2.positions, lv2.down_map, p).data
    assert np.max(np.abs(d2 - d1)) < 1e-9
    u1 = mixer.hier_up_mix(Tensor(d1), lv1.positions, pts, lv1.down_inverse, p,
                           skip=None, fallback=lv1.up_fallback).data
    u2 = mixer.hier_up_mix(Tensor(d2), lv2.positions, pts[perm], lv2.down_inverse, p,
                           skip=None, fallback=lv2.up_fallback).data
    assert np.max(np.abs(u2 - u1[perm])) < 1e-9


def test_tokenmlp_is_permutation_variant():
    store = nn.ParamStore()
    v = mixer.TokenMlpParams.create(store, "v", 4, 4, nn.Rng(12))
    rng = np.random.default_rng(19)
    pts = rng.uniform(-1, 1, (8, 3))
    x = Tensor(rng.normal(size=(8, 4)))
    m = geom.knn(pts, pts, 4)
    y = mixer.variant_mix(x, pts, m, v).data
    best = 0.0
    for _ in range(5):
        shuffled = m.indices.copy()
        for row in shuffled:
            rng.shuffle(row)
        y2 = mixer.variant_mix(x, pts, geom.NeighborMap(shuffled, 8), v).data
        best = max(best, float(np.max(np.abs(y2 - y))))
    assert best > 1e-3


def test_translation_invariance():
    _, p = make_params(4, seed=40)
    rng = np.random.default_rng(20)
    pts = rng.uniform(-1, 1, (12, 3))
    x = Tensor(rng.normal(size=(12, 4)))
    m = geom.knn(pts, pts, 4)
    y = mixer.intra_set_mix(x, pts, m, p).data
    shifted = pts + np.array([11.0, -7.0, 3.0])
    y2 = mixer.intra_set_mix(x, shifted, geom.knn(shifted, shifted, 4), p).data
    assert np.max(np.abs(y2 - y)) < 1e-9


def test_softmax_weights_make_convex_combinations():
    store, p = make_params(3, seed=41)
    rng = np.random.default_rng(21)
    pts = rng.uniform(-1, 1, (10, 3))
    x = rng.normal(size=(10, 3))
    m = geom.knn(pts, pts, 4)
    y = mixer.intra_set_mix(Tensor(x), pts, m, p).data
    g3 = x @ p.g3.W.data.T + p.g3.b.data
    for i in range(10):
        neigh = g3[m.indices[i]]
        assert np.all(y[i] <= neigh.max(axis=0) + 1e-12)
        assert np.all(y[i] >= neigh.min(axis=0) - 1e-12)


def test_scalar_score_width_is_one():
    _, p = make_params(16)
    assert p.g2.fc2.W.data.shape[0] == 1


def test_layer_param_count_softmax_below_tokenmlp():
    s1 = nn.ParamStore()
    mixer.PointMixerParams.create(s1, "m", 32, nn.Rng(0))
    s2 = nn.ParamStore()
    mixer.TokenMlpParams.create(s2, "m", 32, 16, nn.Rng(0))
    assert s1.param_count() < s2.param_count()


# -- gradient checks --------------------------------------------------------------------


def layer_gradcheck(build_output, store, x):
    params = [t for _, t in store.tensors()] + [x]
    return nn.check_gradient(build_output, params, h=1e-5)


@pytest.mark.parametrize("seed", range(3))
def test_gradcheck_softmax_layers(seed):
    rng = np.random.default_rng(200 + seed)
    store, p = make_params(3, seed=seed)
    pts = rng.uniform(-1, 1, (8, 3))
    x = Tensor(rng.normal(size=(8, 3)), requires_grad=True)
    m = geom.knn(pts, pts, 3)
    inv = geom.invert_map(m)
    u = Tensor(rng.normal(size=(8, 3)))
    assert layer_gradcheck(lambda: autodiff.reduce_sum(mixer.intra_set_mix(x, pts, m, p) * u), store, x) < 1e-4
    assert layer_gradcheck(lambda: autodiff.reduce_sum(mixer.inter_set_mix(x, pts, inv, p) * u), store, x) < 1e-4


@pytest.mark.parametrize("variant", ["maxpool", "attention", "tokenmlp"])
def test_gradcheck_variants(variant):
    rng = np.random.default_rng(300)
    store = nn.ParamStore()
    v = mixer.create_variant(store, "v", variant, 3, nn.Rng(1), k=3)
    pts = rng.uniform(-1, 1, (7, 3))
    x = Tensor(rng.normal(size=(7, 3)), requires_grad=True)
    m = geom.knn(pts, pts, 3)
    u = Tensor(rng.normal(size=(7, 3)))
    err = layer_gradcheck(lambda: autodiff.reduce_sum(mixer.variant_mix(x, pts, m, v) * u), store, x)
    assert err < 1e-4


def test_gradcheck_full_block():
    rng = np.random.default_rng(400)
    store = nn.ParamStore()
    block = mixer.MixerBlockParams.create(store, "blk", 3, nn.Rng(2))
    pts = rng.uniform(-1, 1, (16, 3))
    x = Tensor(rng.normal(size=(16, 3)), requires_grad=True)
    m = geom.knn(pts, pts, 4)
    u = Tensor(rng.normal(size=(16, 3)))
    err = layer_gradcheck(lambda: autodiff.reduce_sum(mixer.mixer_block(x, pts, m, block) * u), store, x)
    assert err < 1e-4


def test_gradcheck_hier_up_with_fallback_rows():
    rng = np.random.default_rng(500)
    store, p = make_params(3, seed=50)
    pts_o = rng.uniform(-1, 1, (9, 3))
    h = geom.build_hierarchy(pts_o, [1.0 / 3.0], k=1)
    lv = h.levels[1]
    x = Tensor(rng.normal(size=(lv.n, 3)), requires_grad=True)
    skip = Tensor(rng.normal(size=(9, 3)), requires_grad=True)
    u = Tensor(rng.normal(size=(9, 3)))

    def f():
        out = mixer.hier_up_mix(x, lv.positions, pts_o, lv.down_inverse, p,
                                skip=skip, fallback=lv.up_fallback)
        return autodiff.reduce_sum(out * u)

    params = [t for _, t in store.tensors()] + [x, skip]
    assert nn.check_gradient(f, params, h=1e-5) < 1e-4


# -- per-point projections against the per-edge formula ------------------------------


def per_edge_softmax_mix(x, pos_q, pos_s, rows, p):
    """The mixing layer written edge by edge: gather x to every edge, then
    g2([g1(x_j); delta(p_i - p_j)]) and g3(x_j) per edge, summed per row.
    delta's output layer and g2's whole first layer (so its positional
    columns W_pos too) run explicitly on every edge, with nothing folded."""
    lengths = [len(r) for r in rows]
    offsets = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
    src = np.concatenate([np.asarray(r, dtype=np.int64) for r in rows])
    dst = np.repeat(np.arange(len(rows)), lengths)
    xj = autodiff.gather_rows(x, src)
    pe = p.delta(pos_q[dst] - pos_s[src])
    scores = p.g2(autodiff.concat_last([p.g1(xj), pe]))
    w = nn.segment_softmax(autodiff.reshape(scores, (len(src),)), offsets)
    return nn.segment_sum(p.g3(xj) * autodiff.reshape(w, (len(src), 1)), offsets)


def outputs_and_grads(f, params, u):
    for t in params:
        t.grad = None
    out = f()
    autodiff.reduce_sum(out * u).backward()
    return out.data.copy(), [t.grad.copy() if t.grad is not None else None for t in params]


def assert_kernel_matches_per_edge(f, ref, store, x, u):
    params = [t for _, t in store.tensors()] + [x]
    y, grads = outputs_and_grads(f, params, u)
    y_ref, grads_ref = outputs_and_grads(ref, params, u)
    assert np.allclose(y, y_ref, rtol=0, atol=1e-12)
    for (name, _), g, g_ref in zip(list(store.tensors()) + [("x", x)], grads, grads_ref):
        assert np.allclose(g, g_ref, rtol=0, atol=1e-12), name


def test_mixing_layers_keep_float32():
    rng = np.random.default_rng(820)
    store, p = make_params(8, seed=6, pe_width=6)
    for _, t in store.tensors():
        t.data = t.data.astype(np.float32)
    pts = rng.uniform(-1, 1, (64, 3)).astype(np.float32)
    sub = pts[::4]
    m, down = geom.knn(pts, pts, 8), geom.knn(pts, sub, 8)
    x = Tensor(rng.normal(size=(64, 8)).astype(np.float32), requires_grad=True)
    xs = Tensor(rng.normal(size=(16, 8)).astype(np.float32), requires_grad=True)
    for mix in (lambda: mixer.intra_set_mix(x, pts, m, p),
                lambda: mixer.inter_set_mix(x, pts, geom.invert_map(m), p),
                lambda: mixer.hier_down_mix(x, pts, sub, down, p),
                lambda: mixer.hier_up_mix(xs, sub, pts, geom.invert_map(down), p, skip=None,
                                          fallback=geom.nearest_samples(geom.invert_map(down), sub, pts))):
        store.zero_grad()
        out = mix()
        autodiff.reduce_sum(out).backward()
        assert out.dtype == np.float32
        assert all(t.grad.dtype == np.float32 for _, t in store.tensors() if t.grad is not None)


def coincident_cloud(rng, copies=32, others=64):
    return np.concatenate([np.full((copies, 3), 0.25), rng.uniform(-1, 1, (others, 3))])


@pytest.mark.parametrize("seed", range(3))
def test_softmax_kernel_matches_per_edge_formula_on_same_level_maps(seed):
    rng = np.random.default_rng(600 + seed)
    store = nn.ParamStore()
    p = mixer.PointMixerParams.create(store, "mix", 4, nn.Rng(seed), pe_width=6)
    for pts in (rng.uniform(-1, 1, (24, 3)), coincident_cloud(rng, 8, 16)):
        n = len(pts)
        x = Tensor(rng.normal(size=(n, 4)), requires_grad=True)
        u = Tensor(rng.normal(size=(n, 4)))
        m = geom.knn(pts, pts, 4)
        inv = geom.invert_map(m)
        assert_kernel_matches_per_edge(
            lambda: mixer.intra_set_mix(x, pts, m, p),
            lambda: per_edge_softmax_mix(x, pts, pts, m.indices, p), store, x, u)
        assert_kernel_matches_per_edge(
            lambda: mixer.inter_set_mix(x, pts, inv, p),
            lambda: per_edge_softmax_mix(x, pts, pts, [inv.row(i) for i in range(n)], p), store, x, u)


@pytest.mark.parametrize("k, fallback_rows", [(1, True), (8, False)])
def test_softmax_kernel_matches_per_edge_formula_on_cross_level_maps(k, fallback_rows):
    rng = np.random.default_rng(700 + k)
    store, p = make_params(4, seed=k, pe_width=3)
    pts = rng.uniform(-1, 1, (30, 3))
    lv = geom.build_hierarchy(pts, [1.0 / 3.0], k=k).levels[1]
    inv = lv.down_inverse
    assert bool(np.any(inv.row_lengths() == 0)) == fallback_rows
    x_o = Tensor(rng.normal(size=(30, 4)), requires_grad=True)
    x_s = Tensor(rng.normal(size=(lv.n, 4)), requires_grad=True)
    assert_kernel_matches_per_edge(
        lambda: mixer.hier_down_mix(x_o, pts, lv.positions, lv.down_map, p),
        lambda: per_edge_softmax_mix(x_o, lv.positions, pts, lv.down_map.indices, p),
        store, x_o, Tensor(rng.normal(size=(lv.n, 4))))
    rows = [inv.row(i) if len(inv.row(i)) else [lv.up_fallback[i]] for i in range(30)]
    assert_kernel_matches_per_edge(
        lambda: mixer.hier_up_mix(x_s, lv.positions, pts, inv, p, skip=None, fallback=lv.up_fallback),
        lambda: per_edge_softmax_mix(x_s, pts, lv.positions, rows, p),
        store, x_s, Tensor(rng.normal(size=(30, 4))))


def test_softmax_kernel_applies_no_delta_output_layer_per_edge():
    rng = np.random.default_rng(800)
    store = nn.ParamStore()
    p = mixer.PointMixerParams.create(store, "mix", 4, nn.Rng(0), pe_width=6)
    pts = rng.uniform(-1, 1, (20, 3))
    m = geom.knn(pts, pts, 4)
    out = mixer.intra_set_mix(Tensor(rng.normal(size=(20, 4)), requires_grad=True), pts, m, p)
    l2_W = p.delta.fc2.W
    seen, stack, uses = set(), [out], []
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if any(parent is l2_W for parent in node._parents):
            uses.append((node._op, node.shape))
        stack.extend(node._parents)
    # delta.l2.W only meets W_pos, once per call: one (C/4, pe) product
    assert uses == [("matmul", (1, 6))]


def test_softmax_kernel_over_forced_edge_blocks_matches_per_edge_formula(monkeypatch):
    # 5 rows per block at pe = 6: segments of 4 edges straddle block ends,
    # and 96 edges leave a ragged last block
    monkeypatch.setattr(autodiff, "_EDGE_BLOCK_FLOATS", 5 * 6)
    rng = np.random.default_rng(810)
    store = nn.ParamStore()
    p = mixer.PointMixerParams.create(store, "mix", 4, nn.Rng(4), pe_width=6)
    pts = coincident_cloud(rng, 8, 16)
    n = len(pts)
    x = Tensor(rng.normal(size=(n, 4)), requires_grad=True)
    u = Tensor(rng.normal(size=(n, 4)))
    m = geom.knn(pts, pts, 4)
    inv = geom.invert_map(m)
    assert m.indices.size % 5 and np.any(inv.row_lengths() == 0)
    assert_kernel_matches_per_edge(
        lambda: mixer.intra_set_mix(x, pts, m, p),
        lambda: per_edge_softmax_mix(x, pts, pts, m.indices, p), store, x, u)
    assert_kernel_matches_per_edge(
        lambda: mixer.inter_set_mix(x, pts, inv, p),
        lambda: per_edge_softmax_mix(x, pts, pts, [inv.row(i) for i in range(n)], p), store, x, u)


def test_softmax_kernel_records_one_per_edge_score_node():
    rng = np.random.default_rng(811)
    store, p = make_params(4, seed=5, pe_width=6)
    pts = rng.uniform(-1, 1, (20, 3))
    m = geom.knn(pts, pts, 4)
    out = mixer.intra_set_mix(Tensor(rng.normal(size=(20, 4)), requires_grad=True), pts, m, p)
    seen, stack, per_edge = set(), [out], []
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node._backward is not None and node.shape[:1] == (m.indices.size,):
            per_edge.append(node._op)
        stack.extend(node._parents)
    assert sorted(per_edge) == ["edge_scores", "segment_softmax"]


def per_edge_attention(x, pos, rows, v):
    """Vector attention with w1/w2/w3 applied to gathered x_i and x_j."""
    lengths = [len(r) for r in rows]
    offsets = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
    src = np.concatenate([np.asarray(r, dtype=np.int64) for r in rows])
    dst = np.repeat(np.arange(len(rows)), lengths)
    xi, xj = autodiff.gather_rows(x, dst), autodiff.gather_rows(x, src)
    pe = v.delta(pos[dst] - pos[src])
    weights = nn.segment_softmax(v.psi(v.w1(xi) - v.w2(xj) + pe), offsets)
    return nn.segment_sum(weights * (v.w3(xj) + pe), offsets)


@pytest.mark.parametrize("seed", range(3))
def test_attention_per_point_projections_match_per_edge_formula(seed):
    rng = np.random.default_rng(800 + seed)
    store = nn.ParamStore()
    v = mixer.VectorAttentionParams.create(store, "v", 4, nn.Rng(seed))
    for pts in (rng.uniform(-1, 1, (20, 3)), coincident_cloud(rng, 8, 12)):
        n = len(pts)
        x = Tensor(rng.normal(size=(n, 4)), requires_grad=True)
        u = Tensor(rng.normal(size=(n, 4)))
        m = geom.knn(pts, pts, 4)
        inv = geom.invert_map(m)
        assert_kernel_matches_per_edge(
            lambda: mixer.variant_mix(x, pts, m, v),
            lambda: per_edge_attention(x, pts, m.indices, v), store, x, u)
        assert_kernel_matches_per_edge(
            lambda: mixer.variant_mix(x, pts, inv, v),
            lambda: per_edge_attention(x, pts, [inv.row(i) for i in range(n)], v), store, x, u)


def test_coincident_points_leave_empty_inverse_rows_that_pass_through_the_block():
    rng = np.random.default_rng(900)
    pts = coincident_cloud(rng)
    inv = geom.invert_map(geom.knn(pts, pts, 4))
    empty = np.flatnonzero(inv.row_lengths() == 0)
    assert len(empty) > 0
    store = nn.ParamStore()
    block = mixer.MixerBlockParams.create(store, "blk", 4, nn.Rng(3))
    x = rng.normal(size=(len(pts), 4))
    mixed = mixer.inter_set_mix(block.norm1(Tensor(x)), pts, inv, block.mix)
    assert np.array_equal(mixed.data[empty], np.zeros((len(empty), 4)))
    y = mixer.mixer_block(Tensor(x), pts, inv, block)
    x1 = Tensor(x[empty])  # mixing term 0: only the channel MLP residual acts
    expected = (x1 + block.channel_mlp(block.norm2(x1))).data
    assert np.allclose(y.data[empty], expected, atol=1e-12)


def test_maxpool_keeps_its_error_on_empty_inverse_rows():
    rng = np.random.default_rng(901)
    pts = coincident_cloud(rng, 8, 8)
    inv = geom.invert_map(geom.knn(pts, pts, 4))
    v = mixer.create_variant(nn.ParamStore(), "v", "maxpool", 3, nn.Rng(0))
    with pytest.raises(ValueError, match="non-empty segments"):
        mixer.variant_mix(Tensor(rng.normal(size=(16, 3))), pts, inv, v)
