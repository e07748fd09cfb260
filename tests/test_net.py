import numpy as np
import pytest

from pointmixer import autodiff, geom, mixer, net, nn, tasks
from pointmixer.autodiff import Tensor
from pointmixer.geom import PointCloud

import oracles


def tiny_config(head, use_inter=True, use_hier=True, variant="softmax", blocks=1):
    return net.NetworkConfig(
        levels=[net.LevelSpec(4, blocks, 1.0), net.LevelSpec(6, blocks, 0.25)],
        head=head,
        k=3,
        use_inter=use_inter,
        use_hier=use_hier,
        variant=variant,
    )


def cloud_from(rng, n):
    pos = rng.uniform(-1.0, 1.0, (n, 3))
    return PointCloud(pos, pos.copy())


# -- construction ----------------------------------------------------------------


def test_degenerate_config_has_embed_and_head_only():
    cfg = net.NetworkConfig(
        levels=[net.LevelSpec(8, 0, 1.0)], head=net.ClassificationHead(3), k=2
    )
    network = net.build_network(cfg, nn.Rng(0))
    names = network.store.names()
    assert all(n.startswith(("embed", "head")) for n in names)
    # embed 3->8 plus head 8->8 and 8->3
    assert net.param_count(network) == (3 * 8 + 8) + (8 * 8 + 8) + (8 * 3 + 3)


def lin_params(i, o):
    return i * o + o


def mlp2_params(i, h, o):
    return lin_params(i, h) + lin_params(h, o)


def pmp_params(c, pe=None, r=4):
    pe = pe or c
    return (
        lin_params(c, c)
        + mlp2_params(c + pe, max(1, c // r), 1)
        + lin_params(c, c)
        + mlp2_params(3, pe, pe)
    )


def block_params(c, e=2):
    return 2 * 2 * c + pmp_params(c) + mlp2_params(c, e * c, c)


def test_param_count_matches_closed_form_on_default_config():
    cfg = net.NetworkConfig(levels=net.default_levels(), head=net.ClassificationHead(3))
    network = net.build_network(cfg, nn.Rng(0))
    widths = [32, 64, 128, 256]
    expected = lin_params(3, 32)
    for li, w in enumerate(widths):
        if li > 0:
            prev = widths[li - 1]
            expected += 2 * prev + pmp_params(prev) + lin_params(prev, w)  # transition down
        expected += 2 * block_params(w)  # intra + inter block
    expected += lin_params(256, 256) + lin_params(256, 3)
    assert net.param_count(network) == expected


def test_param_count_trivial_linear():
    store = nn.ParamStore()
    nn.Linear.create(store, "l", 4, 2, nn.Rng(0))
    assert store.param_count() == 10


def test_same_seed_builds_identical_networks():
    cfg = tiny_config(net.ClassificationHead(3))
    a = net.build_network(cfg, nn.Rng(7)).state()
    b = net.build_network(tiny_config(net.ClassificationHead(3)), nn.Rng(7)).state()
    assert set(a) == set(b)
    for k in a:
        assert np.array_equal(a[k], b[k])


def test_softmax_network_smaller_than_tokenmlp_network():
    cfg_a = net.NetworkConfig(levels=net.default_levels(), head=net.ClassificationHead(3),
                              variant="softmax")
    cfg_b = net.NetworkConfig(levels=net.default_levels(), head=net.ClassificationHead(3),
                              variant="tokenmlp", use_inter=False)
    cfg_a2 = net.NetworkConfig(levels=net.default_levels(), head=net.ClassificationHead(3),
                               variant="softmax", use_inter=False)
    n_token = net.param_count(net.build_network(cfg_b, nn.Rng(0)))
    n_soft = net.param_count(net.build_network(cfg_a2, nn.Rng(0)))
    assert n_soft < n_token
    assert net.param_count(net.build_network(cfg_a, nn.Rng(0))) > n_soft  # inter blocks add params


def test_param_count_quadruples_when_widths_double():
    def total(scale):
        levels = [net.LevelSpec(8 * scale, 1, 1.0), net.LevelSpec(16 * scale, 1, 0.5)]
        cfg = net.NetworkConfig(levels=levels, head=net.ClassificationHead(2), k=4)
        return net.param_count(net.build_network(cfg, nn.Rng(0)))

    n1, n2 = total(1), total(2)
    # dominated by quadratic terms; biases and the positional-input edge keep it below 4x
    assert 3.0 < n2 / n1 < 4.0


def test_config_validation():
    with pytest.raises(ValueError):
        net.NetworkConfig(levels=[], head=net.ClassificationHead(2)).validate()
    with pytest.raises(ValueError):
        net.NetworkConfig(levels=[net.LevelSpec(4, 1, 0.5)], head=net.ClassificationHead(2)).validate()
    with pytest.raises(ValueError):
        net.NetworkConfig(
            levels=[net.LevelSpec(4, 1, 1.0), net.LevelSpec(4, 1, 1.0)],
            head=net.ClassificationHead(2),
        ).validate()
    with pytest.raises(ValueError):
        net.NetworkConfig(levels=[net.LevelSpec(4, 1, 1.0)], head=net.ClassificationHead(2),
                          variant="tokenmlp", use_inter=True).validate()


# -- classification forward --------------------------------------------------------


def test_zero_weight_head_gives_uniform_logits():
    cfg = tiny_config(net.ClassificationHead(3))
    network = net.build_network(cfg, nn.Rng(1))
    network.head_fc2.W.data[...] = 0.0
    network.head_fc2.b.data[...] = 0.0
    logits = net.forward_classify(network, cloud_from(np.random.default_rng(0), 24))
    assert np.allclose(logits.data, logits.data[0])


def test_classify_permutation_invariant():
    cfg = tiny_config(net.ClassificationHead(3))
    network = net.build_network(cfg, nn.Rng(2))
    rng = np.random.default_rng(1)
    cloud = cloud_from(rng, 24)
    base = net.forward_classify(network, cloud).data
    for seed in range(5):
        perm = np.random.default_rng(seed).permutation(24)
        permuted = PointCloud(cloud.positions[perm], cloud.features[perm])
        out = net.forward_classify(network, permuted).data
        assert np.max(np.abs(out - base)) < 1e-9


def test_classify_rejects_empty_and_wrong_head():
    cfg = tiny_config(net.DenseHead(2))
    network = net.build_network(cfg, nn.Rng(0))
    with pytest.raises(ValueError):
        net.forward_classify(network, cloud_from(np.random.default_rng(0), 16))


def test_classify_matches_composed_oracle():
    cfg = tiny_config(net.ClassificationHead(2))
    network = net.build_network(cfg, nn.Rng(3))
    rng = np.random.default_rng(2)
    cloud = cloud_from(rng, 16)
    plan = network.prepare(cloud.positions)
    logits = net.forward_classify(network, cloud, plan=plan).data

    st = network.state()
    x = cloud.features @ st["embed.W"].T + st["embed.b"]
    x = oracles.mixer_block_rows(x, plan.positions[0], plan.sl_maps[0].indices, st, "enc0.b0.intra")
    inter_rows = [plan.sl_invs[0].row(i).tolist() for i in range(16)]
    x = oracles.mixer_block_rows(x, plan.positions[0], inter_rows, st, "enc0.b0.inter")
    lv = plan.levels[1]
    h = oracles.layernorm_rows(x, st["td1.norm.gamma"], st["td1.norm.beta"])
    mixed = oracles.softmax_mix_rows(h, plan.positions[1], plan.positions[0], lv.down_map.indices, st, "td1.mix")
    x = mixed @ st["td1.reduce.W"].T + st["td1.reduce.b"]
    x = oracles.mixer_block_rows(x, plan.positions[1], plan.sl_maps[1].indices, st, "enc1.b0.intra")
    inter_rows1 = [plan.sl_invs[1].row(i).tolist() for i in range(lv.n)]
    x = oracles.mixer_block_rows(x, plan.positions[1], inter_rows1, st, "enc1.b0.inter")
    pooled = x.mean(axis=0)
    hidden = oracles._gelu(pooled @ st["head.fc1.W"].T + st["head.fc1.b"])
    expected = hidden @ st["head.fc2.W"].T + st["head.fc2.b"]
    assert np.allclose(logits, expected, atol=1e-9)


def test_asymmetric_baseline_matches_composed_oracle():
    cfg = tiny_config(net.DenseHead(2), use_hier=False)
    network = net.build_network(cfg, nn.Rng(8))
    cloud = cloud_from(np.random.default_rng(9), 16)
    plan = network.prepare(cloud.positions)
    out = net.forward_dense(network, cloud, plan=plan).data

    st = network.state()
    pos0, pos1 = plan.positions

    def blocks(x, pos, prefix):
        rows = oracles.knn_rows(pos, pos, 3)
        x = oracles.mixer_block_rows(x, pos, rows, st, f"{prefix}.b0.intra")
        return oracles.mixer_block_rows(x, pos, oracles.invert_rows(rows, len(pos)), st, f"{prefix}.b0.inter")

    skip = blocks(cloud.features @ st["embed.W"].T + st["embed.b"], pos0, "enc0")
    # down: project, then a max over each down-map row
    h = oracles.layernorm_rows(skip, st["td1.norm.gamma"], st["td1.norm.beta"])
    proj = h @ st["td1.reduce.W"].T + st["td1.reduce.b"]
    x = np.array([proj[row].max(axis=0) for row in oracles.knn_rows(pos0, pos1, 3)])
    x = blocks(x, pos1, "enc1")
    # up: inverse-square-distance weights over the 3 nearest samples, plus the skip
    h = oracles.layernorm_rows(x, st["tu0.norm.gamma"], st["tu0.norm.beta"])
    g = h @ st["tu0.expand.W"].T + st["tu0.expand.b"]
    up = np.zeros_like(skip)
    for i, row in enumerate(oracles.knn_rows(pos1, pos0, 3)):
        w = 1.0 / (((pos0[i] - pos1[row]) ** 2).sum(axis=1) + 1e-10)
        up[i] = (w / w.sum()) @ g[row]
    x = blocks(up + skip, pos0, "dec0")
    hidden = oracles._gelu(x @ st["head.fc1.W"].T + st["head.fc1.b"])
    expected = hidden @ st["head.fc2.W"].T + st["head.fc2.b"]
    assert np.allclose(out, expected, atol=1e-9)


# -- dense forward ------------------------------------------------------------------


def test_dense_identity_hierarchy_is_block_stack():
    cfg = net.NetworkConfig(levels=[net.LevelSpec(5, 2, 1.0)], head=net.DenseHead(2), k=4)
    network = net.build_network(cfg, nn.Rng(4))
    rng = np.random.default_rng(3)
    cloud = cloud_from(rng, 18)
    plan = network.prepare(cloud.positions)
    out = net.forward_dense(network, cloud, plan=plan).data

    x = Tensor(cloud.features)
    x = nn.linear(x, network.embed.W, network.embed.b)
    for kind, block in network.enc_blocks[0]:
        index_map = plan.sl_maps[0] if kind == "intra" else plan.sl_invs[0]
        x = mixer.mixer_block(x, plan.positions[0], index_map, block)
    expected = nn.linear(autodiff.gelu(nn.linear(x, network.head_fc1.W, network.head_fc1.b)),
                         network.head_fc2.W, network.head_fc2.b).data
    assert np.allclose(out, expected, atol=1e-12)


def test_dense_permutation_equivariance():
    cfg = tiny_config(net.DenseHead(3))
    network = net.build_network(cfg, nn.Rng(5))
    rng = np.random.default_rng(4)
    cloud = cloud_from(rng, 28)
    base = net.forward_dense(network, cloud).data
    for seed in range(5):
        perm = np.random.default_rng(100 + seed).permutation(28)
        permuted = PointCloud(cloud.positions[perm], cloud.features[perm])
        out = net.forward_dense(network, permuted).data
        assert np.max(np.abs(out - base[perm])) < 1e-9


def test_decoder_runs_no_knn_with_hier_mixing():
    cfg = tiny_config(net.DenseHead(2), use_hier=True)
    network = net.build_network(cfg, nn.Rng(6))
    cloud = cloud_from(np.random.default_rng(5), 24)
    net.forward_dense(network, cloud)
    assert network.last_decode_knn_calls == 0


def test_asymmetric_baseline_searches_during_decode():
    cfg = tiny_config(net.DenseHead(2), use_hier=False)
    network = net.build_network(cfg, nn.Rng(6))
    cloud = cloud_from(np.random.default_rng(5), 24)
    net.forward_dense(network, cloud)
    assert network.last_decode_knn_calls > 0


def test_decoder_maps_are_inverted_encoder_maps():
    cfg = tiny_config(net.DenseHead(2))
    network = net.build_network(cfg, nn.Rng(0))
    cloud = cloud_from(np.random.default_rng(6), 32)
    plan = network.prepare(cloud.positions)
    for lv in plan.levels[1:]:
        rebuilt = geom.invert_map(lv.down_map)
        assert np.array_equal(rebuilt.offsets, lv.down_inverse.offsets)
        assert np.array_equal(rebuilt.indices, lv.down_inverse.indices)


def test_plan_reuses_the_identity_level_map_and_inverse():
    network = net.build_network(tiny_config(net.DenseHead(2)), nn.Rng(0))
    plan = network.prepare(cloud_from(np.random.default_rng(6), 32).positions)
    assert plan.sl_maps[0] is plan.levels[0].down_map
    assert plan.sl_invs[0] is plan.levels[0].down_inverse
    no_inter = net.build_network(tiny_config(net.DenseHead(2), use_inter=False), nn.Rng(0))
    assert no_inter.prepare(cloud_from(np.random.default_rng(6), 32).positions).sl_invs == [None, None]


# -- end-to-end gradient check --------------------------------------------------------


def test_end_to_end_gradcheck_two_level_dense():
    cfg = tiny_config(net.DenseHead(2))
    network = net.build_network(cfg, nn.Rng(8))
    rng = np.random.default_rng(7)
    cloud = cloud_from(rng, 32)
    plan = network.prepare(cloud.positions)
    u = Tensor(rng.normal(size=(32, 2)))

    def f():
        return autodiff.reduce_sum(net.forward_dense(network, cloud, plan=plan) * u)

    params = [t for _, t in network.store.tensors()]
    assert nn.check_gradient(f, params, h=1e-5) < 1e-4


def test_training_mode_dropout_changes_classifier_output():
    cfg = tiny_config(net.ClassificationHead(4))
    network = net.build_network(cfg, nn.Rng(9))
    cloud = cloud_from(np.random.default_rng(8), 20)
    eval_logits = net.forward_classify(network, cloud).data
    train_logits = net.forward_classify(network, cloud, training=True, rng=nn.Rng(3)).data
    assert not np.allclose(eval_logits, train_logits)


@pytest.mark.parametrize("variant", ["softmax", "attention"])
def test_coincident_points_give_finite_outputs_and_gradients(variant):
    # 32 copies of one point with k = 4: most copies are in no same-level
    # neighborhood, so their inverse rows are empty
    rng = np.random.default_rng(11)
    pos = np.concatenate([np.full((32, 3), 0.25), rng.uniform(-1, 1, (64, 3))])
    assert np.any(geom.invert_map(geom.knn(pos, pos, 4)).row_lengths() == 0)
    cfg = net.NetworkConfig(levels=[net.LevelSpec(8, 1, 1.0), net.LevelSpec(16, 1, 0.25)],
                            head=net.DenseHead(2), k=4, variant=variant)
    network = net.build_network(cfg, nn.Rng(0))
    cloud = PointCloud(pos, pos.copy())
    out = net.forward_dense(network, cloud)
    assert out.shape == (96, 2)
    assert np.all(np.isfinite(out.data))
    autodiff.reduce_sum(out * Tensor(rng.normal(size=(96, 2)))).backward()
    for name, t in network.store.tensors():
        assert t.grad is None or np.all(np.isfinite(t.grad)), name


def nonfinite_clouds(rng, n=64):
    """One NaN feature, one inf feature, one NaN coordinate."""
    pos = rng.uniform(-1, 1, (n, 3))
    nan_feat, inf_feat, nan_pos = pos.copy(), pos.copy(), pos.copy()
    nan_feat[5, 1] = np.nan
    inf_feat[9, 0] = np.inf
    nan_pos[3, 2] = np.nan
    return [(PointCloud(pos, nan_feat), "non-finite features"),
            (PointCloud(pos, inf_feat), "non-finite features"),
            (PointCloud(nan_pos, pos.copy()), "non-finite coordinates")]


def test_dense_rejects_nonfinite_inputs():
    network = net.build_network(tiny_config(net.DenseHead(2)), nn.Rng(0))
    for cloud, message in nonfinite_clouds(np.random.default_rng(12)):
        with pytest.raises(ValueError, match=message):
            net.forward_dense(network, cloud)


def test_forward_rejects_coordinates_beyond_the_limit():
    dense = net.build_network(tiny_config(net.DenseHead(2)), nn.Rng(0))
    classify = net.build_network(tiny_config(net.ClassificationHead(3)), nn.Rng(0))
    pos = np.random.default_rng(14).uniform(-1, 1, (64, 3))
    pos[7, 0] = 1e155
    for forward, network in ((net.forward_dense, dense), (net.forward_classify, classify)):
        with pytest.raises(ValueError, match="squared distances would overflow"):
            forward(network, PointCloud(pos, pos.copy()))
        with pytest.raises(ValueError, match="squared distances would overflow"):
            forward(network, pos)


def test_classify_rejects_nonfinite_inputs():
    network = net.build_network(tiny_config(net.ClassificationHead(3)), nn.Rng(0))
    for cloud, message in nonfinite_clouds(np.random.default_rng(13)):
        with pytest.raises(ValueError, match=message):
            net.forward_classify(network, cloud)
    with pytest.raises(ValueError, match="non-finite coordinates"):
        net.forward_classify(network, np.full((16, 3), np.nan))


def test_training_steps_on_one_plan_hold_one_graph_at_a_time():
    rng = np.random.default_rng(16)
    pos = rng.uniform(-1, 1, (1024, 3))
    cloud = PointCloud(pos, np.concatenate([pos, rng.normal(size=(1024, 3))], axis=1), rng.integers(0, 4, 1024))
    cfg = net.NetworkConfig(levels=net.default_levels(), head=net.DenseHead(4), k=16, in_channels=6)
    network = net.build_network(cfg, nn.Rng(0))
    plan = network.prepare(pos)
    autodiff.enable_alloc_tracking(True)
    try:
        peaks = []
        for _ in range(2):
            autodiff.reset_peak_bytes()
            logits = net.forward_dense(network, cloud, plan)
            loss = tasks.cross_entropy(logits, cloud.labels)
            loss.backward()
            peaks.append(autodiff.peak_bytes())
            # the tape is gone: only the tensors the caller holds stay live
            assert autodiff.live_bytes() == logits.data.nbytes + loss.data.nbytes
            del logits, loss
            assert autodiff.live_bytes() == 0
        assert peaks[1] == peaks[0]
    finally:
        autodiff.enable_alloc_tracking(False)


def test_float32_positions_stay_float32_through_prepare_and_forward_dense():
    rng = np.random.default_rng(17)
    pos32 = rng.uniform(-1, 1, (256, 3)).astype(np.float32)
    cfg = net.NetworkConfig(levels=net.default_levels(), head=net.DenseHead(4), k=16)
    network = net.build_network(cfg, nn.Rng(0))
    plan = network.prepare(pos32)
    assert [p.dtype for p in plan.positions] == [np.float32] * 4
    # ranking runs in float64 either way: the same subsets and maps as the
    # float64 copy of these positions, and positions equal value for value
    plan64 = network.prepare(pos32.astype(np.float64))
    assert [p.dtype for p in plan64.positions] == [np.float64] * 4
    for a, b in zip(plan.levels, plan64.levels):
        assert np.array_equal(a.subset, b.subset)
        assert np.array_equal(a.down_map.indices, b.down_map.indices)
        assert np.array_equal(a.up_fallback, b.up_fallback)
        assert np.array_equal(a.positions, b.positions)
    for a, b in zip(plan.sl_maps, plan64.sl_maps):
        assert np.array_equal(a.indices, b.indices)
    for _, t in network.store.tensors():
        t.data = t.data.astype(np.float32)
    assert net.forward_dense(network, pos32).data.dtype == np.float32
    assert net.forward_dense(network, pos32, plan).data.dtype == np.float32
