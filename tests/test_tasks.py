import numpy as np
import pytest

from pointmixer import autodiff, net, nn, tasks
from pointmixer.autodiff import Tensor

import oracles


# -- dataset generation ----------------------------------------------------------


def test_sphere_samples_stay_near_surface():
    sigma = 0.02
    pts, _ = tasks._sample_sphere(nn.Rng(2), 512)
    pts = tasks._jitter(nn.Rng(1), pts, sigma)
    radii = np.linalg.norm(pts, axis=1)
    # jitter vector norm is capped at 2.5 sigma, so radial error < 3 sigma
    assert np.all(np.abs(radii - 1.0) < 3 * sigma)


@pytest.mark.parametrize("n", [0, 7, 512, 2048])
def test_cube_samples_match_the_per_point_loop(n):
    for half in (0.8, 0.5):
        pts, normals = tasks._sample_cube(nn.Rng(n), n, half)
        want_pts, want_normals = oracles.sample_cube_loop(nn.Rng(n), n, half)
        assert np.array_equal(pts, want_pts)
        assert np.array_equal(normals, want_normals)


def test_cls_clouds_carry_roundrobin_labels():
    spec = tasks.DatasetSpec(task="cls", classes=3, points=64, train_clouds=6,
                             test_clouds=0, noise=0.02, seed=1)
    ds = tasks.gen_dataset(spec)
    assert [c.labels[0] for c in ds.train] == [0, 1, 2, 0, 1, 2]


def test_dataset_deterministic_and_balanced():
    spec = tasks.DatasetSpec(task="cls", classes=3, points=64, train_clouds=9,
                             test_clouds=3, seed=7)
    a = tasks.gen_dataset(spec)
    b = tasks.gen_dataset(spec)
    for ca, cb in zip(a.train + a.test, b.train + b.test):
        assert np.array_equal(ca.positions, cb.positions)
        assert np.array_equal(ca.labels, cb.labels)
    counts = np.bincount([c.labels[0] for c in a.train], minlength=3)
    assert counts.tolist() == [3, 3, 3]


def test_train_test_splits_differ():
    spec = tasks.DatasetSpec(task="cls", classes=3, points=64, train_clouds=3,
                             test_clouds=3, seed=7)
    ds = tasks.gen_dataset(spec)
    assert not np.allclose(ds.train[0].positions, ds.test[0].positions)


def test_seg_dataset_has_two_parts():
    spec = tasks.DatasetSpec(task="seg", classes=2, points=100, train_clouds=2,
                             test_clouds=1, seed=3)
    ds = tasks.gen_dataset(spec)
    for cloud in ds.train:
        assert np.bincount(cloud.labels, minlength=2).tolist() == [50, 50]


def test_recon_dataset_pairs_inputs_with_targets():
    spec = tasks.DatasetSpec(task="recon", points=64, train_clouds=2, test_clouds=1,
                             noise=0.05, seed=4)
    ds = tasks.gen_dataset(spec)
    assert len(ds.train_targets) == 2
    assert ds.train[0].n == 32
    assert ds.train_targets[0].shape == (64, 3)


def test_dataset_spec_validation():
    with pytest.raises(ValueError):
        tasks.gen_dataset(tasks.DatasetSpec(task="nope"))
    with pytest.raises(ValueError):
        tasks.gen_dataset(tasks.DatasetSpec(task="seg", classes=3))


# -- cross entropy ------------------------------------------------------------------


def test_cross_entropy_uniform_logits():
    loss = tasks.cross_entropy(Tensor(np.zeros((1, 3))), [1])
    assert abs(float(loss.data) - np.log(3)) < 1e-12


def test_cross_entropy_confident_correct():
    logits = Tensor(np.array([[100.0, 0.0, 0.0]]))
    assert float(tasks.cross_entropy(logits, [0]).data) < 1e-12


def test_cross_entropy_label_validation():
    with pytest.raises(ValueError):
        tasks.cross_entropy(Tensor(np.zeros((1, 3))), [3])


def test_cross_entropy_gradient_matches_finite_differences():
    rng = np.random.default_rng(0)
    logits = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    labels = [0, 2, 1, 1]
    err = nn.check_gradient(lambda: tasks.cross_entropy(logits, labels), [logits])
    assert err < 1e-8


# -- chamfer and occupancy ------------------------------------------------------------


def test_chamfer_examples():
    a = np.array([[0.0, 0, 0]])
    b = np.array([[1.0, 0, 0]])
    assert tasks.chamfer(a, a) == 0.0
    assert tasks.chamfer(a, b) == pytest.approx(1.0)
    c = np.array([[0.0, 0, 0], [2.0, 0, 0]])
    assert tasks.chamfer(c, b) == pytest.approx(1.0)  # (mean(1,1) + 1) / 2


def test_chamfer_symmetric_nonnegative():
    rng = np.random.default_rng(1)
    a, b = rng.normal(size=(10, 3)), rng.normal(size=(7, 3))
    assert tasks.chamfer(a, b) == pytest.approx(tasks.chamfer(b, a))
    assert tasks.chamfer(a, b) >= 0


def test_chamfer_matches_bruteforce():
    rng = np.random.default_rng(2)
    a, b = rng.normal(size=(6, 3)), rng.normal(size=(9, 3))
    fwd = np.mean([min(np.linalg.norm(p - q) for q in b) for p in a])
    bwd = np.mean([min(np.linalg.norm(q - p) for p in a) for q in b])
    assert tasks.chamfer(a, b) == pytest.approx(0.5 * (fwd + bwd))


def test_chamfer_empty_rejected():
    with pytest.raises(ValueError):
        tasks.chamfer(np.zeros((0, 3)), np.zeros((1, 3)))


def test_occupancy_examples():
    gt = np.array([[0.0, 0, 0], [1.0, 0, 0]])
    assert tasks.occupancy_metrics(gt, gt, 0.1) == (1.0, 1.0, 1.0)
    far = gt + 100.0
    assert tasks.occupancy_metrics(far, gt, 0.1) == (0.0, 0.0, 0.0)
    pred = np.array([[0.0, 0, 0], [1.0, 0, 0], [50.0, 0, 0], [60.0, 0, 0]])
    acc, cp, f1 = tasks.occupancy_metrics(pred, gt, 0.1)
    assert (acc, cp) == (0.5, 1.0)
    assert f1 == pytest.approx(2 / 3)


def test_occupancy_monotone_in_tau():
    rng = np.random.default_rng(3)
    pred, gt = rng.normal(size=(20, 3)), rng.normal(size=(20, 3))
    prev = (0.0, 0.0, 0.0)
    for tau in (0.05, 0.1, 0.3, 1.0, 3.0):
        cur = tasks.occupancy_metrics(pred, gt, tau)
        assert cur[0] >= prev[0] and cur[1] >= prev[1]
        prev = cur


# -- segmentation metrics ---------------------------------------------------------------


def test_segmentation_metrics_perfect():
    labels = np.array([0, 1, 2, 1, 0])
    assert tasks.segmentation_metrics(labels, labels, 3) == (1.0, 1.0, 1.0)


def test_segmentation_metrics_all_wrong():
    gt = np.zeros(4, dtype=int)
    pred = np.ones(4, dtype=int)
    miou, macc, oa = tasks.segmentation_metrics(pred, gt, 2)
    assert (miou, macc, oa) == (0.0, 0.0, 0.0)


def test_segmentation_metrics_confusion_case():
    gt = np.array([0, 0, 0, 1, 1, 2])
    pred = np.array([0, 0, 1, 1, 1, 0])
    # class 0: tp2 fp1 fn1 -> 0.5; class 1: tp2 fp1 fn0 -> 2/3; class 2: tp0 fp0 fn1 -> 0
    miou, macc, oa = tasks.segmentation_metrics(pred, gt, 3)
    assert miou == pytest.approx((0.5 + 2 / 3 + 0.0) / 3)
    assert macc == pytest.approx((2 / 3 + 1.0 + 0.0) / 3)
    assert oa == pytest.approx(4 / 6)


def test_metrics_at_one_iff_equal():
    rng = np.random.default_rng(4)
    gt = rng.integers(0, 3, 30)
    pred = gt.copy()
    pred[5] = (pred[5] + 1) % 3
    miou, macc, oa = tasks.segmentation_metrics(pred, gt, 3)
    assert miou < 1.0 and oa < 1.0


def test_metric_report_rendering():
    rep = tasks.MetricReport({"oa": 0.5, "macc": 0.25})
    assert rep.to_kv() == "oa=0.500000\nmacc=0.250000"
    assert rep.to_csv() == "oa,macc\n0.500000,0.250000"


# -- training loop ------------------------------------------------------------------------


def small_cls_setup(epochs=0):
    spec = tasks.DatasetSpec(task="cls", classes=3, points=48, train_clouds=6,
                             test_clouds=3, seed=11)
    ds = tasks.gen_dataset(spec)
    cfg = net.NetworkConfig(
        levels=[net.LevelSpec(8, 1, 1.0), net.LevelSpec(12, 1, 0.25)],
        head=net.ClassificationHead(3),
        k=4,
        in_channels=6,
    )
    network = net.build_network(cfg, nn.Rng(0))
    return ds, network


def test_train_zero_epochs_leaves_parameters():
    ds, network = small_cls_setup()
    before = network.state()
    tasks.train(network, ds, tasks.Schedule(epochs=1), epochs=0, batch=2, rng=nn.Rng(0))
    after = network.state()
    for k in before:
        assert np.array_equal(before[k], after[k])


def test_train_refuses_a_schedule_shorter_than_the_run_before_any_step():
    ds, network = small_cls_setup()
    before = {name: t.data.copy() for name, t in network.store.tensors()}
    with pytest.raises(ValueError, match="1-epoch schedule cannot train 2 epochs"):
        tasks.train(network, ds, tasks.Schedule(epochs=1), epochs=2, batch=2, rng=nn.Rng(0))
    for name, t in network.store.tensors():
        assert np.array_equal(t.data, before[name]), name


def test_single_step_matches_hand_composition():
    ds, network = small_cls_setup()
    twin_ds, twin = small_cls_setup()
    sched = tasks.Schedule(base_lr=0.05, epochs=1)

    # hand path: forward, backward, sgd on the first shuffled cloud
    order = nn.Rng(42).permutation(len(twin_ds.train))
    cloud = twin_ds.train[order[0]]
    logits = net.forward_classify(twin, cloud, training=True, rng=nn.Rng(0))
    loss = tasks.cross_entropy(logits, [int(cloud.labels[0])])
    loss.backward()
    nn.sgd_step(twin.store, 0.05, 0.9, 1e-4)

    tasks.train(network, tasks.Dataset(ds.spec, [ds.train[order[0]]], []),
                sched, epochs=1, batch=1, rng=nn.Rng(7))
    # same single cloud, same lr: identical parameters afterward
    a, b = network.state(), twin.state()
    for k in a:
        assert np.allclose(a[k], b[k], atol=1e-12), k


def test_training_reduces_loss():
    ds, network = small_cls_setup()
    _, log = tasks.train(network, ds, tasks.Schedule(base_lr=0.05, epochs=4),
                         epochs=4, batch=2, rng=nn.Rng(1))
    assert log[-1]["loss"] < log[0]["loss"]
    assert {"epoch", "lr", "loss", "train_metric"} <= set(log[0])


def test_train_rejects_undersized_clouds():
    ds, network = small_cls_setup()
    network.config.k = 40
    with pytest.raises(ValueError):
        tasks.train(network, ds, tasks.Schedule(epochs=1), epochs=1, batch=2, rng=nn.Rng(0))


def test_train_rejects_tokenmlp_blocks_on_a_level_with_fewer_than_k_points():
    ds, _ = small_cls_setup()  # 48-point clouds: levels of 48, 12 and 3 points below
    levels = [net.LevelSpec(8, 1, 1.0), net.LevelSpec(8, 1, 0.25), net.LevelSpec(8, 1, 0.25)]
    cfg = net.NetworkConfig(levels=levels, head=net.ClassificationHead(3), k=4, in_channels=6,
                            variant="tokenmlp", use_inter=False)
    with pytest.raises(tasks.CloudsTooSmall, match="keep 3 points at level 2"):
        tasks.train(net.build_network(cfg, nn.Rng(0)), ds, tasks.Schedule(epochs=1),
                    epochs=1, batch=2, rng=nn.Rng(0))
    levels[2].blocks = 0  # a level without blocks runs no token MLP
    tasks.train(net.build_network(cfg, nn.Rng(0)), ds, tasks.Schedule(epochs=1),
                epochs=1, batch=2, rng=nn.Rng(0))


def test_training_deterministic_given_seed():
    ds1, n1 = small_cls_setup()
    ds2, n2 = small_cls_setup()
    sched = tasks.Schedule(base_lr=0.05, epochs=2)
    tasks.train(n1, ds1, sched, epochs=2, batch=2, rng=nn.Rng(5), dropout_rng=nn.Rng(9))
    tasks.train(n2, ds2, sched, epochs=2, batch=2, rng=nn.Rng(5), dropout_rng=nn.Rng(9))
    a, b = n1.state(), n2.state()
    for k in a:
        assert np.array_equal(a[k], b[k])


def test_evaluate_reports_task_metrics():
    ds, network = small_cls_setup()
    rep = tasks.evaluate(network, ds.test, "cls")
    assert set(rep.values) == {"oa", "macc"}
    assert 0.0 <= rep.values["oa"] <= 1.0


def test_evaluate_names_the_cloud_with_non_finite_output():
    ds = tasks.gen_dataset(tasks.DatasetSpec(task="cls", points=32, train_clouds=1, test_clouds=3, seed=1))
    cfg = net.NetworkConfig(levels=[net.LevelSpec(4, 1, 1.0)], head=net.ClassificationHead(3), k=4,
                            in_channels=ds.test[0].channels)
    network = net.build_network(cfg, nn.Rng(0))
    ds.test[1].features[:] = 1e308  # finite inputs whose sums overflow
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="cloud 1 "):
        tasks.evaluate(network, ds.test, "cls")


def test_chamfer_loss_gradcheck():
    rng = np.random.default_rng(5)
    pred = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
    target = rng.normal(size=(9, 3))
    err = nn.check_gradient(lambda: tasks.chamfer_loss(pred, target), [pred])
    # correspondences are frozen per evaluation; keep h small relative to spacing
    assert err < 1e-4


def test_recon_training_runs_and_loss_decreases():
    spec = tasks.DatasetSpec(task="recon", points=64, train_clouds=8, test_clouds=4,
                             noise=0.05, seed=0)
    ds = tasks.gen_dataset(spec)
    cfg = net.NetworkConfig(
        levels=[net.LevelSpec(8, 1, 1.0), net.LevelSpec(12, 1, 0.5)],
        head=net.DenseHead(3), k=4, in_channels=3)
    network = net.build_network(cfg, nn.Rng(0))
    _, log = tasks.train(network, ds, tasks.Schedule(base_lr=0.02, epochs=4),
                         epochs=4, batch=2, rng=nn.Rng(1))
    assert log[-1]["loss"] < log[0]["loss"]
    rep = tasks.evaluate(network, ds.test, "recon", targets=ds.test_targets)
    assert set(rep.values) == {"cd", "acc", "cp", "f1"}
    assert rep.values["cd"] >= 0
    assert all(0 <= rep.values[k] <= 1 for k in ("acc", "cp", "f1"))


def test_default_tau_is_twice_mean_spacing():
    gt = np.array([[0.0, 0, 0], [1.0, 0, 0], [3.0, 0, 0]])
    # nearest-neighbor spacings: 1, 1, 2 -> mean 4/3
    assert tasks.default_tau(gt) == pytest.approx(8 / 3)


def dense_metrics(pred, gt, tau=None):
    """The metrics as full distance matrices: (cd, tau, acc, cp)."""
    d2 = ((pred[:, None, :] - gt[None, :, :]) ** 2).sum(axis=2)
    cd = 0.5 * (np.sqrt(d2.min(axis=1)).mean() + np.sqrt(d2.min(axis=0)).mean())
    self_d2 = ((gt[:, None, :] - gt[None, :, :]) ** 2).sum(axis=2)
    np.fill_diagonal(self_d2, np.inf)
    if tau is None:
        tau = 2.0 * float(np.sqrt(self_d2.min(axis=1)).mean())
    acc = float((np.sqrt(d2.min(axis=1)) <= tau).mean())
    cp = float((np.sqrt(d2.min(axis=0)) <= tau).mean())
    return cd, tau, acc, cp


@pytest.mark.parametrize("seed", range(4))
def test_recon_metrics_match_dense_formulas(seed):
    rng = np.random.default_rng(40 + seed)
    gt = rng.normal(size=(int(rng.integers(30, 600)), 3))
    if seed % 2:
        gt = np.round(np.concatenate([gt, gt[::3], gt[::5]]), 1)  # duplicate targets
    pred = gt[rng.integers(0, len(gt), int(rng.integers(20, 400)))]
    pred = pred + rng.normal(scale=0.05, size=pred.shape)
    cd, tau, acc, cp = dense_metrics(pred, gt)
    # the search sums the squares in its own order: last-bit differences only
    assert tasks.chamfer(pred, gt) == pytest.approx(cd, rel=1e-12, abs=0)
    assert tasks.default_tau(gt) == pytest.approx(tau, rel=1e-12, abs=0)
    assert tasks.occupancy_metrics(pred, gt, tau)[:2] == (acc, cp)


def test_default_tau_counts_duplicates_as_zero_spacing():
    gt = np.array([[0.0, 0, 0], [0.0, 0, 0], [3.0, 0, 0]])
    # spacings 0, 0 (each duplicate sees the other) and 3 -> mean 1
    assert tasks.default_tau(gt) == 2.0
    assert tasks.default_tau(gt[:1]) == np.inf
    with pytest.raises(ValueError):
        tasks.default_tau(np.zeros((0, 3)))


def test_recon_metrics_with_nan_predictions_follow_the_dense_formulas():
    rng = np.random.default_rng(5)
    gt = rng.normal(size=(200, 3))
    pred = gt[:120] + rng.normal(scale=0.01, size=(120, 3))
    pred[[4, 77]] = np.nan
    tau = tasks.default_tau(gt)
    assert np.isnan(tasks.chamfer(pred, gt))
    acc, cp, f1 = tasks.occupancy_metrics(pred, gt, tau)
    # NaN rows count as misses; every target then sees a NaN distance
    assert (acc, cp) == dense_metrics(pred, gt, tau)[2:]
    assert acc == pytest.approx(118 / 120) and cp == 0.0 and f1 == 0.0


def test_chamfer_loss_with_nan_prediction_stops_training():
    rng = np.random.default_rng(6)
    tgt = rng.normal(size=(40, 3))
    pred = tgt[:30].copy()
    pred[3, 0] = np.nan
    assert not np.isfinite(tasks.chamfer_loss(Tensor(pred), tgt).data)
    spec = tasks.DatasetSpec(task="recon", points=64, train_clouds=2, test_clouds=0, seed=0)
    ds = tasks.gen_dataset(spec)
    cfg = net.NetworkConfig(
        levels=[net.LevelSpec(8, 1, 1.0), net.LevelSpec(12, 1, 0.5)],
        head=net.DenseHead(3), k=4, in_channels=3)
    network = net.build_network(cfg, nn.Rng(0))
    network.head_fc2.b.data[:] = np.nan
    with pytest.raises(tasks.TrainingDiverged):
        tasks.train(network, ds, tasks.Schedule(epochs=1), epochs=1, batch=2, rng=nn.Rng(0))


def test_occupancy_rejects_empty_and_bad_tau():
    gt = np.zeros((2, 3))
    with pytest.raises(ValueError):
        tasks.occupancy_metrics(np.zeros((0, 3)), gt, 0.1)
    with pytest.raises(ValueError):
        tasks.occupancy_metrics(gt, gt, 0.0)


def test_recon_evaluate_searches_once_per_direction_and_matches_the_metrics(monkeypatch):
    spec = tasks.DatasetSpec(task="recon", points=48, train_clouds=2, test_clouds=3, noise=0.05, seed=1)
    ds = tasks.gen_dataset(spec)
    cfg = net.NetworkConfig(levels=[net.LevelSpec(6, 1, 1.0)], head=net.DenseHead(3), k=4, in_channels=3)
    network = net.build_network(cfg, nn.Rng(2))
    calls = []
    search = tasks.nearest

    def counted(sources, queries, exclude_self=False):
        calls.append(exclude_self)
        return search(sources, queries, exclude_self=exclude_self)

    monkeypatch.setattr(tasks, "nearest", counted)
    rep = tasks.evaluate(network, ds.test, "recon", targets=ds.test_targets)
    # per cloud: prediction -> target, target -> prediction, and default_tau's self search
    assert calls.count(False) == 2 * len(ds.test)
    assert calls.count(True) == len(ds.test)
    monkeypatch.setattr(tasks, "nearest", search)
    cds, accs, cps, f1s = [], [], [], []
    with autodiff.no_grad():
        for cloud, target in zip(ds.test, ds.test_targets):
            pred = cloud.positions + net.forward_dense(network, cloud).data
            cds.append(tasks.chamfer(pred, target))
            a, c, f = tasks.occupancy_metrics(pred, target, tasks.default_tau(target))
            accs.append(a)
            cps.append(c)
            f1s.append(f)
    assert rep.values == {"cd": float(np.mean(cds)), "acc": float(np.mean(accs)),
                          "cp": float(np.mean(cps)), "f1": float(np.mean(f1s))}
