"""Synthetic datasets, losses, metrics, and the deterministic training loop.

Desk-scale stand-ins for the usual benchmarks: classification tells apart
sphere / cube / torus surfaces under random rigid pose and jitter,
segmentation labels the parts of two-primitive composites, reconstruction
denoises a perturbed subsample back onto the clean surface. Everything is
fully determined by the dataset seed.

Classification and segmentation clouds carry 6 feature channels (position
plus the analytic, pose-rotated surface normal); reconstruction inputs carry
position only, since their surfaces are already perturbed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import net as net_mod
from .autodiff import Tensor, no_grad, reduce_sum, gather_rows, _make
from .geom import PointCloud, level_sizes, nearest
from .nn import Rng, cosine_lr, sgd_step

__all__ = [
    "DatasetSpec",
    "Dataset",
    "MetricReport",
    "Schedule",
    "TrainingDiverged",
    "NonFiniteOutput",
    "CloudsTooSmall",
    "gen_dataset",
    "cross_entropy",
    "chamfer",
    "occupancy_metrics",
    "segmentation_metrics",
    "default_tau",
    "train",
    "evaluate",
]

TASKS = ("cls", "seg", "recon")


@dataclass
class DatasetSpec:
    task: str = "cls"
    classes: int = 3  # classes (cls) or parts (seg); ignored for recon
    points: int = 256
    train_clouds: int = 120
    test_clouds: int = 30
    noise: float = 0.02
    seed: int = 0

    def validate(self):
        if self.task not in TASKS:
            raise ValueError(f"unknown task {self.task!r}")
        if self.points < 8 or self.train_clouds < 1 or self.test_clouds < 0:
            raise ValueError("degenerate dataset spec")
        if self.task == "cls" and not (2 <= self.classes <= 3):
            raise ValueError("classification supports 2 or 3 primitive classes")
        if self.task == "seg" and self.classes != 2:
            raise ValueError("segmentation composites have exactly 2 parts")
        if self.noise < 0:
            raise ValueError("noise must be non-negative")


@dataclass
class Dataset:
    spec: DatasetSpec
    train: list[PointCloud]
    test: list[PointCloud]
    train_targets: list[np.ndarray] | None = None  # recon only
    test_targets: list[np.ndarray] | None = None


# -- primitive surface samplers ----------------------------------------------
# each returns (points, unit surface normals); normals are analytic, so the
# generated clouds can ship them as extra feature channels


def _sample_sphere(rng: Rng, n: int, radius: float = 1.0):
    v = rng.normal(shape=(n, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return radius * v, v.copy()


_OTHER_AXES = np.array([[1, 2], [0, 2], [0, 1]])  # row a: the two axes besides a


def _sample_cube(rng: Rng, n: int, half: float = 0.8):
    face = rng.integers(0, 6, n)
    uv = rng.uniform(-half, half, (n, 2))
    rows, axis = np.arange(n), face % 3
    normals = np.zeros((n, 3))
    normals[rows, axis] = np.where(face < 3, 1.0, -1.0)
    pts = normals * half
    pts[rows[:, None], _OTHER_AXES[axis]] = uv
    return pts, normals


def _sample_torus(rng: Rng, n: int, ring: float = 0.85, tube: float = 0.35):
    # rejection on the poloidal angle keeps the surface density uniform
    pts = np.zeros((n, 3))
    normals = np.zeros((n, 3))
    count = 0
    while count < n:
        m = 2 * (n - count)
        theta = rng.uniform(0, 2 * np.pi, m)
        keep = rng.uniform(0, 1, m) < (1 + (tube / ring) * np.cos(theta)) / (1 + tube / ring)
        theta = theta[keep][: n - count]
        phi = rng.uniform(0, 2 * np.pi, len(theta))
        r = ring + tube * np.cos(theta)
        sl = slice(count, count + len(theta))
        pts[sl] = np.stack([r * np.cos(phi), r * np.sin(phi), tube * np.sin(theta)], axis=1)
        normals[sl] = np.stack(
            [np.cos(theta) * np.cos(phi), np.cos(theta) * np.sin(phi), np.sin(theta)], axis=1
        )
        count += len(theta)
    return pts, normals


_PRIMITIVES = (_sample_sphere, _sample_cube, _sample_torus)


def _random_rotation(rng: Rng) -> np.ndarray:
    q = rng.normal(shape=4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def _jitter(rng: Rng, pts: np.ndarray, sigma: float) -> np.ndarray:
    if sigma <= 0:
        return pts
    eps = rng.normal(scale=sigma, shape=pts.shape)
    norm = np.linalg.norm(eps, axis=1, keepdims=True)
    cap = 2.5 * sigma
    eps *= np.minimum(1.0, cap / np.maximum(norm, 1e-300))
    return pts + eps


def _posed(rng: Rng, pts: np.ndarray, normals: np.ndarray, sigma: float):
    rot = _random_rotation(rng)
    shift = rng.uniform(-0.2, 0.2, 3)
    return _jitter(rng, pts @ rot.T + shift, sigma), normals @ rot.T


def _gen_cls_cloud(rng: Rng, spec: DatasetSpec, class_id: int) -> PointCloud:
    pts, normals = _PRIMITIVES[class_id](rng, spec.points)
    pts, normals = _posed(rng, pts, normals, spec.noise)
    feats = np.concatenate([pts, normals], axis=1)
    return PointCloud(pts, feats, labels=np.full(spec.points, class_id))


def _gen_seg_cloud(rng: Rng, spec: DatasetSpec) -> PointCloud:
    n0 = spec.points // 2
    n1 = spec.points - n0
    a, na = _sample_sphere(rng, n0, radius=0.6)
    b, nb = _sample_cube(rng, n1, half=0.5)
    pts = np.concatenate([a + np.array([-0.8, 0.0, 0.0]), b + np.array([0.8, 0.0, 0.0])])
    normals = np.concatenate([na, nb])
    labels = np.concatenate([np.zeros(n0, dtype=np.int64), np.ones(n1, dtype=np.int64)])
    order = rng.permutation(spec.points)
    pts, normals = _posed(rng, pts[order], normals[order], spec.noise)
    return PointCloud(pts, np.concatenate([pts, normals], axis=1), labels=labels[order])


def _gen_recon_pair(rng: Rng, spec: DatasetSpec) -> tuple[PointCloud, np.ndarray]:
    shape = int(rng.integers(0, 3))
    target, tn = _PRIMITIVES[shape](rng, spec.points)
    target, _ = _posed(rng, target, tn, sigma=0.0)
    keep = rng.permutation(spec.points)[: max(8, spec.points // 2)]
    noisy = target[keep] + rng.normal(scale=max(spec.noise, 1e-6), shape=(len(keep), 3))
    return PointCloud(noisy, noisy.copy()), target


def gen_dataset(spec: DatasetSpec) -> Dataset:
    """Deterministic train/test generation; the two splits consume disjoint
    child streams of the spec seed."""
    spec.validate()
    train_rng, test_rng = Rng(spec.seed).spawn(2)

    def make_split(rng: Rng, count: int):
        clouds, targets = [], []
        for i in range(count):
            if spec.task == "cls":
                clouds.append(_gen_cls_cloud(rng, spec, i % spec.classes))
            elif spec.task == "seg":
                clouds.append(_gen_seg_cloud(rng, spec))
            else:
                cloud, target = _gen_recon_pair(rng, spec)
                clouds.append(cloud)
                targets.append(target)
        return clouds, targets

    train, train_t = make_split(train_rng, spec.train_clouds)
    test, test_t = make_split(test_rng, spec.test_clouds)
    if spec.task == "recon":
        return Dataset(spec, train, test, train_t, test_t)
    return Dataset(spec, train, test)


# -- losses --------------------------------------------------------------------


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean negative log-softmax of the true class; the analytic gradient is
    (softmax - one_hot) / count."""
    z = logits.data.reshape(-1, logits.shape[-1])
    y = np.atleast_1d(np.asarray(labels, dtype=np.int64))
    if len(y) != len(z):
        raise ValueError("label count does not match logit rows")
    if y.min() < 0 or y.max() >= z.shape[1]:
        raise ValueError("label out of range")
    m = z.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(z - m).sum(axis=1))
    loss = float(np.mean(lse - z[np.arange(len(y)), y]))

    def bwd(g):
        p = np.exp(z - m)
        p /= p.sum(axis=1, keepdims=True)
        p[np.arange(len(y)), y] -= 1.0
        logits._accumulate((float(g) * p / len(y)).reshape(logits.shape))

    return _make(np.float64(loss), (logits,), bwd, "cross_entropy")


def chamfer_loss(pred: Tensor, target: np.ndarray) -> Tensor:
    """Differentiable squared chamfer: correspondence indices are frozen from
    the current prediction, gradients flow through the coordinates."""
    tgt = np.asarray(target, dtype=np.float64)
    idx_ab, _ = nearest(tgt, pred.data)
    idx_ba, _ = nearest(pred.data, tgt)
    d_ab = pred - Tensor(tgt[idx_ab])
    d_ba = gather_rows(pred, idx_ba) - Tensor(tgt)
    fwd = reduce_sum(d_ab * d_ab) * (1.0 / len(pred.data))
    bwd = reduce_sum(d_ba * d_ba) * (1.0 / len(tgt))
    return (fwd + bwd) * 0.5


# -- metrics -------------------------------------------------------------------


def _nearest_sq(a, b) -> tuple[np.ndarray, np.ndarray]:
    """Squared distance from each point of ``a`` to its nearest in ``b``,
    and from each point of ``b`` to its nearest in ``a``."""
    if len(a) == 0 or len(b) == 0:
        raise ValueError("empty point set")
    return nearest(b, a)[1], nearest(a, b)[1]


def _chamfer_from(ab: np.ndarray, ba: np.ndarray) -> float:
    return 0.5 * (np.sqrt(ab).mean() + np.sqrt(ba).mean())


def _occupancy_from(pred_gt: np.ndarray, gt_pred: np.ndarray, tau: float) -> tuple[float, float, float]:
    if tau <= 0:
        raise ValueError("tau must be positive")
    acc = float((np.sqrt(pred_gt) <= tau).mean())
    cp = float((np.sqrt(gt_pred) <= tau).mean())
    f1 = 0.0 if acc + cp == 0 else 2 * acc * cp / (acc + cp)
    return acc, cp, f1


def chamfer(a, b) -> float:
    """Symmetric mean nearest-neighbor (non-squared) distance."""
    return _chamfer_from(*_nearest_sq(np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)))


def default_tau(gt) -> float:
    """Twice the mean nearest-neighbor spacing of the reference cloud."""
    gt = np.asarray(gt, dtype=np.float64)
    if len(gt) == 0:
        raise ValueError("empty point set")
    _, d2 = nearest(gt, gt, exclude_self=True)
    return 2.0 * float(np.sqrt(d2).mean())


def occupancy_metrics(pred, gt, tau: float) -> tuple[float, float, float]:
    """(accuracy, completeness, F1) at threshold tau."""
    pred = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    return _occupancy_from(*_nearest_sq(pred, gt), tau)


def segmentation_metrics(pred_labels, gt_labels, num_classes: int) -> tuple[float, float, float]:
    """(mIoU, mAcc, OA). IoU averages over classes present in gt or pred;
    mAcc averages recall over classes present in gt."""
    pred = np.asarray(pred_labels, dtype=np.int64)
    gt = np.asarray(gt_labels, dtype=np.int64)
    if pred.shape != gt.shape:
        raise ValueError("label shape mismatch")
    if len(pred) and (min(pred.min(), gt.min()) < 0 or max(pred.max(), gt.max()) >= num_classes):
        raise ValueError("label out of range")
    conf = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(conf, (gt, pred), 1)
    tp = np.diag(conf).astype(np.float64)
    fp = conf.sum(axis=0) - tp
    fn = conf.sum(axis=1) - tp
    present_union = (tp + fp + fn) > 0
    iou = tp[present_union] / (tp + fp + fn)[present_union]
    present_gt = conf.sum(axis=1) > 0
    recall = tp[present_gt] / conf.sum(axis=1)[present_gt]
    oa = float(tp.sum() / max(1, conf.sum()))
    return float(iou.mean()), float(recall.mean()), oa


@dataclass
class MetricReport:
    values: dict[str, float]

    def to_kv(self) -> str:
        return "\n".join(f"{k}={self.values[k]:.6f}" for k in self.values)

    def to_csv(self) -> str:
        keys = list(self.values)
        return ",".join(keys) + "\n" + ",".join(f"{self.values[k]:.6f}" for k in keys)


# -- training -------------------------------------------------------------------


class TrainingDiverged(RuntimeError):
    pass


class CloudsTooSmall(ValueError):
    """``train`` met clouds with too few points for the network's k."""


class NonFiniteOutput(ValueError):
    """``evaluate`` met a network output holding NaN or inf."""


@dataclass
class Schedule:
    kind: str = "cosine"
    base_lr: float = 0.05
    epochs: int = 30

    def lr(self, epoch: int) -> float:
        if self.kind == "cosine":
            return cosine_lr(epoch, self.epochs, self.base_lr)
        raise ValueError(f"unknown schedule {self.kind!r}")


def _forward_loss(network, cloud, plan, target, task, training, rng):
    if task == "cls":
        logits = net_mod.forward_classify(network, cloud, plan=plan, training=training, rng=rng)
        loss = cross_entropy(logits, [int(cloud.labels[0])])
        correct = float(np.argmax(logits.data) == cloud.labels[0])
        return loss, correct
    if task == "seg":
        logits = net_mod.forward_dense(network, cloud, plan=plan)
        loss = cross_entropy(logits, cloud.labels)
        oa = float((np.argmax(logits.data, axis=1) == cloud.labels).mean())
        return loss, oa
    offsets = net_mod.forward_dense(network, cloud, plan=plan)
    pred = Tensor(cloud.positions) + offsets
    loss = chamfer_loss(pred, target)
    return loss, float(loss.data)


def train(
    network,
    dataset: Dataset,
    schedule: Schedule,
    epochs: int,
    batch: int,
    rng: Rng,
    momentum: float = 0.9,
    weight_decay: float = 1e-4,
    dropout_rng: Rng | None = None,
):
    """Deterministic mini-batch training; per-cloud geometry is built once and
    cached. Returns the trained network and one log row per epoch."""
    if epochs > 0:  # refuse a schedule that ends early before any step
        try:
            schedule.lr(epochs - 1)
        except ValueError as e:
            raise ValueError(f"a {schedule.epochs}-epoch schedule cannot train {epochs} epochs: {e}") from None
    task = dataset.spec.task
    cfg = network.config
    min_points = min(c.n for c in dataset.train)
    if min_points < 2 * cfg.k:
        raise CloudsTooSmall(
            f"clouds of {min_points} points are too small for k={cfg.k} "
            "(need at least 2k points per cloud)"
        )
    sizes = level_sizes(min_points, [spec.ratio for spec in cfg.levels])
    for li, (spec, n) in enumerate(zip(cfg.levels, sizes)):  # a token MLP mixes exactly k neighbours
        if cfg.variant == "tokenmlp" and cfg.use_intra and spec.blocks and n < cfg.k:
            raise CloudsTooSmall(f"clouds of {min_points} points keep {n} points at level {li}, "
                                 f"too few for token-MLP blocks with k={cfg.k}")
    plans = [None] * len(dataset.train)
    targets = dataset.train_targets if task == "recon" else [None] * len(dataset.train)
    drop_rng = dropout_rng or Rng(0)
    log = []
    for epoch in range(epochs):
        lr = schedule.lr(epoch)
        order = rng.permutation(len(dataset.train))
        losses, metrics = [], []
        for lo in range(0, len(order), batch):
            chunk = order[lo : lo + batch]
            network.store.zero_grad()
            for idx in chunk:
                cloud = dataset.train[idx]
                if plans[idx] is None:
                    plans[idx] = network.prepare(cloud.positions)
                loss, metric = _forward_loss(
                    network, cloud, plans[idx], targets[idx], task, True, drop_rng
                )
                if not np.isfinite(loss.data):
                    raise TrainingDiverged(
                        f"non-finite loss at epoch {epoch}, cloud {int(idx)}"
                    )
                loss.backward()
                losses.append(float(loss.data))
                metrics.append(metric)
            network.store.scale_grads(1.0 / len(chunk))
            sgd_step(network.store, lr, momentum, weight_decay)
        log.append(
            {
                "epoch": epoch,
                "lr": lr,
                "loss": float(np.mean(losses)),
                "train_metric": float(np.mean(metrics)),
            }
        )
    return network, log


def _finite_output(out: Tensor, i: int) -> np.ndarray:
    if not np.all(np.isfinite(out.data)):
        raise NonFiniteOutput(f"non-finite network output on cloud {i} of the split")
    return out.data


def evaluate(network, clouds, task: str, num_classes: int = 0,
             targets=None) -> MetricReport:
    """Aggregate metrics over a split (confusions pooled across clouds).

    Raises NonFiniteOutput (a ValueError) naming the cloud, by its index in
    ``clouds``, when the network output holds a non-finite value: argmax of
    NaN logits would otherwise report class 0 as a prediction."""
    with no_grad():
        if task == "cls":
            correct_cloud, correct_class = [], {}
            for i, cloud in enumerate(clouds):
                pred = int(np.argmax(_finite_output(net_mod.forward_classify(network, cloud), i)))
                label = int(cloud.labels[0])
                correct_cloud.append(pred == label)
                correct_class.setdefault(label, []).append(pred == label)
            oa = float(np.mean(correct_cloud))
            macc = float(np.mean([np.mean(v) for v in correct_class.values()]))
            return MetricReport({"oa": oa, "macc": macc})
        if task == "seg":
            preds, gts = [], []
            for i, cloud in enumerate(clouds):
                preds.append(np.argmax(_finite_output(net_mod.forward_dense(network, cloud), i), axis=1))
                gts.append(cloud.labels)
            miou, macc, oa = segmentation_metrics(
                np.concatenate(preds), np.concatenate(gts), num_classes
            )
            return MetricReport({"miou": miou, "macc": macc, "oa": oa})
        if task == "recon":
            cds, accs, cps, f1s = [], [], [], []
            for i, (cloud, target) in enumerate(zip(clouds, targets, strict=True)):
                pred = cloud.positions + _finite_output(net_mod.forward_dense(network, cloud), i)
                # one pair of nearest searches serves chamfer and occupancy
                pred_gt, gt_pred = _nearest_sq(pred, target)
                cds.append(_chamfer_from(pred_gt, gt_pred))
                a, c, f = _occupancy_from(pred_gt, gt_pred, default_tau(target))
                accs.append(a)
                cps.append(c)
                f1s.append(f)
            return MetricReport(
                {
                    "cd": float(np.mean(cds)),
                    "acc": float(np.mean(accs)),
                    "cp": float(np.mean(cps)),
                    "f1": float(np.mean(f1s)),
                }
            )
    raise ValueError(f"unknown task {task!r}")
