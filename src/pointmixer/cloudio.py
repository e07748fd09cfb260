"""ASCII cloud files and dataset directories.

A cloud file starts with ``pmcloud <N> <C> <has_labels:0|1>`` followed by N
lines of ``x y z f1..fC [label]``. Values are written with 17 significant
digits, so a write/read round-trip reproduces every float64 exactly.

A dataset directory holds ``manifest.txt`` plus ``train/``, ``test/`` (and
``train_targets/``, ``test_targets/`` for reconstruction) cloud files.
"""

from __future__ import annotations

import os

import numpy as np

from .geom import PointCloud
from .tasks import Dataset, DatasetSpec

__all__ = ["write_cloud", "read_cloud", "write_dataset", "read_dataset"]


def _fmt_row(values) -> str:
    return " ".join("%.17g" % v for v in values)


def write_cloud(path, cloud: PointCloud):
    has_labels = 1 if cloud.labels is not None else 0
    lines = [f"pmcloud {cloud.n} {cloud.channels} {has_labels}"]
    for i in range(cloud.n):
        row = _fmt_row(cloud.positions[i])
        if cloud.channels:
            row += " " + _fmt_row(cloud.features[i])
        if has_labels:
            row += f" {int(cloud.labels[i])}"
        lines.append(row)
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


_CHUNK = 256  # point lines converted at a time, which bounds the temporary strings


def _parse_body(path, rows: list[str], n: int, c: int, has_labels: int):
    """Arrays from the n point lines ``rows``. Each line's field count is
    checked as it is split; the fields of a chunk of lines then convert
    together with Python's ``float`` (labels with ``int``), so values equal
    a line-by-line parse bit for bit. Raises ValueError for the first chunk
    with a fault: its first line with the wrong count, else the value that
    does not convert."""
    expected = 3 + c + has_labels
    values = np.empty((n, 3 + c))
    labels = np.empty(n, dtype=np.int64) if has_labels else None
    for lo in range(0, n, _CHUNK):
        hi = min(lo + _CHUNK, n)
        fields = []
        for i in range(lo, hi):
            parts = rows[i].split() if i < len(rows) else []
            if len(parts) != expected:
                raise ValueError(f"{path}: line {i + 2} has {len(parts)} fields, expected {expected}")
            fields += parts
        if has_labels:
            chunk_labels = fields[expected - 1 :: expected]
            del fields[expected - 1 :: expected]
        values[lo:hi] = np.fromiter(map(float, fields), np.float64, len(fields)).reshape(-1, 3 + c)
        if has_labels:
            labels[lo:hi] = list(map(int, chunk_labels))
    return values[:, :3].copy(), values[:, 3:].copy(), labels


def read_cloud(path, num_classes: int | None = None) -> PointCloud:
    """Parse and validate one cloud file; with ``num_classes`` every label
    must lie in ``[0, num_classes)``. Raises ValueError naming the file."""
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().split()
        if len(header) != 4 or header[0] != "pmcloud":
            raise ValueError(f"{path}: not a pmcloud file")
        n, c, has_labels = int(header[1]), int(header[2]), int(header[3])
        if has_labels not in (0, 1) or n < 1 or c < 0:
            raise ValueError(f"{path}: malformed header")
        expected = 3 + c + has_labels
        if 2 * n * expected > os.fstat(fh.fileno()).st_size:  # a field takes >= 2 bytes: refuse before allocating
            raise ValueError(f"{path}: header claims {n} points of {expected} fields, more than the file holds")
        # the n point lines, the line after them, and the unread rest
        lines = fh.read().split("\n", n + 1)
    positions, features, labels = _parse_body(path, lines[:n], n, c, has_labels)
    if len(lines) > n and lines[n].strip():
        raise ValueError(f"{path}: trailing data after {n} points")
    cloud = PointCloud(positions, features, labels)
    try:
        cloud.validate(num_classes)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None
    return cloud


def _target_cloud(points: np.ndarray) -> PointCloud:
    return PointCloud(points, np.zeros((len(points), 0)))


def write_dataset(out_dir, dataset: Dataset):
    """Write manifest + per-split cloud files; byte-identical given the same
    dataset (deterministic formatting, sorted layout)."""
    spec = dataset.spec
    os.makedirs(out_dir, exist_ok=True)
    manifest = [f"pmdataset {spec.task} {spec.classes} {spec.points} {spec.noise!r} {spec.seed}"]
    splits = [("train", dataset.train), ("test", dataset.test)]
    if spec.task == "recon":
        splits += [
            ("train_targets", [_target_cloud(t) for t in dataset.train_targets]),
            ("test_targets", [_target_cloud(t) for t in dataset.test_targets]),
        ]
    for split, clouds in splits:
        split_dir = os.path.join(out_dir, split)
        os.makedirs(split_dir, exist_ok=True)
        for i, cloud in enumerate(clouds):
            rel = f"{split}/cloud_{i:05d}.pmc"
            write_cloud(os.path.join(out_dir, rel), cloud)
            manifest.append(rel)
    with open(os.path.join(out_dir, "manifest.txt"), "w", encoding="ascii") as fh:
        fh.write("\n".join(manifest) + "\n")


def read_dataset(in_dir) -> Dataset:
    manifest_path = os.path.join(in_dir, "manifest.txt")
    with open(manifest_path, "r", encoding="ascii") as fh:
        header = fh.readline().split()
        if len(header) != 6 or header[0] != "pmdataset":
            raise ValueError(f"{manifest_path}: not a dataset manifest")
        spec = DatasetSpec(
            task=header[1],
            classes=int(header[2]),
            points=int(header[3]),
            noise=float(header[4]),
            seed=int(header[5]),
        )
        entries = [line.strip() for line in fh if line.strip()]
    splits: dict[str, list] = {"train": [], "test": [], "train_targets": [], "test_targets": []}
    classes = None if spec.task == "recon" else spec.classes  # recon ignores the class count
    for rel in entries:
        split = rel.split("/", 1)[0]
        if split not in splits:
            raise ValueError(f"{manifest_path}: unknown split in entry {rel!r}")
        splits[split].append(read_cloud(os.path.join(in_dir, rel), classes))
    spec.train_clouds = len(splits["train"])
    spec.test_clouds = len(splits["test"])
    if spec.task == "recon":
        return Dataset(
            spec,
            splits["train"],
            splits["test"],
            [c.positions for c in splits["train_targets"]],
            [c.positions for c in splits["test_targets"]],
        )
    return Dataset(spec, splits["train"], splits["test"])
