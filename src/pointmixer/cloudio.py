"""ASCII cloud files and dataset directories.

A cloud file starts with ``pmcloud <N> <C> <has_labels:0|1>`` followed by N
lines of ``x y z f1..fC [label]``. Values are written with 17 significant
digits, so a write/read round-trip reproduces every float64 exactly.

A dataset directory holds ``manifest.txt`` plus ``train/``, ``test/`` (and
``train_targets/``, ``test_targets/`` for reconstruction) cloud files.
"""

from __future__ import annotations

import itertools
import os

import numpy as np

from .geom import PointCloud
from .tasks import TASKS, Dataset, DatasetSpec

__all__ = ["write_cloud", "read_cloud", "write_dataset", "read_dataset"]


def write_cloud(path, cloud: PointCloud):
    """One line per point, ``%.17g`` per value and ``%d`` per label, built
    by one ``%`` format over the whole cloud's values."""
    has_labels = 1 if cloud.labels is not None else 0
    rows = np.concatenate([cloud.positions, cloud.features], axis=1).tolist()
    if has_labels:
        for row, label in zip(rows, cloud.labels.tolist()):
            row.append(label)
    line = " ".join(["%.17g"] * (3 + cloud.channels) + ["%d"] * has_labels)
    body = "\n".join([line] * cloud.n) % tuple(itertools.chain.from_iterable(rows))
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"pmcloud {cloud.n} {cloud.channels} {has_labels}\n{body}\n")


_CHUNK = 256  # point lines converted at a time, which bounds the temporary strings
_INT64 = np.iinfo(np.int64)


def _parse_body(path, rows: list[str], n: int, c: int, has_labels: int):
    """Arrays from the n point lines ``rows``. Each line's field count is
    checked as it is split; the fields of a chunk of lines then convert
    together with Python's ``float`` (labels with ``int``), so values equal
    a line-by-line parse bit for bit. Raises ValueError naming the file and
    the line for the first chunk with a fault: its first line with the wrong
    count, else its first line with a value that does not convert or a
    label outside int64."""
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
        try:
            values[lo:hi] = np.fromiter(map(float, fields), np.float64, len(fields)).reshape(-1, 3 + c)
            if has_labels:
                labels[lo:hi] = list(map(int, chunk_labels))
        except (ValueError, OverflowError):
            raise _conversion_fault(path, rows, lo, hi, has_labels) from None
    return values[:, :3].copy(), values[:, 3:].copy(), labels


def _conversion_fault(path, rows: list[str], lo: int, hi: int, has_labels: int) -> ValueError:
    """The error for the first of the lines ``lo:hi`` (whose field counts
    are right) with a value that does not convert."""
    for i in range(lo, hi):
        parts = rows[i].split()
        try:
            for field in parts[: len(parts) - has_labels]:
                float(field)
            if has_labels and not _INT64.min <= int(parts[-1]) <= _INT64.max:
                return ValueError(f"{path}: line {i + 2}: label {parts[-1]} does not fit in int64")
        except ValueError as e:
            return ValueError(f"{path}: line {i + 2}: {e}")
    return ValueError(f"{path}: lines {lo + 2} to {hi + 1} do not convert")


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
    if any(rest.strip() for rest in lines[n:]):  # blank lines and spaces may follow, nothing else
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
    if spec.task not in TASKS:
        raise ValueError(f"{manifest_path}: unknown task {spec.task!r}")
    splits: dict[str, list] = {"train": [], "test": [], "train_targets": [], "test_targets": []}
    classes = None if spec.task == "recon" else spec.classes  # recon ignores the class count
    first = None  # (path, channels) of the first train or test cloud
    for rel in entries:
        split = rel.split("/", 1)[0]
        if split not in splits:
            raise ValueError(f"{manifest_path}: unknown split in entry {rel!r}")
        if split.endswith("_targets") and spec.task != "recon":
            raise ValueError(f"{manifest_path}: entry {rel!r} is a reconstruction target, "
                             f"but the task is {spec.task!r}")
        path = os.path.join(in_dir, rel)
        cloud = read_cloud(path, classes)
        if split in ("train", "test"):  # one network input width; targets carry no features
            first = first or (path, cloud.channels)
            if cloud.channels != first[1]:
                raise ValueError(f"{path}: {cloud.channels} feature channels, but {first[0]} has {first[1]}")
        splits[split].append(cloud)
    spec.train_clouds = len(splits["train"])
    spec.test_clouds = len(splits["test"])
    if spec.task == "recon":
        for split in ("train", "test"):  # targets pair with clouds by position
            if len(splits[f"{split}_targets"]) != len(splits[split]):
                raise ValueError(f"{manifest_path}: {len(splits[f'{split}_targets'])} {split}_targets "
                                 f"for {len(splits[split])} {split} clouds")
        return Dataset(
            spec,
            splits["train"],
            splits["test"],
            [c.positions for c in splits["train_targets"]],
            [c.positions for c in splits["test_targets"]],
        )
    return Dataset(spec, splits["train"], splits["test"])
