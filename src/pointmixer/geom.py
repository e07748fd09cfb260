"""Deterministic point-set geometry kernels.

kNN index maps, their compressed-sparse inverses, farthest point sampling,
relative positions, and the resolution hierarchy the network reuses for
symmetric up-sampling. Everything here is exact and tie-stable: distances
tie-break by ascending point index, so identical inputs always produce
bit-identical index structures.

Every neighbour search (``knn``, ``nearest`` and the hierarchy fallbacks)
runs through one routine: a KD-tree proposes a few more candidates than
asked for, their squared distances are recomputed exactly and re-ranked,
and only rows that might hide a tie beyond the candidates fall back to a
dense search in bounded row blocks. No full N x M distance matrix is built.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

__all__ = [
    "PointCloud",
    "NeighborMap",
    "InverseNeighborMap",
    "Hierarchy",
    "HierarchyLevel",
    "knn",
    "knn_call_count",
    "nearest",
    "invert_map",
    "fps",
    "relative_positions",
    "build_hierarchy",
    "lexmin_index",
    "intra_influence",
    "inter_influence",
    "up_influence_inverse",
    "up_influence_trilinear",
]

_knn_calls = 0


def knn_call_count() -> int:
    """Total knn() invocations so far (instrumentation for decode audits)."""
    return _knn_calls


@dataclass
class PointCloud:
    """Positions plus per-point feature channels and optional labels."""

    positions: np.ndarray  # (N, 3)
    features: np.ndarray  # (N, C); C may be 0
    labels: np.ndarray | None = None  # (N,) ints

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=np.float64)
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64)

    @property
    def n(self) -> int:
        return self.positions.shape[0]

    @property
    def channels(self) -> int:
        return self.features.shape[1] if self.features.ndim == 2 else 0

    def validate(self, num_classes: int | None = None):
        if self.positions.ndim != 2 or self.positions.shape[1] != 3 or self.n < 1:
            raise ValueError("positions must be a non-empty (N, 3) array")
        if not np.all(np.isfinite(self.positions)):
            raise ValueError("non-finite coordinates")
        if self.features.shape[0] != self.n:
            raise ValueError("feature row count does not match positions")
        if not np.all(np.isfinite(self.features)):
            raise ValueError("non-finite features")
        if self.labels is not None:
            if self.labels.shape != (self.n,):
                raise ValueError("labels must be a flat (N,) array")
            if num_classes is not None and (self.labels.min() < 0 or self.labels.max() >= num_classes):
                raise ValueError("label out of range")


@dataclass
class NeighborMap:
    """Fixed-K index map: row q lists the k nearest source indices to query q,
    ascending by distance, distance ties broken by ascending index."""

    indices: np.ndarray  # (N, k) int64
    source_count: int

    def __post_init__(self):
        self.indices = np.asarray(self.indices, dtype=np.int64)

    @property
    def k(self) -> int:
        return self.indices.shape[1]

    @property
    def query_count(self) -> int:
        return self.indices.shape[0]


@dataclass
class InverseNeighborMap:
    """Compressed-sparse inverse of a NeighborMap.

    Row i (``indices[offsets[i]:offsets[i+1]]``) lists, ascending, every
    query j whose forward row contains i. Rows may be empty.
    """

    offsets: np.ndarray  # (source_count + 1,) int64
    indices: np.ndarray  # concatenated query indices

    def __post_init__(self):
        self.offsets = np.asarray(self.offsets, dtype=np.int64)
        self.indices = np.asarray(self.indices, dtype=np.int64)

    @property
    def source_count(self) -> int:
        return len(self.offsets) - 1

    def row(self, i: int) -> np.ndarray:
        return self.indices[self.offsets[i] : self.offsets[i + 1]]

    def row_lengths(self) -> np.ndarray:
        return np.diff(self.offsets)


_SLACK = 8  # extra tree candidates per row beyond k
_TIE_RTOL = 1e-12  # covers the tree's own rounding of a squared distance
_BLOCK = 1 << 20  # entries per row block of the dense fallback


def _dense_blocks(queries: np.ndarray, sources: np.ndarray):
    """Yield (lo, hi, squared distances of queries[lo:hi] to every source),
    so the dense fallback holds O(_BLOCK) entries at a time."""
    step = max(1, _BLOCK // len(sources))
    for lo in range(0, len(queries), step):
        hi = min(lo + step, len(queries))
        diff = queries[lo:hi, None, :] - sources[None, :, :]
        yield lo, hi, np.einsum("ijk,ijk->ij", diff, diff)


def _search(src: np.ndarray, qry: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices and squared distances of the k nearest sources per query, in
    (squared distance, index) order; bit-identical to a stable sort of the
    dense squared-distance rows. Inputs must be finite and ``k <= len(src)``.
    """
    idx = np.empty((len(qry), k), dtype=np.int64)
    d2 = np.empty((len(qry), k))
    width = k + _SLACK
    if len(src) <= width:
        dense = np.arange(len(qry))
    else:
        tree_d, cand = cKDTree(src).query(qry, k=width)
        diff = qry[:, None, :] - src[cand]
        cand_d2 = np.einsum("ijk,ijk->ij", diff, diff)
        order = np.lexsort((cand, cand_d2))[:, :k]
        idx[:] = np.take_along_axis(cand, order, axis=1)
        d2[:] = np.take_along_axis(cand_d2, order, axis=1)
        # every other source lies at least about as far as the last candidate;
        # a row whose k-th distance comes within rounding of it may miss a tie
        dense = np.flatnonzero(d2[:, -1] >= tree_d[:, -1] ** 2 * (1.0 - _TIE_RTOL))
    for lo, hi, block in _dense_blocks(qry[dense], src):
        order = np.argsort(block, axis=1, kind="stable")[:, :k]
        idx[dense[lo:hi]] = order
        d2[dense[lo:hi]] = np.take_along_axis(block, order, axis=1)
    return idx, d2


def knn(sources: PointCloud | np.ndarray, queries: PointCloud | np.ndarray, k: int) -> NeighborMap:
    """Exact k-nearest-neighbor index map under Euclidean distance.

    Rows sort ascending by distance with ties broken by ascending source
    index; equivalent to a brute-force distance sort regardless of size.
    """
    global _knn_calls
    src = sources.positions if isinstance(sources, PointCloud) else np.asarray(sources, dtype=np.float64)
    qry = queries.positions if isinstance(queries, PointCloud) else np.asarray(queries, dtype=np.float64)
    if src.ndim != 2 or qry.ndim != 2 or len(src) == 0 or len(qry) == 0:
        raise ValueError("empty input")
    if not (1 <= k <= len(src)):
        raise ValueError(f"k={k} out of range for {len(src)} source points")
    if not (np.all(np.isfinite(src)) and np.all(np.isfinite(qry))):
        raise ValueError("non-finite coordinates")
    _knn_calls += 1
    return NeighborMap(_search(src, qry, k)[0], source_count=len(src))


def nearest(sources, queries, exclude_self: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Index and squared distance of each query's nearest source: the argmin
    and min of the dense squared-distance rows, without building them.

    The lowest index wins ties. With ``exclude_self`` the queries are the
    sources and row i skips source i (but not its duplicates); a lone point
    then gets distance inf. Non-finite coordinates give what the dense min
    gives (NaN, or inf), so metrics report a diverged prediction instead of
    raising.
    """
    src = np.asarray(sources, dtype=np.float64)
    qry = np.asarray(queries, dtype=np.float64)
    if src.ndim != 2 or qry.ndim != 2 or len(src) == 0:
        raise ValueError("empty input")
    k = 2 if exclude_self else 1
    idx = np.empty(len(qry), dtype=np.int64)
    d2 = np.empty(len(qry))
    dense = ~np.all(np.isfinite(qry), axis=1)
    if len(src) < k or not np.all(np.isfinite(src)):
        dense[:] = True
    rows = np.flatnonzero(~dense)
    if len(rows):
        cand, cand_d2 = _search(src, qry[rows], k)
        skip = (cand[:, 0] == rows) if exclude_self else False  # row i's first pick is i
        idx[rows] = np.where(skip, cand[:, -1], cand[:, 0])
        d2[rows] = np.where(skip, cand_d2[:, -1], cand_d2[:, 0])
    rows = np.flatnonzero(dense)
    for lo, hi, block in _dense_blocks(qry[rows], src):
        r = np.arange(hi - lo)
        if exclude_self:
            block[r, rows[lo:hi]] = np.inf
        j = np.argmin(block, axis=1)
        idx[rows[lo:hi]] = j
        d2[rows[lo:hi]] = block[r, j]
    return idx, d2


def invert_map(m: NeighborMap) -> InverseNeighborMap:
    """CSR inverse: j appears in row i exactly when i appears in m's row j."""
    flat = m.indices.ravel()
    counts = np.bincount(flat, minlength=m.source_count)
    offsets = np.zeros(m.source_count + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    # stable sort on source index groups entries by source; within a group the
    # original flat position grows with the query index, keeping rows ascending
    order = np.argsort(flat, kind="stable")
    queries = np.repeat(np.arange(m.query_count, dtype=np.int64), m.k)
    return InverseNeighborMap(offsets, queries[order])


def fps(points: PointCloud | np.ndarray, m: int, start: int = 0) -> np.ndarray:
    """Greedy max-min farthest point sampling.

    The first pick is ``start``; each next pick maximizes the minimum
    distance to everything already selected, ties broken by ascending index.
    """
    pos = points.positions if isinstance(points, PointCloud) else np.asarray(points, dtype=np.float64)
    n = len(pos)
    if not (1 <= m <= n):
        raise ValueError(f"m={m} out of range for {n} points")
    if not (0 <= start < n):
        raise ValueError(f"start={start} out of range")
    selected = np.empty(m, dtype=np.int64)
    selected[0] = start
    mindist = np.einsum("ij,ij->i", pos - pos[start], pos - pos[start])
    for i in range(1, m):
        nxt = int(np.argmax(mindist))  # argmax returns the first (lowest-index) maximum
        selected[i] = nxt
        d = pos - pos[nxt]
        np.minimum(mindist, np.einsum("ij,ij->i", d, d), out=mindist)
    return selected


def relative_positions(
    queries: PointCloud | np.ndarray, sources: PointCloud | np.ndarray, m: NeighborMap
) -> np.ndarray:
    """(N, k, 3) array of p_query - p_neighbor for every map entry."""
    qry = queries.positions if isinstance(queries, PointCloud) else np.asarray(queries, dtype=np.float64)
    src = sources.positions if isinstance(sources, PointCloud) else np.asarray(sources, dtype=np.float64)
    if m.indices.size and (m.indices.min() < 0 or m.indices.max() >= len(src)):
        raise IndexError("neighbor index out of range")
    return qry[:, None, :] - src[m.indices]


def lexmin_index(positions: np.ndarray) -> int:
    """Index of the lexicographically smallest (x, y, z) point.

    A permutation-invariant anchor for FPS starts: reordering the cloud
    moves the index but always picks the same geometric point.
    """
    pos = np.asarray(positions)
    return int(np.lexsort((pos[:, 2], pos[:, 1], pos[:, 0]))[0])


@dataclass
class HierarchyLevel:
    """One resolution level: the subset chosen from the previous level, the
    forward map from previous-level sources to this level's queries, its
    inverse, and precomputed nearest-sample fallbacks for inverse rows that
    came out empty (-1 where a row is non-empty)."""

    subset: np.ndarray  # indices into the previous level
    positions: np.ndarray  # (N_level, 3)
    down_map: NeighborMap
    down_inverse: InverseNeighborMap
    up_fallback: np.ndarray  # (prev_level_size,) int64, -1 = covered

    @property
    def n(self) -> int:
        return len(self.subset)


@dataclass
class Hierarchy:
    levels: list[HierarchyLevel] = field(default_factory=list)


def _level_k(k, idx: int) -> int:
    if np.ndim(k) == 0:
        return int(k)
    return int(k[idx])


def build_hierarchy(
    points: PointCloud | np.ndarray, ratios, k, start: int = 0
) -> Hierarchy:
    """Build the FPS/kNN resolution pyramid reused for symmetric up-sampling.

    A leading ratio of 1.0 denotes the identity level; when the first ratio
    is below 1, the identity level is prepended automatically. Each level
    stores the forward map knn(previous points, sampled points, k) and its
    inverse, so the decoder never runs another neighbor search. ``k`` may be
    a single count or one per level.
    """
    pos = points.positions if isinstance(points, PointCloud) else np.asarray(points, dtype=np.float64)
    ratios = list(ratios)
    if not ratios:
        raise ValueError("at least one ratio required")
    if ratios[0] != 1.0:
        ratios = [1.0] + ratios
    if any(not (0.0 < r <= 1.0) for r in ratios):
        raise ValueError("ratios must lie in (0, 1]")
    if any(r == 1.0 for r in ratios[1:]):
        raise ValueError("only the leading ratio may be 1.0 (levels must shrink)")

    hierarchy = Hierarchy()
    prev_pos = pos
    first_sampled = True
    for li, ratio in enumerate(ratios):
        kk = _level_k(k, li)
        if ratio == 1.0:
            subset = np.arange(len(prev_pos), dtype=np.int64)
        else:
            m = max(1, int(np.floor(ratio * len(prev_pos) + 0.5)))
            # deeper levels restart from local index 0: the previous level's
            # first FPS pick, i.e. the same geometric point as `start`
            subset = fps(prev_pos, m, start if first_sampled else 0)
            first_sampled = False
        level_pos = prev_pos[subset]
        if kk > len(prev_pos):
            raise ValueError(f"k={kk} exceeds level size {len(prev_pos)}")
        down = knn(prev_pos, level_pos, kk)
        inv = invert_map(down)
        fallback = np.full(len(prev_pos), -1, dtype=np.int64)
        empty = np.flatnonzero(inv.row_lengths() == 0)
        if len(empty):
            fallback[empty] = knn(level_pos, prev_pos[empty], 1).indices[:, 0]
        hierarchy.levels.append(HierarchyLevel(subset, level_pos, down, inv, fallback))
        prev_pos = level_pos
    return hierarchy


# -- receptive-field reachability ------------------------------------------


def intra_influence(m: NeighborMap, query: int) -> set[int]:
    """Input points reaching the query through one intra-set mixing step."""
    return set(m.indices[query].tolist())


def inter_influence(m: NeighborMap, inv: InverseNeighborMap, query: int) -> set[int]:
    """Points reaching the query through intra plus inter mixing (one step
    over the forward map united with one step over its inverse)."""
    return intra_influence(m, query) | set(inv.row(query).tolist())


def up_influence_inverse(level: HierarchyLevel, query: int) -> set[int]:
    """Original-level points influencing an up-sampled output when the
    decoder reuses the inverted down-sampling map."""
    rows = level.down_inverse.row(query)
    if len(rows) == 0:
        rows = np.array([level.up_fallback[query]])
    out: set[int] = set()
    for j in rows:
        out.update(level.down_map.indices[j].tolist())
    return out


def up_influence_trilinear(level: HierarchyLevel, prev_positions: np.ndarray, query: int) -> set[int]:
    """Influence set of the asymmetric baseline: the query interpolates its 3
    nearest sampled points, each of which saw its own down-map neighborhood."""
    order = knn(level.positions, prev_positions[query : query + 1], min(3, len(level.positions))).indices[0]
    out: set[int] = set()
    for j in order:
        out.update(level.down_map.indices[j].tolist())
    return out
