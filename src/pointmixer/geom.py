"""Deterministic point-set geometry kernels.

kNN index maps, their compressed-sparse inverses, farthest point sampling,
and the resolution hierarchy the network reuses for symmetric up-sampling,
all taking (N, 3) position arrays. Everything here is exact and
tie-stable: distances tie-break by ascending point index, so identical
inputs always produce bit-identical index structures.

One squared-distance expression, ``_sq_dist``, serves the whole module:
``(dx² + dz²) + dy²`` with in-place ufuncs on contiguous x, y and z
columns. FPS picks, candidate re-ranks and dense blocks all compare values
from it, so their orders agree bit for bit. The tests pin this order, not
einsum's: numpy 2.4.6's ``einsum("ij,ij->i")`` happens to sum a row of three
squares the same way (no mismatch over 200 000 rows), so there the results
equal those of the earlier einsum-based code, but other numpy versions may
order that reduction differently.

Every neighbour search (``knn``, ``nearest`` and the hierarchy fallbacks)
runs through one routine, ``_search``, and ``knn_call_count`` counts each
run: a KD-tree proposes k + 1 candidates per row, their squared distances
are recomputed exactly and re-ranked, rows that might hide a tie beyond the
candidates ask again for k + 8, and only rows still unsure fall back to a
dense search in bounded row blocks. No full N x M distance matrix is built.
Searches and FPS rank in the cloud's own units (``_own_units``): a cloud
whose largest |coordinate| is below 0.5 is first scaled up by a power of
two, so squared distances near 1e-200 do not underflow into ties. Returned
distances are scaled back; positions elsewhere are never scaled.

Every index map is one read-only CSR edge list, an ``autodiff.Edges``
built and checked once, here, when the map is built: a ``NeighborMap`` is
the stride-k case, an ``InverseNeighborMap`` the variable-row one.
Up-sampling adds the ``nearest_samples`` fallback rows to an inverse map
(``up_edges``). The mixing layers only read these edges.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .autodiff import Edges

__all__ = [
    "COORD_LIMIT",
    "as_positions",
    "check_coordinates",
    "PointCloud",
    "Edges",
    "NeighborMap",
    "InverseNeighborMap",
    "Hierarchy",
    "HierarchyLevel",
    "knn",
    "knn_call_count",
    "nearest",
    "invert_map",
    "nearest_samples",
    "up_edges",
    "fps",
    "build_hierarchy",
    "level_sizes",
    "lexmin_index",
    "intra_influence",
    "inter_influence",
    "up_influence_inverse",
    "up_influence_trilinear",
]

_knn_calls = 0

# Largest accepted |coordinate|: below it every squared distance stays
# finite (3 * (2e150)^2 is about 1.2e301, under float64's 1.8e308).
COORD_LIMIT = 1e150


def knn_call_count() -> int:
    """Total neighbour searches so far, one per ``_search`` run (``knn``,
    ``nearest`` and the hierarchy fallbacks); instrumentation for decode
    audits."""
    return _knn_calls


def as_positions(p) -> np.ndarray:
    """Positions as an array: float32 stays float32 (so float32 runs stay
    float32), anything else becomes float64. Searches and sampling still
    rank in float64."""
    p = np.asarray(p)
    return p if p.dtype == np.float32 else p.astype(np.float64, copy=False)


def check_coordinates(positions: np.ndarray):
    """Raise ValueError on a non-finite coordinate or one beyond
    ``COORD_LIMIT`` in magnitude."""
    if not np.all(np.isfinite(positions)):
        raise ValueError("non-finite coordinates")
    if float(np.abs(positions).max(initial=0.0)) > COORD_LIMIT:  # float(): float32 cannot hold the limit
        raise ValueError(f"coordinates beyond +-{COORD_LIMIT:g}: squared distances would overflow")


@dataclass
class PointCloud:
    """Positions plus per-point feature channels and optional labels: the one
    cloud type the network's forwards take. Positions and features follow
    ``as_positions`` (float32 stays float32, anything else becomes float64);
    ``validate`` is the check a forward runs."""

    positions: np.ndarray  # (N, 3)
    features: np.ndarray  # (N, C); C may be 0
    labels: np.ndarray | None = None  # (N,) ints

    def __post_init__(self):
        self.positions = as_positions(self.positions)
        self.features = as_positions(self.features)
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
        check_coordinates(self.positions)
        if self.features.ndim != 2:
            raise ValueError("features must be an (N, C) array")
        if self.features.shape[0] != self.n:
            raise ValueError("feature row count does not match positions")
        if not np.all(np.isfinite(self.features)):
            raise ValueError("non-finite features")
        if self.labels is not None:
            if self.labels.shape != (self.n,):
                raise ValueError("labels must be a flat (N,) array")
            if num_classes is not None and (self.labels.min() < 0 or self.labels.max() >= num_classes):
                raise ValueError("label out of range")


class NeighborMap(Edges):
    """Fixed-K index map, the stride-k ``Edges``: row q lists the k nearest
    source indices to query q, ascending by distance, distance ties broken by
    ascending index. ``indices`` is the read-only (N, k) view of ``src``."""

    def __init__(self, indices, source_count: int):
        indices = np.asarray(indices, dtype=np.int64)
        n, k = indices.shape
        super().__init__(indices.ravel(), np.arange(n + 1, dtype=np.int64) * k)
        object.__setattr__(self, "indices", self.src.reshape(n, k))
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "source_count", source_count)


class InverseNeighborMap(Edges):
    """Compressed-sparse inverse of a NeighborMap (built by ``invert_map``).

    Row i (``indices[offsets[i]:offsets[i+1]]``, ``indices`` being ``src``)
    lists, ascending, every query j whose forward row contains i. Rows may be
    empty.
    """

    @property
    def indices(self) -> np.ndarray:
        return self.src

    @property
    def source_count(self) -> int:
        return len(self.offsets) - 1

    def row(self, i: int) -> np.ndarray:
        return self.indices[self.offsets[i] : self.offsets[i + 1]]

    def row_lengths(self) -> np.ndarray:
        return np.diff(self.offsets)


_SLACK = 8  # extra tree candidates per row beyond k in the second tier
_TIE_RTOL = 1e-12  # covers the tree's own rounding of a squared distance
_BLOCK = 1 << 20  # entries per row block of the dense fallback


def _columns(points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Contiguous float64 x, y and z columns of an (N, 3) array."""
    pos = np.asarray(points, dtype=np.float64)
    return tuple(np.ascontiguousarray(pos[:, c]) for c in range(3))


def _sq_dist(q, s, out=None, tmp=None) -> np.ndarray:
    """Squared distances between ``q`` and ``s``, two (x, y, z) column triples
    that broadcast against each other, summed as ``(dx² + dz²) + dy²``.

    This is the one squared distance in this module: every search re-ranks
    and every FPS pick compares values from it, so equal inputs give equal
    bits everywhere. ``out`` and ``tmp`` are optional buffers of the
    broadcast shape. Callers run it under ``np.errstate(over="ignore")``:
    coordinates whose squares overflow give inf.
    """
    d = np.subtract(q[0], s[0], out=out)
    d *= d
    t = np.subtract(q[2], s[2], out=tmp)
    t *= t
    d += t
    np.subtract(q[1], s[1], out=t)
    t *= t
    d += t
    return d


def _own_units(*arrays) -> tuple[int, list]:
    """``e`` and each array times 2^-e, where ``e = min(0, frexp(m)[1])``
    for ``m``, the largest finite |coordinate| over all of them: tiny clouds
    scale up until ``m`` lies in [0.5, 1), others stay as they are. Powers
    of two scale exactly, so ranks and ties stay, and squared distances
    that would underflow no longer do."""
    m = max(float(np.max(np.abs(a), initial=0.0, where=np.isfinite(a))) for a in arrays)
    e = min(0, int(np.frexp(m)[1]))
    return e, [np.ldexp(a, -e) if e else a for a in arrays]


def _dense_blocks(queries: np.ndarray, sources: np.ndarray):
    """Yield (lo, hi, squared distances of queries[lo:hi] to every source),
    so the dense fallback holds O(_BLOCK) entries at a time."""
    if not len(queries):
        return
    step = max(1, _BLOCK // len(sources))
    s = _columns(sources)
    for lo in range(0, len(queries), step):
        hi = min(lo + step, len(queries))
        q = [c[:, None] for c in _columns(queries[lo:hi])]
        with np.errstate(over="ignore"):
            block = _sq_dist(q, s)
        yield lo, hi, block


def _search(src: np.ndarray, qry: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices and squared distances of the k nearest sources per query, in
    (squared distance, index) order; bit-identical to a stable sort of the
    dense squared-distance rows. Inputs must be finite and ``k <= len(src)``.

    The KD-tree proposes candidates in two tiers, k + 1 and then k + _SLACK
    per row; their squared distances are recomputed exactly and re-ranked.
    A row whose k-th distance comes within rounding of its last candidate's
    may hide a tie beyond the candidates, so it goes on to the next tier, and
    rows still unsure after the second take the dense search.
    """
    global _knn_calls
    _knn_calls += 1
    idx = np.empty((len(qry), k), dtype=np.int64)
    d2 = np.empty((len(qry), k))
    rows = np.arange(len(qry))
    if len(src) > k + _SLACK:
        tree = cKDTree(src)
        s, q = _columns(src), _columns(qry)

        def tier(rows: np.ndarray, width: int) -> np.ndarray:
            """Fill ``rows`` of idx/d2 from ``width`` tree candidates; return
            the rows that may still hide a tie beyond them."""
            tree_d, cand = tree.query(qry[rows], k=width)
            # the tree pads a row with index len(src) when distances overflow to inf
            short = np.any(cand == len(src), axis=1)
            cand[short] = 0
            with np.errstate(over="ignore"):
                cand_d2 = _sq_dist([c[rows, None] for c in q], [c[cand] for c in s])
            order = np.lexsort((cand, cand_d2))[:, :k]
            idx[rows] = np.take_along_axis(cand, order, axis=1)
            top = np.take_along_axis(cand_d2, order, axis=1)
            d2[rows] = top
            # every other source lies at least about as far as the last
            # candidate; a k-th distance within rounding of it may miss a tie
            return rows[short | (top[:, -1] >= tree_d[:, -1] ** 2 * (1.0 - _TIE_RTOL))]

        rows = tier(rows, k + 1)
        if len(rows):
            rows = tier(rows, k + _SLACK)
    for lo, hi, block in _dense_blocks(qry[rows], src):
        order = np.argsort(block, axis=1, kind="stable")[:, :k]
        idx[rows[lo:hi]] = order
        d2[rows[lo:hi]] = np.take_along_axis(block, order, axis=1)
    return idx, d2


def knn(sources: np.ndarray, queries: np.ndarray, k: int) -> NeighborMap:
    """Exact k-nearest-neighbor index map under Euclidean distance.

    Rows sort ascending by the squared distance ``_sq_dist`` computes, ties
    broken by ascending source index (``_search``), at every size.
    """
    src = np.asarray(sources, dtype=np.float64)
    qry = np.asarray(queries, dtype=np.float64)
    if src.ndim != 2 or qry.ndim != 2 or len(src) == 0 or len(qry) == 0:
        raise ValueError("empty input")
    if not (1 <= k <= len(src)):
        raise ValueError(f"k={k} out of range for {len(src)} source points")
    if not (np.all(np.isfinite(src)) and np.all(np.isfinite(qry))):
        raise ValueError("non-finite coordinates")
    _, (src, qry) = _own_units(src, qry)
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
    e, (src, qry) = _own_units(src, qry)
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
    return idx, np.ldexp(d2, 2 * e, out=d2)


def invert_map(m: NeighborMap) -> InverseNeighborMap:
    """CSR inverse: j appears in row i exactly when i appears in m's row j."""
    flat = m.indices.ravel()
    counts = np.bincount(flat, minlength=m.source_count)
    offsets = np.zeros(m.source_count + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    # stable sort on source index groups entries by source; within a group the
    # original flat position grows with the query index, keeping rows ascending
    order = np.argsort(flat, kind="stable")
    return InverseNeighborMap(m.dst[order], offsets)


def nearest_samples(inv: InverseNeighborMap, samples: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Up-sampling fallbacks: for each point whose row of ``inv`` is empty
    (no sample's neighborhood holds it), the index of its nearest sample;
    -1 for every other point. Searches only when some row is empty."""
    fallback = np.full(inv.source_count, -1, dtype=np.int64)
    empty = np.flatnonzero(inv.row_lengths() == 0)
    if len(empty):
        fallback[empty] = knn(samples, points[empty], 1).indices[:, 0]
    return fallback


def up_edges(inv: InverseNeighborMap, fallback: np.ndarray) -> Edges:
    """Up-sampling edges: ``inv``'s edges with each empty row i replaced by
    the singleton row ``[fallback[i]]``. Without empty rows this is
    ``inv`` itself."""
    empty = np.flatnonzero(inv.row_lengths() == 0)
    if not len(empty):
        return inv
    src = np.insert(inv.indices, inv.offsets[empty], np.asarray(fallback, dtype=np.int64)[empty])
    offsets = inv.offsets + np.searchsorted(empty, np.arange(len(inv.offsets)))  # + empty rows before
    return Edges(src, offsets)


def fps(points: np.ndarray, m: int, start: int = 0) -> np.ndarray:
    """Greedy max-min farthest point sampling.

    The first pick is ``start``; each next pick maximizes the minimum
    squared distance (``_sq_dist``, in float64) to everything already
    selected, ties broken by ascending index. Each pick updates the minima
    column by column in two N-buffers allocated once per call.
    """
    _, (pts,) = _own_units(np.asarray(points, dtype=np.float64))
    cols = _columns(pts)
    n = len(cols[0])
    if not (1 <= m <= n):
        raise ValueError(f"m={m} out of range for {n} points")
    if not (0 <= start < n):
        raise ValueError(f"start={start} out of range")
    selected = np.empty(m, dtype=np.int64)
    selected[0] = start
    d, tmp = np.empty(n), np.empty(n)
    with np.errstate(over="ignore"):
        mindist = _sq_dist(cols, [c[start] for c in cols])
        for i in range(1, m):
            nxt = int(np.argmax(mindist))  # argmax returns the first (lowest-index) maximum
            selected[i] = nxt
            np.minimum(mindist, _sq_dist(cols, [c[nxt] for c in cols], d, tmp), out=mindist)
    return selected


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


def level_sizes(n: int, ratios) -> list[int]:
    """Point count of each level of an n-point cloud: level i keeps
    ``max(1, floor(ratios[i] * previous size + 0.5))`` points, the previous
    size of level 0 being n (so a ratio of 1.0 keeps every point)."""
    sizes = []
    for r in ratios:
        n = max(1, int(np.floor(r * n + 0.5)))
        sizes.append(n)
    return sizes


def build_hierarchy(points: np.ndarray, ratios, k, start: int = 0) -> Hierarchy:
    """Build the FPS/kNN resolution pyramid reused for symmetric up-sampling.

    A leading ratio of 1.0 denotes the identity level; when the first ratio
    is below 1, the identity level is prepended automatically. Each level
    stores the forward map knn(previous points, sampled points, k) and its
    inverse, so the decoder never runs another neighbor search. ``k`` may be
    a single count or one per level. Sampling and searches rank in float64;
    level positions keep the dtype of ``as_positions(points)``.
    """
    pos = as_positions(points)
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
    prev_pos = pos.astype(np.float64, copy=False)  # every level ranks in float64
    for li, size in enumerate(level_sizes(len(pos), ratios)):
        kk = _level_k(k, li)
        if li == 0:  # the identity level
            subset = np.arange(len(prev_pos), dtype=np.int64)
        else:
            # deeper levels restart from local index 0: the previous level's
            # first FPS pick, i.e. the same geometric point as `start`
            subset = fps(prev_pos, size, start if li == 1 else 0)
        level_pos = prev_pos[subset]
        if kk > len(prev_pos):
            raise ValueError(f"k={kk} exceeds level size {len(prev_pos)}")
        down = knn(prev_pos, level_pos, kk)
        inv = invert_map(down)
        fallback = nearest_samples(inv, level_pos, prev_pos)
        out_pos = level_pos.astype(pos.dtype, copy=False)  # exact: float32 in, float32 out
        hierarchy.levels.append(HierarchyLevel(subset, out_pos, down, inv, fallback))
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
        rows = [level.up_fallback[query]]
    return set(level.down_map.indices[rows].ravel().tolist())


def up_influence_trilinear(level: HierarchyLevel, prev_positions: np.ndarray, query: int) -> set[int]:
    """Influence set of the asymmetric baseline: the query interpolates its 3
    nearest sampled points, each of which saw its own down-map neighborhood."""
    order = knn(level.positions, prev_positions[query : query + 1], min(3, len(level.positions))).indices[0]
    return set(level.down_map.indices[order].ravel().tolist())
