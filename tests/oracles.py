"""Independent brute-force reference implementations used across the tests.

Each oracle restates the operation it checks from the definition, without
touching the library's code paths: explicit per-query loops, python sorts
with written-out tie keys, and plain numpy arithmetic.
"""

import numpy as np
from scipy.special import erf


def knn_rows(sources, queries, k):
    """Brute-force distance sort per query; ties break by ascending index."""
    sources = np.asarray(sources, dtype=np.float64)
    rows = []
    for q in np.asarray(queries, dtype=np.float64):
        d2 = ((sources - q) ** 2).sum(axis=1)
        order = np.lexsort((np.arange(len(sources)), d2))
        rows.append(order[:k])
    return np.array(rows)


def knn_rows_slow(sources, queries, k):
    """Pure-python variant (tuple sort), for tie-heavy integer instances."""
    sources = np.asarray(sources, dtype=np.float64)
    rows = []
    for q in np.asarray(queries, dtype=np.float64):
        keyed = sorted(
            (float((sources[j] - q) @ (sources[j] - q)), j) for j in range(len(sources))
        )
        rows.append([j for _, j in keyed[:k]])
    return np.array(rows)


def invert_rows(forward_rows, source_count):
    """Membership enumeration: row i lists every j whose row contains i."""
    rows = [[] for _ in range(source_count)]
    for j, row in enumerate(np.asarray(forward_rows)):
        for i in row:
            rows[int(i)].append(j)
    return [sorted(r) for r in rows]


def fps_indices(points, m, start):
    """Greedy max-min selection, min-distances recomputed from scratch and
    the arg-max taken by an explicit first-strictly-greater scan."""
    pos = np.asarray(points, dtype=np.float64)
    selected = [int(start)]
    for _ in range(m - 1):
        best, best_val = -1, -1.0
        for j in range(len(pos)):
            dmin = min(float(((pos[j] - pos[s]) ** 2).sum()) for s in selected)
            if dmin > best_val:
                best, best_val = j, dmin
        selected.append(best)
    return np.array(selected)


def fps_loop(points, m, start):
    """Frozen copy of the vectorised FPS loop that rebuilt the full (N, 3)
    difference per pick: the reference the buffered loop must reproduce index
    for index. Each row of squares is summed as (dx² + dz²) + dy², written
    out so that the reference does not depend on how a numpy version orders
    an einsum reduction."""
    pos = np.asarray(points, dtype=np.float64)

    def sq(d):
        return (d[:, 0] ** 2 + d[:, 2] ** 2) + d[:, 1] ** 2

    selected = np.empty(m, dtype=np.int64)
    selected[0] = start
    with np.errstate(over="ignore"):
        mindist = sq(pos - pos[start])
        for i in range(1, m):
            nxt = int(np.argmax(mindist))
            selected[i] = nxt
            np.minimum(mindist, sq(pos - pos[nxt]), out=mindist)
    return selected


def relative_positions(queries, sources, rows):
    out = np.zeros((len(rows), len(rows[0]), 3))
    for i, row in enumerate(rows):
        for n, j in enumerate(row):
            out[i, n] = np.asarray(queries)[i] - np.asarray(sources)[int(j)]
    return out


# -- dense per-query reimplementation of the mixing layer --------------------


def _gelu(x):
    return x * 0.5 * (1.0 + erf(x / np.sqrt(2.0)))


def _apply_linear(arrs, prefix, x):
    return arrs[f"{prefix}.W"] @ x + arrs[f"{prefix}.b"]


def _apply_mlp2(arrs, prefix, x):
    return _apply_linear(arrs, f"{prefix}.l2", _gelu(_apply_linear(arrs, f"{prefix}.l1", x)))


def softmax_mix_rows(x, pos_q, pos_s, rows, arrs, prefix):
    """Per-query loop over Eq.-style scoring: s_j = g2([g1(x_j); d(p_i-p_j)]),
    y_i = sum_j softmax(s)_j * g3(x_j)."""
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros((len(rows), x.shape[1]))
    for i, row in enumerate(rows):
        if len(row) == 0:
            raise ValueError("oracle requires non-empty rows")
        scores, values = [], []
        for j in row:
            j = int(j)
            if f"{prefix}.g1.l1.W" in arrs:
                g1x = _apply_mlp2(arrs, f"{prefix}.g1", x[j])
            else:
                g1x = _apply_linear(arrs, f"{prefix}.g1", x[j])
            pe = _apply_mlp2(arrs, f"{prefix}.delta", np.asarray(pos_q[i]) - np.asarray(pos_s[j]))
            scores.append(float(_apply_mlp2(arrs, f"{prefix}.g2", np.concatenate([g1x, pe]))[0]))
            values.append(_apply_linear(arrs, f"{prefix}.g3", x[j]))
        s = np.array(scores)
        w = np.exp(s - s.max())
        w /= w.sum()
        out[i] = sum(wj * vj for wj, vj in zip(w, values))
    return out


def layernorm_rows(x, gamma, beta, eps=1e-5):
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros_like(x)
    for i in range(x.shape[0]):
        mu = x[i].mean()
        var = ((x[i] - mu) ** 2).mean()
        out[i] = gamma * (x[i] - mu) / np.sqrt(var + eps) + beta
    return out


def mixer_block_rows(x, pos, rows, arrs, prefix):
    """Block oracle: pre-norm softmax mixing residual, then channel-MLP residual."""
    x = np.asarray(x, dtype=np.float64)
    h = layernorm_rows(x, arrs[f"{prefix}.norm1.gamma"], arrs[f"{prefix}.norm1.beta"])
    x1 = x + softmax_mix_rows(h, pos, pos, rows, arrs, f"{prefix}.mix")
    h2 = layernorm_rows(x1, arrs[f"{prefix}.norm2.gamma"], arrs[f"{prefix}.norm2.beta"])
    y = np.zeros_like(x1)
    for i in range(x1.shape[0]):
        y[i] = x1[i] + _apply_mlp2(arrs, f"{prefix}.channel", h2[i])
    return y
