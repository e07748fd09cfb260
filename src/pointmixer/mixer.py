"""Softmax-weighted point-set mixing over forward, inverse, and cross-level
index maps, plus the three comparison operators (max-pool aggregation,
vector attention, token-mixing MLPs) behind one interface.

The central layer scores each (query, neighbor) edge with a scalar
``g2([g1(x_j); delta(p_i - p_j)])``, normalizes the scores per query with a
softmax over the neighbor axis, and sums ``g3(x_j)`` under those weights.
Because the softmax runs over CSR segments, the same kernel serves fixed-K
forward maps, variable-cardinality inverse maps, and hierarchy transitions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import (
    Tensor,
    as_tensor,
    concat_last,
    gather_rows,
    max_axis1,
    reduce_mean,
    reshape,
    segment_max,
    segment_softmax,
    segment_sum,
    transpose_last2,
)
from .geom import InverseNeighborMap, NeighborMap, knn
from .nn import LayerNorm, Linear, Mlp2, ParamStore, Rng

__all__ = [
    "PositionalEncoder",
    "PointMixerParams",
    "MixerBlockParams",
    "MaxPoolParams",
    "VectorAttentionParams",
    "TokenMlpParams",
    "VariableCardinalityError",
    "intra_set_mix",
    "inter_set_mix",
    "hier_down_mix",
    "hier_up_mix",
    "mixer_block",
    "variant_mix",
    "create_variant",
    "VARIANTS",
]

VARIANTS = ("softmax", "maxpool", "attention", "tokenmlp")


class VariableCardinalityError(ValueError):
    """Raised when token-mixing MLPs meet a variable-cardinality map: their
    weight matrices act across the neighbor axis and therefore require a
    fixed, declared neighbor count."""


@dataclass
class PositionalEncoder:
    """Two-layer MLP over relative positions: 3 -> width -> width."""

    mlp: Mlp2

    @classmethod
    def create(cls, store: ParamStore, name: str, width: int, rng: Rng) -> "PositionalEncoder":
        return cls(Mlp2.create(store, name, (3, width, width), rng))

    def __call__(self, rel) -> Tensor:
        return self.mlp(as_tensor(rel))


@dataclass
class PointMixerParams:
    """Channel MLPs of one softmax mixing layer.

    g1 embeds neighbor features, g2 maps [g1(x_j); delta(p_i - p_j)] to one
    scalar score per edge, g3 produces the values that get mixed.
    """

    g1: Linear | Mlp2
    g2: Mlp2
    g3: Linear
    delta: PositionalEncoder
    width: int
    pe_width: int

    @classmethod
    def create(
        cls,
        store: ParamStore,
        name: str,
        width: int,
        rng: Rng,
        pe_width: int | None = None,
        reduction: int = 4,
        g1_hidden: int | None = None,
    ) -> "PointMixerParams":
        pe = pe_width if pe_width else width
        if g1_hidden:
            g1 = Mlp2.create(store, f"{name}.g1", (width, g1_hidden, width), rng)
        else:
            g1 = Linear.create(store, f"{name}.g1", width, width, rng)
        g2 = Mlp2.create(store, f"{name}.g2", (width + pe, max(1, width // reduction), 1), rng)
        g3 = Linear.create(store, f"{name}.g3", width, width, rng)
        delta = PositionalEncoder.create(store, f"{name}.delta", pe, rng)
        return cls(g1, g2, g3, delta, width, pe)


def _check_width(x: Tensor, width: int):
    if x.shape[-1] != width:
        raise ValueError(f"feature width {x.shape[-1]} does not match layer width {width}")


def _softmax_mix_edges(
    x_src: Tensor,
    pos_q: np.ndarray,
    pos_s: np.ndarray,
    dst: np.ndarray,
    src: np.ndarray,
    offsets: np.ndarray,
    params: PointMixerParams,
) -> Tensor:
    """Shared edge kernel: score, normalize per query segment, mix values."""
    _check_width(x_src, params.width)
    xj = gather_rows(x_src, src)
    rel = pos_q[dst] - pos_s[src]
    pe = params.delta(rel)
    scores = params.g2(concat_last([params.g1(xj), pe]))
    weights = segment_softmax(reshape(scores, (len(src),)), offsets)
    values = params.g3(xj) * reshape(weights, (len(src), 1))
    return segment_sum(values, offsets)


def _forward_edges(m: NeighborMap):
    cached = getattr(m, "_edge_cache", None)
    if cached is not None:
        return cached
    n, k = m.indices.shape
    dst = np.repeat(np.arange(n, dtype=np.int64), k)
    src = m.indices.ravel()
    offsets = np.arange(n + 1, dtype=np.int64) * k
    m._edge_cache = (dst, src, offsets)
    return m._edge_cache


def _inverse_edges(inv: InverseNeighborMap, require_nonempty=True):
    cached = getattr(inv, "_edge_cache", None)
    if cached is None:
        lengths = inv.row_lengths()
        dst = np.repeat(np.arange(inv.source_count, dtype=np.int64), lengths)
        inv._edge_cache = (dst, inv.indices, inv.offsets, bool(np.any(lengths == 0)))
        cached = inv._edge_cache
    if require_nonempty and cached[3]:
        raise ValueError("empty inverse row: map is not a same-level inverse")
    return cached[:3]


def intra_set_mix(x, positions, m: NeighborMap, params: PointMixerParams) -> Tensor:
    """Mix each query with its own k nearest neighbors (forward map)."""
    pos = np.asarray(positions, dtype=np.float64)
    dst, src, offsets = _forward_edges(m)
    return _softmax_mix_edges(as_tensor(x), pos, pos, dst, src, offsets, params)


def inter_set_mix(x, positions, inv: InverseNeighborMap, params: PointMixerParams) -> Tensor:
    """Mix each query with every point whose neighborhood contains it.

    Row cardinality varies, so normalization runs over CSR segments; a
    same-level inverse is required (every row non-empty)."""
    pos = np.asarray(positions, dtype=np.float64)
    dst, src, offsets = _inverse_edges(inv)
    return _softmax_mix_edges(as_tensor(x), pos, pos, dst, src, offsets, params)


def hier_down_mix(x_o, pos_o, pos_s, m_os: NeighborMap, params: PointMixerParams) -> Tensor:
    """Pool original-level features into sampled queries via the forward
    cross-level map (queries are the sampled points)."""
    dst, src, offsets = _forward_edges(m_os)
    return _softmax_mix_edges(
        as_tensor(x_o), np.asarray(pos_s, dtype=np.float64), np.asarray(pos_o, dtype=np.float64),
        dst, src, offsets, params,
    )


def hier_up_mix(
    x_s,
    pos_s,
    pos_o,
    inv_os: InverseNeighborMap,
    params: PointMixerParams,
    skip,
    fallback: np.ndarray | None = None,
) -> Tensor:
    """Spread sampled-level features back to the original level by reusing
    the inverted down-sampling map; the result is added to the skip features.

    Original points absent from every sampled neighborhood fall back to
    their single nearest sampled point (singleton segment, weight 1).
    ``fallback`` may carry those precomputed nearest-sample indices (-1 for
    covered rows) so no search happens at decode time.
    """
    x_s = as_tensor(x_s)
    pos_s = np.asarray(pos_s, dtype=np.float64)
    pos_o = np.asarray(pos_o, dtype=np.float64)
    cached = getattr(inv_os, "_up_edge_cache", None)
    if cached is None:
        lengths = inv_os.row_lengths()
        empty = np.flatnonzero(lengths == 0)
        if len(empty):
            if len(pos_s) == 0:
                raise ValueError("cannot resolve fallback neighbors for an empty sampled set")
            if fallback is None:
                fb = knn(pos_s, pos_o[empty], 1).indices[:, 0]
            else:
                fb = np.asarray(fallback, dtype=np.int64)[empty]
            new_lengths = lengths.copy()
            new_lengths[empty] = 1
            offsets = np.zeros(len(new_lengths) + 1, dtype=np.int64)
            np.cumsum(new_lengths, out=offsets[1:])
            src = np.empty(offsets[-1], dtype=np.int64)
            nonempty = np.flatnonzero(lengths > 0)
            place = np.repeat(offsets[nonempty], lengths[nonempty]) + (
                np.arange(len(inv_os.indices)) - np.repeat(inv_os.offsets[nonempty], lengths[nonempty])
            )
            src[place] = inv_os.indices
            src[offsets[empty]] = fb
            dst = np.repeat(np.arange(len(new_lengths), dtype=np.int64), new_lengths)
            cached = (dst, src, offsets)
        else:
            cached = _inverse_edges(inv_os, require_nonempty=False)
        inv_os._up_edge_cache = cached
    dst, src, offsets = cached
    mixed = _softmax_mix_edges(x_s, pos_o, pos_s, dst, src, offsets, params)
    if skip is None:
        return mixed
    return mixed + as_tensor(skip)


# -- comparison operator variants -------------------------------------------


@dataclass
class MaxPoolParams:
    """Max-pool aggregation: elementwise max over neighbors of an MLP applied
    to [x_j; p_i - p_j]."""

    mlp: Mlp2
    width: int

    @classmethod
    def create(cls, store: ParamStore, name: str, width: int, rng: Rng) -> "MaxPoolParams":
        return cls(Mlp2.create(store, f"{name}.mlp", (width + 3, width, width), rng), width)


@dataclass
class VectorAttentionParams:
    """Vector subtraction attention with per-channel softmax over neighbors:
    weights psi(W1 x_i - W2 x_j + delta), values W3 x_j + delta."""

    w1: Linear
    w2: Linear
    w3: Linear
    psi: Mlp2
    delta: PositionalEncoder
    width: int

    @classmethod
    def create(cls, store: ParamStore, name: str, width: int, rng: Rng) -> "VectorAttentionParams":
        return cls(
            Linear.create(store, f"{name}.w1", width, width, rng),
            Linear.create(store, f"{name}.w2", width, width, rng),
            Linear.create(store, f"{name}.w3", width, width, rng),
            Mlp2.create(store, f"{name}.psi", (width, width, width), rng),
            PositionalEncoder.create(store, f"{name}.delta", width, rng),
            width,
        )


@dataclass
class TokenMlpParams:
    """Token-mixing then channel-mixing MLPs over a gathered fixed-K
    neighborhood, averaged back to one vector per query. Positional
    encoding is off by default; ``delta`` switches it on."""

    k: int
    norm1: LayerNorm
    token_mlp: Mlp2
    norm2: LayerNorm
    channel_mlp: Mlp2
    width: int
    delta: PositionalEncoder | None = None

    @classmethod
    def create(
        cls,
        store: ParamStore,
        name: str,
        width: int,
        k: int,
        rng: Rng,
        token_hidden: int | None = None,
        expansion: int = 2,
        with_pos: bool = False,
    ) -> "TokenMlpParams":
        th = token_hidden if token_hidden else 2 * k
        delta = PositionalEncoder.create(store, f"{name}.delta", width, rng) if with_pos else None
        return cls(
            k,
            LayerNorm.create(store, f"{name}.norm1", width),
            Mlp2.create(store, f"{name}.token", (k, th, k), rng),
            LayerNorm.create(store, f"{name}.norm2", width),
            Mlp2.create(store, f"{name}.channel", (width, expansion * width, width), rng),
            width,
            delta,
        )


def _maxpool_mix(x, positions, index_map, v: MaxPoolParams) -> Tensor:
    x = as_tensor(x)
    _check_width(x, v.width)
    pos = np.asarray(positions, dtype=np.float64)
    if isinstance(index_map, NeighborMap):
        dst, src, offsets = _forward_edges(index_map)
    else:
        dst, src, offsets = _inverse_edges(index_map)
    rel = pos[dst] - pos[src]
    h = v.mlp(concat_last([gather_rows(x, src), Tensor(rel)]))
    if isinstance(index_map, NeighborMap):
        n, k = index_map.indices.shape
        return max_axis1(reshape(h, (n, k, v.width)))
    return segment_max(h, offsets)


def _attention_mix(x, positions, index_map, v: VectorAttentionParams) -> Tensor:
    x = as_tensor(x)
    _check_width(x, v.width)
    pos = np.asarray(positions, dtype=np.float64)
    if isinstance(index_map, NeighborMap):
        dst, src, offsets = _forward_edges(index_map)
    else:
        dst, src, offsets = _inverse_edges(index_map)
    xi = gather_rows(x, dst)
    xj = gather_rows(x, src)
    pe = v.delta(pos[dst] - pos[src])
    weights = segment_softmax(v.psi(v.w1(xi) - v.w2(xj) + pe), offsets)
    return segment_sum(weights * (v.w3(xj) + pe), offsets)


def _token_mlp_mix(x, positions, index_map, v: TokenMlpParams) -> Tensor:
    if not isinstance(index_map, NeighborMap):
        raise VariableCardinalityError(
            "token-mixing MLPs require a fixed neighbor count; inverse maps have variable cardinality"
        )
    if index_map.k != v.k:
        raise VariableCardinalityError(f"layer declared K={v.k} but map has K={index_map.k}")
    x = as_tensor(x)
    _check_width(x, v.width)
    n, k = index_map.indices.shape
    xk = reshape(gather_rows(x, index_map.indices.ravel()), (n, k, v.width))
    if v.delta is not None:
        pos = np.asarray(positions, dtype=np.float64)
        rel = pos[:, None, :] - pos[index_map.indices]
        xk = xk + reshape(v.delta(rel.reshape(-1, 3)), (n, k, v.width))
    mixed = transpose_last2(v.token_mlp(transpose_last2(v.norm1(xk))))
    x1 = xk + mixed
    y = x1 + v.channel_mlp(v.norm2(x1))
    return reduce_mean(y, axis=1)


def variant_mix(x, positions, index_map, v) -> Tensor:
    """Run whichever mixing operator ``v`` parameterizes over the given map."""
    if isinstance(v, PointMixerParams):
        if isinstance(index_map, NeighborMap):
            return intra_set_mix(x, positions, index_map, v)
        return inter_set_mix(x, positions, index_map, v)
    if isinstance(v, MaxPoolParams):
        return _maxpool_mix(x, positions, index_map, v)
    if isinstance(v, VectorAttentionParams):
        return _attention_mix(x, positions, index_map, v)
    if isinstance(v, TokenMlpParams):
        return _token_mlp_mix(x, positions, index_map, v)
    raise TypeError(f"unknown variant params: {type(v)!r}")


def create_variant(
    store: ParamStore,
    name: str,
    kind: str,
    width: int,
    rng: Rng,
    k: int | None = None,
    pe_width: int | None = None,
    reduction: int = 4,
    tokenmlp_pos: bool = False,
):
    if kind == "softmax":
        return PointMixerParams.create(store, name, width, rng, pe_width=pe_width, reduction=reduction)
    if kind == "maxpool":
        return MaxPoolParams.create(store, name, width, rng)
    if kind == "attention":
        return VectorAttentionParams.create(store, name, width, rng)
    if kind == "tokenmlp":
        if k is None:
            raise ValueError("tokenmlp variant needs a declared neighbor count")
        return TokenMlpParams.create(store, name, width, k, rng, with_pos=tokenmlp_pos)
    raise ValueError(f"unknown variant {kind!r}; expected one of {VARIANTS}")


# -- block -------------------------------------------------------------------


@dataclass
class MixerBlockParams:
    """Pre-norm residual block: x + mix(LN(x)), then the channel MLP residual."""

    norm1: LayerNorm
    mix: object
    norm2: LayerNorm
    channel_mlp: Mlp2
    width: int

    @classmethod
    def create(
        cls,
        store: ParamStore,
        name: str,
        width: int,
        rng: Rng,
        variant: str = "softmax",
        expansion: int = 2,
        k: int | None = None,
        pe_width: int | None = None,
        reduction: int = 4,
        tokenmlp_pos: bool = False,
    ) -> "MixerBlockParams":
        return cls(
            LayerNorm.create(store, f"{name}.norm1", width),
            create_variant(
                store, f"{name}.mix", variant, width, rng,
                k=k, pe_width=pe_width, reduction=reduction, tokenmlp_pos=tokenmlp_pos,
            ),
            LayerNorm.create(store, f"{name}.norm2", width),
            Mlp2.create(store, f"{name}.channel", (width, expansion * width, width), rng),
            width,
        )


def mixer_block(x, positions, index_map, block: MixerBlockParams) -> Tensor:
    x = as_tensor(x)
    _check_width(x, block.width)
    x1 = x + variant_mix(block.norm1(x), positions, index_map, block.mix)
    return x1 + block.channel_mlp(block.norm2(x1))
