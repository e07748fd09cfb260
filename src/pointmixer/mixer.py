"""Softmax-weighted point-set mixing over forward, inverse, and cross-level
index maps, plus the three comparison operators (max-pool aggregation,
vector attention, token-mixing MLPs) behind one interface: each operator's
params class owns its forward, ``mix(x, positions, index_map, geometry)``.

The central layer scores each (query, neighbor) edge with a scalar
``g2([g1(x_j); delta(p_i - p_j)])``, normalizes the scores per query with a
softmax over the neighbor axis, and sums ``g3(x_j)`` under those weights.
Every map is its own ``geom.Edges`` (or, for up-sampling,
``geom.up_edges`` of one), built in ``geom``, never here. A map's
per-cloud constants, those edges and each edge's relative position, form a
``MapGeometry`` (``map_geometry``): ``Network.prepare`` builds one per map
and passes it to every layer that mixes over the map (``geometry=``); a
layer called without one builds its own, once per call, the same way.
Up-sampling takes the nearest-sample fallback stored with the hierarchy
level (``HierarchyLevel.up_fallback``), so no layer in this module runs a
neighbor search. Because the softmax runs over those CSR segments, one
kernel serves fixed-K forward maps, variable-cardinality inverse maps, and
hierarchy transitions.

Work that depends on ``x_j`` alone runs once per source point, not once per
edge: a linear layer commutes with a row gather, so ``g1``, ``g3`` and the
feature columns of g2's first layer are applied to the N source rows and
only their results are gathered. The positional columns of g2's first
layer follow delta's output layer with no nonlinearity between them, so
they fold into one (C/4, C) matrix formed once per call. What remains per
edge (delta's first layer and GELU, that folded product, g2's GELU and g2's
second layer) is one fused tape op, ``autodiff.edge_scores``, which runs
over cache-sized blocks of edges. The value sum is one sparse (queries,
sources) product of the softmax weights with ``g3(x)``
(``autodiff.csr_weighted_sum``). The vector-attention variant likewise
projects ``w1``/``w2``/``w3`` per point before gathering.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import (
    Tensor,
    as_tensor,
    concat_last,
    csr_weighted_sum,
    edge_scores,
    gather_rows,
    linear,
    matmul,
    reduce_mean,
    reshape,
    segment_max,
    segment_softmax,
    segment_sum,
    slice_last,
    transpose_last2,
)
from .geom import Edges, InverseNeighborMap, NeighborMap, as_positions, up_edges
from .nn import LayerNorm, Linear, Mlp2, ParamStore, Rng

__all__ = [
    "MapGeometry",
    "map_geometry",
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
class PointMixerParams:
    """Channel MLPs of one softmax mixing layer.

    g1 embeds neighbor features, g2 maps [g1(x_j); delta(p_i - p_j)] to one
    scalar score per edge through a fixed hidden width of max(1, C // 4), g3
    produces the values that get mixed. delta is a two-layer MLP over
    relative positions: 3 -> C -> C.
    """

    g1: Linear
    g2: Mlp2
    g3: Linear
    delta: Mlp2
    width: int

    @classmethod
    def create(
        cls,
        store: ParamStore,
        name: str,
        width: int,
        rng: Rng,
    ) -> "PointMixerParams":
        g1 = Linear.create(store, f"{name}.g1", width, width, rng)
        g2 = Mlp2.create(store, f"{name}.g2", (2 * width, max(1, width // 4), 1), rng)
        g3 = Linear.create(store, f"{name}.g3", width, width, rng)
        delta = Mlp2.create(store, f"{name}.delta", (3, width, width), rng)
        return cls(g1, g2, g3, delta, width)

    def mix(self, x, positions, index_map, geometry: MapGeometry | None) -> Tensor:
        layer = intra_set_mix if isinstance(index_map, NeighborMap) else inter_set_mix
        return layer(x, positions, index_map, self, geometry)


@dataclass(frozen=True)
class MapGeometry:
    """What mixing over one map needs besides features: the map's edges and
    ``rel[e] = pos_q[dst_e] - pos_s[src_e]`` (read-only), fixed for a cloud."""

    edges: Edges
    rel: np.ndarray  # (E, 3)


def map_geometry(pos_q: np.ndarray, pos_s: np.ndarray, edges: Edges) -> MapGeometry:
    """A map's ``MapGeometry`` from query and source positions
    (``as_positions`` arrays) and its edges."""
    rel = np.subtract(np.take(pos_q, edges.dst, axis=0), np.take(pos_s, edges.src, axis=0))
    rel.setflags(write=False)
    return MapGeometry(edges, rel)


def _check_width(x: Tensor, width: int):
    if x.shape[-1] != width:
        raise ValueError(f"feature width {x.shape[-1]} does not match layer width {width}")


def _softmax_mix_edges(x_src: Tensor, geo: MapGeometry, params: PointMixerParams) -> Tensor:
    """Shared edge kernel: score, normalize per query segment, mix values.

    ``g2``'s first layer acts on ``[g1(x_j); delta(rel)]``, so it splits by
    columns into a per-point term and a per-edge positional term. The
    positional columns ``W_pos`` directly follow delta's output layer, so
    the two fold into one (C/4, C) matrix applied to delta's hidden layer,
    and ``W_pos @ delta.l2.b`` joins g2's bias in the per-point term. The
    per-edge rest of the score MLP is the one op ``edge_scores``.
    """
    _check_width(x_src, params.width)
    fc1, c = params.g2.fc1, params.width
    pe1, pe2 = params.delta.fc1, params.delta.fc2
    w_pos = slice_last(fc1.W, c, 2 * c)
    hidden = linear(params.g1(x_src), slice_last(fc1.W, 0, c), linear(pe2.b, w_pos, fc1.b))
    e = geo.edges
    scores = edge_scores(hidden, e, geo.rel, pe1.W, pe1.b, matmul(w_pos, pe2.W), params.g2.fc2.W, params.g2.fc2.b)
    return csr_weighted_sum(segment_softmax(scores, e), params.g3(x_src), e)


def _same_level(positions, index_map, geometry: MapGeometry | None) -> MapGeometry:
    """``geometry``, or else the one of a same-level map over ``positions``."""
    if geometry is not None:
        return geometry
    pos = as_positions(positions)
    return map_geometry(pos, pos, index_map)


def intra_set_mix(x, positions, m: NeighborMap, params: PointMixerParams,
                  geometry: MapGeometry | None = None) -> Tensor:
    """Mix each query with its own k nearest neighbors (forward map).
    ``geometry``: the map's prepared ``MapGeometry`` (see the module
    docstring)."""
    return _softmax_mix_edges(as_tensor(x), _same_level(positions, m, geometry), params)


def inter_set_mix(x, positions, inv: InverseNeighborMap, params: PointMixerParams,
                  geometry: MapGeometry | None = None) -> Tensor:
    """Mix each query with every point whose neighborhood contains it.

    Row cardinality varies, so normalization runs over CSR segments. A row
    can be empty: with more than k coincident copies of a point, some copies
    sit in no neighborhood. An empty row mixes nothing and gives a zero
    vector, so inside a residual block the point's features pass through."""
    return _softmax_mix_edges(as_tensor(x), _same_level(positions, inv, geometry), params)


def hier_down_mix(x_o, pos_o, pos_s, m_os: NeighborMap, params: PointMixerParams,
                  geometry: MapGeometry | None = None) -> Tensor:
    """Pool original-level features into sampled queries via the forward
    cross-level map (queries are the sampled points)."""
    if geometry is None:
        geometry = map_geometry(as_positions(pos_s), as_positions(pos_o), m_os)
    return _softmax_mix_edges(as_tensor(x_o), geometry, params)


def hier_up_mix(
    x_s,
    pos_s,
    pos_o,
    inv_os: InverseNeighborMap,
    params: PointMixerParams,
    skip,
    fallback: np.ndarray,
    geometry: MapGeometry | None = None,
) -> Tensor:
    """Spread sampled-level features back to the original level by reusing
    the inverted down-sampling map; the result is added to the skip features
    (``skip=None`` returns the mix alone).

    Original points absent from every sampled neighborhood fall back to
    their single nearest sampled point (singleton segment, weight 1; see
    ``geom.up_edges``). ``fallback`` carries those nearest-sample indices,
    -1 for covered rows: ``HierarchyLevel.up_fallback``, found once when
    ``geom.build_hierarchy`` builds the level. This layer runs no search.
    ``geometry``, when given, already holds those up-sampling edges.
    """
    if geometry is None:
        geometry = map_geometry(as_positions(pos_o), as_positions(pos_s), up_edges(inv_os, fallback))
    mixed = _softmax_mix_edges(as_tensor(x_s), geometry, params)
    if skip is None:
        return mixed
    return mixed + as_tensor(skip)


# -- comparison operator variants -------------------------------------------


@dataclass
class MaxPoolParams:
    """Max-pool aggregation: elementwise max over neighbors of an MLP applied
    to [x_j; p_i - p_j]. A max over no neighbors is undefined, so an inverse
    map with an empty row raises ``segment_max``'s ValueError."""

    mlp: Mlp2
    width: int

    @classmethod
    def create(cls, store: ParamStore, name: str, width: int, rng: Rng) -> "MaxPoolParams":
        return cls(Mlp2.create(store, f"{name}.mlp", (width + 3, width, width), rng), width)

    def mix(self, x, positions, index_map, geometry: MapGeometry | None) -> Tensor:
        geo = _same_level(positions, index_map, geometry)
        h = self.mlp(concat_last([gather_rows(x, geo.edges.src), Tensor(geo.rel)]))
        return segment_max(h, geo.edges)


@dataclass
class VectorAttentionParams:
    """Vector subtraction attention with per-channel softmax over neighbors:
    weights psi(W1 x_i - W2 x_j + delta), values W3 x_j + delta."""

    w1: Linear
    w2: Linear
    w3: Linear
    psi: Mlp2
    delta: Mlp2
    width: int

    @classmethod
    def create(cls, store: ParamStore, name: str, width: int, rng: Rng) -> "VectorAttentionParams":
        return cls(
            Linear.create(store, f"{name}.w1", width, width, rng),
            Linear.create(store, f"{name}.w2", width, width, rng),
            Linear.create(store, f"{name}.w3", width, width, rng),
            Mlp2.create(store, f"{name}.psi", (width, width, width), rng),
            Mlp2.create(store, f"{name}.delta", (3, width, width), rng),
            width,
        )

    def mix(self, x, positions, index_map, geometry: MapGeometry | None) -> Tensor:
        geo = _same_level(positions, index_map, geometry)
        e = geo.edges
        pe = self.delta(geo.rel)
        logits = gather_rows(self.w1(x), e.dst) - gather_rows(self.w2(x), e.src) + pe
        weights = segment_softmax(self.psi(logits), e)
        return segment_sum(weights * (gather_rows(self.w3(x), e.src) + pe), e)


@dataclass
class TokenMlpParams:
    """Token-mixing (k -> 2k -> k) then channel-mixing (C -> 2C -> C) MLPs
    over a gathered fixed-K neighborhood, averaged back to one vector per
    query. It sees neighbor features only, no relative positions."""

    k: int
    norm1: LayerNorm
    token_mlp: Mlp2
    norm2: LayerNorm
    channel_mlp: Mlp2
    width: int

    @classmethod
    def create(cls, store: ParamStore, name: str, width: int, k: int, rng: Rng) -> "TokenMlpParams":
        return cls(
            k,
            LayerNorm.create(store, f"{name}.norm1", width),
            Mlp2.create(store, f"{name}.token", (k, 2 * k, k), rng),
            LayerNorm.create(store, f"{name}.norm2", width),
            Mlp2.create(store, f"{name}.channel", (width, 2 * width, width), rng),
            width,
        )

    def mix(self, x, positions, index_map, geometry: MapGeometry | None) -> Tensor:
        if not isinstance(index_map, NeighborMap):
            raise VariableCardinalityError(
                "token-mixing MLPs require a fixed neighbor count; inverse maps have variable cardinality"
            )
        if index_map.k != self.k:
            raise VariableCardinalityError(f"layer declared K={self.k} but map has K={index_map.k}")
        n, k = index_map.indices.shape
        xk = reshape(gather_rows(x, index_map.indices.ravel()), (n, k, self.width))
        mixed = transpose_last2(self.token_mlp(transpose_last2(self.norm1(xk))))
        x1 = xk + mixed
        y = x1 + self.channel_mlp(self.norm2(x1))
        return reduce_mean(y, axis=1)


def variant_mix(x, positions, index_map, v, geometry: MapGeometry | None = None) -> Tensor:
    """Run whichever mixing operator ``v`` parameterizes over the given map:
    each params class owns its forward, ``v.mix`` (``geometry``: the map's
    prepared ``MapGeometry``, which the token MLP does not use)."""
    x = as_tensor(x)
    _check_width(x, v.width)
    return v.mix(x, positions, index_map, geometry)


def create_variant(
    store: ParamStore,
    name: str,
    kind: str,
    width: int,
    rng: Rng,
    k: int | None = None,
):
    if kind == "softmax":
        return PointMixerParams.create(store, name, width, rng)
    if kind == "maxpool":
        return MaxPoolParams.create(store, name, width, rng)
    if kind == "attention":
        return VectorAttentionParams.create(store, name, width, rng)
    if kind == "tokenmlp":
        if k is None:
            raise ValueError("tokenmlp variant needs a declared neighbor count")
        return TokenMlpParams.create(store, name, width, k, rng)
    raise ValueError(f"unknown variant {kind!r}; expected one of {VARIANTS}")


# -- block -------------------------------------------------------------------


@dataclass
class MixerBlockParams:
    """Pre-norm residual block: x + mix(LN(x)), then the channel MLP residual (C -> 2C -> C)."""

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
        k: int | None = None,
    ) -> "MixerBlockParams":
        return cls(
            LayerNorm.create(store, f"{name}.norm1", width),
            create_variant(store, f"{name}.mix", variant, width, rng, k=k),
            LayerNorm.create(store, f"{name}.norm2", width),
            Mlp2.create(store, f"{name}.channel", (width, 2 * width, width), rng),
            width,
        )


def mixer_block(x, positions, index_map, block: MixerBlockParams, geometry: MapGeometry | None = None) -> Tensor:
    x = as_tensor(x)
    _check_width(x, block.width)
    x1 = x + variant_mix(block.norm1(x), positions, index_map, block.mix, geometry)
    return x1 + block.channel_mlp(block.norm2(x1))
