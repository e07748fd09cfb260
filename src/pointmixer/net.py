"""Symmetric encoder-decoder assembly, task heads, and parameter accounting.

The encoder interleaves intra-set and inter-set mixing blocks with
mixing-based transition-down stages; the decoder replays the stored
down-sampling maps in reverse (their CSR inverses), so no neighbor search
ever runs while decoding. Setting ``use_hier=False`` swaps the transitions
for the asymmetric baseline: max-pool down, 3-nearest inverse-square-distance
interpolation up, the latter rebuilding a kNN map at decode time.

The forwards take a ``geom.PointCloud`` and run its ``validate`` first, the
one input check; ``Network.prepare`` and the mixing layers take arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geom
from .autodiff import (
    Tensor,
    as_tensor,
    csr_weighted_sum,
    gather_rows,
    gelu,
    reduce_mean,
    segment_max,
)
from .geom import HierarchyLevel, InverseNeighborMap, NeighborMap, PointCloud
from .mixer import (
    MapGeometry,
    MixerBlockParams,
    PointMixerParams,
    hier_down_mix,
    hier_up_mix,
    map_geometry,
    mixer_block,
)
from .nn import LayerNorm, Linear, ParamStore, Rng, dropout

__all__ = [
    "LevelSpec",
    "ClassificationHead",
    "DenseHead",
    "NetworkConfig",
    "Network",
    "Plan",
    "UncoveredPoints",
    "build_network",
    "forward_classify",
    "forward_dense",
    "param_count",
    "default_levels",
]


@dataclass
class LevelSpec:
    width: int
    blocks: int
    ratio: float


@dataclass
class ClassificationHead:
    num_classes: int
    dropout: float = 0.5


@dataclass
class DenseHead:
    out_channels: int


def default_levels() -> list[LevelSpec]:
    """Desk-scale default: 4 levels, widths doubling, quarter down-sampling."""
    return [
        LevelSpec(32, 1, 1.0),
        LevelSpec(64, 1, 0.25),
        LevelSpec(128, 1, 0.25),
        LevelSpec(256, 1, 0.25),
    ]


@dataclass
class NetworkConfig:
    levels: list[LevelSpec]
    head: ClassificationHead | DenseHead
    k: int = 16
    in_channels: int = 3
    use_intra: bool = True
    use_inter: bool = True
    use_hier: bool = True
    variant: str = "softmax"

    def validate(self):
        if not self.levels:
            raise ValueError("at least one level required")
        if self.levels[0].ratio != 1.0:
            raise ValueError("level 0 must keep every point (ratio 1.0)")
        for spec in self.levels:
            if spec.width < 1 or spec.blocks < 0:
                raise ValueError("widths must be >= 1 and block counts >= 0")
            if not (0.0 < spec.ratio <= 1.0):
                raise ValueError("ratios must lie in (0, 1]")
        for spec in self.levels[1:]:
            if spec.ratio == 1.0:
                raise ValueError("only level 0 may have ratio 1.0")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.variant == "tokenmlp" and self.use_inter:
            raise ValueError(
                "token-MLP mixing cannot run over inverse maps (variable cardinality); "
                "disable inter-set mixing for this variant"
            )


class UncoveredPoints(ValueError):
    """``Network.prepare`` met a cloud with points in no neighbourhood (empty
    inverse rows, e.g. a point repeated more than k times) for a max-pool
    network with inter-set mixing, whose max over no neighbours is undefined."""


@dataclass
class Plan:
    """Per-cloud geometry reused across forward passes: positions, the
    hierarchy (down maps + inverses + fallbacks), same-level kNN maps, and
    per level the ``MapGeometry`` of each map the network mixes over, keyed
    "intra", "inter", "down" and "up" (the up map runs from that level to
    the one before)."""

    positions: list[np.ndarray]
    levels: list[HierarchyLevel]
    sl_maps: list[NeighborMap]
    sl_invs: list[InverseNeighborMap | None]
    geometry: list[dict[str, MapGeometry]]


@dataclass
class _TransitionDown:
    norm: LayerNorm
    mix: PointMixerParams | None  # None for the max-pool baseline
    lin: Linear


@dataclass
class _TransitionUp:
    norm: LayerNorm
    expand: Linear
    mix: PointMixerParams | None  # None for the trilinear baseline


@dataclass
class Network:
    config: NetworkConfig
    store: ParamStore
    embed: Linear
    enc_blocks: list[list[tuple[str, MixerBlockParams]]]
    downs: list[_TransitionDown]
    ups: list[_TransitionUp]
    dec_blocks: list[list[tuple[str, MixerBlockParams]]]
    head_fc1: Linear
    head_fc2: Linear
    last_decode_knn_calls: int | None = None

    def prepare(self, positions: np.ndarray) -> Plan:
        """Build every index structure a forward pass needs, and each mixed
        map's ``MapGeometry``. Float32 positions give float32
        ``plan.positions``; anything else float64 (``geom.as_positions``).
        Raises ``UncoveredPoints`` where a max-pool network's inter-set
        mixing would meet an empty inverse row."""
        cfg = self.config
        pos = geom.as_positions(positions)
        ratios = [spec.ratio for spec in cfg.levels]
        sizes = geom.level_sizes(len(pos), ratios)
        k_down = [min(cfg.k, sizes[max(0, i - 1)]) for i in range(len(cfg.levels))]
        hier = geom.build_hierarchy(pos, ratios, k_down, start=geom.lexmin_index(pos))
        # the identity level's down map is level 0's same-level map, inverse included
        sl_maps = [hier.levels[0].down_map]
        sl_maps += [geom.knn(lv.positions, lv.positions, min(cfg.k, lv.n)) for lv in hier.levels[1:]]
        sl_invs = [None] * len(sl_maps)
        if cfg.use_inter:
            sl_invs = [hier.levels[0].down_inverse] + [geom.invert_map(m) for m in sl_maps[1:]]
        for li, inv in enumerate(sl_invs):
            empty = 0 if inv is None or cfg.variant != "maxpool" else np.count_nonzero(inv.row_lengths() == 0)
            if empty and cfg.levels[li].blocks:
                raise UncoveredPoints(
                    f"{empty} points at level {li} lie in no neighbourhood (a point repeated more than "
                    f"k={cfg.k} times?), but max-pool inter-set mixing needs each point in one; "
                    "disable inter-set mixing or use another variant"
                )
        positions = [lv.positions for lv in hier.levels]
        geometry = []
        for li, lv in enumerate(hier.levels):
            pos, geo = positions[li], {}
            if cfg.use_intra:
                geo["intra"] = map_geometry(pos, pos, sl_maps[li].edges)
            if cfg.use_inter:
                geo["inter"] = map_geometry(pos, pos, sl_invs[li].edges)
            if li and cfg.use_hier:
                prev = positions[li - 1]
                geo["down"] = map_geometry(pos, prev, lv.down_map.edges)
                if isinstance(cfg.head, DenseHead):  # a classifier has no decoder
                    geo["up"] = map_geometry(prev, pos, geom.up_edges(lv.down_inverse, lv.up_fallback))
            geometry.append(geo)
        return Plan(positions, hier.levels, sl_maps, sl_invs, geometry)

    def state(self):
        return self.store.state()


def _block_list(store, prefix, cfg: NetworkConfig, spec: LevelSpec, rng) -> list[tuple[str, MixerBlockParams]]:
    kinds = [kind for kind, on in (("intra", cfg.use_intra), ("inter", cfg.use_inter)) if on]
    return [
        (kind, MixerBlockParams.create(store, f"{prefix}.b{b}.{kind}", spec.width, rng, variant=cfg.variant, k=cfg.k))
        for b in range(spec.blocks)
        for kind in kinds
    ]


def _transition_mix(store, name, width, cfg: NetworkConfig, rng) -> PointMixerParams | None:
    """A transition's mix slot: PointMixer mixing, or None for the asymmetric baseline."""
    if not cfg.use_hier:
        return None
    return PointMixerParams.create(store, name, width, rng)


def build_network(config: NetworkConfig, rng: Rng) -> Network:
    """Deterministic construction; parameter names are stable across runs."""
    config.validate()
    store = ParamStore()
    levels = config.levels
    embed = Linear.create(store, "embed", config.in_channels, levels[0].width, rng)

    enc_blocks, downs = [], []
    for li, spec in enumerate(levels):
        if li > 0:
            prev_w = levels[li - 1].width
            downs.append(_TransitionDown(
                LayerNorm.create(store, f"td{li}.norm", prev_w),
                _transition_mix(store, f"td{li}.mix", prev_w, config, rng),
                Linear.create(store, f"td{li}.reduce", prev_w, spec.width, rng),
            ))
        enc_blocks.append(_block_list(store, f"enc{li}", config, spec, rng))

    ups, dec_blocks = [], []
    classify = isinstance(config.head, ClassificationHead)
    for li, spec in enumerate([] if classify else levels[:-1]):  # a classifier has no decoder
        next_w = levels[li + 1].width
        ups.append(_TransitionUp(
            LayerNorm.create(store, f"tu{li}.norm", next_w),
            Linear.create(store, f"tu{li}.expand", next_w, spec.width, rng),
            _transition_mix(store, f"tu{li}.mix", spec.width, config, rng),
        ))
        dec_blocks.append(_block_list(store, f"dec{li}", config, spec, rng))

    w = levels[-1 if classify else 0].width
    outputs = config.head.num_classes if classify else config.head.out_channels
    fc1 = Linear.create(store, "head.fc1", w, w, rng)
    fc2 = Linear.create(store, "head.fc2", w, outputs, rng)
    return Network(config, store, embed, enc_blocks, downs, ups, dec_blocks, fc1, fc2)


def _apply_blocks(x, blocks, plan: Plan, li: int):
    for kind, block in blocks:
        index_map = plan.sl_maps[li] if kind == "intra" else plan.sl_invs[li]
        x = mixer_block(x, plan.positions[li], index_map, block, geometry=plan.geometry[li][kind])
    return x


def _transition_down(net: Network, x, plan: Plan, li: int):
    td = net.downs[li - 1]
    lv = plan.levels[li]
    h = td.norm(x)
    if td.mix is not None:
        mixed = hier_down_mix(h, plan.positions[li - 1], plan.positions[li], lv.down_map, td.mix,
                              geometry=plan.geometry[li]["down"])
        return td.lin(mixed)
    # asymmetric baseline: project then max-pool over the down-map neighborhood
    e = lv.down_map.edges
    return segment_max(gather_rows(td.lin(h), e.src), e)


def _transition_up(net: Network, x, skip, plan: Plan, li: int):
    """Up from level ``li`` to ``li - 1``."""
    tu = net.ups[li - 1]
    lv = plan.levels[li]
    g = tu.expand(tu.norm(x))
    if tu.mix is not None:
        return hier_up_mix(g, plan.positions[li], plan.positions[li - 1], lv.down_inverse,
                           tu.mix, skip=skip, fallback=lv.up_fallback, geometry=plan.geometry[li]["up"])
    # asymmetric baseline: fresh 3-NN search at decode time, inverse-square weights
    pos_o, pos_s = plan.positions[li - 1], plan.positions[li]
    m3 = geom.knn(pos_s, pos_o, min(3, len(pos_s)))
    d2 = np.sum((pos_o[:, None, :] - pos_s[m3.indices]) ** 2, axis=-1)
    w = 1.0 / (d2 + 1e-10)
    w /= w.sum(axis=1, keepdims=True)
    return csr_weighted_sum(Tensor(w.ravel()), g, m3.edges) + skip


def _encode(net: Network, plan: Plan, feats):
    x = net.embed(as_tensor(feats))
    skips = []
    for li in range(len(net.config.levels)):
        if li > 0:
            x = _transition_down(net, x, plan, li)
        x = _apply_blocks(x, net.enc_blocks[li], plan, li)
        skips.append(x)
    return x, skips


def forward_classify(net: Network, cloud: PointCloud, plan: Plan | None = None,
                     training: bool = False, rng: Rng | None = None) -> Tensor:
    """Encoder-only pass, mean pooling over the deepest level, FC head.

    Raises ``PointCloud.validate``'s ValueError on a cloud it rejects (one
    NaN would otherwise spread through the softmax mixing into every output
    row)."""
    if not isinstance(net.config.head, ClassificationHead):
        raise ValueError("network has no classification head")
    cloud.validate()
    plan = plan or net.prepare(cloud.positions)
    x, _ = _encode(net, plan, cloud.features)
    pooled = reduce_mean(x, axis=0)
    h = gelu(net.head_fc1(pooled))
    if training:
        h = dropout(h, net.config.head.dropout, rng or Rng(0), training=True)
    return net.head_fc2(h)


def forward_dense(net: Network, cloud: PointCloud, plan: Plan | None = None) -> Tensor:
    """Full U-shaped pass producing one output row per input point.

    With hierarchical mixing the decoder only replays stored inverse maps;
    ``last_decode_knn_calls`` records how many neighbor searches the decode
    phase actually ran (0 for the symmetric design). Raises
    ``PointCloud.validate``'s ValueError on a cloud it rejects (one NaN would
    otherwise spread through the softmax mixing into every output row).
    """
    if not isinstance(net.config.head, DenseHead):
        raise ValueError("network has no dense head")
    cloud.validate()
    plan = plan or net.prepare(cloud.positions)
    x, skips = _encode(net, plan, cloud.features)
    calls_before = geom.knn_call_count()
    for li in range(len(net.config.levels) - 1, 0, -1):
        x = _transition_up(net, x, skips[li - 1], plan, li)
        x = _apply_blocks(x, net.dec_blocks[li - 1], plan, li - 1)
    net.last_decode_knn_calls = geom.knn_call_count() - calls_before
    return net.head_fc2(gelu(net.head_fc1(x)))


def param_count(net: Network) -> int:
    """Total scalar parameters, momentum buffers excluded."""
    return net.store.param_count()
