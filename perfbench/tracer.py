"""Per-layer tracing of pointmixer from outside the library.

``Tracer.install()`` replaces the public functions of each layer (geom, net,
mixer, autodiff, nn, tasks, cloudio) with timing wrappers, in every module
that holds a binding to them: ``net`` keeps its own ``mixer_block`` and
``hier_*_mix``, ``tasks`` its own ``sgd_step`` and ``_make``, ``mixer`` and
``nn`` their own autodiff ops. Wrapping ``autodiff._make`` also wraps each
op's backward closure, so the tape walk is timed op by op.
``uninstall()`` puts every original back.

Spans stay in memory as ``[parent, name, start, end]`` until ``write()``.
The benchmark opens one top-level span per set-up and per round with
``phase()``, so each span belongs to exactly one of them.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import time
from collections import Counter, defaultdict

from pointmixer import autodiff, cloudio, geom, mixer, net, nn, tasks

MODULES = (autodiff, cloudio, geom, mixer, net, nn, tasks)

# autodiff function -> the op name it records on the tape
OPS = {
    "linear": "linear", "gelu": "gelu", "layernorm": "layernorm", "gather_rows": "gather",
    "segment_softmax": "segment_softmax", "segment_sum": "segment_sum", "concat_last": "concat",
    "mul": "mul", "add": "add", "sub": "sub", "reshape": "reshape", "reduce_sum": "reduce_sum",
    "reduce_mean": "reduce_mean", "matmul": "matmul", "max_axis1": "max",
    "segment_max": "segment_max", "transpose_last2": "transpose", "scatter_add": "scatter_add",
}
REPORTED_OPS = ("linear", "gelu", "layernorm", "gather", "segment_softmax", "segment_sum",
                "concat", "mul", "add")
LEVELS = 4

# per-layer metric -> the span names whose self time it sums
TIMES = {
    "geom.knn_s": ("geom.knn",),
    "geom.fps_s": ("geom.fps",),
    "geom.invert_map_s": ("geom.invert_map",),
    "geom.build_hierarchy_s": ("geom.build_hierarchy",),
    "net.prepare_s": ("net.prepare",),
    "net.forward_s": ("net.forward",),
    "mixer.intra_s": ("mixer.intra",),
    "mixer.inter_s": ("mixer.inter",),
    "mixer.hier_down_s": ("mixer.hier_down",),
    "mixer.hier_up_s": ("mixer.hier_up",),
    "autodiff.backward_s": ("autodiff.backward",),
    **{f"autodiff.op.{op}.{d}_s": (f"autodiff.op.{op}.{d}",) for op in REPORTED_OPS for d in ("fwd", "bwd")},
    "autodiff.op.other.fwd_s": tuple(f"autodiff.op.{op}.fwd" for op in OPS.values() if op not in REPORTED_OPS),
    "autodiff.op.other.bwd_s": tuple(f"autodiff.op.{op}.bwd" for op in OPS.values() if op not in REPORTED_OPS)
    + ("autodiff.op.cross_entropy.bwd",),
    "nn.sgd_step_s": ("nn.sgd_step",),
    "nn.zero_grad_s": ("nn.zero_grad",),
    "tasks.loss_s": ("tasks.loss",),
    "tasks.metrics_s": ("tasks.metrics",),
    "tasks.gen_dataset_s": ("tasks.gen_dataset",),
    "cloudio.read_s": ("cloudio.read",),
    "cloudio.write_s": ("cloudio.write",),
}
COUNTS = ("geom.knn_calls", "geom.knn_pairs", "geom.inverse_edges", "geom.up_fallback_rows",
          "geom.decode_knn_calls", "net.prepare_calls", "mixer.edge_rows", "autodiff.tape_nodes",
          "cloudio.bytes_read")
# counters that must repeat exactly from round to round
EXACT = ("geom.knn_calls", "geom.knn_pairs", "mixer.edge_rows", "autodiff.tape_nodes",
         "geom.inverse_edges", "geom.up_fallback_rows", "cloudio.bytes_read")


def _npoints(x) -> int:
    return x.n if isinstance(x, geom.PointCloud) else len(x)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.level_time: dict[int, float] = defaultdict(float)
        self.level = None  # mixer level of the outermost open mixer span
        self.sizes: list[int] = []  # point count per level of the current plan
        self.forward_depth = 0
        self.prepare_depth = 0
        self.phases: list[tuple[str, int, Counter, int]] = []  # kind, span, counts, peak bytes
        self.missing: list[str] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> list:
        rec = [self.stack[-1] if self.stack else -1, name, 0.0, 0.0]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[2] = time.perf_counter()
        return rec

    def _close(self, rec: list):
        rec[3] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, name, fn, before=None, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            rec = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if after is not None:
                after(out, *args, **kwargs)
            return out

        return wrapper

    def _wrap_level(self, name, fn, level_points, before=None):
        """A mixer span whose level is found from the point count it writes to;
        the outermost one also books its time, and the backward time of the
        ops it records, to that level."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            outer = self.level is None
            if outer:
                n = level_points(*args, **kwargs)
                self.level = self.sizes.index(n) if n in self.sizes else -1
            rec = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec)
                if outer:
                    self.level_time[self.level] += rec[3] - rec[2]
                    self.level = None

        return wrapper

    def _timed_backward(self, backward, op: str):
        name = f"autodiff.op.{op}.bwd"
        level = self.level

        def bwd(g):
            rec = self._open(name)
            try:
                return backward(g)
            finally:
                self._close(rec)
                if level is not None:
                    self.level_time[level] += rec[3] - rec[2]

        return bwd

    @contextlib.contextmanager
    def phase(self, kind: str):
        """A top-level span for one set-up or one round, with its own counts
        and tensor high-water mark."""
        before = Counter(self.counts)
        live = autodiff.live_bytes()
        autodiff.reset_peak_bytes()
        idx = len(self.spans)
        rec = self._open(f"bench.{kind}")
        try:
            yield
        finally:
            self._close(rec)
            counts = Counter(self.counts)
            counts.subtract(before)
            self.phases.append((kind, idx, counts, autodiff.peak_bytes() - live))

    # -- installing ----------------------------------------------------------

    def _patch(self, fn, wrapper, owners=MODULES):
        hits = 0
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if value is fn:
                    self._saved.append((owner, attr, value))
                    setattr(owner, attr, wrapper)
                    hits += 1
        if not hits:
            self.missing.append(getattr(fn, "__qualname__", repr(fn)))

    def _span(self, owner, attr, name, before=None, after=None):
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        owners = (owner,) if isinstance(owner, type) else MODULES
        self._patch(fn, self._wrap(name, fn, before, after), owners)

    def _level_span(self, owner, attr, name, level_points, before=None):
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        self._patch(fn, self._wrap_level(name, fn, level_points, before))

    def install(self):
        c = self.counts

        # geom
        def knn_before(sources, queries, k):
            c["geom.knn_calls"] += 1
            c["geom.knn_pairs"] += _npoints(sources) * _npoints(queries)
            if self.forward_depth and not self.prepare_depth:
                c["geom.decode_knn_calls"] += 1

        def hierarchy_after(h, *args, **kwargs):
            c["geom.up_fallback_rows"] += sum(int((lv.up_fallback >= 0).sum()) for lv in h.levels)

        self._span(geom, "knn", "geom.knn", before=knn_before)
        self._span(geom, "fps", "geom.fps")
        self._span(geom, "invert_map", "geom.invert_map",
                   after=lambda inv, *a, **k: c.update({"geom.inverse_edges": inv.indices.size}))
        self._span(geom, "build_hierarchy", "geom.build_hierarchy", after=hierarchy_after)

        # net
        prepare = net.Network.prepare

        @functools.wraps(prepare)
        def prepare_wrapper(network, positions):
            c["net.prepare_calls"] += 1
            self.prepare_depth += 1
            rec = self._open("net.prepare")
            try:
                plan = prepare(network, positions)
            finally:
                self._close(rec)
                self.prepare_depth -= 1
            self.sizes = [len(p) for p in plan.positions]
            return plan

        self._saved.append((net.Network, "prepare", prepare))
        net.Network.prepare = prepare_wrapper

        def forward(fn):
            @functools.wraps(fn)
            def wrapper(network, cloud, plan=None, **kwargs):
                if plan is not None:
                    self.sizes = [len(p) for p in plan.positions]
                self.forward_depth += 1
                rec = self._open("net.forward")
                try:
                    return fn(network, cloud, plan=plan, **kwargs)
                finally:
                    self._close(rec)
                    self.forward_depth -= 1
            return wrapper

        for attr in ("forward_dense", "forward_classify"):
            fn = getattr(net, attr)
            self._patch(fn, forward(fn))
        self._span(net, "build_network", "net.build_network")

        # mixer: level of the points each operator writes to
        def edges(n):
            return lambda *a, **k: c.update({"mixer.edge_rows": n(*a)})

        self._level_span(mixer, "mixer_block", "mixer.block", lambda x, pos, *a, **k: len(pos))
        self._level_span(mixer, "intra_set_mix", "mixer.intra", lambda x, pos, *a, **k: len(pos),
                         before=edges(lambda x, pos, m, *a: m.indices.size))
        self._level_span(mixer, "inter_set_mix", "mixer.inter", lambda x, pos, *a, **k: len(pos),
                         before=edges(lambda x, pos, inv, *a: inv.indices.size))
        self._level_span(mixer, "hier_down_mix", "mixer.hier_down",
                         lambda x_o, pos_o, pos_s, *a, **k: len(pos_s),
                         before=edges(lambda x, po, ps, m, *a: m.indices.size))
        self._level_span(mixer, "hier_up_mix", "mixer.hier_up",
                         lambda x_s, pos_s, pos_o, *a, **k: len(pos_o),
                         before=edges(lambda x, ps, po, inv, *a: inv.indices.size
                                      + int((inv.row_lengths() == 0).sum())))

        # autodiff: every op forward, every backward closure, the tape walk
        for fname, op in OPS.items():
            self._span(autodiff, fname, f"autodiff.op.{op}.fwd")
        make = autodiff._make

        @functools.wraps(make)
        def make_wrapper(data, parents, backward, op=""):
            out = make(data, parents, self._timed_backward(backward, op), op)
            if out.requires_grad:
                c["autodiff.tape_nodes"] += 1
            return out

        self._patch(make, make_wrapper)
        self._span(autodiff.Tensor, "backward", "autodiff.backward")
        autodiff.enable_alloc_tracking(True)

        # nn
        self._span(nn, "sgd_step", "nn.sgd_step")
        self._span(nn.ParamStore, "zero_grad", "nn.zero_grad")
        self._span(nn.ParamStore, "scale_grads", "nn.scale_grads")
        self._span(nn, "dropout", "nn.dropout")

        # tasks
        self._span(tasks, "train", "tasks.train")
        self._span(tasks, "evaluate", "tasks.evaluate")
        self._span(tasks, "gen_dataset", "tasks.gen_dataset")
        self._span(tasks, "cross_entropy", "tasks.loss")
        self._span(tasks, "chamfer_loss", "tasks.loss")
        for attr in ("chamfer", "default_tau", "occupancy_metrics", "segmentation_metrics"):
            self._span(tasks, attr, "tasks.metrics")

        # cloudio
        def read_before(path, *a, **k):
            c["cloudio.bytes_read"] += os.path.getsize(path)

        self._span(cloudio, "read_cloud", "cloudio.read", before=read_before)
        self._span(cloudio, "read_dataset", "cloudio.read",
                   before=lambda d, *a, **k: read_before(os.path.join(d, "manifest.txt")))
        self._span(cloudio, "write_cloud", "cloudio.write")
        self._span(cloudio, "write_dataset", "cloudio.write")

    def uninstall(self):
        autodiff.enable_alloc_tracking(False)
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()

    # -- results -------------------------------------------------------------

    def _self_times(self) -> list[dict]:
        """Self time by span name, one dict per phase, in phase order."""
        spans = self.spans
        child = [0.0] * len(spans)
        top = list(range(len(spans)))
        for i, (parent, _, start, end) in enumerate(spans):
            if parent >= 0:
                child[parent] += end - start
                top[i] = top[parent]
        by_top: dict[int, Counter] = {idx: Counter() for _, idx, _, _ in self.phases}
        for i, (_, name, start, end) in enumerate(spans):
            if top[i] in by_top:
                by_top[top[i]][name] += end - start - child[i]
        return [by_top[idx] for _, idx, _, _ in self.phases]

    def report(self, params: int) -> tuple[dict, list[str]]:
        """Per-layer metrics for one set-up plus one round (the mean of the
        traced rounds), and the problems found: counts that differ between
        rounds, or a kNN search in a forward pass outside ``prepare``."""
        selfs = self._self_times()
        kinds = [kind for kind, _, _, _ in self.phases]
        rounds = [i for i, k in enumerate(kinds) if k == "round"]
        setups = [i for i, k in enumerate(kinds) if k == "setup"]
        problems = []
        per_round = [self.phases[i][2] for i in rounds]
        for name in EXACT:
            values = [r[name] for r in per_round]
            if len(set(values)) > 1:
                problems.append(f"{name} differs between rounds: {values}")

        def per_phase(get):
            setup = sum(get(i) for i in setups) / max(1, len(setups))
            return setup + sum(get(i) for i in rounds) / max(1, len(rounds))

        metrics = {}
        for metric, names in TIMES.items():
            metrics[metric] = (per_phase(lambda i: sum(selfs[i][n] for n in names)), "s")
        for li in range(LEVELS):
            metrics[f"mixer.l{li}_s"] = (self.level_time.get(li, 0.0) / max(1, len(rounds)), "s")
        for name in COUNTS:  # one set-up plus the first round
            metrics[name] = (sum(self.phases[i][2][name] for i in setups + rounds[:1]), "count")
        metrics["nn.params"] = (params, "count")
        if metrics["geom.decode_knn_calls"][0]:
            problems.append(f"{metrics['geom.decode_knn_calls'][0]} kNN searches outside prepare")
        metrics["autodiff.peak_tensor_bytes"] = (max(self.phases[i][3] for i in rounds), "bytes")
        round_time = sum(self.spans[self.phases[i][1]][3] - self.spans[self.phases[i][1]][2] for i in rounds)
        uncovered = sum(selfs[i]["bench.round"] for i in rounds)
        metrics["trace.uncovered_share"] = (uncovered / round_time, "share")
        return metrics, problems

    def write(self, path: str):
        names = sorted({s[1] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w", encoding="ascii") as fh:
            json.dump({
                "fields": ["parent", "name", "start_s", "end_s"],
                "names": names,
                "phases": [[kind, idx] for kind, idx, _, _ in self.phases],
                "spans": [[p, index[n], round(s, 7), round(e, 7)] for p, n, s, e in self.spans],
            }, fh, separators=(",", ":"))
