"""pmix command line: dataset generation, training, evaluation, gradient
checking, operator benchmarks, and receptive-field analysis.

Exit codes: 0 success, 2 usage error (bad flags, mismatched head/task,
a network the config cannot build, such as token-MLP mixing with
inter-set mixing on, clouds with fewer points than the network's k
needs, a max-pool network with inter-set mixing on clouds where some
point lies in no neighbourhood, --grid with train.resume set, a
checkpoint whose parameter names or shapes differ from the network's), 3 I/O
failure (unreadable or inconsistent data, config or checkpoint, a split
with no clouds to train on or evaluate, a network whose output on the
evaluated data is non-finite, or a reconstruction target with zero
nearest-neighbour spacing in the split it is scored on), 4 non-finite
training loss or non-finite output on the test split after training.
The PMIX_SEED environment variable overrides data.seed everywhere.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import os
import sys
import time
import warnings

import numpy as np

from . import autodiff, cloudio, config as config_mod, geom, mixer, net, nn, tasks
from .autodiff import Tensor

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_DIVERGED = 4


class UsageError(Exception):
    pass


def _env_seed(default: int) -> int:
    raw = os.environ.get("PMIX_SEED")
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError as e:
        raise UsageError(f"PMIX_SEED must be an integer, got {raw!r}") from e


# -- gen ---------------------------------------------------------------------


def cmd_gen(args) -> int:
    spec = tasks.DatasetSpec(
        task=args.task,
        classes=args.classes if args.classes is not None else (2 if args.task == "seg" else 3),
        points=args.points,
        train_clouds=args.clouds,
        test_clouds=args.test_clouds,
        noise=args.noise,
        seed=_env_seed(args.seed),
    )
    try:
        spec.validate()
    except ValueError as e:
        raise UsageError(str(e)) from e
    dataset = tasks.gen_dataset(spec)
    cloudio.write_dataset(args.out, dataset)
    print(f"wrote {len(dataset.train)} train + {len(dataset.test)} test clouds to {args.out}")
    return EXIT_OK


# -- train -------------------------------------------------------------------


def _load_dataset(cfg: config_mod.Config) -> tasks.Dataset:
    if cfg["data.dir"]:
        dataset = cloudio.read_dataset(cfg["data.dir"])
        if not dataset.train:
            raise ValueError(f"{cfg['data.dir']}: no train clouds")
        return dataset
    spec = tasks.DatasetSpec(
        task=cfg["data.task"],
        classes=cfg["data.classes"],
        points=cfg["data.points"],
        train_clouds=cfg["data.train_clouds"],
        test_clouds=cfg["data.test_clouds"],
        noise=cfg["data.noise"],
        seed=cfg["data.seed"],
    )
    return tasks.gen_dataset(spec)


def _head_for(task: str, classes: int, dropout: float):
    if task == "cls":
        return net.ClassificationHead(classes, dropout)
    if task == "seg":
        return net.DenseHead(classes)
    return net.DenseHead(3)


def _network_config(cfg: config_mod.Config, dataset: tasks.Dataset) -> net.NetworkConfig:
    """The config's network, checked by ``NetworkConfig.validate``; a
    network it cannot build, or whose head is for another task than the
    data's, is a usage error."""
    if cfg["data.task"] != dataset.spec.task:
        raise UsageError(f"head/task mismatch: config trains a {cfg['data.task']!r} head "
                         f"but the data directory holds {dataset.spec.task!r} clouds")
    levels = [
        net.LevelSpec(w, b, r)
        for w, b, r in zip(cfg["net.widths"], cfg["net.blocks"], cfg["net.ratios"])
    ]
    ncfg = net.NetworkConfig(
        levels=levels,
        head=_head_for(dataset.spec.task, dataset.spec.classes, cfg["net.dropout"]),
        k=cfg["net.k"],
        in_channels=(dataset.train or dataset.test)[0].channels,  # read_dataset keeps one width
        use_intra=cfg["net.use_intra"],
        use_inter=cfg["net.use_inter"],
        use_hier=cfg["net.use_hier"],
        variant=cfg["net.variant"],
    )
    try:
        ncfg.validate()
    except ValueError as e:
        raise UsageError(str(e)) from e
    return ncfg


def _network_from_config(cfg: config_mod.Config, dataset: tasks.Dataset) -> net.Network:
    return net.build_network(_network_config(cfg, dataset), nn.Rng(cfg["net.seed"]))


@contextlib.contextmanager
def _quiet_overflow():
    """Silence numpy's overflow warnings on the way to a non-finite loss or
    output: training raises TrainingDiverged and evaluate NonFiniteOutput
    for it, each reported in one line."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "(overflow|invalid value) encountered", RuntimeWarning)
        yield


def _run_training(cfg: config_mod.Config, dataset: tasks.Dataset, network: net.Network):
    with _quiet_overflow():
        return tasks.train(
            network,
            dataset,
            tasks.Schedule(base_lr=cfg["train.lr"], epochs=max(1, cfg["train.epochs"])),
            epochs=cfg["train.epochs"],
            batch=cfg["train.batch"],
            rng=nn.Rng(cfg["train.seed"]),
            dropout_rng=nn.Rng(cfg["train.seed"] + 1),
        )


def _eval_split(network, dataset: tasks.Dataset, split: str) -> tasks.MetricReport:
    clouds = dataset.train if split == "train" else dataset.test
    targets = None
    if dataset.spec.task == "recon":
        targets = dataset.train_targets if split == "train" else dataset.test_targets
    with _quiet_overflow():
        return tasks.evaluate(network, clouds, dataset.spec.task,
                              num_classes=dataset.spec.classes, targets=targets)


def _write_log_csv(path, log):
    with open(path, "w", encoding="ascii") as fh:
        fh.write("epoch,lr,loss,train_metric\n")
        for row in log:
            fh.write(f"{row['epoch']},{row['lr']!r},{row['loss']!r},{row['train_metric']!r}\n")


def _run_dir(cfg: config_mod.Config) -> str:
    """Make the run directory and echo the config into it. Called once the
    run has trained, so a run refused with exit 2 or 3 leaves no directory."""
    out_dir = cfg["train.out"]
    os.makedirs(out_dir, exist_ok=True)
    config_mod.dump(cfg, os.path.join(out_dir, "config.txt"))
    return out_dir


GRID = list(itertools.product((False, True), repeat=3))  # (intra, inter, hier) rows


def _ablation_grid(cfg: config_mod.Config, dataset: tasks.Dataset) -> int:
    metric_key = {"cls": "oa", "seg": "miou", "recon": "cd"}[dataset.spec.task]
    # every cell's network is checked before the first one trains
    configs = [_network_config(cfg.with_overrides(net__use_intra=i, net__use_inter=j, net__use_hier=h), dataset)
               for i, j, h in GRID]
    rows = []
    print(f"intra inter hier  {metric_key}")
    for (use_intra, use_inter, use_hier), ncfg in zip(GRID, configs):
        network = net.build_network(ncfg, nn.Rng(cfg["net.seed"]))
        try:
            _run_training(cfg, dataset, network)
            report = _eval_split(network, dataset, "test" if dataset.test else "train")
        except (tasks.TrainingDiverged, tasks.NonFiniteOutput) as e:
            _run_dir(cfg)
            print(f"training diverged in grid cell ({use_intra},{use_inter},{use_hier}): {e}",
                  file=sys.stderr)
            return EXIT_DIVERGED
        value = report.values[metric_key]
        rows.append((use_intra, use_inter, use_hier, value))
        marks = ["x" if f else "." for f in (use_intra, use_inter, use_hier)]
        print(f"{marks[0]:^5} {marks[1]:^5} {marks[2]:^4}  {value:.4f}")
    with open(os.path.join(_run_dir(cfg), "grid.csv"), "w", encoding="ascii") as fh:
        fh.write(f"intra,inter,hier,{metric_key}\n")
        for r in rows:
            fh.write(f"{int(r[0])},{int(r[1])},{int(r[2])},{r[3]!r}\n")
    return EXIT_OK


def _load_checkpoint_into(network: net.Network, path, unreadable: str) -> int:
    """Load the checkpoint at ``path`` into ``network``. Returns EXIT_OK, or
    the exit code after one stderr line: 3 for a file that cannot be read
    (prefixed ``unreadable``), 2 for one whose names or shapes differ from
    the network's."""
    try:
        state = nn.load_checkpoint(path)
    except (OSError, ValueError) as e:
        print(f"{unreadable}: {e}", file=sys.stderr)
        return EXIT_IO
    try:
        network.store.load_state(state)
    except ValueError as e:
        print(f"checkpoint does not fit this network: {e}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


def cmd_train(args) -> int:
    try:
        cfg = config_mod.load(args.config)
        config_mod.validate(cfg)
    except OSError as e:
        print(f"cannot read config: {e}", file=sys.stderr)
        return EXIT_IO
    except config_mod.ConfigError as e:
        print(f"bad config: {e}", file=sys.stderr)
        return EXIT_IO
    cfg = cfg.with_overrides(data__seed=_env_seed(cfg["data.seed"]))
    if args.grid and cfg["train.resume"]:
        raise UsageError("--grid trains every cell from fresh weights and cannot resume; "
                         "leave train.resume empty")
    try:
        dataset = _load_dataset(cfg)
        if dataset.spec.task == "recon":  # refuse targets the run cannot be scored on before it trains
            tasks.target_taus(dataset.train_targets if args.grid and not dataset.test else dataset.test_targets)
    except (OSError, ValueError) as e:
        print(f"cannot load data: {e}", file=sys.stderr)
        return EXIT_IO
    if args.grid:
        return _ablation_grid(cfg, dataset)
    network = _network_from_config(cfg, dataset)
    if cfg["train.resume"]:
        code = _load_checkpoint_into(network, cfg["train.resume"], "cannot resume")
        if code:
            return code
    try:
        _, log = _run_training(cfg, dataset, network)
    except tasks.TrainingDiverged as e:
        _run_dir(cfg)
        print(f"training diverged: {e}", file=sys.stderr)
        return EXIT_DIVERGED
    out_dir = _run_dir(cfg)
    nn.save_checkpoint(os.path.join(out_dir, "model.pmix"), network.state())
    _write_log_csv(os.path.join(out_dir, "log.csv"), log)
    if log:
        print(f"final epoch: loss={log[-1]['loss']:.6f} train_metric={log[-1]['train_metric']:.4f}")
    if dataset.test:
        try:
            print(_eval_split(network, dataset, "test").to_kv())
        except tasks.NonFiniteOutput as e:
            print(f"test evaluation diverged: {e}", file=sys.stderr)
            return EXIT_DIVERGED
    return EXIT_OK


# -- eval --------------------------------------------------------------------


def cmd_eval(args) -> int:
    try:
        cfg = config_mod.load(args.config)
        config_mod.validate(cfg)
        dataset = cloudio.read_dataset(args.data)
    except OSError as e:
        print(f"cannot read inputs: {e}", file=sys.stderr)
        return EXIT_IO
    except (config_mod.ConfigError, ValueError) as e:
        print(f"bad inputs: {e}", file=sys.stderr)
        return EXIT_IO
    if not (dataset.train if args.split == "train" else dataset.test):
        print(f"bad inputs: {args.data} has no {args.split} clouds", file=sys.stderr)
        return EXIT_IO
    network = _network_from_config(cfg, dataset)
    code = _load_checkpoint_into(network, args.checkpoint, "cannot read checkpoint")
    if code:
        return code
    try:
        report = _eval_split(network, dataset, args.split)
    except (tasks.NonFiniteOutput, tasks.ZeroSpacingTarget) as e:
        print(f"cannot evaluate: {e}", file=sys.stderr)
        return EXIT_IO
    print(report.to_csv() if args.format == "csv" else report.to_kv())
    return EXIT_OK


# -- gradcheck -----------------------------------------------------------------


def _gradcheck_cases(seed: int):
    """Named scalar probes over every primitive, every mixing layer, every
    operator variant, and a 2-level end-to-end network."""
    rng = np.random.default_rng(seed)
    cases = []

    x = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    W = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
    b = Tensor(rng.normal(size=3), requires_grad=True)
    u = Tensor(rng.normal(size=(4, 3)))
    cases.append(("linear", lambda: autodiff.reduce_sum(nn.linear(x, W, b) * u), [x, W, b]))

    g = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    ug = Tensor(rng.normal(size=(3, 4)))
    cases.append(("gelu", lambda: autodiff.reduce_sum(nn.gelu(g) * ug), [g]))

    ln_x = Tensor(rng.normal(size=(3, 6)), requires_grad=True)
    gamma = Tensor(rng.normal(size=6), requires_grad=True)
    beta = Tensor(rng.normal(size=6), requires_grad=True)
    cases.append(
        ("layernorm", lambda: autodiff.reduce_sum(nn.layernorm(ln_x, gamma, beta, 1e-5) * ug.data[0, 0]), [ln_x, gamma, beta])
    )

    scores = Tensor(rng.normal(size=9), requires_grad=True)
    off = np.array([0, 3, 3, 7, 9])
    w9 = Tensor(rng.normal(size=9))
    cases.append(("segment_softmax", lambda: autodiff.reduce_sum(nn.segment_softmax(scores, off) * w9), [scores]))

    vals = Tensor(rng.normal(size=(7, 3)), requires_grad=True)
    idx = rng.integers(0, 4, 7)
    u4 = Tensor(rng.normal(size=(4, 3)))
    cases.append(("scatter_add", lambda: autodiff.reduce_sum(nn.scatter_add(vals, idx, 4) * u4), [vals]))

    rows = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    dup = np.array([2, 0, 2, 3, 2])
    u5 = Tensor(rng.normal(size=(5, 3)))
    cases.append(("gather_rows", lambda: autodiff.reduce_sum(nn.gather_rows(rows, dup) * u5), [rows]))

    edge_w = Tensor(rng.normal(size=9), requires_grad=True)
    src9 = np.array([1, 3, 3, 0, 2, 3, 1, 0, 2])
    cases.append(
        ("csr_weighted_sum",
         lambda: autodiff.reduce_sum(autodiff.csr_weighted_sum(edge_w, rows, src9, off) * u4), [edge_w, rows])
    )

    # its own generator, so the probes below see the same data as before
    erng = np.random.default_rng(seed + 5)
    e_hidden = Tensor(erng.normal(size=(4, 2)), requires_grad=True)
    e_params = [Tensor(erng.normal(size=s), requires_grad=True) for s in ((5, 3), (5,), (2, 5), (1, 2), (1,))]
    e_rel, u9 = erng.normal(size=(9, 3)), Tensor(erng.normal(size=9))
    cases.append(
        ("edge_scores",
         lambda: autodiff.reduce_sum(autodiff.edge_scores(e_hidden, src9, e_rel, *e_params) * u9), [e_hidden] + e_params)
    )

    pts = rng.uniform(-1, 1, (8, 3))
    m = geom.knn(pts, pts, 3)
    inv = geom.invert_map(m)
    feats = Tensor(rng.normal(size=(8, 4)), requires_grad=True)
    u8 = Tensor(rng.normal(size=(8, 4)))
    store = nn.ParamStore()
    pmp = mixer.PointMixerParams.create(store, "pm", 4, nn.Rng(seed))
    pmp_params = [t for _, t in store.tensors()]
    cases.append(
        ("intra_set_mix", lambda: autodiff.reduce_sum(mixer.intra_set_mix(feats, pts, m, pmp) * u8), pmp_params + [feats])
    )
    cases.append(
        ("inter_set_mix", lambda: autodiff.reduce_sum(mixer.inter_set_mix(feats, pts, inv, pmp) * u8), pmp_params + [feats])
    )

    h = geom.build_hierarchy(pts, [0.5], k=3)
    lv = h.levels[1]
    xs = Tensor(rng.normal(size=(lv.n, 4)), requires_grad=True)
    us = Tensor(rng.normal(size=(lv.n, 4)))
    skip = Tensor(rng.normal(size=(8, 4)))
    cases.append(
        ("hier_down_mix", lambda: autodiff.reduce_sum(mixer.hier_down_mix(feats, pts, lv.positions, lv.down_map, pmp) * us), pmp_params + [feats])
    )
    cases.append(
        ("hier_up_mix", lambda: autodiff.reduce_sum(
            mixer.hier_up_mix(xs, lv.positions, pts, lv.down_inverse, pmp, skip=skip, fallback=lv.up_fallback) * u8
        ), pmp_params + [xs])
    )

    for variant in ("maxpool", "attention", "tokenmlp"):
        vstore = nn.ParamStore()
        v = mixer.create_variant(vstore, "v", variant, 4, nn.Rng(seed + 1), k=3)
        vparams = [t for _, t in vstore.tensors()]
        cases.append(
            (f"variant_{variant}",
             lambda v=v: autodiff.reduce_sum(mixer.variant_mix(feats, pts, m, v) * u8),
             vparams + [feats])
        )

    bstore = nn.ParamStore()
    block = mixer.MixerBlockParams.create(bstore, "blk", 4, nn.Rng(seed + 2))
    cases.append(
        ("mixer_block", lambda: autodiff.reduce_sum(mixer.mixer_block(feats, pts, m, block) * u8),
         [t for _, t in bstore.tensors()] + [feats])
    )

    cfg = net.NetworkConfig(
        levels=[net.LevelSpec(4, 1, 1.0), net.LevelSpec(5, 1, 0.25)],
        head=net.DenseHead(2), k=3,
    )
    network = net.build_network(cfg, nn.Rng(seed + 3))
    cloud_pos = rng.uniform(-1, 1, (16, 3))
    cloud = geom.PointCloud(cloud_pos, cloud_pos.copy())
    plan = network.prepare(cloud.positions)
    ue = Tensor(rng.normal(size=(16, 2)))
    cases.append(
        ("end_to_end_dense",
         lambda: autodiff.reduce_sum(net.forward_dense(network, cloud, plan=plan) * ue),
         [t for _, t in network.store.tensors()])
    )
    return cases


def cmd_gradcheck(args) -> int:
    worst_name, worst_err = "", -1.0
    failed = []
    for name, f, params in _gradcheck_cases(args.seed):
        err = nn.check_gradient(f, params, h=args.h)
        status = "ok" if err < args.tol else "FAIL"
        print(f"{name:<20} max_rel_err={err:.3e}  {status}")
        if err > worst_err:
            worst_name, worst_err = name, err
        if err >= args.tol:
            failed.append(name)
    print(f"worst: {worst_name} ({worst_err:.3e})")
    if failed:
        print(f"gradient check failed for: {', '.join(failed)}", file=sys.stderr)
        return 1
    return EXIT_OK


# -- bench ---------------------------------------------------------------------


def cmd_bench(args) -> int:
    rng = np.random.default_rng(args.seed)
    pts = rng.uniform(-1, 1, (args.points, 3))
    m = geom.knn(pts, pts, args.k)
    dtype = np.float32 if args.dtype == "f32" else np.float64
    print(f"variant    params    latency_ms  peak_kb   ({args.points} pts, k={args.k}, "
          f"C={args.width}, median of {args.iters}, {args.dtype})")
    rows = {}
    for variant in mixer.VARIANTS:
        store = nn.ParamStore()
        v = mixer.create_variant(store, "v", variant, args.width, nn.Rng(args.seed), k=args.k)
        for _, t in store.tensors():
            t.data = t.data.astype(dtype)
        x = Tensor(rng.normal(size=(args.points, args.width)).astype(dtype))
        pos = pts.astype(dtype)
        autodiff.enable_alloc_tracking(True)
        times = []
        peak = 0
        with autodiff.no_grad():
            for _ in range(max(20, args.iters)):
                autodiff.reset_peak_bytes()
                t0 = time.perf_counter()
                mixer.variant_mix(x, pos, m, v)
                times.append(time.perf_counter() - t0)
                peak = max(peak, autodiff.peak_bytes())
        autodiff.enable_alloc_tracking(False)
        lat = float(np.median(times) * 1e3)
        rows[variant] = store.param_count()
        print(f"{variant:<10} {store.param_count():<9d} {lat:<11.3f} {peak / 1024:<8.1f}")
    if rows["softmax"] >= rows["tokenmlp"]:
        print("warning: softmax variant is not smaller than token-MLP", file=sys.stderr)
        return 1
    return EXIT_OK


# -- receptive field --------------------------------------------------------------


def cmd_rfield(args) -> int:
    rng = np.random.default_rng(args.seed)
    agg = {"intra": [], "intra+inter": [], "up_inverse": [], "up_trilinear": []}
    wins = 0
    for h_idx in range(args.hierarchies):
        pts = rng.uniform(-1, 1, (args.points, 3))
        hier = geom.build_hierarchy(pts, [args.ratio], k=args.k, start=geom.lexmin_index(pts))
        lv = hier.levels[1]
        m = geom.knn(pts, pts, args.k)
        inv = geom.invert_map(m)
        sizes = {key: [] for key in agg}
        for q in rng.choice(args.points, size=min(args.queries, args.points), replace=False):
            q = int(q)
            sizes["intra"].append(len(geom.intra_influence(m, q)))
            sizes["intra+inter"].append(len(geom.inter_influence(m, inv, q)))
            sizes["up_inverse"].append(len(geom.up_influence_inverse(lv, q)))
            sizes["up_trilinear"].append(len(geom.up_influence_trilinear(lv, pts, q)))
        for key in agg:
            agg[key].append(float(np.mean(sizes[key])))
        if agg["up_inverse"][-1] >= agg["up_trilinear"][-1]:
            wins += 1
    print(f"mean influence-set sizes over {args.hierarchies} hierarchies "
          f"({args.points} pts, k={args.k}, ratio={args.ratio}):")
    for key in agg:
        print(f"  {key:<13} {np.mean(agg[key]):8.2f}")
    print(f"inverse-map upsampling reaches >= trilinear on {wins}/{args.hierarchies} hierarchies")
    return EXIT_OK if wins == args.hierarchies else 1


# -- entry -----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="pmix", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a synthetic dataset directory")
    g.add_argument("--task", choices=tasks.TASKS, required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.add_argument("--clouds", type=int, default=120)
    g.add_argument("--test-clouds", type=int, default=30)
    g.add_argument("--points", type=int, default=256)
    g.add_argument("--noise", type=float, default=0.02)
    g.add_argument("--classes", type=int, default=None)
    g.set_defaults(func=cmd_gen)

    t = sub.add_parser("train", help="train from a key=value config file")
    t.add_argument("config", help="path to the run config")
    t.add_argument("--grid", action="store_true",
                   help="run the 8-row {intra}x{inter}x{hier} ablation grid")
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("eval", help="evaluate a checkpoint on a dataset directory")
    e.add_argument("--config", required=True)
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--data", required=True)
    e.add_argument("--split", choices=("train", "test"), default="test")
    e.add_argument("--format", choices=("kv", "csv"), default="kv")
    e.set_defaults(func=cmd_eval)

    c = sub.add_parser("gradcheck", help="finite-difference checks for every layer variant")
    c.add_argument("--h", type=float, default=1e-5)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--tol", type=float, default=1e-4)
    c.set_defaults(func=cmd_gradcheck)

    b = sub.add_parser("bench", help="per-variant parameter/latency/memory table")
    b.add_argument("--points", type=int, default=512)
    b.add_argument("--width", type=int, default=32)
    b.add_argument("--k", type=int, default=16)
    b.add_argument("--iters", type=int, default=20)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--dtype", choices=("f64", "f32"), default="f64")
    b.set_defaults(func=cmd_bench)

    r = sub.add_parser("rfield", help="receptive-field reachability statistics")
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("--points", type=int, default=128)
    r.add_argument("--k", type=int, default=16)
    r.add_argument("--ratio", type=float, default=0.25)
    r.add_argument("--hierarchies", type=int, default=50)
    r.add_argument("--queries", type=int, default=32)
    r.set_defaults(func=cmd_rfield)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except (UsageError, tasks.CloudsTooSmall, mixer.VariableCardinalityError, net.UncoveredPoints) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as e:
        print(f"I/O error: {e}", file=sys.stderr)
        return EXIT_IO


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
