"""Bit parity of the library's results between two checkouts.

    PYTHONPATH=src python tools/parity.py record OUT.npz
    PYTHONPATH=src python tools/parity.py compare A.npz B.npz

``record`` runs a fixed case set through whichever ``pointmixer`` is on the
import path and saves one entry per named result: every network's initial
parameters; per cloud its output, every parameter gradient and, for dense
heads, ``last_decode_knn_calls`` (or the refusal it raised); and params,
momentum and log after two epochs of ``tasks.train``. An entry holds the
array's dtype, shape and a SHA-256 of its bytes, not the array: the case set
holds about 28 M parameters, each with its gradients.

``compare`` prints every name whose bits, shape or dtype differ, or that only
one file holds, and exits 1 if there is any.

Checking a change against its parent commit (local git only):

    git worktree add ../parent HEAD~1
    PYTHONPATH=../parent/src python tools/parity.py record parent.npz
    PYTHONPATH=src python tools/parity.py record change.npz
    PYTHONPATH=src python tools/parity.py compare parent.npz change.npz

Bits depend on the BLAS build and the CPU, so compare files recorded on one
machine; that is also why no test runs this.

The case set: the four mixing variants, each with ``use_hier`` on and off,
with a dense head and with a classification head run in training mode
(dropout on), at ``default_levels()`` and k = 16. Each network sees clouds of
256 and 1024 points with half of each cloud on 0.1-rounded coordinates (the
token MLP refuses 256, whose deepest level keeps fewer than k points), a
1024-point cloud with one point repeated 25 times, and a 1024-point float32
cloud on float32 parameters. Then the 32-point, two-level network of acceptance
criterion 2, and two epochs of ``tasks.train`` on a seg and a cls dataset.
"""

from __future__ import annotations

import argparse
import hashlib
import sys

import numpy as np

from pointmixer import autodiff, net, nn, tasks
from pointmixer.autodiff import Tensor
from pointmixer.geom import PointCloud

VARIANTS = ("softmax", "maxpool", "attention", "tokenmlp")
CHANNELS = 6


def _fingerprint(value) -> np.ndarray:
    a = np.ascontiguousarray(value)
    return np.array(f"{a.dtype.str} {a.shape} {hashlib.sha256(a.tobytes()).hexdigest()}")


def _cloud(seed: int, n: int, repeated: int = 0, dtype=np.float64) -> PointCloud:
    rng = np.random.default_rng(seed)
    pos = rng.uniform(-1, 1, (n, 3))
    pos[: n // 2] = np.round(pos[: n // 2], 1)  # ties among neighbour distances
    pos[1:repeated] = pos[0]
    return PointCloud(pos.astype(dtype), rng.normal(size=(n, CHANNELS)).astype(dtype))


def _record_params(out: dict, name: str, store: nn.ParamStore):
    for pname, t in store.tensors():
        out[f"{name}/param/{pname}"] = t.data


def _record_pass(out: dict, name: str, network: net.Network, cloud: PointCloud):
    """One forward and backward of ``network`` on ``cloud``; a refusal is
    recorded as its type and message."""
    network.store.zero_grad()
    try:
        if isinstance(network.config.head, net.DenseHead):
            y = net.forward_dense(network, cloud)
            out[f"{name}/decode_knn_calls"] = network.last_decode_knn_calls
        else:
            y = net.forward_classify(network, cloud, training=True, rng=nn.Rng(1))
    except ValueError as e:
        out[f"{name}/error"] = f"{type(e).__name__}: {e}"
        return
    out[f"{name}/output"] = y.data
    u = np.random.default_rng(2).normal(size=y.shape).astype(y.dtype)
    autodiff.reduce_sum(y * Tensor(u)).backward()
    for pname, t in network.store.tensors():
        out[f"{name}/grad/{pname}"] = "no gradient" if t.grad is None else t.grad


def _network_cases(out: dict):
    heads = {"seg": net.DenseHead(2), "cls": net.ClassificationHead(3, 0.5)}
    for variant in VARIANTS:
        for use_hier in (True, False):
            for head_name, head in heads.items():
                name = f"{variant}/hier{int(use_hier)}/{head_name}"
                cfg = net.NetworkConfig(levels=net.default_levels(), head=head, k=16, in_channels=CHANNELS,
                                        use_inter=variant != "tokenmlp", use_hier=use_hier, variant=variant)
                network = net.build_network(cfg, nn.Rng(0))
                _record_params(out, name, network.store)
                _record_pass(out, f"{name}/n256", network, _cloud(10, 256))
                _record_pass(out, f"{name}/n1024", network, _cloud(11, 1024))
                _record_pass(out, f"{name}/repeated25", network, _cloud(12, 1024, repeated=25))
                for _, t in network.store.tensors():
                    t.data = t.data.astype(np.float32)
                _record_pass(out, f"{name}/f32", network, _cloud(13, 1024, dtype=np.float32))


def _criterion_2_case(out: dict):
    cfg = net.NetworkConfig(levels=[net.LevelSpec(4, 1, 1.0), net.LevelSpec(5, 1, 0.25)],
                            head=net.DenseHead(2), k=3)
    network = net.build_network(cfg, nn.Rng(60))
    _record_params(out, "criterion2", network.store)
    pos = np.random.default_rng(500).uniform(-1, 1, (32, 3))
    _record_pass(out, "criterion2/n32", network, PointCloud(pos, pos.copy()))


def _train_cases(out: dict):
    for task, head in (("seg", net.DenseHead(2)), ("cls", net.ClassificationHead(3, 0.5))):
        spec = tasks.DatasetSpec(task=task, classes=head.out_channels if task == "seg" else head.num_classes,
                                 points=256, train_clouds=4, test_clouds=0, seed=3)
        dataset = tasks.gen_dataset(spec)
        cfg = net.NetworkConfig(levels=net.default_levels(), head=head, k=16,
                                in_channels=dataset.train[0].channels)
        network = net.build_network(cfg, nn.Rng(0))
        schedule = tasks.Schedule(kind="cosine", base_lr=0.05, epochs=2)
        _, log = tasks.train(network, dataset, schedule, epochs=2, batch=2, rng=nn.Rng(0), dropout_rng=nn.Rng(1))
        name = f"train/{task}"
        _record_params(out, name, network.store)
        for pname in network.store.names():
            out[f"{name}/momentum/{pname}"] = network.store.momentum(pname)
        for key in ("epoch", "lr", "loss", "train_metric"):
            out[f"{name}/log/{key}"] = [row[key] for row in log]


def record(path) -> int:
    out: dict = {}
    _network_cases(out)
    _criterion_2_case(out)
    _train_cases(out)
    np.savez(path, **{name: _fingerprint(value) for name, value in out.items()})
    print(f"recorded {len(out)} names to {path}")
    return 0


def compare(path_a, path_b) -> int:
    with np.load(path_a) as fa, np.load(path_b) as fb:
        a = {name: str(fa[name]) for name in fa.files}
        b = {name: str(fb[name]) for name in fb.files}
    differ = 0
    for name in sorted(a.keys() | b.keys()):
        if name not in b or name not in a:
            print(f"{name}: only in {path_a if name in a else path_b}")
        elif a[name] != b[name]:
            spec_a, spec_b = a[name].rsplit(" ", 1)[0], b[name].rsplit(" ", 1)[0]
            print(f"{name}: {'bits differ' if spec_a == spec_b else f'{spec_a} against {spec_b}'}")
        else:
            continue
        differ += 1
    print(f"{differ} of {len(a.keys() | b.keys())} names differ")
    return 1 if differ else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)
    r = sub.add_parser("record", help="run the case set and save its fingerprints")
    r.add_argument("out")
    c = sub.add_parser("compare", help="list the names whose bits, shape or dtype differ")
    c.add_argument("a")
    c.add_argument("b")
    args = p.parse_args(argv)
    if args.command == "record":
        return record(args.out)
    return compare(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
