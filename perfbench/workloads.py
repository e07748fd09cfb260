"""The benchmark's workloads: inputs made from a seed, set-up, and one round.

A round is one fixed unit of work through the entry points that ``pmix
train`` and ``pmix eval`` use. Train workloads call ``tasks.train`` from the
network's initial weights, so every round of a run repeats the same
arithmetic and must give the same per-epoch losses. The eval workload calls
``cloudio.read_dataset`` on the directory that set-up wrote and then
``tasks.evaluate`` cloud by cloud. Only the datasets depend on the seed;
network init, shuffling and dropout use the fixed seeds that ``pmix``
defaults to.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field, replace

from pointmixer import cloudio, net, nn, tasks

# Inputs of the correctness gate, whose outputs are stored in reference.json.
GATE_SEED = 7
# Reduction-order changes move float64 losses and metrics by ~1e-12
# relative; wrong math (a flipped gradient, a wrong metric) moves them by far
# more than 1e-6.
RTOL = 1e-6
ATOL = 1e-9


@dataclass
class Prepared:
    network: object
    dataset: object = None  # train workloads: the generated dataset
    data_dir: str = ""  # eval workload: where set-up wrote the dataset
    initial_state: dict = field(default_factory=dict)


@dataclass
class RoundResult:
    wall_s: float
    clouds: int
    failed: int
    latencies_s: list
    outputs: list  # train: per-epoch losses; eval: cd, acc, cp, f1 per cloud
    errors: list


class _FetchClock(list):
    """The training split as a list that notes when each cloud is fetched.

    ``tasks.train`` fetches a cloud right before its forward pass, so the gap
    between two fetches is one cloud's forward and backward (plus epoch-0
    ``prepare`` and, at the end of a batch, the optimizer step). Each fetch
    also checks that the previous dense forward ran no kNN search while
    decoding.
    """

    def __init__(self, clouds, network):
        super().__init__(clouds)
        self.network = network
        self.times = []
        self.decode_searches = 0

    def __getitem__(self, i):
        self.times.append(time.perf_counter())
        self.decode_searches += _decode_searches(self.network)
        return super().__getitem__(i)


def _decode_searches(network) -> int:
    return getattr(network, "last_decode_knn_calls", None) or 0


@dataclass
class TrainWorkload:
    name: str
    why: str
    task: str
    classes: int
    points: int
    clouds: int
    epochs: int
    batch: int
    base_lr: float
    min_rounds: int
    gate_clouds: int

    def gate_instance(self):
        """The workload on fewer clouds: what the correctness gate runs."""
        return replace(self, clouds=self.gate_clouds)

    def spec(self, seed: int) -> tasks.DatasetSpec:
        return tasks.DatasetSpec(task=self.task, classes=self.classes, points=self.points,
                                 train_clouds=self.clouds, test_clouds=0, seed=seed)

    def build(self) -> net.Network:
        head = net.DenseHead(self.classes) if self.task == "seg" else net.ClassificationHead(self.classes)
        cfg = net.NetworkConfig(levels=net.default_levels(), head=head, k=16, in_channels=6)
        return net.build_network(cfg, nn.Rng(0))

    def setup(self, seed: int, workdir: str) -> Prepared:
        dataset = tasks.gen_dataset(self.spec(seed))
        return Prepared(self.build(), dataset=dataset)

    def reset(self, prep: Prepared):
        """Put the initial weights back and clear the momentum buffers."""
        if not prep.initial_state:
            prep.initial_state = prep.network.store.state()
        prep.network.store.load_state(prep.initial_state)

    def run_round(self, prep: Prepared) -> RoundResult:
        network = prep.network
        clock = _FetchClock(prep.dataset.train, network)
        dataset = tasks.Dataset(prep.dataset.spec, clock, [])
        schedule = tasks.Schedule(kind="cosine", base_lr=self.base_lr, epochs=self.epochs)
        steps = self.clouds * self.epochs
        start = time.perf_counter()
        try:
            _, log = tasks.train(network, dataset, schedule, epochs=self.epochs, batch=self.batch,
                                 rng=nn.Rng(0), dropout_rng=nn.Rng(1))
        except tasks.TrainingDiverged as e:
            return RoundResult(time.perf_counter() - start, steps, steps, [], [], [f"diverged: {e}"])
        end = time.perf_counter()
        marks = clock.times + [end]
        latencies = [b - a for a, b in zip(marks, marks[1:])]
        losses = [row["loss"] for row in log]
        errors = []
        failed = 0
        decode = clock.decode_searches + _decode_searches(network)
        if decode:
            errors.append(f"{decode} kNN searches while decoding")
            failed = steps
        if not all(math.isfinite(v) for v in losses):
            errors.append(f"non-finite loss {losses}")
            failed = steps
        return RoundResult(end - start, steps, failed, latencies, losses, errors)


@dataclass
class EvalWorkload:
    name: str
    why: str
    points: int  # target points; inputs carry half of them
    clouds: int
    min_rounds: int
    gate_clouds: int

    def gate_instance(self):
        """The workload on fewer clouds: what the correctness gate runs."""
        return replace(self, clouds=self.gate_clouds)

    def spec(self, seed: int) -> tasks.DatasetSpec:
        return tasks.DatasetSpec(task="recon", points=self.points, train_clouds=1,
                                 test_clouds=self.clouds, seed=seed)

    def build(self) -> net.Network:
        cfg = net.NetworkConfig(levels=net.default_levels(), head=net.DenseHead(3), k=16, in_channels=3)
        return net.build_network(cfg, nn.Rng(0))

    def setup(self, seed: int, workdir: str) -> Prepared:
        data_dir = os.path.join(workdir, f"{self.name}-{seed}")
        cloudio.write_dataset(data_dir, tasks.gen_dataset(self.spec(seed)))
        return Prepared(self.build(), data_dir=data_dir)

    def reset(self, prep: Prepared):
        """Evaluation changes no weights."""

    def run_round(self, prep: Prepared) -> RoundResult:
        network = prep.network
        start = time.perf_counter()
        dataset = cloudio.read_dataset(prep.data_dir)
        latencies, outputs, errors = [], [], []
        failed = 0
        for cloud, target in zip(dataset.test, dataset.test_targets):
            t0 = time.perf_counter()
            values = tasks.evaluate(network, [cloud], "recon", targets=[target]).values
            latencies.append(time.perf_counter() - t0)
            row = [values["cd"], values["acc"], values["cp"], values["f1"]]
            outputs.extend(row)
            problems = []
            if _decode_searches(network):
                problems.append("kNN search while decoding")
            if not (math.isfinite(row[0]) and row[0] > 0 and all(0.0 <= v <= 1.0 for v in row[1:])):
                problems.append(f"metrics out of range {row}")
            if problems:
                failed += 1
                errors.extend(problems)
        return RoundResult(time.perf_counter() - start, len(dataset.test), failed,
                           latencies, outputs, errors)


WORKLOADS = {
    w.name: w
    for w in (
        TrainWorkload(
            "train_seg_n1024",
            "Full U-shaped train step at 1024 points: 4-level intra/inter mixing, hier down/up, "
            "backward and sgd_step on 1.89 M parameters; numpy kernels and backward dominate.",
            task="seg", classes=2, points=1024, clouds=4, epochs=2, batch=4, base_lr=0.05,
            min_rounds=1, gate_clouds=2,
        ),
        TrainWorkload(
            "train_cls_n256",
            "Encoder-only train with dropout over many 256-point clouds that fit in L2, so "
            "per-op and per-parameter costs (_accumulate, sgd_step, tape walk) weigh most.",
            task="cls", classes=3, points=256, clouds=24, epochs=2, batch=4, base_lr=0.01,
            min_rounds=3, gate_clouds=12,
        ),
        EvalWorkload(
            "eval_recon_n2048",
            "pmix eval on fresh 2048-point clouds: read, prepare, no_grad forward and dense "
            "chamfer/occupancy metrics per cloud, with no plan reuse and no backward.",
            points=4096, clouds=2, min_rounds=1, gate_clouds=1,
        ),
    )
}


def compare(outputs, reference) -> list[str]:
    """Mismatches between outputs and a reference, under RTOL/ATOL."""
    if len(outputs) != len(reference):
        return [f"{len(outputs)} outputs, reference has {len(reference)}"]
    return [
        f"output {i}: {got!r} vs reference {want!r}"
        for i, (got, want) in enumerate(zip(outputs, reference))
        if not (math.isfinite(got) and abs(got - want) <= ATOL + RTOL * abs(want))
    ]
