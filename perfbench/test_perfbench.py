"""Self-tests of the benchmark: the correctness gate fails on wrong math,
the tracer's counts repeat and its bindings come back, and the printed
metrics are the ones BENCHMARK.json declares.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import argparse
import json
import os

import pytest

import run  # noqa: F401  (puts src/ on the path)
import tracer
import workloads
from pointmixer import autodiff, geom, mixer, net, nn, tasks

ROOT = os.path.dirname(run.HERE)


def _tiny_train():
    return workloads.TrainWorkload("tiny_seg", "", task="seg", classes=2, points=64, clouds=2,
                                   epochs=2, batch=2, base_lr=0.05, min_rounds=1,
                                   gate_clouds=1)


def test_gate_catches_flipped_linear_backward(tmp_path):
    wl = workloads.WORKLOADS["train_cls_n256"]
    assert run.gate(wl, str(tmp_path)) == []
    autodiff.inject_backward_fault("linear")
    try:
        problems = run.gate(wl, str(tmp_path))
    finally:
        autodiff.inject_backward_fault(None)
    assert problems and all("reference" in p for p in problems)


def test_gate_catches_perturbed_eval_reference(tmp_path):
    wl = workloads.WORKLOADS["eval_recon_n2048"]
    stored = run.stored_reference(wl.name)
    outputs = run.gate_round(wl, str(tmp_path)).outputs
    assert workloads.compare(outputs, stored) == []
    for i in range(4):  # cd, acc, cp, f1 of the first cloud
        perturbed = list(stored)
        perturbed[i] *= 1 + 1e-5
        assert len(workloads.compare(outputs, perturbed)) == 1


def test_traced_counts_repeat_and_bindings_come_back(tmp_path):
    wl = _tiny_train()
    originals = (net.mixer_block, net.hier_up_mix, tasks.sgd_step, tasks._make, autodiff._make,
                 nn.linear, mixer.gather_rows, geom.knn, net.Network.prepare, autodiff.Tensor.backward)
    plain_prep = wl.setup(1, str(tmp_path))
    wl.reset(plain_prep)
    plain = wl.run_round(plain_prep)
    t = tracer.Tracer()
    t.install()
    try:
        assert net.mixer_block is not originals[0] and tasks._make is not originals[3]
        with t.phase("setup"):
            prep = wl.setup(1, str(tmp_path))
        rounds = run.timed_rounds(wl, prep, 0.0, 2, 2, phase=t.phase)
    finally:
        t.uninstall()
    assert (net.mixer_block, net.hier_up_mix, tasks.sgd_step, tasks._make, autodiff._make,
            nn.linear, mixer.gather_rows, geom.knn, net.Network.prepare,
            autodiff.Tensor.backward) == originals
    assert t.missing == []
    assert run.check_rounds([plain] + rounds, "traced") == []
    metrics, problems = t.report(net.param_count(prep.network))
    assert problems == []
    per_round = [counts for kind, _, counts, _ in t.phases if kind == "round"]
    for name in tracer.EXACT:
        assert per_round[0][name] == per_round[1][name]
    assert metrics["geom.knn_calls"][0] == 2 * 7  # 4 hierarchy levels + 3 same-level maps
    assert metrics["net.prepare_calls"][0] == 2
    assert metrics["geom.decode_knn_calls"][0] == 0
    assert metrics["autodiff.tape_nodes"][0] > 0 and metrics["mixer.edge_rows"][0] > 0
    assert all(metrics[f"mixer.l{i}_s"][0] > 0 for i in range(tracer.LEVELS))
    assert 0 <= metrics["trace.uncovered_share"][0] < 0.05


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]}, spec)


@pytest.mark.parametrize("trace", [0, 1])
def test_metrics_match_benchmark_json(tmp_path, monkeypatch, trace):
    end_to_end, per_layer, _ = _declared()
    monkeypatch.setattr(run, "gate", lambda *a, **k: [])
    monkeypatch.setattr(run, "RESULTS", str(tmp_path))
    args = argparse.Namespace(workload="tiny_seg", seed=1, seconds=0.0, trace=trace)
    runner = run.traced_run if trace else run.untraced_run
    result, problems, _ = runner(_tiny_train(), args, str(tmp_path))
    assert problems == []
    got = {name: unit for name, (_, unit) in result["metrics"].items()}
    assert got == (per_layer if trace else end_to_end)


def test_benchmark_json_lists_every_workload():
    _, _, spec = _declared()
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: wl.why for name, wl in workloads.WORKLOADS.items()
    }
