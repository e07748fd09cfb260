import ctypes
import glob
import os
import signal
import subprocess
import sys
import threading
import time
import warnings

import numpy as np
import pytest

import pointmixer
from pointmixer import autodiff, nn
from pointmixer.autodiff import Tensor

import oracles


# -- linear -------------------------------------------------------------------


def test_linear_identity():
    x = Tensor(np.random.default_rng(0).normal(size=(3, 4)))
    y = nn.linear(x, Tensor(np.eye(4)), Tensor(np.zeros(4)))
    assert np.allclose(y.data, x.data)


def test_linear_hand_example():
    y = nn.linear(Tensor([[1.0, 2.0]]), Tensor([[1.0, 1.0]]), Tensor([1.0]))
    assert np.allclose(y.data, [[4.0]])


def test_linear_matches_triple_loop():
    rng = np.random.default_rng(1)
    x, W, b = rng.normal(size=(3, 4)), rng.normal(size=(2, 4)), rng.normal(size=2)
    y = nn.linear(Tensor(x), Tensor(W), Tensor(b)).data
    expected = np.zeros((3, 2))
    for i in range(3):
        for o in range(2):
            acc = b[o]
            for j in range(4):
                acc += x[i, j] * W[o, j]
            expected[i, o] = acc
    assert np.allclose(y, expected, atol=1e-12)


def test_linear_shape_mismatch():
    with pytest.raises(ValueError):
        nn.linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4))), Tensor(np.zeros(2)))


def test_linear_leaves_constant_input_without_gradient():
    rng = np.random.default_rng(4)
    x_data = rng.normal(size=(6, 3))
    W = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=5), requires_grad=True)
    u = rng.normal(size=(6, 5))
    x = Tensor(x_data)
    autodiff.reduce_sum(nn.gelu(nn.linear(x, W, b)) * Tensor(u)).backward()
    assert x.grad is None
    gW, gb = W.grad.copy(), b.grad.copy()
    # the same graph with a differentiable input gives the same parameter gradients
    W.grad = b.grad = None
    x_var = Tensor(x_data, requires_grad=True)
    autodiff.reduce_sum(nn.gelu(nn.linear(x_var, W, b)) * Tensor(u)).backward()
    assert x_var.grad is not None
    assert np.array_equal(W.grad, gW) and np.array_equal(b.grad, gb)


# -- backward ---------------------------------------------------------------------


def small_graph(rng):
    W = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=5), requires_grad=True)
    h = nn.gelu(nn.linear(Tensor(rng.normal(size=(6, 3))), W, b))
    return W, b, h, autodiff.reduce_sum(h * Tensor(rng.normal(size=(6, 5))))


def test_backward_releases_interior_nodes_and_keeps_leaf_grads():
    W, b, h, loss = small_graph(np.random.default_rng(6))
    loss.backward()
    assert W.grad.shape == W.shape and b.grad.shape == b.shape
    for node in (h, loss):
        assert node.grad is None and node._backward is None and node._parents == ()


def test_second_backward_through_a_released_graph_raises_and_moves_no_gradient():
    W, b, h, loss = small_graph(np.random.default_rng(7))
    loss.backward()
    gW, gb = W.grad.copy(), b.grad.copy()
    with pytest.raises(RuntimeError, match="released graph: 'reduce_sum'"):
        loss.backward()
    with pytest.raises(RuntimeError, match="released graph: 'gelu'"):
        autodiff.reduce_sum(h * 2.0).backward()  # a new graph over a released node
    assert np.array_equal(W.grad, gW) and np.array_equal(b.grad, gb)


# -- layernorm ------------------------------------------------------------------


def test_layernorm_constant_row_maps_to_beta():
    x = Tensor(np.full((2, 5), 3.7))
    y = nn.layernorm(x, Tensor(np.ones(5)), Tensor(np.zeros(5)), 1e-5)
    assert np.allclose(y.data, 0.0)


def test_layernorm_two_values():
    y = nn.layernorm(Tensor([[0.0, 2.0]]), Tensor(np.ones(2)), Tensor(np.zeros(2)), 1e-12)
    assert np.allclose(y.data, [[-1.0, 1.0]], atol=1e-6)


def test_layernorm_matches_direct_formula():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(4, 9))
    gamma, beta = rng.normal(size=9), rng.normal(size=9)
    y = nn.layernorm(Tensor(x), Tensor(gamma), Tensor(beta), 1e-5).data
    assert np.allclose(y, oracles.layernorm_rows(x, gamma, beta), atol=1e-12)


def test_layernorm_standardizes():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(8, 32)) * 5
    y = nn.layernorm(Tensor(x), Tensor(np.ones(32)), Tensor(np.zeros(32)), 1e-8).data
    assert np.all(np.abs(y.mean(axis=1)) < 1e-9)
    assert np.all(np.abs(y.var(axis=1) - 1.0) < 1e-6)


# -- gelu ------------------------------------------------------------------------


def test_gelu_values():
    x = Tensor([0.0, 10.0, 1.0])
    y = nn.gelu(x).data
    assert y[0] == 0.0
    assert abs(y[1] - 10.0) < 1e-6
    assert abs(y[2] - 0.8413447460685429) < 1e-9  # Phi(1) by erf


def test_gelu_backward_bitwise_equals_direct_formula():
    from scipy.special import erf

    rng = np.random.default_rng(5)
    x = Tensor(rng.normal(scale=3.0, size=(16384, 32)), requires_grad=True)
    g = rng.normal(size=x.shape)
    nn.gelu(x).backward(g)
    xd = x.data
    cdf = 0.5 * (1.0 + erf(xd * (1.0 / np.sqrt(2.0))))
    pdf = (1.0 / np.sqrt(2.0 * np.pi)) * np.exp(-0.5 * xd * xd)
    assert np.array_equal(x.grad, g * (cdf + xd * pdf))


def test_gelu_keeps_float32():
    x = Tensor(np.linspace(-3.0, 3.0, 7, dtype=np.float32), requires_grad=True)
    y = nn.gelu(x)
    y.backward(np.ones(7, dtype=np.float32))
    assert y.data.dtype == np.float32
    assert x.grad.dtype == np.float32
    assert np.allclose(y.data, nn.gelu(Tensor(x.data.astype(np.float64))).data, rtol=1e-6, atol=1e-6)


# -- segment softmax ---------------------------------------------------------------


def test_segment_softmax_equal_scores():
    p = nn.segment_softmax(Tensor([0.0, 0.0, 0.0]), [0, 3]).data
    assert np.allclose(p, [1 / 3] * 3)


def test_segment_softmax_singleton_and_analytic():
    p = nn.segment_softmax(Tensor([5.0, np.log(2.0), 0.0]), [0, 1, 3]).data
    assert np.allclose(p[0], 1.0)
    assert np.allclose(p[1:], [2 / 3, 1 / 3])


def test_segment_softmax_empty_segments_allowed():
    p = nn.segment_softmax(Tensor([1.0, 2.0]), [0, 0, 2, 2]).data
    assert p.shape == (2,)
    assert abs(p.sum() - 1.0) < 1e-12


def test_segment_softmax_sums_to_one_on_random_segments():
    rng = np.random.default_rng(4)
    for _ in range(10):
        lengths = rng.integers(0, 6, 20)
        offsets = np.concatenate([[0], np.cumsum(lengths)])
        scores = rng.normal(size=int(offsets[-1])) * 10
        p = nn.segment_softmax(Tensor(scores), offsets).data
        assert np.all(p >= 0)
        for a, b in zip(offsets[:-1], offsets[1:]):
            if b > a:
                assert abs(p[a:b].sum() - 1.0) < 1e-9


def test_segment_softmax_rejects_malformed_offsets():
    with pytest.raises(ValueError):
        nn.segment_softmax(Tensor([1.0, 2.0]), [0, 1])
    with pytest.raises(ValueError):
        nn.segment_softmax(Tensor([1.0, 2.0]), [1, 2])


# -- segment max -------------------------------------------------------------------


def test_segment_max_on_tied_integers_matches_loop_oracle():
    rng = np.random.default_rng(8)
    lengths = np.array([1, 3, 7, 9, 1, 14, 15])
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    vals = rng.integers(-2, 3, (int(offsets[-1]), 5)).astype(np.float64)
    g = rng.normal(size=(len(lengths), 5))
    v = Tensor(vals, requires_grad=True)
    out = autodiff.segment_max(v, offsets)
    autodiff.reduce_sum(out * Tensor(g)).backward()
    want, want_grad = oracles.segment_max_loop(vals, offsets, g)
    assert np.array_equal(out.data, want)
    assert np.array_equal(v.grad, want_grad)


def test_max_axis1_on_tied_integers_matches_loop_oracle():
    rng = np.random.default_rng(9)
    vals = rng.integers(-2, 3, (6, 4, 5)).astype(np.float64)
    g = rng.normal(size=(6, 5))
    a = Tensor(vals, requires_grad=True)
    out = autodiff.max_axis1(a)
    autodiff.reduce_sum(out * Tensor(g)).backward()
    want, want_grad = oracles.segment_max_loop(vals.reshape(24, 5), np.arange(7) * 4, g)
    assert np.array_equal(out.data, want)
    assert np.array_equal(a.grad, want_grad.reshape(6, 4, 5))


@pytest.mark.parametrize("offsets", [[0, 2], [1, 3], [0, 3, 2, 3], [0, 1, 4], [[0, 3]], []])
def test_segment_max_rejects_malformed_offsets(offsets):
    with pytest.raises(ValueError, match="malformed CSR offsets"):
        autodiff.segment_max(Tensor(np.zeros((3, 2))), offsets)


# -- gather / scatter ------------------------------------------------------------


def test_gather_identity_and_scatter_accumulate():
    x = Tensor(np.array([[1.0], [2.0]]))
    assert np.array_equal(nn.gather_rows(x, [0, 1]).data, x.data)
    out = nn.scatter_add(Tensor(np.array([[1.0], [2.0]])), [0, 0], 1)
    assert np.allclose(out.data, [[3.0]])


def test_gather_scatter_match_loop_oracle():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(7, 3))
    idx = rng.integers(0, 7, 12)
    g = nn.gather_rows(Tensor(x), idx).data
    assert np.array_equal(g, np.array([x[i] for i in idx]))
    vals = rng.normal(size=(12, 3))
    s = nn.scatter_add(Tensor(vals), idx, 7).data
    expected = np.zeros((7, 3))
    for i, v in zip(idx, vals):
        expected[i] += v
    assert np.allclose(s, expected, atol=1e-12)


def test_gather_scatter_adjoint():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(9, 4))
    idx = rng.integers(0, 9, 20)
    u = rng.normal(size=(20, 4))
    lhs = float((nn.gather_rows(Tensor(x), idx).data * u).sum())
    rhs = float((x * nn.scatter_add(Tensor(u), idx, 9).data).sum())
    assert abs(lhs - rhs) < 1e-9


def test_gather_out_of_range():
    with pytest.raises(IndexError):
        nn.gather_rows(Tensor(np.zeros((2, 2))), [3])
    with pytest.raises(IndexError):
        nn.scatter_add(Tensor(np.zeros((1, 2))), [5], 2)


# -- gradient checking -------------------------------------------------------------


def test_check_gradient_linear_is_exact():
    rng = np.random.default_rng(7)
    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    W = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=2), requires_grad=True)
    u = Tensor(rng.normal(size=(3, 2)))
    err = nn.check_gradient(lambda: autodiff.reduce_sum(nn.linear(x, W, b) * u), [x, W, b])
    assert err < 1e-7


def test_check_gradient_gelu_at_half():
    x = Tensor(np.array([0.5]), requires_grad=True)
    err = nn.check_gradient(lambda: autodiff.reduce_sum(nn.gelu(x)), [x], h=1e-5)
    assert err < 1e-8


@pytest.mark.parametrize("seed", range(10))
def test_primitive_backwards_vs_finite_differences(seed):
    rng = np.random.default_rng(100 + seed)
    x = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
    gamma = Tensor(rng.normal(size=6), requires_grad=True)
    beta = Tensor(rng.normal(size=6), requires_grad=True)
    u = Tensor(rng.normal(size=(4, 6)))

    def ln():
        return autodiff.reduce_sum(nn.layernorm(x, gamma, beta, 1e-5) * u)

    assert nn.check_gradient(ln, [x, gamma, beta]) < 1e-4

    scores = Tensor(rng.normal(size=10), requires_grad=True)
    offsets = np.array([0, 3, 3, 7, 10])
    w = Tensor(rng.normal(size=10))

    def seg():
        return autodiff.reduce_sum(nn.segment_softmax(scores, offsets) * w)

    assert nn.check_gradient(seg, [scores]) < 1e-4

    vals = Tensor(rng.normal(size=(8, 3)), requires_grad=True)
    idx = rng.integers(0, 5, 8)
    u2 = Tensor(rng.normal(size=(5, 3)))

    def sc():
        return autodiff.reduce_sum(nn.scatter_add(vals, idx, 5) * u2)

    assert nn.check_gradient(sc, [vals]) < 1e-4

    segs = Tensor(rng.normal(size=(7, 3)), requires_grad=True)
    off2 = np.array([0, 2, 2, 7])
    u3 = Tensor(rng.normal(size=(3, 3)))

    def ssum():
        return autodiff.reduce_sum(nn.segment_sum(segs, off2) * u3)

    assert nn.check_gradient(ssum, [segs]) < 1e-4

    m3 = Tensor(rng.normal(size=(3, 4, 2)), requires_grad=True)
    u4 = Tensor(rng.normal(size=(3, 2)))

    def mx():
        return autodiff.reduce_sum(autodiff.max_axis1(m3) * u4)

    assert nn.check_gradient(mx, [m3]) < 1e-4

    lin2 = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    u6 = Tensor(rng.normal(size=(2, 3, 2)))
    W6 = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
    b6 = Tensor(rng.normal(size=2), requires_grad=True)

    def nd_linear():
        return autodiff.reduce_sum(nn.linear(lin2, W6, b6) * u6)

    assert nn.check_gradient(nd_linear, [lin2, W6, b6]) < 1e-4

    sm = Tensor(rng.normal(size=(6, 2)), requires_grad=True)
    off3 = np.array([0, 4, 6])
    u5 = Tensor(rng.normal(size=(2, 2)))

    def smax():
        return autodiff.reduce_sum(autodiff.segment_max(sm, off3) * u5)

    assert nn.check_gradient(smax, [sm]) < 1e-4


def test_check_gradient_is_exact_on_quartics_at_coarse_h():
    # the five-point stencil's error term is h^4 f^(5) / 30, which vanishes
    # for a quartic; a two-point central difference would be off by
    # h^2 f'''(x) / 6 = 4e-4 x here
    x = Tensor(np.array([0.5, -1.5, 2.0]), requires_grad=True)
    err = nn.check_gradient(lambda: autodiff.reduce_sum(x * x * x * x), [x], h=1e-2)
    assert err < 1e-9


def _scaled_backward(t: Tensor, factor: float) -> Tensor:
    """Identity op whose backward scales the gradient by ``factor``."""
    return autodiff._make(t.data.copy(), (t,), lambda g: t._accumulate(factor * g), "scaled")


def test_check_gradient_catches_a_gradient_off_by_1e_minus_3_relative():
    rng = np.random.default_rng(9)
    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    u = Tensor(rng.uniform(2.0, 3.0, size=(3, 4)))

    def f(factor):
        return lambda: autodiff.reduce_sum(nn.gelu(_scaled_backward(x, factor)) * u)

    assert nn.check_gradient(f(1.0), [x]) < 1e-9
    assert nn.check_gradient(f(1.0 + 1e-3), [x]) > 1e-4


def test_check_gradient_detects_injected_fault():
    rng = np.random.default_rng(8)
    x = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
    u = Tensor(rng.normal(size=(3, 3)))
    autodiff.inject_backward_fault("gelu")
    try:
        err = nn.check_gradient(lambda: autodiff.reduce_sum(nn.gelu(x) * u), [x])
    finally:
        autodiff.inject_backward_fault(None)
    assert err > 1e-2


# -- optimizer ----------------------------------------------------------------------


def make_store():
    store = nn.ParamStore()
    store.add("w", np.array([1.0]))
    return store


def test_sgd_zero_lr_is_identity():
    store = make_store()
    store["w"].grad = np.array([1.0])
    nn.sgd_step(store, lr=0.0, momentum=0.9, weight_decay=1e-4)
    assert store["w"].data.tolist() == [1.0]


def test_sgd_plain_step():
    store = make_store()
    store["w"].grad = np.array([1.0])
    nn.sgd_step(store, lr=0.1, momentum=0.0, weight_decay=0.0)
    assert np.allclose(store["w"].data, [0.9])


def test_sgd_weight_decay_folds_into_gradient():
    store = make_store()
    store["w"].grad = np.array([1.0])
    nn.sgd_step(store, lr=0.1, momentum=0.0, weight_decay=1e-4)
    assert np.allclose(store["w"].data, [1.0 - 0.1 * 1.0001], atol=1e-15)


def test_sgd_momentum_accumulates():
    store = make_store()
    for _ in range(2):
        store["w"].grad = np.array([1.0])
        nn.sgd_step(store, lr=0.1, momentum=0.5, weight_decay=0.0)
        store.zero_grad()
    # v1 = 1, w = 0.9; v2 = 1.5, w = 0.75
    assert np.allclose(store["w"].data, [0.75])


@pytest.mark.parametrize("weight_decay", [1e-3, 0.0])
def test_sgd_in_place_update_equals_the_direct_formulas(weight_decay):
    rng = np.random.default_rng(40)
    store = nn.ParamStore()
    store.add("a", rng.normal(size=(3, 4)))
    store.add("b", rng.normal(size=5))  # never receives a gradient
    snapshot = store.state()
    frozen = {name: arr.copy() for name, arr in snapshot.items()}
    ref = {name: (arr.copy(), np.zeros_like(arr)) for name, arr in snapshot.items()}
    for _ in range(3):
        grads = {"a": rng.normal(size=(3, 4)), "b": None}
        store["a"].grad = grads["a"].copy()
        nn.sgd_step(store, lr=0.05, momentum=0.9, weight_decay=weight_decay)
        assert np.array_equal(store["a"].grad, grads["a"])
        assert store["b"].grad is None
        for name, (w, m) in ref.items():
            g = grads[name] if grads[name] is not None else np.zeros_like(w)
            if weight_decay:
                g = g + weight_decay * w
            m = 0.9 * m + g
            w = w - 0.05 * m
            ref[name] = (w, m)
            assert np.array_equal(store[name].data, w), name
            assert np.array_equal(store.momentum(name), m), name
    for name, arr in snapshot.items():
        assert np.array_equal(arr, frozen[name])


# -- schedules ------------------------------------------------------------------------


def test_cosine_schedule_endpoints():
    assert nn.cosine_lr(0, 10, 0.5) == 0.5
    assert abs(nn.cosine_lr(5, 10, 0.5) - 0.25) < 1e-12
    with pytest.raises(ValueError):
        nn.cosine_lr(10, 10, 0.5)


# -- dropout, rng, init -----------------------------------------------------------------


def test_dropout_eval_identity_and_train_scaling():
    rng = nn.Rng(0)
    x = Tensor(np.ones((100, 4)))
    assert nn.dropout(x, 0.5, rng, training=False) is x
    y = nn.dropout(x, 0.5, nn.Rng(1), training=True).data
    kept = y[y != 0]
    assert np.allclose(kept, 2.0)  # inverted dropout rescales survivors


def test_rng_streams_reproducible():
    a = nn.Rng(42).normal(shape=5)
    b = nn.Rng(42).normal(shape=5)
    assert np.array_equal(a, b)
    c1, c2 = nn.Rng(42).spawn(2)
    assert not np.array_equal(c1.normal(shape=5), c2.normal(shape=5))


def test_param_init_bounds():
    store = nn.ParamStore()
    lin = nn.Linear.create(store, "l", 16, 8, nn.Rng(0))
    bound = (1 / 16) ** 0.5
    assert np.all(np.abs(lin.W.data) <= bound)
    assert np.all(lin.b.data == 0.0)


def test_param_store_rejects_duplicates():
    store = nn.ParamStore()
    store.add("a", np.zeros(2))
    with pytest.raises(ValueError):
        store.add("a", np.zeros(2))


def test_load_state_with_a_wrong_shape_changes_nothing():
    store = nn.ParamStore()
    store.add("a", np.array([1.0, 2.0]))
    store.add("b", np.array([3.0, 4.0, 5.0]))
    store["a"].grad = np.array([1.0, 1.0])
    nn.sgd_step(store, lr=0.1)  # a non-zero momentum for "a"
    before = {name: (store[name].data.copy(), store.momentum(name).copy()) for name in store.names()}
    with pytest.raises(ValueError, match="shape mismatch for b"):
        store.load_state({"a": np.ones(2), "b": np.ones(4)})  # "a" comes first and fits
    for name, (value, momentum) in before.items():
        assert np.array_equal(store[name].data, value), name
        assert np.array_equal(store.momentum(name), momentum), name


# -- checkpoint -------------------------------------------------------------------------


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(9)
    arrays = {
        "enc.W": rng.normal(size=(3, 4)),
        "enc.b": rng.normal(size=4),
        "scalar": np.array(3.25),
    }
    path = tmp_path / "model.pmix"
    nn.save_checkpoint(path, arrays)
    loaded = nn.load_checkpoint(path)
    assert set(loaded) == set(arrays)
    for k in arrays:
        assert loaded[k].shape == np.asarray(arrays[k]).shape
        assert np.array_equal(loaded[k], arrays[k])
    with open(path, "rb") as fh:
        assert fh.read(5) == b"PMIX1"


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.pmix"
    path.write_bytes(b"NOPE!")
    with pytest.raises(ValueError):
        nn.load_checkpoint(path)


def test_checkpoint_truncated_anywhere_is_a_value_error(tmp_path):
    path = tmp_path / "model.pmix"
    nn.save_checkpoint(path, {"enc.W": np.ones((2, 3)), "scalar": np.array(1.5)})
    whole = path.read_bytes()
    cut = tmp_path / "cut.pmix"
    for size in range(5, len(whole)):
        cut.write_bytes(whole[:size])
        with pytest.raises(ValueError, match="truncated checkpoint"):
            nn.load_checkpoint(cut)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_checkpoint_rejects_non_finite_values(tmp_path, bad):
    path = tmp_path / "model.pmix"
    weights = np.ones((2, 3))
    weights[1, 2] = bad
    nn.save_checkpoint(path, {"enc.b": np.zeros(3), "enc.W": weights})
    with pytest.raises(ValueError, match="non-finite values in checkpoint array 'enc.W'"):
        nn.load_checkpoint(path)


# -- CSR weighted sum and exact segment reductions ------------------------------------


def csr_case(rng, rows=5, n_src=6, max_len=4):
    lengths = rng.integers(0, max_len + 1, rows)
    lengths[1] = 0  # always one empty segment
    offsets = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
    src = rng.integers(0, n_src, int(offsets[-1]))
    src[:2] = 3  # a repeated source row
    return src, offsets


def test_csr_weighted_sum_matches_loop_oracle():
    rng = np.random.default_rng(20)
    src, offsets = csr_case(rng, rows=7)
    w = rng.normal(size=len(src))
    v = rng.normal(size=(6, 3))
    out = autodiff.csr_weighted_sum(Tensor(w), Tensor(v), src, offsets).data
    expected = np.zeros((7, 3))
    for i in range(7):
        for e in range(offsets[i], offsets[i + 1]):
            expected[i] += w[e] * v[src[e]]
    assert np.allclose(out, expected, atol=1e-12)
    assert np.array_equal(out[1], [0.0, 0.0, 0.0])


def test_csr_weighted_sum_rejects_bad_input():
    v = Tensor(np.zeros((3, 2)))
    with pytest.raises(ValueError):
        autodiff.csr_weighted_sum(Tensor(np.ones(2)), v, [0, 1], [0, 1])
    with pytest.raises(ValueError):
        autodiff.csr_weighted_sum(Tensor(np.ones(3)), v, [0, 1], [0, 2])
    with pytest.raises(IndexError):
        autodiff.csr_weighted_sum(Tensor(np.ones(2)), v, [0, 3], [0, 2])


@pytest.mark.parametrize("seed", range(10))
def test_csr_weighted_sum_and_duplicate_gather_vs_finite_differences(seed):
    rng = np.random.default_rng(150 + seed)
    src, offsets = csr_case(rng)
    w = Tensor(rng.normal(size=len(src)), requires_grad=True)
    v = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
    u = Tensor(rng.normal(size=(5, 3)))

    def csr():
        return autodiff.reduce_sum(autodiff.csr_weighted_sum(w, v, src, offsets) * u)

    assert nn.check_gradient(csr, [w, v]) < 1e-4

    x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    idx = np.array([2, 0, 2, 2, 3, 0])
    u6 = Tensor(rng.normal(size=(6, 3)))

    def gather_dup():
        return autodiff.reduce_sum(nn.gather_rows(x, idx) * u6)

    assert nn.check_gradient(gather_dup, [x]) < 1e-4


def test_float32_segment_reductions_are_exact_per_segment_at_a_million_edges():
    import math

    rng = np.random.default_rng(21)
    lengths = rng.integers(0, 33, 64_000)
    offsets = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
    assert offsets[-1] >= 1_000_000
    values = rng.uniform(0.0, 1e3, (int(offsets[-1]), 2)).astype(np.float32)
    exact = np.array([[math.fsum(col) for col in seg.astype(np.float64).T]
                      for seg in np.split(values, offsets[1:-1])]).reshape(-1, 2)
    got = nn.segment_sum(Tensor(values), offsets).data
    assert got.dtype == np.float32
    # recursive summation bound: (length - 1) * 2^-24 * sum |v| per segment
    bound = (np.maximum(lengths, 1) - 1)[:, None] * 2.0**-24 * exact + 1e-30
    assert np.all(np.abs(got.astype(np.float64) - exact) <= bound)
    assert np.all(got[lengths == 0] == 0)

    scores = rng.normal(size=int(offsets[-1])).astype(np.float32)
    p = nn.segment_softmax(Tensor(scores), offsets).data.astype(np.float64)
    sums = np.array([math.fsum(seg) for seg in np.split(p, offsets[1:-1])])
    assert np.all(np.abs(sums[lengths > 0] - 1.0) <= 2 * 33 * 2.0**-24)


@pytest.mark.parametrize("n", [2**10, 2**14, 2**18])
def test_float32_sums_over_all_points_stay_within_float32_rounding(n):
    import math

    u = np.random.default_rng(22).uniform(0.0, 1.0, (n, 8)).astype(np.float32)
    exact = np.array([math.fsum(col) for col in u.astype(np.float64).T])

    def rel_err(got):
        assert got.dtype == np.float32
        return np.max(np.abs(got.astype(np.float64) - exact) / exact)

    mean = autodiff.reduce_mean(Tensor(u), axis=0).data
    zeros = np.zeros((n, 8), np.float32)
    b = Tensor(np.zeros(8, np.float32), requires_grad=True)
    nn.linear(Tensor(zeros), Tensor(np.eye(8, dtype=np.float32)), b).backward(u)
    beta = Tensor(np.zeros(8, np.float32), requires_grad=True)
    nn.layernorm(Tensor(u), Tensor(np.ones(8, np.float32)), beta).backward(u)
    # each is the column sum of u (the mean scaled by a power of two), rounded once to float32
    assert rel_err(mean * np.float32(n)) <= 1.2e-7
    assert rel_err(b.grad) <= 1.2e-7
    assert rel_err(beta.grad) <= 1.2e-7


# -- fused per-edge score MLP ----------------------------------------------------------


def edge_case(rng, n=5, edges=11, pe=5, width=3, dtype=np.float64):
    """Inputs of ``edge_scores``: source rows with repeats, constant relative
    positions, and (hidden, W1, b1, W_fold, w2, b2) as tensors."""
    src = rng.integers(0, n, edges)
    src[:3] = 2  # a repeated source row
    rel = rng.normal(size=(edges, 3)).astype(dtype)
    shapes = ((n, width), (pe, 3), (pe,), (width, pe), (1, width), (1,))
    return src, rel, [Tensor(rng.normal(size=s).astype(dtype), requires_grad=True) for s in shapes]


def edge_scores_by_ops(hidden, src, rel, W1, b1, W_fold, w2, b2):
    """The same score MLP as a chain of single tape ops."""
    z1 = nn.gelu(autodiff.linear(Tensor(rel), W1, b1))
    no_bias = np.zeros(len(W_fold.data), W_fold.data.dtype)
    a2 = nn.gather_rows(hidden, src) + autodiff.linear(z1, W_fold, no_bias)
    return autodiff.reshape(autodiff.linear(nn.gelu(a2), w2, b2), (len(src),))


def scores_and_grads(f, tensors, u):
    for t in tensors:
        t.grad = None
    out = f()
    autodiff.reduce_sum(out * u).backward()
    return out.data.copy(), [t.grad.copy() for t in tensors]


def assert_edge_scores_match_ops(src, rel, tensors, u):
    got = scores_and_grads(lambda: autodiff.edge_scores(tensors[0], src, rel, *tensors[1:]), tensors, u)
    want = scores_and_grads(lambda: edge_scores_by_ops(tensors[0], src, rel, *tensors[1:]), tensors, u)
    assert np.allclose(got[0], want[0], rtol=0, atol=1e-12)
    for name, g, g_ref in zip(("hidden", "W1", "b1", "W_fold", "w2", "b2"), got[1], want[1]):
        assert np.allclose(g, g_ref, rtol=0, atol=1e-12), name


def test_edge_scores_match_the_op_chain_over_three_ragged_blocks(monkeypatch):
    rng = np.random.default_rng(30)
    src, rel, tensors = edge_case(rng, edges=11, pe=5, width=3)
    monkeypatch.setattr(autodiff, "_EDGE_BLOCK_FLOATS", 4 * 5)  # 4 rows per block at width 5
    rows = autodiff._EDGE_BLOCK_FLOATS // 5
    assert len(src) % rows and -(-len(src) // rows) >= 3
    assert_edge_scores_match_ops(src, rel, tensors, Tensor(rng.normal(size=len(src))))


def test_edge_scores_sum_a_shared_source_over_all_its_edges(monkeypatch):
    rng = np.random.default_rng(31)
    src, rel, tensors = edge_case(rng, n=4, edges=9, pe=2, width=4)
    src[:] = 1  # every edge reads the same row, across three blocks
    monkeypatch.setattr(autodiff, "_EDGE_BLOCK_FLOATS", 3 * 4)
    u = Tensor(rng.normal(size=len(src)))
    assert_edge_scores_match_ops(src, rel, tensors, u)
    _, grads = scores_and_grads(lambda: autodiff.edge_scores(tensors[0], src, rel, *tensors[1:]), tensors, u)
    assert np.array_equal(grads[0][[0, 2, 3]], np.zeros((3, 4)))


def test_edge_scores_with_no_edges():
    rng = np.random.default_rng(32)
    _, _, tensors = edge_case(rng)
    src, rel = np.zeros(0, dtype=np.int64), np.zeros((0, 3))
    out, grads = scores_and_grads(lambda: autodiff.edge_scores(tensors[0], src, rel, *tensors[1:]), tensors,
                                  Tensor(np.zeros(0)))
    assert out.shape == (0,)
    for g, t in zip(grads, tensors):
        assert np.array_equal(g, np.zeros(t.shape))


def test_edge_scores_do_not_depend_on_the_block_size(monkeypatch):
    rng = np.random.default_rng(33)
    src, rel, tensors = edge_case(rng, edges=40, pe=6, width=4)
    u = Tensor(rng.normal(size=len(src)))
    runs = []
    for floats in (6, 3 * 6, 7 * 6, 1 << 16):  # 1, 3, 7 and all 40 rows per block
        monkeypatch.setattr(autodiff, "_EDGE_BLOCK_FLOATS", floats)
        runs.append(scores_and_grads(lambda: autodiff.edge_scores(tensors[0], src, rel, *tensors[1:]), tensors, u))
    for out, grads in runs[1:]:
        assert np.allclose(out, runs[0][0], rtol=0, atol=1e-12)
        for g, g_ref in zip(grads, runs[0][1]):
            assert np.allclose(g, g_ref, rtol=0, atol=1e-12)


def test_edge_scores_keep_nothing_under_no_grad():
    rng = np.random.default_rng(34)
    src, rel, tensors = edge_case(rng, edges=64)
    autodiff.enable_alloc_tracking(True)
    try:
        with autodiff.no_grad():
            out = autodiff.edge_scores(tensors[0], src, rel, *tensors[1:])
        assert not out.requires_grad and out._backward is None
        assert autodiff.live_bytes() == out.data.nbytes  # block scratch released, nothing kept
    finally:
        autodiff.enable_alloc_tracking(False)


def test_edge_scores_count_their_kept_buffers_until_the_output_dies():
    rng = np.random.default_rng(35)
    src, rel, tensors = edge_case(rng, edges=64, pe=5, width=3)
    kept = len(src) * (5 + 2 * 3) * 8  # Phi of the first hidden layer, GELU output and derivative of the second
    autodiff.enable_alloc_tracking(True)
    try:
        out = autodiff.edge_scores(tensors[0], src, rel, *tensors[1:])
        assert out.requires_grad
        assert autodiff.peak_bytes() >= kept + out.data.nbytes
        assert autodiff.live_bytes() == kept + out.data.nbytes  # block scratch released
        del out
        assert autodiff.live_bytes() == 0
    finally:
        autodiff.enable_alloc_tracking(False)


def test_edge_scores_release_their_kept_buffers_when_backward_passes():
    rng = np.random.default_rng(38)
    src, rel, tensors = edge_case(rng, edges=64, pe=5, width=3)
    autodiff.enable_alloc_tracking(True)
    try:
        out = autodiff.edge_scores(tensors[0], src, rel, *tensors[1:])
        loss = autodiff.reduce_sum(out)
        loss.backward()
        # the output is still held, but what its backward kept is gone
        assert autodiff.live_bytes() == out.data.nbytes + loss.data.nbytes
    finally:
        autodiff.enable_alloc_tracking(False)


def test_edge_scores_keep_float32():
    rng = np.random.default_rng(36)
    src, rel, tensors = edge_case(rng, dtype=np.float32)
    out, grads = scores_and_grads(lambda: autodiff.edge_scores(tensors[0], src, rel, *tensors[1:]), tensors,
                                  Tensor(np.ones(len(src), dtype=np.float32)))
    assert out.dtype == np.float32
    assert all(g.dtype == np.float32 for g in grads)
    t64 = [Tensor(t.data.astype(np.float64)) for t in tensors]
    with autodiff.no_grad():
        as64 = autodiff.edge_scores(t64[0], src, rel.astype(np.float64), *t64[1:])
    assert np.allclose(out, as64.data, rtol=1e-5, atol=1e-5)  # float32 rounding, set from the dtype


def test_edge_scores_rejects_bad_input():
    rng = np.random.default_rng(37)
    src, rel, tensors = edge_case(rng)
    with pytest.raises(ValueError):
        autodiff.edge_scores(tensors[0], src, rel[:-1], *tensors[1:])
    with pytest.raises(ValueError):
        autodiff.edge_scores(tensors[0], src, rel, tensors[1], tensors[2], tensors[3], Tensor(np.ones((1, 4))), tensors[5])
    with pytest.raises(IndexError):
        autodiff.edge_scores(tensors[0], src + 5, rel, *tensors[1:])


@pytest.mark.parametrize("seed", range(3))
def test_edge_scores_vs_finite_differences(seed, monkeypatch):
    rng = np.random.default_rng(160 + seed)
    src, rel, tensors = edge_case(rng, edges=10, pe=4, width=3)
    monkeypatch.setattr(autodiff, "_EDGE_BLOCK_FLOATS", 3 * 4)  # four blocks, the last one ragged
    u = Tensor(rng.normal(size=len(src)))

    def f():
        return autodiff.reduce_sum(autodiff.edge_scores(tensors[0], src, rel, *tensors[1:]) * u)

    assert nn.check_gradient(f, tensors) < 1e-6


# -- edge blocks on the block workers ---------------------------------------------


def serial_scores_and_grads(src, rel, tensors, g, block_floats):
    return oracles.edge_scores_serial(tensors[0].data, src, rel, *(t.data for t in tensors[1:]), g=g,
                                      block_floats=block_floats)


def library_scores_and_grads(src, rel, tensors, g):
    for t in tensors:
        t.grad = None
    out = autodiff.edge_scores(tensors[0], src, rel, *tensors[1:])
    out.backward(g)
    return out.data, [t.grad for t in tensors]


def assert_same_bits(got, want):
    assert got[0].dtype == want[0].dtype and np.array_equal(got[0], want[0])
    for name, g, g_ref in zip(("hidden", "W1", "b1", "W_fold", "w2", "b2"), got[1], want[1]):
        assert g.dtype == g_ref.dtype and np.array_equal(g, g_ref), name


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("edges, rows", [
    (40, 64),   # one block
    (40, 20),   # two full blocks
    (40, 14),   # three blocks, the last short
    (200, 7),   # 29 blocks
    (41, 8),    # six blocks, the last of one row
])
def test_edge_scores_are_bit_identical_to_the_serial_loop(monkeypatch, dtype, edges, rows):
    rng = np.random.default_rng(170 + edges + rows)
    src, rel, tensors = edge_case(rng, n=9, edges=edges, pe=6, width=4, dtype=dtype)
    g = rng.normal(size=edges).astype(dtype)
    monkeypatch.setattr(autodiff, "_EDGE_BLOCK_FLOATS", rows * 6)
    want = serial_scores_and_grads(src, rel, tensors, g, rows * 6)
    assert_same_bits(library_scores_and_grads(src, rel, tensors, g), want)
    with autodiff.no_grad():
        out = autodiff.edge_scores(tensors[0], src, rel, *tensors[1:])
    assert out.dtype == want[0].dtype and np.array_equal(out.data, want[0])


def many_block_case(seed=180):
    """Default block size, 13 blocks of 2048 edges (one of them short) at
    the widths of the first encoder level."""
    rng = np.random.default_rng(seed)
    src, rel, tensors = edge_case(rng, n=2048, edges=12 * 2048 + 500, pe=32, width=32)
    return src, rel, tensors, rng.normal(size=len(src))


def test_edge_scores_are_bit_identical_to_the_serial_loop_at_the_default_block_size():
    src, rel, tensors, g = many_block_case()
    want = serial_scores_and_grads(src, rel, tensors, g, autodiff._EDGE_BLOCK_FLOATS)
    assert_same_bits(library_scores_and_grads(src, rel, tensors, g), want)


def test_edge_scores_on_one_cpu_give_the_same_bits(tmp_path):
    if not hasattr(os, "sched_setaffinity"):
        pytest.skip("the platform cannot limit a process to one CPU")
    src, rel, tensors, g = many_block_case()
    here = library_scores_and_grads(src, rel, tensors, g)
    cpu = min(os.sched_getaffinity(0))
    dump = tmp_path / "one_cpu.npz"
    script = f"""
import os, threading
os.sched_setaffinity(0, {{{cpu}}})
import numpy as np
import test_nn
from pointmixer import autodiff
src, rel, tensors, g = test_nn.many_block_case()
out, grads = test_nn.library_scores_and_grads(src, rel, tensors, g)
assert autodiff._pool is None and threading.active_count() == 1, "a worker thread started"
np.savez({str(dump)!r}, out, *grads)
"""
    paths = [os.path.dirname(os.path.dirname(pointmixer.__file__)), os.path.dirname(__file__)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths + [os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    with np.load(dump) as there:
        assert_same_bits((there["arr_0"], [there[f"arr_{i}"] for i in range(1, 7)]), here)


def openblas_threads():
    """Threads numpy's bundled OpenBLAS reports, or None when it cannot be asked."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, fn):
                return getattr(lib, fn)()
    return None


def test_the_block_pool_leaves_one_blas_thread():
    if len(getattr(os, "sched_getaffinity", lambda _: ())(0)) < 2:
        pytest.skip("needs two CPUs")
    if openblas_threads() is None:
        pytest.skip("no bundled OpenBLAS to ask")
    script = """
import test_nn
from pointmixer import autodiff
src, rel, tensors, _ = test_nn.many_block_case()
with autodiff.no_grad():
    autodiff.edge_scores(tensors[0], src, rel, *tensors[1:])
assert autodiff._pool is not None, "no worker started"
print(test_nn.openblas_threads())
"""
    paths = [os.path.dirname(os.path.dirname(pointmixer.__file__)), os.path.dirname(__file__)]
    blas_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in blas_vars}
    env["PYTHONPATH"] = os.pathsep.join(paths + [os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1"]


def test_edge_scores_spread_blocks_over_one_pinned_worker_per_cpu(monkeypatch):
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else set()
    if len(cpus) < 2:
        pytest.skip("needs two CPUs")
    seen = {}
    real = autodiff._gelu_parts

    def spy(*args):
        seen.setdefault(threading.get_ident(), set()).add(frozenset(os.sched_getaffinity(0)))
        return real(*args)

    monkeypatch.setattr(autodiff, "_gelu_parts", spy)
    src, rel, tensors, _ = many_block_case()
    with autodiff.no_grad():
        autodiff.edge_scores(tensors[0], src, rel, *tensors[1:])
    assert threading.get_ident() not in seen
    assert 1 <= len(seen) <= len(cpus)
    assert all(len(masks) == 1 for masks in seen.values())  # pinned before its first block
    pinned = [next(iter(masks)) for masks in seen.values()]
    assert all(len(m) == 1 and m <= cpus for m in pinned)
    assert len(set(pinned)) == len(pinned)  # each worker on a CPU of its own

    seen.clear()
    monkeypatch.setattr(autodiff, "_EDGE_BLOCK_FLOATS", len(src) // 2 * 32)  # two blocks
    with autodiff.no_grad():
        autodiff.edge_scores(tensors[0], src[:-1], rel[:-1], *tensors[1:])
    assert 1 <= len(seen) <= 2  # never more workers than blocks

    seen.clear()
    monkeypatch.setattr(autodiff, "_EDGE_BLOCK_FLOATS", 1 << 30)  # one block runs inline
    with autodiff.no_grad():
        autodiff.edge_scores(tensors[0], src, rel, *tensors[1:])
    assert list(seen) == [threading.get_ident()]


def test_edge_scores_wait_for_blocks_not_for_a_busy_worker():
    pool, _ = autodiff._block_pool()
    if pool is None:
        pytest.skip("needs two CPUs")
    release = threading.Event()
    pool.submit(release.wait, 60)  # one worker is held up (a slow or sleeping CPU)
    try:
        src, rel, tensors, g = many_block_case()
        want = serial_scores_and_grads(src, rel, tensors, g, autodiff._EDGE_BLOCK_FLOATS)
        t0 = time.monotonic()
        got = library_scores_and_grads(src, rel, tensors, g)
        assert time.monotonic() - t0 < 30  # the other workers took every block
    finally:
        release.set()
    assert_same_bits(got, want)


@pytest.mark.parametrize("helper", ["_gelu_parts", "_gelu_slope"])  # the forward's, then the backward's
def test_edge_scores_reraise_an_exception_raised_in_a_block(monkeypatch, helper):
    src, rel, tensors, g = many_block_case()
    threads = []

    def failing(*args):
        threads.append(threading.current_thread())
        raise ArithmeticError("block failed")

    out = autodiff.edge_scores(tensors[0], src, rel, *tensors[1:])
    monkeypatch.setattr(autodiff, helper, failing)
    with pytest.raises(ArithmeticError, match="block failed"):
        if helper == "_gelu_parts":
            autodiff.edge_scores(tensors[0], src, rel, *tensors[1:])
        else:
            out.backward(g)
    assert threads
    if len(getattr(os, "sched_getaffinity", lambda _: ())(0)) > 1:
        assert threading.main_thread() not in threads
    monkeypatch.undo()  # the workers survive the failure
    want = serial_scores_and_grads(src, rel, tensors, g, autodiff._EDGE_BLOCK_FLOATS)
    assert_same_bits(library_scores_and_grads(src, rel, tensors, g), want)


def test_edge_scores_from_many_caller_threads_keep_their_bits():
    cases = [many_block_case(seed) for seed in range(190, 195)]  # more callers than CPUs
    wants = [serial_scores_and_grads(src, rel, tensors, g, autodiff._EDGE_BLOCK_FLOATS)
             for src, rel, tensors, g in cases]
    gots = [None] * len(cases)

    def call(i):
        gots[i] = library_scores_and_grads(*cases[i])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=call, args=(i,)) for i in range(len(cases))]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in callers)
    finally:
        sys.setswitchinterval(interval)
    for got, want in zip(gots, wants):
        assert_same_bits(got, want)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_edge_scores_run_in_a_child_forked_after_the_workers_started():
    src, rel, tensors, _ = many_block_case()
    with autodiff.no_grad():
        want = autodiff.edge_scores(tensors[0], src, rel, *tensors[1:]).data
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)  # forking a process with threads is the point
        pid = os.fork()
    if pid == 0:
        code = 1
        try:
            with autodiff.no_grad():
                got = autodiff.edge_scores(tensors[0], src, rel, *tensors[1:]).data
            code = 0 if np.array_equal(got, want) else 2
        finally:
            os._exit(code)
    deadline = time.monotonic() + 60
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child hung in edge_scores")
        time.sleep(0.02)
    assert os.waitstatus_to_exitcode(status) == 0


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_a_process_using_the_pool_and_its_forked_child_exit_cleanly():
    if len(getattr(os, "sched_getaffinity", lambda _: ())(0)) < 2:
        pytest.skip("needs two CPUs")
    script = """
import os, sys, warnings
import numpy as np
import test_nn
from pointmixer import autodiff
src, rel, tensors, _ = test_nn.many_block_case()
with autodiff.no_grad():
    want = autodiff.edge_scores(tensors[0], src, rel, *tensors[1:]).data
assert autodiff._pool is not None, "no worker started"
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)  # forking a process with threads is the point
    pid = os.fork()
if pid == 0:
    with autodiff.no_grad():
        got = autodiff.edge_scores(tensors[0], src, rel, *tensors[1:]).data
    sys.exit(0 if np.array_equal(got, want) else 2)  # through interpreter exit, which joins the pool
print(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
"""
    paths = [os.path.dirname(os.path.dirname(pointmixer.__file__)), os.path.dirname(__file__)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths + [os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0"], proc.stderr  # the child's exit code


# -- one checked Edges per map, and the blocked weight gradient ------------------------


@pytest.mark.parametrize("width", [1, 3, 4, 8, 32, 33])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_csr_weighted_sum_blocked_weight_gradient_equals_one_pass_formula(monkeypatch, width, dtype):
    # 3 edges per block: blocks end mid-segment, rows 1 and 4 are empty, and
    # 22 edges leave a last block of one edge
    monkeypatch.setattr(autodiff, "_EDGE_BLOCK_FLOATS", 3 * width)
    rng = np.random.default_rng(240 + width)
    lengths = np.array([4, 0, 5, 7, 0, 6])
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    src = rng.integers(0, 9, int(offsets[-1]))
    assert len(src) % 3 == 1
    w = Tensor(rng.normal(size=len(src)).astype(dtype), requires_grad=True)
    v = Tensor(rng.normal(size=(9, width)).astype(dtype), requires_grad=True)
    g = rng.normal(size=(len(lengths), width)).astype(dtype)
    out = autodiff.csr_weighted_sum(w, v, src, offsets)
    out.backward(g)
    seg = np.repeat(np.arange(len(lengths)), lengths)
    prod = g[seg]
    prod *= v.data[src]
    assert w.grad.dtype == dtype and np.array_equal(w.grad, prod.sum(axis=1))
    from scipy import sparse

    a = sparse.csr_array((w.data, src, offsets), shape=(len(lengths), 9))
    assert np.array_equal(v.grad, a.T @ g)


def test_edges_are_checked_once_when_built():
    e = autodiff.Edges([2, 0, 1, 1], [0, 3, 3, 4])
    assert e.dst.tolist() == [0, 0, 0, 2] and e.src_stop == 3
    for a in (e.src, e.offsets, e.dst):
        assert a.dtype == np.int64 and not a.flags.writeable
    src = np.array([0, 1])
    autodiff.Edges(src, [0, 2])
    src[0] = 1  # the caller's array stays writable
    for offsets in ([0, 2], [1, 3], [0, 3, 2, 3], [[0, 3]], []):
        with pytest.raises(ValueError, match="malformed CSR offsets"):
            autodiff.Edges([0, 1, 2], offsets)
    with pytest.raises(IndexError, match="index out of range"):
        autodiff.Edges([0, -1], [0, 2])
    assert autodiff.Edges([], [0, 0, 0]).src_stop == 0


def test_ops_check_an_edges_source_count_with_their_own_messages():
    rng = np.random.default_rng(241)
    e = autodiff.Edges([0, 4, 2], [0, 2, 3])
    with pytest.raises(IndexError, match="csr_weighted_sum index out of range"):
        autodiff.csr_weighted_sum(Tensor(np.ones(3)), Tensor(np.ones((4, 2))), e)
    with pytest.raises(ValueError, match="one weight per edge"):
        autodiff.csr_weighted_sum(Tensor(np.ones(2)), Tensor(np.ones((5, 2))), e)
    src, rel, tensors = edge_case(rng, n=4, edges=3)
    with pytest.raises(IndexError, match="edge_scores index out of range"):
        autodiff.edge_scores(tensors[0], e, rel, *tensors[1:])
    with pytest.raises(ValueError, match="malformed CSR offsets"):
        nn.segment_softmax(Tensor(np.ones(4)), e)


def test_ops_give_the_same_bits_for_an_edges_and_its_raw_arrays():
    rng = np.random.default_rng(242)
    src, offsets = csr_case(rng, rows=6)
    e = autodiff.Edges(src, offsets)
    rows = len(src)

    def run(f, *shapes):
        ts = [Tensor(np.random.default_rng(7).normal(size=s), requires_grad=True) for s in shapes]
        out = f(*ts)
        out.backward(np.random.default_rng(8).normal(size=out.shape))
        return [out.data] + [t.grad for t in ts]

    pairs = [
        (lambda s: nn.segment_softmax(s, offsets), lambda s: nn.segment_softmax(s, e), [(rows,)]),
        (lambda s: nn.segment_sum(s, offsets), lambda s: nn.segment_sum(s, e), [(rows, 3)]),
        (lambda s: autodiff.segment_max(s, [0, 2, 5, rows]), lambda s: autodiff.segment_max(s, autodiff.Edges(
            np.zeros(rows, dtype=np.int64), [0, 2, 5, rows])), [(rows, 3)]),
        (lambda w, v: autodiff.csr_weighted_sum(w, v, src, offsets),
         lambda w, v: autodiff.csr_weighted_sum(w, v, e), [(rows,), (6, 3)]),
    ]
    _, rel, tensors = edge_case(rng, n=6, edges=rows)
    pairs.append((lambda h: autodiff.edge_scores(h, src, rel, *tensors[1:]),
                  lambda h: autodiff.edge_scores(h, e, rel, *tensors[1:]), [(6, 3)]))
    for raw, checked, shapes in pairs:
        for a, b in zip(run(raw, *shapes), run(checked, *shapes)):
            assert a.dtype == b.dtype and np.array_equal(a, b)


def test_linear_adopts_its_fresh_gradients_and_copies_the_rest():
    x = Tensor(np.ones((4, 3)), requires_grad=True)
    W = Tensor(np.ones((2, 3)), requires_grad=True)
    g = np.arange(8.0).reshape(4, 2)
    autodiff.linear(x, W, np.zeros(2)).backward(g)
    assert np.array_equal(W.grad, g.T @ x.data) and np.array_equal(x.grad, g @ W.data)
    z = Tensor(np.ones((4, 3)), requires_grad=True)
    seed = np.ones((4, 3))
    autodiff.reshape(z, (4, 3)).backward(seed)  # a view of the caller's seed is copied
    assert np.array_equal(z.grad, seed) and not np.shares_memory(z.grad, seed)


def test_sgd_step_equals_the_formula_with_temporaries():
    rng = np.random.default_rng(243)
    store = nn.ParamStore()
    params = [store.add(name, rng.normal(size=s)) for name, s in (("a", (3, 4)), ("b", (5,)), ("c", (2, 2)))]
    params[0].grad, params[1].grad = rng.normal(size=(3, 4)), rng.normal(size=5)
    want = {}
    for name, t in store.tensors():
        m = store.momentum(name) * 0.9
        g = 1e-4 * t.data
        if t.grad is not None:
            g += t.grad
        m += g
        want[name] = (t.data - 0.05 * m, m)
    nn.sgd_step(store, 0.05, 0.9, 1e-4)
    for name, t in store.tensors():
        assert np.array_equal(t.data, want[name][0]) and np.array_equal(store.momentum(name), want[name][1])
    nn.sgd_step(store, 0.05, 0.9, 0.0)  # without weight decay a missing gradient still counts as zero
    assert np.array_equal(store.momentum("c"), want["c"][1] * 0.9)
