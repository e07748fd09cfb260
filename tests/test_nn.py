import numpy as np
import pytest

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


# -- schedules ------------------------------------------------------------------------


def test_cosine_schedule_endpoints():
    assert nn.cosine_lr(0, 10, 0.5) == 0.5
    assert abs(nn.cosine_lr(5, 10, 0.5) - 0.25) < 1e-12
    with pytest.raises(ValueError):
        nn.cosine_lr(10, 10, 0.5)


def test_step_schedule_milestones():
    assert nn.step_lr(45, (40, 50), 0.1, 0.1) == pytest.approx(0.01)
    assert nn.step_lr(0, (40, 50), 0.1, 0.1) == pytest.approx(0.1)
    assert nn.step_lr(55, (40, 50), 0.1, 0.1) == pytest.approx(0.001)


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


def test_finite_check_flag_catches_overflow():
    autodiff.set_check_finite(True)
    try:
        with np.errstate(over="ignore"), pytest.raises(FloatingPointError):
            Tensor(np.array([1e308])) * Tensor(np.array([1e308]))
        nn.gelu(Tensor(np.array([1.0])))  # normal values still fine
    finally:
        autodiff.set_check_finite(False)
