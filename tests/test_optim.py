"""Optimizer behavior against closed forms and a reference recurrence."""

import math
import tracemalloc

import numpy as np
import pytest

from vocaldiff import AdamWState, adamw_step, clip_grad_norm, cosine_lr
from vocaldiff.errors import ContractError
from vocaldiff.optim import _CHUNK
from vocaldiff.tensor import Tensor


def make(vals):
    return Tensor(np.asarray(vals, dtype=np.float64))


def test_single_step_closed_form():
    # with zero moments, bias correction cancels exactly and the first
    # update is g / (|g| + eps); decay multiplies the weight first
    g = np.array([0.5, -2.0, 0.01])
    p0 = np.array([1.0, -1.0, 3.0])
    lr, wd, eps = 1e-2, 0.01, 1e-8
    params = {"w": make(p0.copy())}
    state = AdamWState(params)
    adamw_step(params, {"w": make(g)}, state, lr, eps=eps, weight_decay=wd)
    want = p0 * (1.0 - lr * wd) - lr * g / (np.abs(g) + eps)
    assert np.max(np.abs(params["w"].data - want)) < 1e-15
    assert state.step == 1


def test_three_steps_match_reference_recurrence():
    rng = np.random.default_rng(11)
    p0 = rng.standard_normal((4, 3))
    grads = [rng.standard_normal((4, 3)) for _ in range(3)]
    lr, b1, b2, eps, wd = 3e-3, 0.9, 0.999, 1e-8, 0.01

    params = {"w": make(p0.copy())}
    state = AdamWState(params)
    for g in grads:
        adamw_step(params, {"w": make(g)}, state, lr, betas=(b1, b2),
                   eps=eps, weight_decay=wd)

    p, m, v = p0.copy(), np.zeros_like(p0), np.zeros_like(p0)
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        p = p * (1 - lr * wd)
        p = p - lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
    assert np.max(np.abs(params["w"].data - p)) < 1e-14


def test_blocked_update_is_bitwise_the_textbook_formula():
    # float32 parameters longer than a block and not a multiple of it; the
    # formula keeps the optimizer's operation order, so results are equal
    rng = np.random.default_rng(13)
    shapes = {"w": (3, _CHUNK // 2 + 7), "b": (2 * _CHUNK + 5,)}
    p0 = {k: rng.standard_normal(s).astype(np.float32) for k, s in
          shapes.items()}
    lr, b1, b2, eps, wd = 3e-3, 0.9, 0.999, 1e-8, 0.01

    params = {k: Tensor(v.copy()) for k, v in p0.items()}
    state = AdamWState(params)
    p = {k: v.copy() for k, v in p0.items()}
    m = {k: np.zeros_like(v) for k, v in p0.items()}
    v = {k: np.zeros_like(x) for k, x in p0.items()}
    for t in range(1, 4):
        grads = {k: rng.standard_normal(s).astype(np.float32) for k, s in
                 shapes.items()}
        adamw_step(params, {k: Tensor(g) for k, g in grads.items()}, state,
                   lr, betas=(b1, b2), eps=eps, weight_decay=wd,
                   decay_skip={"b"})
        for k, g in grads.items():
            m[k] = b1 * m[k] + (1.0 - b1) * g
            v[k] = b2 * v[k] + (1.0 - b2) * (g * g)
            if k != "b":
                p[k] = p[k] - lr * wd * p[k]
            update = (m[k] / (1.0 - b1 ** t)) / (
                np.sqrt(v[k] / (1.0 - b2 ** t)) + eps)
            p[k] = p[k] - lr * update
    for k in shapes:
        assert params[k].data.dtype == np.float32
        assert np.array_equal(params[k].data, p[k])
        assert np.array_equal(state.m[k], m[k])
        assert np.array_equal(state.v[k], v[k])


def test_zero_gradient_without_decay_is_a_no_op():
    p0 = np.array([0.3, -0.7])
    params = {"w": make(p0.copy())}
    state = AdamWState(params)
    adamw_step(params, {"w": make([0.0, 0.0])}, state, 1e-3, weight_decay=0.0)
    assert np.array_equal(params["w"].data, p0)


def test_zero_gradient_with_decay_shrinks_weights():
    p0 = np.array([2.0, -4.0])
    params = {"w": make(p0.copy())}
    state = AdamWState(params)
    lr, wd = 1e-2, 0.1
    adamw_step(params, {"w": make([0.0, 0.0])}, state, lr, weight_decay=wd)
    adamw_step(params, {"w": make([0.0, 0.0])}, state, lr, weight_decay=wd)
    assert np.max(np.abs(params["w"].data - p0 * (1 - lr * wd) ** 2)) < 1e-15


def test_decay_skip_exempts_named_params():
    params = {"w": make([1.0]), "gn.beta": make([1.0])}
    state = AdamWState(params)
    zero = {"w": make([0.0]), "gn.beta": make([0.0])}
    adamw_step(params, zero, state, 1e-2, weight_decay=0.5,
               decay_skip={"gn.beta"})
    assert params["gn.beta"].data[0] == 1.0
    assert params["w"].data[0] == pytest.approx(1.0 - 1e-2 * 0.5, rel=1e-12)


def test_missing_gradient_is_an_error():
    params = {"w": make([1.0]), "b": make([1.0])}
    state = AdamWState(params)
    with pytest.raises(ContractError):
        adamw_step(params, {"w": make([0.0])}, state, 1e-3)


def test_gradient_shape_mismatch_is_an_error():
    params = {"w": make([1.0, 2.0])}
    state = AdamWState(params)
    with pytest.raises(ContractError):
        adamw_step(params, {"w": make([1.0, 2.0, 3.0])}, state, 1e-3)


def test_gradient_dtype_mismatch_and_strided_params_are_errors():
    params = {"w": make([1.0, 2.0])}
    state = AdamWState(params)
    with pytest.raises(ContractError, match="does not match"):
        adamw_step(params, {"w": Tensor(np.zeros(2, np.float32))}, state,
                   1e-3)
    params = {"w": make(np.zeros((3, 2))[:, 0])}
    state = AdamWState(params)
    with pytest.raises(ContractError, match="C-contiguous"):
        adamw_step(params, {"w": make(np.zeros(3))}, state, 1e-3)
    assert np.array_equal(params["w"].data, np.zeros(3))


def test_state_buffers_match_param_shapes():
    params = {"a": make(np.zeros((2, 3))), "b": make(np.zeros(5))}
    state = AdamWState(params)
    assert state.m["a"].shape == (2, 3) and state.v["b"].shape == (5,)
    assert state.step == 0


# ---------------------------------------------------------------- clip

def test_clip_leaves_small_gradients_untouched():
    g = np.array([0.3, -0.4], dtype=np.float32)  # norm 0.5
    grads = {"w": Tensor(g.copy())}
    norm = clip_grad_norm(grads, 1.0)
    assert norm == pytest.approx(0.5, rel=1e-6)
    assert np.array_equal(grads["w"].data, g)


def test_clip_rescales_to_the_global_norm():
    rng = np.random.default_rng(12)
    arrays = {k: rng.standard_normal(s).astype(np.float32) * 10.0
              for k, s in [("a", (3, 4)), ("b", (7,))]}
    grads = {k: Tensor(v.copy()) for k, v in arrays.items()}
    pre = math.sqrt(sum(float(np.sum(v.astype(np.float64) ** 2))
                        for v in arrays.values()))
    returned = clip_grad_norm(grads, 0.1)
    assert returned == pytest.approx(pre, rel=1e-6)
    post = math.sqrt(sum(float(np.sum(g.data.astype(np.float64) ** 2))
                         for g in grads.values()))
    assert post == pytest.approx(0.1, rel=1e-5)
    # direction is preserved: every entry scales by the same factor
    for k in arrays:
        assert np.allclose(grads[k].data, arrays[k] * (0.1 / pre), rtol=1e-5)


def test_clip_norm_of_a_multi_block_gradient_makes_no_float64_copy():
    rng = np.random.default_rng(14)
    arrays = {"a": rng.standard_normal(3 * _CHUNK + 11).astype(np.float32),
              "b": rng.standard_normal((5, 7)).astype(np.float32)}
    grads = {k: Tensor(v.copy()) for k, v in arrays.items()}
    oracle = math.sqrt(sum(float(np.sum(v.astype(np.float64) ** 2))
                           for v in arrays.values()))
    tracemalloc.start()
    try:
        norm = clip_grad_norm(grads, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert abs(norm - oracle) <= 1e-12 * oracle
    assert peak < arrays["a"].size * 8
    scale = np.float32(1.0 / norm)
    for k, v in arrays.items():
        assert np.array_equal(grads[k].data, v * scale)


def test_clip_requires_positive_max_norm():
    with pytest.raises(ContractError):
        clip_grad_norm({"w": Tensor(np.ones(2))}, 0.0)


# ------------------------------------------------------------ schedule

def test_cosine_lr_endpoints_and_midpoint():
    base = 4e-4
    assert cosine_lr(0, 100, base) == pytest.approx(base, rel=1e-12)
    assert cosine_lr(100, 100, base) == pytest.approx(base * 0.01, rel=1e-12)
    lo = base * 0.01
    assert cosine_lr(50, 100, base) == pytest.approx(lo + (base - lo) / 2,
                                                     rel=1e-12)


def test_cosine_lr_is_monotone_nonincreasing():
    vals = [cosine_lr(s, 200, 1.0) for s in range(201)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))
