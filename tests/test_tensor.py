"""Autodiff core: forward values against independent oracles, gradients
against central finite differences in float64."""

import numpy as np
import pytest

from vocaldiff.errors import ContractError, DimensionError
from vocaldiff.gradcheck import check_gradients, numeric_grad, rel_error
from vocaldiff.tensor import (Factored, Tape, Tensor, _apply, add, backward,
                              concat, conv1d, conv_transpose1d, group_norm,
                              matmul, mul, narrow, permute, reshape, silu,
                              softmax, tensor_mean, tensor_sum, transpose)

GRAD_TOL = 1e-4  # primitives, float64, eps 1e-3
BATCH_TOL = 1e-12  # batched vs per-item calls, float64, relative
# (stride, padding, K) of the convolution checks
CONV_CASES = ((1, 1, 3), (2, 1, 3), (1, 0, 3), (2, 0, 4), (2, 1, 4))


def t64(rng, *shape):
    return Tensor(rng.standard_normal(shape), requires_grad=True)


def grad_of(f, *params):
    named = {f"p{i}": p for i, p in enumerate(params)}
    return check_gradients(f, named)


def batch_rel_dev(batched, items):
    """Largest deviation of a batched result from the stacked per-item
    results, relative to their largest magnitude."""
    want = np.stack(items)
    assert batched.shape == want.shape
    return np.max(np.abs(batched - want)) / np.max(np.abs(want))


# ---------------------------------------------------------------- values

def test_silu_known_value():
    # 1 * sigmoid(1); sigmoid(1) = 1/(1+e^-1) = 0.731058578630004896...
    out = silu(Tensor(np.array([1.0])))
    assert abs(out.data[0] - 0.7310585786300049) < 1e-12
    assert silu(Tensor(np.array([0.0]))).data[0] == 0.0


def test_softmax_known_value():
    # exp([1,2,3]) / sum, evaluated independently at high precision
    out = softmax(Tensor(np.array([[1.0, 2.0, 3.0]])))
    expected = np.array([0.09003057317038046,
                         0.24472847105479767,
                         0.6652409557748219])
    assert np.max(np.abs(out.data[0] - expected)) < 1e-12


def test_softmax_rows_sum_to_one(rng):
    out = softmax(Tensor(rng.standard_normal((7, 13)) * 30.0))
    assert np.max(np.abs(out.data.sum(axis=1) - 1.0)) < 1e-12


def test_softmax_shift_invariance(rng):
    x = rng.standard_normal((3, 5))
    a = softmax(Tensor(x)).data
    b = softmax(Tensor(x + 1000.0)).data
    assert np.max(np.abs(a - b)) < 1e-12


def test_matmul_matches_numpy(rng):
    a, b = rng.standard_normal((4, 6)), rng.standard_normal((6, 3))
    out = matmul(Tensor(a), Tensor(b))
    assert np.allclose(out.data, a @ b, atol=1e-12)


def test_matmul_rank_one_is_the_outer_product(rng):
    # inner dimension 1: forward, and FiLM's weight gradient (1, d)^T @ (1, n),
    # are one product per entry, so they match np.outer bitwise
    for dtype in (np.float32, np.float64):
        u = rng.standard_normal((6, 1)).astype(dtype)
        v = rng.standard_normal((1, 9)).astype(dtype)
        assert np.array_equal(matmul(Tensor(u), Tensor(v)).data,
                              np.outer(u, v))
        a = Tensor(rng.standard_normal((1, 6)).astype(dtype),
                   requires_grad=True)
        w = Tensor(rng.standard_normal((6, 9)).astype(dtype),
                   requires_grad=True)
        m = rng.standard_normal((1, 9)).astype(dtype)
        with Tape():
            grads = backward(tensor_sum(matmul(a, w) * Tensor(m)))
        dw = grads[w.node_id].data
        assert dw.dtype == dtype and np.array_equal(dw, np.outer(a.data, m))
    u, v = t64(rng, 6, 1), t64(rng, 1, 9)
    m = Tensor(rng.standard_normal((6, 9)))
    errs = grad_of(lambda: tensor_sum(matmul(u, v) * m), u, v)
    assert max(errs.values()) < GRAD_TOL


def test_matmul_shape_error(rng):
    with pytest.raises(DimensionError):
        matmul(Tensor(rng.standard_normal((2, 3))),
               Tensor(rng.standard_normal((4, 2))))


def test_conv1d_matches_direct_loop(rng):
    c_in, c_out, length = 3, 5, 11
    for stride, pad, k in CONV_CASES:
        x = rng.standard_normal((c_in, length))
        w = rng.standard_normal((c_out, c_in, k))
        b = rng.standard_normal(c_out)
        out = conv1d(Tensor(x), Tensor(w), Tensor(b), stride=stride,
                     padding=pad).data

        xp = np.zeros((c_in, length + 2 * pad))
        xp[:, pad:pad + length] = x
        l_out = (length + 2 * pad - k) // stride + 1
        expect = np.zeros((c_out, l_out))
        for o in range(c_out):
            for i in range(l_out):
                j = i * stride
                expect[o, i] = np.sum(w[o] * xp[:, j:j + k]) + b[o]
        assert out.shape == expect.shape
        assert np.max(np.abs(out - expect)) < 1e-10, (stride, pad, k)


def test_conv_transpose1d_is_adjoint_of_conv1d(rng):
    # <conv1d(x), y> == <x, conv_transpose1d(y)> for the same weight; the
    # lengths are chosen so the transposed output is exactly x's length
    c_in, c_out, length = 3, 4, 12
    for stride, pad, k in ((1, 1, 3), (2, 1, 4), (2, 0, 4)):
        x = rng.standard_normal((c_in, length))
        w = rng.standard_normal((c_out, c_in, k))
        forward = conv1d(Tensor(x), Tensor(w), Tensor(np.zeros(c_out)),
                         stride=stride, padding=pad).data
        y = rng.standard_normal(forward.shape)
        back = conv_transpose1d(Tensor(y), Tensor(w), Tensor(np.zeros(c_in)),
                                stride=stride, padding=pad).data
        assert back.shape == x.shape
        lhs, rhs = np.sum(forward * y), np.sum(x * back)
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs), (stride, pad, k)


def test_conv1d_stride_output_length(rng):
    x = Tensor(rng.standard_normal((2, 16)))
    w = Tensor(rng.standard_normal((4, 2, 4)))
    b = Tensor(np.zeros(4))
    # L_out = (L + 2p - K) // s + 1 = (16 + 2 - 4) // 2 + 1 = 8
    assert conv1d(x, w, b, stride=2, padding=1).shape == (4, 8)


def test_conv_transpose1d_inverts_stride2_shape(rng):
    x = Tensor(rng.standard_normal((4, 8)))
    w = Tensor(rng.standard_normal((4, 2, 4)))
    b = Tensor(np.zeros(2))
    # L_out = (L - 1) * s - 2p + K = 7 * 2 - 2 + 4 = 16
    assert conv_transpose1d(x, w, b, stride=2, padding=1).shape == (2, 16)


def test_group_norm_statistics(rng):
    x = rng.standard_normal((8, 20)) * 3.0 + 1.5
    out = group_norm(Tensor(x), 4, Tensor(np.ones(8)),
                     Tensor(np.zeros(8))).data
    grouped = out.reshape(4, 2 * 20)
    assert np.max(np.abs(grouped.mean(axis=1))) < 1e-7
    assert np.max(np.abs(grouped.std(axis=1) - 1.0)) < 1e-4


def test_batched_conv_and_group_norm_equal_per_item_calls(rng):
    # a leading batch axis holds independent inputs: item i of the batched
    # call is the unbatched call on item i
    x = rng.standard_normal((2, 3, 11))
    for stride, pad, k in CONV_CASES:
        w, b = Tensor(rng.standard_normal((5, 3, k))), Tensor(
            rng.standard_normal(5))
        out = conv1d(Tensor(x), w, b, stride=stride, padding=pad).data
        items = [conv1d(Tensor(xi), w, b, stride=stride, padding=pad).data
                 for xi in x]
        assert batch_rel_dev(out, items) <= BATCH_TOL, (stride, pad, k)
        w, b = Tensor(rng.standard_normal((3, 5, k))), Tensor(
            rng.standard_normal(5))
        out = conv_transpose1d(Tensor(x), w, b, stride=stride,
                               padding=pad).data
        items = [conv_transpose1d(Tensor(xi), w, b, stride=stride,
                                  padding=pad).data for xi in x]
        assert batch_rel_dev(out, items) <= BATCH_TOL, (stride, pad, k)
    # items with different statistics: pooling them would shift both
    x = rng.standard_normal((2, 6, 10)) * np.array([1.0, 4.0])[:, None, None]
    x[1] += 3.0
    gamma, beta = Tensor(rng.standard_normal(6)), Tensor(
        rng.standard_normal(6))
    out = group_norm(Tensor(x), 3, gamma, beta).data
    items = [group_norm(Tensor(xi), 3, gamma, beta).data for xi in x]
    assert batch_rel_dev(out, items) <= BATCH_TOL


def test_scalar_zero_dim_results_stay_float64():
    # numpy returns scalars (not arrays) for 0-d op results; the wrapper
    # must not quietly demote them to float32
    a = tensor_sum(Tensor(np.array([1.0, 2.0], dtype=np.float64)))
    b = tensor_sum(Tensor(np.array([3.0, 4.0], dtype=np.float64)))
    total = a + b
    assert total.dtype == np.float64
    assert total.item() == 10.0


def test_float32_default_for_python_data():
    assert Tensor([1.0, 2.0]).dtype == np.float32
    assert Tensor(np.array([1, 2])).dtype == np.float32
    assert Tensor(np.array([1.0, 2.0])).dtype == np.float64


def test_unbroadcast_gradient_shapes(rng):
    a = t64(rng, 4, 5)
    b = t64(rng, 5)  # broadcast over rows
    with Tape():
        loss = tensor_sum((a + b) * b)
        grads = backward(loss)
    assert grads[a.node_id].shape == (4, 5)
    assert grads[b.node_id].shape == (5,)


def test_backward_needs_scalar(rng):
    x = t64(rng, 3)
    with Tape():
        y = x * 2.0
        with pytest.raises(ContractError):
            backward(y)


def test_a_tape_is_swept_once(rng):
    # the sweep releases each rule, and the arrays it saved, once it has run
    x = t64(rng, 3)
    with Tape() as tape:
        loss = tensor_sum(x * x)
        grads = backward(loss)
        assert len(tape) == 2
        with pytest.raises(ContractError, match="swept already"):
            backward(loss)
    assert rel_error(grads[x.node_id].data, 2.0 * x.data) < 1e-12


# ------------------------------------------------------------ tape rule
# a tensor is tracked by a tape if and only if it has a node on that tape

def test_untaped_result_is_a_constant_to_a_later_tape(rng):
    x = t64(rng, 3, 4)
    y = x * 2.0  # no tape active
    assert not y.requires_grad and y._tape is None and y.node_id is None
    with Tape() as tape:
        z = y * 3.0
        assert len(tape) == 0 and z._tape is None
        loss = tensor_sum(y * x)
        assert not loss.requires_grad
        grads = backward(loss)
    assert set(grads) == {x.node_id}
    assert rel_error(grads[x.node_id].data, y.data) < 1e-12
    assert y._tape is None


def test_op_on_untracked_inputs_records_nothing(rng):
    a, b = (Tensor(rng.standard_normal((2, 3))) for _ in range(2))
    with Tape() as tape:
        c = tensor_sum(matmul(a, transpose(b)) * 2.0 + 1.0)
    assert len(tape) == 0
    assert c._tape is None and not c.requires_grad


def test_gradient_keys_are_the_leaves_used(rng):
    a, b, c, unused = (t64(rng, 2, 3) for _ in range(4))
    m = Tensor(rng.standard_normal((2, 3)))
    with Tape() as tape:
        h = a * b + m
        loss = tensor_sum(h * c + h)
        assert len(tape) > 0
        grads = backward(loss)
    assert set(grads) == {a.node_id, b.node_id, c.node_id}
    assert unused._tape is None and m._tape is None


def test_check_gradients_ignores_node_ids_of_an_earlier_tape(rng):
    # the second loss reads only b, which becomes node 0 on its tape; a
    # still holds node 0 from the first tape and must not read b's gradient
    a, b = t64(rng, 3), t64(rng, 3)
    params = {"a": a, "b": b}
    assert max(check_gradients(lambda: tensor_sum(a * b),
                               params).values()) < GRAD_TOL
    errs = check_gradients(lambda: tensor_sum(b * b), params)
    assert max(errs.values()) < GRAD_TOL


# ------------------------------------------------------------- gradients

def test_grad_elementwise_chain(rng):
    a, b = t64(rng, 4, 5), t64(rng, 4, 5)
    errs = grad_of(lambda: tensor_sum(silu(a * b - a) * b), a, b)
    assert max(errs.values()) < GRAD_TOL


def test_grad_matmul(rng):
    a, b = t64(rng, 4, 6), t64(rng, 6, 3)
    m = Tensor(rng.standard_normal((4, 3)))
    errs = grad_of(lambda: tensor_sum(matmul(a, b) * m), a, b)
    assert max(errs.values()) < GRAD_TOL


def test_grad_softmax(rng):
    x = t64(rng, 5, 7)
    m = Tensor(rng.standard_normal((5, 7)))
    errs = grad_of(lambda: tensor_sum(softmax(x) * m), x)
    assert max(errs.values()) < GRAD_TOL


def test_grad_conv1d(rng):
    x, w, b = t64(rng, 3, 12), t64(rng, 5, 3, 3), t64(rng, 5)
    m = Tensor(rng.standard_normal((5, 6)))
    errs = grad_of(
        lambda: tensor_sum(conv1d(x, w, b, stride=2, padding=1) * m),
        x, w, b)
    assert max(errs.values()) < GRAD_TOL


def test_grad_conv_transpose1d(rng):
    x, w, b = t64(rng, 5, 6), t64(rng, 5, 3, 4), t64(rng, 3)
    m = Tensor(rng.standard_normal((3, 12)))
    errs = grad_of(
        lambda: tensor_sum(conv_transpose1d(x, w, b, stride=2, padding=1) * m),
        x, w, b)
    assert max(errs.values()) < GRAD_TOL


def test_grad_group_norm(rng):
    x = t64(rng, 6, 10)
    gamma = Tensor(rng.standard_normal(6), requires_grad=True)
    beta = Tensor(rng.standard_normal(6), requires_grad=True)
    m = Tensor(rng.standard_normal((6, 10)))
    errs = grad_of(lambda: tensor_sum(group_norm(x, 3, gamma, beta) * m),
                   x, gamma, beta)
    assert max(errs.values()) < GRAD_TOL


def test_grad_batched_matmul_conv_and_group_norm(rng):
    # each weight's gradient sums the contributions of both batch items
    a, b = t64(rng, 2, 4, 6), t64(rng, 6, 3)
    m = Tensor(rng.standard_normal((2, 4, 3)))
    errs = grad_of(lambda: tensor_sum(matmul(a, b) * m), a, b)
    assert max(errs.values()) < GRAD_TOL

    x, w, b = t64(rng, 2, 3, 12), t64(rng, 5, 3, 3), t64(rng, 5)
    m = Tensor(rng.standard_normal((2, 5, 6)))
    errs = grad_of(
        lambda: tensor_sum(conv1d(x, w, b, stride=2, padding=1) * m),
        x, w, b)
    assert max(errs.values()) < GRAD_TOL

    x, w, b = t64(rng, 2, 5, 6), t64(rng, 5, 3, 4), t64(rng, 3)
    m = Tensor(rng.standard_normal((2, 3, 12)))
    errs = grad_of(
        lambda: tensor_sum(conv_transpose1d(x, w, b, stride=2, padding=1) * m),
        x, w, b)
    assert max(errs.values()) < GRAD_TOL

    x = t64(rng, 2, 6, 10)
    gamma = Tensor(rng.standard_normal(6), requires_grad=True)
    beta = Tensor(rng.standard_normal(6), requires_grad=True)
    m = Tensor(rng.standard_normal((2, 6, 10)))
    errs = grad_of(lambda: tensor_sum(group_norm(x, 3, gamma, beta) * m),
                   x, gamma, beta)
    assert max(errs.values()) < GRAD_TOL


def test_grad_batched_transpose_concat_narrow(rng):
    # transpose swaps the last two axes; the U-Net joins and splits
    # channels on axis -2
    a, b = t64(rng, 2, 4, 6), t64(rng, 2, 3, 6)
    m = Tensor(rng.standard_normal((2, 6, 5)))

    def loss():
        joined = concat([a, b], axis=-2)         # (2, 7, 6)
        return tensor_sum(transpose(narrow(joined, -2, 1, 5)) * m)

    assert transpose(a).shape == (2, 6, 4)
    assert np.array_equal(transpose(a).data, a.data.swapaxes(1, 2))
    errs = grad_of(loss, a, b)
    assert max(errs.values()) < GRAD_TOL


def test_grad_reshape_transpose_concat_narrow(rng):
    a, b = t64(rng, 4, 6), t64(rng, 4, 6)
    m = Tensor(rng.standard_normal((6, 4)))

    def loss():
        joined = concat([a, b], axis=1)          # (4, 12)
        part = narrow(joined, 1, 3, 6)           # (4, 6)
        return tensor_sum(transpose(reshape(part, (4, 6))) * m)

    errs = grad_of(loss, a, b)
    assert max(errs.values()) < GRAD_TOL


def test_permute_matches_numpy_and_inverts():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((2, 3, 4))
    out = permute(Tensor(x), (1, 2, 0))
    assert out.shape == (3, 4, 2)
    assert np.array_equal(out.data, x.transpose(1, 2, 0))
    # (2, 0, 1) is the inverse ordering of (1, 2, 0)
    assert np.array_equal(permute(out, (2, 0, 1)).data, x)


def test_permute_validation():
    x = Tensor(np.zeros((2, 3, 4)))
    with pytest.raises(DimensionError):
        permute(x, (0, 1))
    with pytest.raises(DimensionError):
        permute(x, (0, 0, 1))


def test_grad_permute(rng):
    x = t64(rng, 2, 3, 4)
    m = Tensor(rng.standard_normal((4, 2, 3)))
    errs = grad_of(lambda: tensor_sum(permute(x, (2, 0, 1)) * m), x)
    assert max(errs.values()) < GRAD_TOL


def test_grad_mean_and_sum_axis(rng):
    x = t64(rng, 5, 8)
    m = Tensor(rng.standard_normal(8))

    def loss():
        return tensor_sum(tensor_mean(x, axis=0) * m) + tensor_sum(x) * 0.25

    errs = grad_of(loss, x)
    assert max(errs.values()) < GRAD_TOL


def test_grad_accumulates_over_reuse(rng):
    # same tensor feeding two branches must sum its gradients
    x = t64(rng, 3, 4)
    with Tape():
        loss = tensor_sum(x * x) + tensor_sum(x) * 2.0
        grads = backward(loss)
    expect = 2.0 * x.data + 2.0
    assert rel_error(grads[x.node_id].data, expect) < 1e-12


def test_numeric_grad_probes_selected_indices(rng):
    x = t64(rng, 3, 3)
    g = numeric_grad(lambda: tensor_sum(x * x), x, indices=[(0, 0), (2, 1)])
    assert g[0, 0] == pytest.approx(2.0 * x.data[0, 0], rel=1e-6)
    assert g[1, 1] == 0.0  # unprobed entries stay zero


def _gradients_guarded(loss_fn, leaves):
    """Gradients of ``loss_fn()`` for ``leaves``; fails if the backward sweep
    wrote into any array that a backward rule returned, a ``Factored``
    gradient's two factors included."""
    returned = []

    def watch(rule):
        def wrapped(g):
            gins = rule(g)
            for gin in gins:
                arrays = ((gin.a, gin.b) if isinstance(gin, Factored)
                          else () if gin is None else (gin,))
                returned.extend((a, a.copy()) for a in arrays)
            return gins
        return wrapped

    with Tape() as tape:
        loss = loss_fn()
        for rec in tape._records:
            rec.backward = watch(rec.backward)
        grads = backward(loss)
    assert returned
    for gin, before in returned:
        assert np.array_equal(gin, before)
    return [grads[p.node_id].data for p in leaves]


def _check_fan_in(loss_fn, *leaves):
    # quadratic losses: central differences are exact up to rounding
    for leaf, got in zip(leaves, _gradients_guarded(loss_fn, leaves)):
        assert rel_error(got, numeric_grad(loss_fn, leaf)) < 1e-9


def test_fan_in_of_a_leaf_added_to_itself(rng):
    # add(x, x) hands one array to both slots; x then gets two more
    x = t64(rng, 3, 4)
    m1, m2 = (Tensor(rng.standard_normal((3, 4))) for _ in range(2))
    _check_fan_in(lambda: tensor_sum(x * m1) + tensor_sum(x * x)
                  + tensor_sum(add(x, x) * m2), x)
    _check_fan_in(lambda: tensor_sum(add(x, x) * m2) + tensor_sum(x * m1)
                  + tensor_sum(x * x), x)


def test_fan_in_of_two_leaves_joined_by_add(rng):
    # add(a, b) runs first in the sweep and gives a and b the same array;
    # each then receives two more contributions
    a, b = t64(rng, 2, 5), t64(rng, 2, 5)
    m = Tensor(rng.standard_normal((2, 5)))
    _check_fan_in(lambda: tensor_sum(a * a) + tensor_sum(b * m)
                  + tensor_sum(a * b) + tensor_sum(add(a, b) * m), a, b)


def test_fan_in_through_a_reshape_view(rng):
    # reshape's rule returns a view of its output gradient, itself summed
    # from several uses
    x = t64(rng, 4, 6)
    m1 = Tensor(rng.standard_normal((6, 4)))
    m2 = Tensor(rng.standard_normal((4, 6)))

    def loss():
        r = reshape(x, (6, 4))
        return (tensor_sum(r * m1) + tensor_sum(r * r) + tensor_sum(x * m2)
                + tensor_sum(reshape(r, (4, 6)) * x))

    _check_fan_in(loss, x)


def test_fan_in_keeps_the_promoted_dtype(rng):
    # a float64 contribution to a gradient summed so far in float32 promotes
    # it, as acc + gin would, instead of being added into the float32 array
    def to_float64(t):
        return _apply(t.data.astype(np.float64), (t,),
                      lambda g: (g.astype(np.float32),))

    x = Tensor(rng.standard_normal((3, 4)).astype(np.float32),
               requires_grad=True)
    y = Tensor(rng.standard_normal((3, 4)))
    with Tape():
        loss = tensor_sum(x * y) + tensor_sum(to_float64(x * x))
        g = backward(loss)[x.node_id].data
    assert g.dtype == np.float64
    assert rel_error(g, y.data + 2.0 * x.data) < 1e-6

    # so does a float32 Factored product meeting a float64 dense gradient
    a = rng.standard_normal((5, 3)).astype(np.float32)
    with Tape():
        loss = (tensor_sum(x * y)
                + tensor_sum(to_float64(matmul(Tensor(a), x))))
        g = backward(loss)[x.node_id].data
    assert g.dtype == np.float64
    assert rel_error(g, y.data + a.sum(axis=0)[:, None]) < 1e-6


def test_fan_in_of_factored_weight_gradients(rng):
    # w gets two matmuls' Factored rows, one stack each, plus the dense
    # gradient of the reshape a conv1d reads it through
    w = t64(rng, 6, 4)
    a1, a2 = Tensor(rng.standard_normal((5, 6))), Tensor(
        rng.standard_normal((2, 3, 6)))
    x, b = Tensor(rng.standard_normal((2, 9))), Tensor(rng.standard_normal(6))
    m1, m2, m3 = (Tensor(rng.standard_normal(s))
                  for s in ((5, 4), (2, 3, 4), (6, 8)))
    _check_fan_in(lambda: tensor_sum(matmul(a1, w) * m1)
                  + tensor_sum(matmul(a2, w) * m2)
                  + tensor_sum(conv1d(x, reshape(w, (6, 2, 2)), b) * m3), w)

    # conv1d (batched and not) and conv_transpose1d rows of one weight,
    # each factor a strided view, stacked into one product
    w = t64(rng, 3, 2, 3)
    x1, x2 = Tensor(rng.standard_normal((2, 7))), Tensor(
        rng.standard_normal((2, 2, 9)))
    y = Tensor(rng.standard_normal((3, 5)))
    b3, b2 = Tensor(rng.standard_normal(3)), Tensor(rng.standard_normal(2))
    m1, m2, m3 = (Tensor(rng.standard_normal(s))
                  for s in ((3, 5), (2, 3, 5), (2, 9)))
    _check_fan_in(lambda: tensor_sum(conv1d(x1, w, b3) * m1)
                  + tensor_sum(conv1d(x2, w, b3, stride=2, padding=1) * m2)
                  + tensor_sum(conv_transpose1d(y, w, b2, stride=2,
                                                padding=1) * m3), w)


def test_fan_in_of_factored_and_dense_contributions(rng):
    w = t64(rng, 4, 3)
    a = Tensor(rng.standard_normal((5, 4)))
    m = Tensor(rng.standard_normal((5, 3)))
    m2 = Tensor(rng.standard_normal((4, 3)))
    _check_fan_in(lambda: tensor_sum(w * w) + tensor_sum(matmul(a, w) * m),
                  w)
    # two dense contributions first summed in an array of the sweep's own
    _check_fan_in(lambda: tensor_sum(matmul(a, w) * m) + tensor_sum(w * w)
                  + tensor_sum(w * m2), w)


def test_factored_gradient_into_an_inner_node(rng):
    # mul(w, 2.0) has a record: its Factored gradient must be multiplied out
    # when the sweep reaches it, then flow on to w
    w, x = t64(rng, 4, 3), t64(rng, 2, 5, 4)
    m = Tensor(rng.standard_normal((2, 5, 3)))
    _check_fan_in(lambda: tensor_sum(matmul(x, mul(w, 2.0)) * m)
                  + tensor_sum(x * x), w, x)


def test_batched_conv_weight_gradient_is_the_sum_over_items(rng):
    # one product over every item's rows equals the sum of the per-item
    # gradients
    for stride, pad, k in CONV_CASES:
        for conv, w_shape in ((conv1d, (5, 3, k)),
                              (conv_transpose1d, (3, 5, k))):
            x = rng.standard_normal((3, 3, 11))
            w, b = t64(rng, *w_shape), t64(rng, 5)
            out_shape = conv(Tensor(x), w, b, stride=stride,
                             padding=pad).shape
            m = rng.standard_normal(out_shape)

            def loss(xs, ms):
                return tensor_sum(conv(Tensor(xs), w, b, stride=stride,
                                       padding=pad) * Tensor(ms))

            batched = _gradients_guarded(lambda: loss(x, m), [w])[0]
            items = sum(_gradients_guarded(lambda: loss(xi, mi), [w])[0]
                        for xi, mi in zip(x, m))
            assert rel_error(batched, items) < BATCH_TOL, (conv, stride, k)
            _check_fan_in(lambda: loss(x, m) + tensor_sum(w * w), w)


def _group_norm_by_mean(x, groups, gamma, beta, g, eps=1e-5):
    """group_norm's output and input gradient as computed with ndarray.mean
    and ** 2, for the bitwise comparison below."""
    grouped = x.shape[:-2] + (groups, -1)
    xg = x.reshape(grouped)
    mean = xg.mean(axis=-1, keepdims=True, dtype=np.float64)
    var = ((xg.astype(np.float64) - mean) ** 2).mean(axis=-1, keepdims=True)
    inv_std = (1.0 / np.sqrt(var + eps)).astype(x.dtype)
    xhat = ((xg - mean.astype(x.dtype)) * inv_std).reshape(x.shape)
    out = gamma[:, None] * xhat + beta[:, None]
    dxhat = (g * gamma[:, None]).reshape(grouped)
    xh = xhat.reshape(grouped)
    m1 = dxhat.mean(axis=-1, keepdims=True)
    m2 = (dxhat * xh).mean(axis=-1, keepdims=True)
    return out, (inv_std * (dxhat - m1 - xh * m2)).reshape(x.shape)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_group_norm_statistics_match_ndarray_mean_bitwise(rng, dtype):
    # .mean divides a float32 sum by an intp count (a float64 division
    # rounded back to float32); group_norm divides by a Python int
    for shape, groups in (((2, 8, 64), 4), ((2, 64, 8), 8),
                          ((8, 512, 8), 8), ((8, 64, 64), 8)):
        x = (rng.standard_normal(shape) * 3.0 + 1.5).astype(dtype)
        gamma, beta, g = (rng.standard_normal(s).astype(dtype)
                          for s in (shape[-2], shape[-2], shape))
        xt = Tensor(x, requires_grad=True)
        with Tape():
            out = group_norm(xt, groups, Tensor(gamma), Tensor(beta))
            dx = backward(tensor_sum(out * Tensor(g)))[xt.node_id].data
        want_out, want_dx = _group_norm_by_mean(x, groups, gamma, beta, g)
        assert out.data.dtype == want_out.dtype == dtype
        assert out.data.tobytes() == want_out.tobytes(), shape
        assert dx.dtype == want_dx.dtype
        assert dx.tobytes() == want_dx.tobytes(), shape
