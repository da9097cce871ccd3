"""Attention kernels against brute-force oracles.

The local kernel is checked against full attention with -inf masking outside
the window, computed directly in float64.  Rotary encoding is checked against
an independent complex-multiplication formulation, and cross-attention
against a per-head softmax loop.
"""

import math

import numpy as np
import pytest

from vocaldiff import (AttentionConfig, UNetConfig,
                       build_cosine_schedule, global_attention,
                       init_attention_params, init_model_params,
                       local_attention, mix_weight, rope_rotate,
                       soft_align_attention)
from vocaldiff.attention import scaled_dot_attention
from vocaldiff.errors import ConfigurationError, DimensionError
from vocaldiff.gradcheck import check_gradients
from vocaldiff.rng import substream
from vocaldiff.tensor import (Tape, Tensor, backward, mul, softmax_rows,
                              softmax_rows_grad, tensor_sum)
from vocaldiff.unet import cross_attention


def window_mask(length: int, window: int) -> np.ndarray:
    """Admissible (i, j) pairs: i - ceil(w/2) < j <= i + floor(w/2)."""
    i = np.arange(length)[:, None]
    j = np.arange(length)[None, :]
    return (j > i - math.ceil(window / 2)) & (j <= i + math.floor(window / 2))


def masked_attention_oracle(q, k, v, window):
    scores = (q @ k.T) / math.sqrt(q.shape[1])
    scores = np.where(window_mask(q.shape[0], window), scores, -np.inf)
    scores -= scores.max(axis=1, keepdims=True)
    e = np.exp(scores)
    return (e / e.sum(axis=1, keepdims=True)) @ v


def test_local_equals_masked_full_attention():
    rng = np.random.default_rng(7)
    for trial in range(100):
        length = int(rng.integers(1, 33))
        window = [1, 4, 16, 2 * length][trial % 4]
        d = int(rng.integers(1, 9)) * 2
        q, k, v = (rng.standard_normal((length, d)) for _ in range(3))
        out = local_attention(Tensor(q), Tensor(k), Tensor(v), window).data
        want = masked_attention_oracle(q, k, v, window)
        assert np.max(np.abs(out - want)) <= 1e-6, (trial, length, window)


def test_local_window_asymmetry():
    # w=16 keeps offsets -7..+8: j=i+8 visible, j=i-8 not
    length = 20
    q = np.zeros((length, 2))
    k = np.zeros((length, 2))
    v = np.arange(length, dtype=np.float64)[:, None] * np.ones((1, 2))
    out = local_attention(Tensor(q), Tensor(k), Tensor(v), 16).data
    # uniform weights over the valid span; row 9 spans j in {2..17}
    assert out[9, 0] == pytest.approx(np.mean(np.arange(2, 18)), rel=1e-12)


def test_local_single_position_returns_value_row():
    rng = np.random.default_rng(3)
    q, k, v = (rng.standard_normal((1, 6)) for _ in range(3))
    out = local_attention(Tensor(q), Tensor(k), Tensor(v), 4).data
    assert np.max(np.abs(out - v)) < 1e-12


def test_local_wide_window_equals_global_no_rope():
    rng = np.random.default_rng(11)
    length = 12
    q, k, v = (rng.standard_normal((length, 8)) for _ in range(3))
    wide = local_attention(Tensor(q), Tensor(k), Tensor(v),
                           2 * length - 1).data
    plain = global_attention(Tensor(q), Tensor(k), Tensor(v),
                             positions=np.zeros(length)).data
    assert np.max(np.abs(wide - plain)) <= 1e-6


def test_local_attention_validation():
    t = Tensor(np.zeros((4, 4)))
    with pytest.raises(ConfigurationError):
        local_attention(t, t, t, 0)
    with pytest.raises(DimensionError):
        local_attention(t, t, Tensor(np.zeros((5, 4))), 4)
    with pytest.raises(DimensionError):
        local_attention(t, t, Tensor(np.zeros((2, 4, 4))), 4)
    with pytest.raises(DimensionError):
        one_d = Tensor(np.zeros(4))
        local_attention(one_d, one_d, one_d, 4)


def test_local_attention_batched_matches_loop():
    rng = np.random.default_rng(28)
    for shape, window in (((3, 11, 4), 4), ((2, 3, 6, 2), 5),
                          ((1, 1, 4), 16)):
        q, k, v = (rng.standard_normal(shape) for _ in range(3))
        batched = local_attention(Tensor(q), Tensor(k), Tensor(v),
                                  window).data
        for h in np.ndindex(*shape[:-2]):
            single = local_attention(Tensor(q[h]), Tensor(k[h]),
                                     Tensor(v[h]), window).data
            assert np.max(np.abs(batched[h] - single)) <= 1e-12, (shape, h)


def test_rope_matches_complex_rotation():
    rng = np.random.default_rng(5)
    length, d = 10, 8
    x = rng.standard_normal((length, d))
    positions = rng.standard_normal(length) * 7.0
    out = rope_rotate(Tensor(x), positions).data

    half = d // 2
    theta = 10000.0 ** (-2.0 * np.arange(half) / d)
    z = x.reshape(length, half, 2)
    rotated = (z[..., 0] + 1j * z[..., 1]) * np.exp(
        1j * positions[:, None] * theta[None, :])
    want = np.stack([rotated.real, rotated.imag], axis=-1).reshape(length, d)
    assert np.max(np.abs(out - want)) < 1e-10


def test_rope_preserves_pair_norms_and_zero_is_identity():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((5, 6))
    out = rope_rotate(Tensor(x), np.arange(5)).data
    norms = lambda a: np.linalg.norm(a.reshape(5, 3, 2), axis=2)
    assert np.max(np.abs(norms(out) - norms(x))) < 1e-12
    ident = rope_rotate(Tensor(x), np.zeros(5)).data
    assert np.max(np.abs(ident - x)) < 1e-15


def test_global_attention_scores_shift_invariant():
    # rotary scores depend only on relative offsets
    rng = np.random.default_rng(8)
    length, d = 9, 8
    q, k, v = (rng.standard_normal((length, d)) for _ in range(3))
    base = global_attention(Tensor(q), Tensor(k), Tensor(v),
                            positions=np.arange(length)).data
    shifted = global_attention(Tensor(q), Tensor(k), Tensor(v),
                               positions=np.arange(length) + 137.0).data
    assert np.max(np.abs(base - shifted)) < 1e-9


def test_global_zero_positions_is_plain_attention():
    rng = np.random.default_rng(9)
    length, d = 7, 6
    q, k, v = (rng.standard_normal((length, d)) for _ in range(3))
    out = global_attention(Tensor(q), Tensor(k), Tensor(v),
                           positions=np.zeros(length)).data
    scores = (q @ k.T) / math.sqrt(d)
    scores -= scores.max(axis=1, keepdims=True)
    e = np.exp(scores)
    want = (e / e.sum(axis=1, keepdims=True)) @ v
    assert np.max(np.abs(out - want)) < 1e-10


def test_scaled_dot_attention_matches_composed_softmax():
    rng = np.random.default_rng(20)
    scale = 1.0 / math.sqrt(6)
    # equal lengths (self-attention), then fewer and more keys than queries
    for lq, lk in ((7, 7), (7, 3), (4, 9)):
        q = rng.standard_normal((lq, 6))
        k, v = (rng.standard_normal((lk, 6)) for _ in range(2))
        out = scaled_dot_attention(Tensor(q), Tensor(k), Tensor(v),
                                   scale).data
        s = (q @ k.T) * scale
        s -= s.max(axis=1, keepdims=True)
        e = np.exp(s)
        want = (e / e.sum(axis=1, keepdims=True)) @ v
        assert out.shape == (lq, 6)
        assert np.max(np.abs(out - want)) < 1e-12, (lq, lk)


def test_scaled_dot_attention_batched_matches_loop():
    rng = np.random.default_rng(21)
    q, k, v = (rng.standard_normal((5, 9, 4)) for _ in range(3))
    batched = scaled_dot_attention(Tensor(q), Tensor(k), Tensor(v), 0.5).data
    for h in range(5):
        single = scaled_dot_attention(Tensor(q[h]), Tensor(k[h]),
                                      Tensor(v[h]), 0.5).data
        assert np.max(np.abs(batched[h] - single)) < 1e-12, h


def test_scaled_dot_attention_validation_and_dtype():
    t = Tensor(np.zeros((4, 4), dtype=np.float32))
    with pytest.raises(DimensionError):
        scaled_dot_attention(t, t, Tensor(np.zeros((5, 4))), 1.0)
    with pytest.raises(DimensionError):
        one_d = Tensor(np.zeros(4))
        scaled_dot_attention(one_d, one_d, one_d, 1.0)
    # keys may be longer or shorter than queries, but leading axes and the
    # feature dim must agree
    mismatched = (
        (np.zeros((2, 3, 4)), np.zeros((3, 5, 4))),   # leading dims
        (np.zeros((3, 4)), np.zeros((2, 5, 4))),      # rank
        (np.zeros((3, 4)), np.zeros((5, 6))),         # feature dim
    )
    for q, kv in mismatched:
        with pytest.raises(DimensionError):
            scaled_dot_attention(Tensor(q), Tensor(kv), Tensor(kv), 1.0)
    rng = np.random.default_rng(22)
    q, k, v = (Tensor(rng.standard_normal((3, 4)).astype(np.float32))
               for _ in range(3))
    assert scaled_dot_attention(q, k, v, 0.5).data.dtype == np.float32


def test_rope_batched_matches_per_slice():
    rng = np.random.default_rng(23)
    x = rng.standard_normal((4, 5, 6))
    batched = rope_rotate(Tensor(x)).data
    for h in range(4):
        single = rope_rotate(Tensor(x[h])).data
        assert np.max(np.abs(batched[h] - single)) < 1e-12, h


def test_rope_strided_input_matches_contiguous():
    rng = np.random.default_rng(24)
    wide = rng.standard_normal((5, 12))
    view = wide[:, 2:8]
    assert not view.flags.c_contiguous
    strided = rope_rotate(Tensor(view)).data
    contiguous = rope_rotate(Tensor(np.ascontiguousarray(view))).data
    assert np.max(np.abs(strided - contiguous)) < 1e-12


def test_global_attention_batched_heads_match_loop():
    rng = np.random.default_rng(25)
    q, k, v = (rng.standard_normal((3, 8, 6)) for _ in range(3))
    batched = global_attention(Tensor(q), Tensor(k), Tensor(v)).data
    for h in range(3):
        single = global_attention(Tensor(q[h]), Tensor(k[h]),
                                  Tensor(v[h])).data
        assert np.max(np.abs(batched[h] - single)) < 1e-12, h


def test_attention_row_sums():
    rng = np.random.default_rng(10)
    length = 16
    q, k = (rng.standard_normal((length, length)) for _ in range(2))
    eye = np.eye(length)
    # feeding identity values reads the weight matrix back out
    for fn in (lambda: local_attention(Tensor(q), Tensor(k), Tensor(eye), 5),
               lambda: global_attention(Tensor(q), Tensor(k), Tensor(eye))):
        weights = fn().data
        assert np.max(np.abs(weights.sum(axis=1) - 1.0)) < 1e-6
        assert np.all(weights >= 0.0)


# ------------------------------------------------------- soft alignment

@pytest.fixture(scope="module")
def small_cfg():
    return AttentionConfig(heads=2, head_dim=4, window=4)


@pytest.fixture(scope="module")
def small_params(small_cfg):
    return init_attention_params(small_cfg, substream(0, "init"),
                                 dtype=np.float64)


def branch_outputs(x, cfg, params):
    """Pure-global and pure-local block outputs, built from the public
    kernels with the same projections the block uses."""
    from vocaldiff.tensor import add, concat, conv1d, matmul, narrow, transpose

    length = x.shape[1]
    positions = np.arange(length, dtype=np.float64)
    lq = transpose(conv1d(x, params["local_q_w"], params["local_q_b"],
                          padding=1))
    lk = transpose(conv1d(x, params["local_k_w"], params["local_k_b"],
                          padding=1))
    lv = transpose(conv1d(x, params["local_v_w"], params["local_v_b"],
                          padding=1))
    xt = transpose(x)
    gq = add(matmul(xt, params["global_q_w"]), params["global_q_b"])
    gk = add(matmul(xt, params["global_k_w"]), params["global_k_b"])
    gv = add(matmul(xt, params["global_v_w"]), params["global_v_b"])

    def per_head(fn, q, k, v):
        outs = [fn(narrow(q, 1, h * cfg.head_dim, cfg.head_dim),
                   narrow(k, 1, h * cfg.head_dim, cfg.head_dim),
                   narrow(v, 1, h * cfg.head_dim, cfg.head_dim))
                for h in range(cfg.heads)]
        return concat(outs, axis=1)

    g_ctx = per_head(lambda q, k, v: global_attention(q, k, v, positions),
                     gq, gk, gv)
    l_ctx = per_head(lambda q, k, v: local_attention(q, k, v, cfg.window),
                     lq, lk, lv)

    def finish(ctx):
        return add(x, transpose(add(matmul(ctx, params["out_w"]),
                                    params["out_b"]))).data

    return finish(g_ctx), finish(l_ctx)


def test_soft_align_endpoints(sched, small_cfg, small_params):
    rng = np.random.default_rng(12)
    x = Tensor(rng.standard_normal((small_cfg.model_dim, 16)))
    pure_global, pure_local = branch_outputs(x, small_cfg, small_params)

    at_zero = soft_align_attention(x, 0, small_cfg, small_params, sched).data
    assert np.max(np.abs(at_zero - pure_global)) <= 1e-6

    clamped = build_cosine_schedule(800)
    clamped.alpha_bar[800] = 0.0
    clamped.sqrt_alpha_bar[800] = 0.0
    at_t = soft_align_attention(x, 800, small_cfg, small_params, clamped).data
    assert np.max(np.abs(at_t - pure_local)) <= 1e-6


def test_soft_align_is_convex_blend(sched, small_cfg, small_params):
    # mid-schedule output equals g*global + l*local of the context, which
    # the residual-plus-projection structure makes affine in the contexts
    rng = np.random.default_rng(13)
    x = Tensor(rng.standard_normal((small_cfg.model_dim, 16)))
    pure_global, pure_local = branch_outputs(x, small_cfg, small_params)
    t = 400
    g, l = mix_weight(t, sched)
    blended = soft_align_attention(x, t, small_cfg, small_params, sched).data
    want = g * pure_global + l * pure_local
    assert np.max(np.abs(blended - want)) < 1e-9


def test_soft_align_shape_and_validation(sched, small_cfg, small_params):
    rng = np.random.default_rng(14)
    x = Tensor(rng.standard_normal((small_cfg.model_dim, 10)))
    out = soft_align_attention(x, 100, small_cfg, small_params, sched)
    assert out.shape == (small_cfg.model_dim, 10)
    with pytest.raises(ConfigurationError):
        soft_align_attention(Tensor(rng.standard_normal((5, 10))), 100,
                             small_cfg, small_params, sched)


def test_soft_align_batch_equals_per_item_calls(sched, small_cfg,
                                                small_params):
    rng = np.random.default_rng(15)
    x = rng.standard_normal((2, small_cfg.model_dim, 16))
    out = soft_align_attention(Tensor(x), 400, small_cfg, small_params,
                               sched).data
    want = np.stack([soft_align_attention(Tensor(xi), 400, small_cfg,
                                          small_params, sched).data
                     for xi in x])
    assert out.shape == want.shape
    assert np.max(np.abs(out - want)) <= 1e-12 * np.max(np.abs(want))


def test_attention_config_validation():
    with pytest.raises(ConfigurationError):
        AttentionConfig(heads=0)
    with pytest.raises(ConfigurationError):
        AttentionConfig(head_dim=3)
    assert AttentionConfig().model_dim == 512


# ------------------------------------------------------ cross-attention

def test_cross_attention_matches_per_head_oracle():
    params = init_model_params(UNetConfig.for_width(1 / 16), seed=4,
                               dtype=np.float64)
    heads = params.config.heads
    p = {name[len("mid.cross."):]: t.data for name, t in params.items()
         if name.startswith("mid.cross.")}
    rng = np.random.default_rng(29)
    c_mid, d = params.config.channels[-1], params.config.time_embed_dim
    x = rng.standard_normal((c_mid, 12))
    tokens = rng.standard_normal((3, d))
    out = cross_attention(Tensor(x), Tensor(tokens), params,
                          "mid.cross.").data

    q = x.T @ p["q.w"] + p["q.b"]
    k = tokens @ p["k.w"] + p["k.b"]
    v = tokens @ p["v.w"] + p["v.b"]
    hd = q.shape[1] // heads
    ctx = []
    for h in range(heads):
        cols = slice(h * hd, (h + 1) * hd)
        s = q[:, cols] @ k[:, cols].T / math.sqrt(hd)
        e = np.exp(s - s.max(axis=1, keepdims=True))
        ctx.append((e / e.sum(axis=1, keepdims=True)) @ v[:, cols])
    want = (np.concatenate(ctx, axis=1) @ p["out.w"] + p["out.b"]).T
    assert out.shape == (c_mid, 12)
    assert np.max(np.abs(out - want)) <= 1e-12


def test_cross_attention_batch_equals_per_item_calls():
    # non-zero tokens, so the softmax is not uniform and the per-head scale
    # matters: it must come from the channel axis, not axis 1, which holds
    # the length (12, not the 32 channels) once a batch axis leads
    params = init_model_params(UNetConfig.for_width(1 / 16), seed=4,
                               dtype=np.float64)
    rng = np.random.default_rng(30)
    c_mid, d = params.config.channels[-1], params.config.time_embed_dim
    x = rng.standard_normal((2, c_mid, 12))
    tokens = rng.standard_normal((2, 3, d))
    out = cross_attention(Tensor(x), Tensor(tokens), params,
                          "mid.cross.").data
    want = np.stack([cross_attention(Tensor(xi), Tensor(ti), params,
                                     "mid.cross.").data
                     for xi, ti in zip(x, tokens)])
    assert out.shape == want.shape == (2, c_mid, 12)
    assert np.max(np.abs(out - want)) <= 1e-12 * np.max(np.abs(want))


# ------------------------------------------------------------ gradients

def test_grad_local_attention():
    rng = np.random.default_rng(15)
    for shape in ((9, 4), (2, 9, 4)):
        q, k, v = (Tensor(rng.standard_normal(shape), requires_grad=True)
                   for _ in range(3))
        m = Tensor(rng.standard_normal(shape))
        errs = check_gradients(
            lambda: tensor_sum(local_attention(q, k, v, 5) * m),
            {"q": q, "k": k, "v": v})
        assert max(errs.values()) < 1e-4, shape


def local_kv_grads_by_add_at(q, k, v, g, window):
    """Key and value gradients of local_attention for output gradient g,
    scattered with np.add.at over the flattened positions: the reference
    for the slot-by-slot scatter's summation order."""
    lead, (length, d) = q.shape[:-2], q.shape[-2:]
    first = -(math.ceil(window / 2) - 1)
    span = np.arange(length)[:, None] + np.arange(window)[None, :]
    valid = (span >= -first) & (span < length - first)
    scale = 1.0 / math.sqrt(d)
    kv = np.zeros(lead + (length + window - 1, 2 * d), q.dtype)
    kv[..., -first:length - first, :d] = k
    kv[..., -first:length - first, d:] = v
    kv_win = np.lib.stride_tricks.as_strided(
        kv, lead + (length, window, 2 * d),
        kv.strides[:-1] + kv.strides[-2:], writeable=False)
    kg, vg = kv_win[..., :d], kv_win[..., d:]
    scores = np.matmul(kg, q[..., None])[..., 0] * scale
    attn = softmax_rows(np.where(valid, scores, -np.inf))
    ds = softmax_rows_grad(attn, np.matmul(vg, g[..., None])[..., 0])
    ds *= scale
    problems = math.prod(lead)
    rows = np.arange(problems)[:, None, None] * kv.shape[-2] + span
    contrib = np.concatenate((ds[..., None] * q[..., None, :],
                              attn[..., None] * g[..., None, :]), axis=-1)
    dkv = np.zeros((problems * kv.shape[-2], 2 * d), contrib.dtype)
    np.add.at(dkv, rows.ravel(), contrib.reshape(-1, 2 * d))
    dkv = dkv.reshape(kv.shape)[..., -first:length - first, :]
    return dkv[..., :d], dkv[..., d:]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape, window", [((8, 8, 8), 16), ((8, 8, 64), 16),
                                           ((2, 3, 9, 4), 5), ((7, 2), 1),
                                           ((2, 40, 6), 8)])
def test_local_attention_scatter_matches_add_at_bitwise(shape, window, dtype):
    rng = np.random.default_rng(17)
    q, k, v, g = (rng.standard_normal(shape).astype(dtype) for _ in range(4))
    kt, vt = Tensor(k, requires_grad=True), Tensor(v, requires_grad=True)
    with Tape():
        out = local_attention(Tensor(q), kt, vt, window)
        grads = backward(tensor_sum(mul(out, Tensor(g))))
    want_dk, want_dv = local_kv_grads_by_add_at(q, k, v, g, window)
    for got, want in ((grads[kt.node_id].data, want_dk),
                      (grads[vt.node_id].data, want_dv)):
        assert got.dtype == want.dtype == dtype
        assert got.tobytes() == want.tobytes()


def test_grad_global_attention():
    rng = np.random.default_rng(16)
    q, k, v = (Tensor(rng.standard_normal((8, 6)), requires_grad=True)
               for _ in range(3))
    m = Tensor(rng.standard_normal((8, 6)))
    errs = check_gradients(
        lambda: tensor_sum(global_attention(q, k, v) * m),
        {"q": q, "k": k, "v": v})
    assert max(errs.values()) < 1e-4


def test_grad_scaled_dot_attention_batched():
    rng = np.random.default_rng(26)
    for lq, lk in ((5, 5), (5, 3)):
        q = Tensor(rng.standard_normal((2, lq, 4)), requires_grad=True)
        k, v = (Tensor(rng.standard_normal((2, lk, 4)), requires_grad=True)
                for _ in range(2))
        m = Tensor(rng.standard_normal((2, lq, 4)))
        errs = check_gradients(
            lambda: tensor_sum(scaled_dot_attention(q, k, v, 0.37) * m),
            {"q": q, "k": k, "v": v})
        assert max(errs.values()) < 1e-4, (lq, lk)


def test_grad_global_attention_batched():
    rng = np.random.default_rng(27)
    q, k, v = (Tensor(rng.standard_normal((2, 6, 4)), requires_grad=True)
               for _ in range(3))
    m = Tensor(rng.standard_normal((2, 6, 4)))
    errs = check_gradients(
        lambda: tensor_sum(global_attention(q, k, v) * m),
        {"q": q, "k": k, "v": v})
    assert max(errs.values()) < 1e-4


def test_grad_soft_align_block(sched, small_cfg):
    rng = np.random.default_rng(17)
    params = init_attention_params(small_cfg, substream(1, "init"),
                                   dtype=np.float64)
    x = Tensor(rng.standard_normal((small_cfg.model_dim, 12)),
               requires_grad=True)
    m = Tensor(rng.standard_normal((small_cfg.model_dim, 12)))
    named = {"x": x}
    named.update(params)
    errs = check_gradients(
        lambda: tensor_sum(
            soft_align_attention(x, 300, small_cfg, params, sched) * m),
        named, probes=4)
    assert max(errs.values()) < 1e-4
