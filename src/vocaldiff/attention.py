"""Windowed local attention, rotary global attention, and their
timestep-weighted combination.

The combination weight tracks the cumulative signal level of the diffusion
process: at t = 0 (clean signal) the block attends globally; as t grows and
the signal degrades, weight shifts onto the local windowed branch.  Local
q/k/v come from kernel-3 convolutions, global q/k/v from pointwise linear
projections with rotary position embeddings on q and k.

A block's parameters are plain {name: Tensor} entries whose names, shapes
and inits ``attention_layout`` lists.  ``soft_align_attention`` reads them
from any dict under a name prefix, so the block runs on its own dict
(prefix "") or inside a whole model's (prefix "mid.attn.").
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DimensionError
from .rng import ZEROS, init_params
from .schedule import Schedule, mix_weight
from .tensor import (Tensor, _apply, add, conv1d, matmul, mul, permute,
                     reshape, softmax_rows, softmax_rows_grad, transpose)


@dataclass(frozen=True)
class AttentionConfig:
    heads: int = 8
    head_dim: int = 64
    window: int = 16

    def __post_init__(self):
        if self.heads < 1 or self.head_dim < 1 or self.window < 1:
            raise ConfigurationError(
                f"heads/head_dim/window must be >= 1, got "
                f"{self.heads}/{self.head_dim}/{self.window}"
            )
        if self.head_dim % 2 != 0:
            raise ConfigurationError(
                f"head_dim must be even for rotary pairing, got {self.head_dim}"
            )

    @property
    def model_dim(self) -> int:
        return self.heads * self.head_dim


ROPE_BASE = 10000.0


def _rope_rotations(positions: np.ndarray, d: int) -> np.ndarray:
    """Unit complex rotation of pair k at each position, as complex128."""
    theta = ROPE_BASE ** (-2.0 * np.arange(d // 2) / d)
    angle = positions[:, None] * theta[None, :]
    return np.cos(angle) + 1j * np.sin(angle)


@functools.lru_cache(maxsize=16)
def _rope_table(length: int, d: int, ctype) -> np.ndarray:
    """Rotations for the default 0..L-1 positions, cached because the trig
    evaluation otherwise dominates small-L attention calls."""
    positions = np.arange(length, dtype=np.float64)
    return _rope_rotations(positions, d).astype(ctype)


def rope_rotate(x: Tensor, positions=None) -> Tensor:
    """Rotate consecutive coordinate pairs of x[..., L, d] by position-scaled
    angles.

    Pair k of row i is rotated by positions[i] * base^(-2k/d); positions
    defaults to 0..L-1.  Leading axes batch independent sequences sharing the
    same positions.  Each (even, odd) pair of a contiguous copy of x is
    viewed as one complex number, so the rotation is a single complex
    multiply.  Norms are preserved per pair, and rotated dot products depend
    only on position differences.  The rotation is linear, so the backward
    pass is the same multiply by the conjugate rotation.
    """
    if x.data.ndim < 2:
        raise DimensionError(f"rope_rotate expects (..., L, d), got {x.shape}")
    length, d = x.shape[-2], x.shape[-1]
    if d % 2 != 0:
        raise ConfigurationError(f"rope_rotate needs even d, got {d}")
    xd = np.ascontiguousarray(x.data)
    ctype = np.complex64 if xd.dtype == np.float32 else np.complex128
    if positions is None:
        w = _rope_table(length, d, ctype)
    else:
        positions = np.asarray(positions, dtype=np.float64)
        if positions.shape != (length,):
            raise DimensionError(
                f"positions shape {positions.shape} != ({length},)"
            )
        w = _rope_rotations(positions, d).astype(ctype)
    out = (xd.view(ctype) * w).view(xd.dtype)
    wc = np.conj(w)

    def bwd(g):
        gc = np.ascontiguousarray(g).view(ctype)
        return ((gc * wc).view(xd.dtype),)

    return _apply(out, (x,), bwd)


def local_attention(q: Tensor, k: Tensor, v: Tensor, window: int) -> Tensor:
    """Scaled dot-product attention restricted to a sliding window.

    Inputs are (..., L, d) with identical shapes; leading axes batch
    independent attention problems, one per head.  Position i attends to
    positions j with i - ceil(w/2) < j <= i + floor(w/2), truncated at the
    sequence edges.  Work is O(L * window * d) per problem and memory
    O(L * (window + d)): keys/values are read through strided window views,
    and the full L x L score matrix is never materialized.
    """
    if window < 1:
        raise ConfigurationError(f"window must be >= 1, got {window}")
    if q.data.ndim < 2 or q.shape != k.shape or q.shape != v.shape:
        raise DimensionError(
            f"local_attention needs equal (..., L, d) inputs, got "
            f"{q.shape}/{k.shape}/{v.shape}"
        )
    lead, (length, d) = q.shape[:-2], q.shape[-2:]
    first = -(math.ceil(window / 2) - 1)
    # slot j of position i reads row i + j of the keys/values zero-padded by
    # -first rows in front, so windows are strided views of one padded copy;
    # gathering them would copy every row window times
    span = np.arange(length)[:, None] + np.arange(window)[None, :]
    valid = (span >= -first) & (span < length - first)
    scale = 1.0 / math.sqrt(d)
    qd = q.data
    kv = np.zeros(lead + (length + window - 1, 2 * d), qd.dtype)
    kv[..., -first:length - first, :d] = k.data
    kv[..., -first:length - first, d:] = v.data
    strides = kv.strides[:-1] + kv.strides[-2:]
    kv_win = np.lib.stride_tricks.as_strided(
        kv, lead + (length, window, 2 * d), strides, writeable=False)
    kg, vg = kv_win[..., :d], kv_win[..., d:]
    scores = np.matmul(kg, qd[..., None])[..., 0] * scale
    attn = softmax_rows(np.where(valid, scores, -np.inf))
    out = np.matmul(attn[..., None, :], vg)[..., 0, :]

    def bwd(g):
        ds = softmax_rows_grad(attn, np.matmul(vg, g[..., None])[..., 0])
        ds *= scale
        dq = np.matmul(ds[..., None, :], kg)[..., 0, :]
        # scatter the key and value gradients together into the padded
        # layout, leading axes flattened so each (problem, row) owns one
        # accumulator row; padding rows collect only zero weights
        problems = math.prod(lead)
        rows = np.arange(problems)[:, None, None] * kv.shape[-2] + span
        contrib = np.concatenate((ds[..., None] * qd[..., None, :],
                                  attn[..., None] * g[..., None, :]), axis=-1)
        dkv = np.zeros((problems * kv.shape[-2], 2 * d), contrib.dtype)
        np.add.at(dkv, rows.ravel(), contrib.reshape(-1, 2 * d))
        dkv = dkv.reshape(kv.shape)[..., -first:length - first, :]
        return dq, dkv[..., :d], dkv[..., d:]

    return _apply(out, (q, k, v), bwd)


def scaled_dot_attention(q: Tensor, k: Tensor, v: Tensor,
                         scale: float) -> Tensor:
    """softmax(scale * q @ k^T) @ v as one fused op.

    Queries are (..., Lq, d); keys and values are equal-shaped (..., Lk, d)
    with the same leading axes, which batch independent attention problems,
    one per head.  Lq and Lk may differ, so the op serves both self- and
    cross-attention.  ``softmax_rows`` works in place, so scores and weights
    share one (..., Lq, Lk) buffer; the backward pass is the closed form of
    the whole chain, with ``softmax_rows_grad`` for the softmax step.
    """
    if (q.data.ndim < 2 or k.shape != v.shape
            or q.shape[:-2] != k.shape[:-2] or q.shape[-1] != k.shape[-1]):
        raise DimensionError(
            f"scaled_dot_attention needs (..., Lq, d) queries and equal "
            f"(..., Lk, d) keys/values, got {q.shape}/{k.shape}/{v.shape}"
        )
    qs = q.data * scale
    kd, vd = k.data, v.data
    att = softmax_rows(np.matmul(qs, kd.swapaxes(-1, -2)))
    out = np.matmul(att, vd)

    def bwd(g):
        dv = np.matmul(att.swapaxes(-1, -2), g)
        datt = softmax_rows_grad(att, np.matmul(g, vd.swapaxes(-1, -2)))
        dq = np.matmul(datt, kd) * scale
        dk = np.matmul(datt.swapaxes(-1, -2), qs)
        return dq, dk, dv

    return _apply(out, (q, k, v), bwd)


def global_attention(q: Tensor, k: Tensor, v: Tensor,
                     positions=None) -> Tensor:
    """Full-length scaled dot-product attention with rotary q/k encoding.

    Accepts (L, d) or (heads, L, d); heads run as one batched call and
    share the position ladder.  v is left unrotated.  positions defaults
    to 0..L-1; a caller can zero it to recover plain attention.
    """
    if q.data.ndim < 2 or q.shape != k.shape or q.shape != v.shape:
        raise DimensionError(
            f"global_attention needs equal (..., L, d) inputs, got "
            f"{q.shape}/{k.shape}/{v.shape}"
        )
    qr = rope_rotate(q, positions)
    kr = rope_rotate(k, positions)
    return scaled_dot_attention(qr, kr, v, 1.0 / math.sqrt(q.shape[-1]))


def attention_layout(cfg: AttentionConfig) -> dict:
    """The block's parameters as {name: (shape, init)} rows in draw order.

    Local projections are kernel-3 convolutions over (model_dim, L); global
    projections and the output projection are pointwise linear maps stored
    as (in, out) matrices.  Weights take a uniform fan-in init, biases zero.
    """
    m = cfg.model_dim
    layout = {}
    for branch, shape, fan_in in (("local", (m, m, 3), m * 3),
                                  ("global", (m, m), m)):
        for proj in "qkv":
            layout[f"{branch}_{proj}_w"] = (shape, fan_in)
            layout[f"{branch}_{proj}_b"] = ((m,), ZEROS)
    layout["out_w"] = ((m, m), m)
    layout["out_b"] = ((m,), ZEROS)
    return layout


def init_attention_params(cfg: AttentionConfig, rng: np.random.Generator,
                          dtype=np.float32) -> dict:
    """{name: Tensor} for one block, drawn from ``attention_layout``."""
    return init_params(attention_layout(cfg), rng, dtype)


def split_heads(x: Tensor, heads: int) -> Tensor:
    """(..., L, heads * head_dim) -> (..., heads, L, head_dim)."""
    *lead, length, width = x.shape
    n = len(lead)
    return permute(reshape(x, (*lead, length, heads, width // heads)),
                   (*range(n), n + 1, n, n + 2))


def merge_heads(x: Tensor) -> Tensor:
    """(..., heads, L, head_dim) -> (..., L, heads * head_dim); undoes
    split_heads."""
    *lead, heads, length, head_dim = x.shape
    n = len(lead)
    return reshape(permute(x, (*range(n), n + 1, n, n + 2)),
                   (*lead, length, heads * head_dim))


def soft_align_attention(x: Tensor, t: int, cfg: AttentionConfig,
                         params: dict, sched: Schedule,
                         prefix: str = "") -> Tensor:
    """Mix global and local attention by the signal level at timestep t.

    Per head, context = g * global + (1 - g) * local with g = sqrt(abar_t);
    heads are merged, projected, and added back onto x residually.
    Input and output are (..., model_dim, L); leading axes batch items.
    params maps names to Tensors and the block reads
    ``params[prefix + name]`` for each name of ``attention_layout``: a
    block's own dict passes no prefix, a whole model's passes its block's.
    """
    if x.data.ndim < 2 or x.shape[-2] != cfg.model_dim:
        raise ConfigurationError(
            f"input channels {x.shape} incompatible with model_dim "
            f"{cfg.model_dim}"
        )
    g, l = mix_weight(t, sched)
    xt = transpose(x)

    def weights(branch, proj):
        key = f"{prefix}{branch}_{proj}"
        return params[key + "_w"], params[key + "_b"]

    def local_proj(proj):
        w, b = weights("local", proj)
        return split_heads(transpose(conv1d(x, w, b, padding=1)), cfg.heads)

    def global_proj(proj):
        w, b = weights("global", proj)
        return split_heads(add(matmul(xt, w), b), cfg.heads)

    global_ctx = global_attention(*(global_proj(proj) for proj in "qkv"))
    local_ctx = local_attention(*(local_proj(proj) for proj in "qkv"),
                                cfg.window)

    mixed = merge_heads(add(mul(global_ctx, g), mul(local_ctx, l)))
    projected = add(matmul(mixed, params[prefix + "out_w"]),
                    params[prefix + "out_b"])
    return add(x, transpose(projected))
