"""AdamW with decoupled weight decay, plus the cosine learning-rate ramp."""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .errors import ContractError
from .tensor import Tensor


# elements per block of the optimizer's sweeps: small enough that a block of
# every operand stays in cache, large enough to amortize the Python loop
_CHUNK = 1 << 15


class AdamWState:
    """First/second moment buffers and the shared step counter."""

    def __init__(self, params: dict[str, Tensor]):
        self.m = {k: np.zeros_like(t.data) for k, t in params.items()}
        self.v = {k: np.zeros_like(t.data) for k, t in params.items()}
        self.step = 0


def adamw_step(params: dict[str, Tensor], grads: dict[str, Tensor],
               state: AdamWState, lr: float, betas=(0.9, 0.999),
               eps: float = 1e-8, weight_decay: float = 0.01,
               decay_skip: Optional[set] = None) -> None:
    """One in-place AdamW update.

    Decay is decoupled (applied directly to the weights, not the gradient);
    names in ``decay_skip`` (biases, norm affines and similar) are exempt.
    Moments use bias correction.  Params missing a gradient entry are an
    error: silently skipping one hides wiring bugs.  Each parameter is
    swept in blocks of ``_CHUNK`` elements through two block-sized scratch
    buffers, so no temporary is the size of a parameter; params must
    therefore be C-contiguous, and each gradient must match its
    parameter's shape and dtype.
    """
    decay_skip = decay_skip or set()
    b1, b2 = betas
    state.step += 1
    t = state.step
    c1 = 1.0 - b1 ** t
    c2 = 1.0 - b2 ** t
    for name, p in params.items():
        if name not in grads:
            raise ContractError(f"no gradient for parameter {name!r}")
        g = grads[name].data
        if g.shape != p.data.shape or g.dtype != p.data.dtype:
            raise ContractError(
                f"gradient {g.dtype}{g.shape} does not match parameter "
                f"{p.data.dtype}{p.data.shape} for {name!r}"
            )
        if not p.data.flags.c_contiguous:
            raise ContractError(f"parameter {name!r} is not C-contiguous")
        decay = weight_decay and name not in decay_skip
        pf, gf = p.data.reshape(-1), g.reshape(-1)
        mf, vf = state.m[name].reshape(-1), state.v[name].reshape(-1)
        scratch = np.empty((2, min(pf.size, _CHUNK)), pf.dtype)
        for lo in range(0, pf.size, _CHUNK):
            blk = slice(lo, lo + _CHUNK)
            pc, gc, m, v = pf[blk], gf[blk], mf[blk], vf[blk]
            s1, s2 = scratch[:, :len(pc)]
            m *= b1
            m += np.multiply(1.0 - b1, gc, out=s1)
            v *= b2
            v += np.multiply(1.0 - b2, np.multiply(gc, gc, out=s1), out=s1)
            if decay:
                pc -= np.multiply(lr * weight_decay, pc, out=s1)
            np.divide(m, c1, out=s1)
            np.sqrt(np.divide(v, c2, out=s2), out=s2)
            s2 += eps
            s1 /= s2
            pc -= np.multiply(lr, s1, out=s1)


def clip_grad_norm(grads: dict[str, Tensor], max_norm: float) -> float:
    """Scale all gradients in place so their global L2 norm is <= max_norm.

    Returns the pre-clip norm.  The squares are summed in float64, one
    ``_CHUNK``-element block at a time, so the sum of many float32
    gradients does not lose low bits and no gradient is copied whole.  A
    non-finite norm leaves the gradients unscaled for the caller to report.
    """
    if max_norm <= 0:
        raise ContractError(f"max_norm must be positive, got {max_norm}")
    total = 0.0
    block = np.empty(_CHUNK, np.float64)
    for g in grads.values():
        flat = g.data.reshape(-1)
        for lo in range(0, flat.size, _CHUNK):
            part = flat[lo:lo + _CHUNK]
            c = block[:part.size]
            c[...] = part
            total += float(np.dot(c, c))
    norm = math.sqrt(total)
    if max_norm < norm < math.inf:
        scale = max_norm / norm
        for g in grads.values():
            g.data *= g.data.dtype.type(scale)
    return norm


def cosine_lr(step: int, total_steps: int, base_lr: float,
              floor_ratio: float = 0.01) -> float:
    """Cosine decay from base_lr to base_lr * floor_ratio over total_steps."""
    if total_steps <= 0:
        return base_lr
    frac = min(max(step / total_steps, 0.0), 1.0)
    lo = base_lr * floor_ratio
    return lo + 0.5 * (base_lr - lo) * (1.0 + math.cos(math.pi * frac))
