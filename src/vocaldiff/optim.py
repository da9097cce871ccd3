"""AdamW with decoupled weight decay, plus the cosine learning-rate ramp."""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .errors import ContractError
from .tensor import Tensor


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
    error: silently skipping one hides wiring bugs.
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
        if g.shape != p.data.shape:
            raise ContractError(
                f"gradient shape {g.shape} != parameter shape {p.data.shape} "
                f"for {name!r}"
            )
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        if weight_decay and name not in decay_skip:
            p.data -= lr * weight_decay * p.data
        update = (m / c1) / (np.sqrt(v / c2) + eps)
        p.data -= (lr * update).astype(p.data.dtype)


def clip_grad_norm(grads: dict[str, Tensor], max_norm: float) -> float:
    """Scale all gradients in place so their global L2 norm is <= max_norm.

    Returns the pre-clip norm.  The accumulation runs in float64 so the
    squared sum of many float32 gradients does not lose low bits.  A
    non-finite norm leaves the gradients unscaled for the caller to report.
    """
    if max_norm <= 0:
        raise ContractError(f"max_norm must be positive, got {max_norm}")
    total = 0.0
    for g in grads.values():
        total += float(np.sum(g.data.astype(np.float64) ** 2))
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
