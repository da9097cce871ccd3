"""v-parametrized diffusion: targets, losses, guidance, and the sampler.

The network predicts v = sqrt(abar) * eps - sqrt(1 - abar) * x0; both the
clean signal and the noise are linear reads off (x_t, v), which keeps the
sampler's algebra closed under the same two coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (ConfigurationError, ContractError, DimensionError,
                     VocalDiffError)
from .optim import AdamWState, adamw_step, clip_grad_norm
from .schedule import Schedule, _check_t, forward_diffuse, snr_weight
from .tensor import Tape, Tensor, backward, mul, sub
from .unet import ModelParams, encode_vocal, unet_forward


@dataclass
class TrainConfig:
    lr: float = 3.5e-4
    batch: int = 16
    timesteps: int = 800
    cond_dropout: float = 0.1
    guidance_scale: float = 3.0
    seed: int = 0
    steps: int = 1000
    validation_fraction: float = 0.1
    # The SNR weight spans ~8 orders of magnitude over uniform t draws, so
    # batch gradients are heavy-tailed; rare low-t spikes inflate Adam's
    # second moment for ~1/(1-beta2) steps and stall every parameter.
    # Clipping at the typical gradient norm keeps step sizes uniform.
    max_grad_norm: float = 0.1

    def __post_init__(self):
        if not 0.0 <= self.cond_dropout < 1.0:
            raise ConfigurationError(
                f"cond_dropout must be in [0, 1), got {self.cond_dropout}"
            )
        if self.guidance_scale < 0.0:
            raise ConfigurationError(
                f"guidance_scale must be >= 0, got {self.guidance_scale}"
            )
        if self.batch < 1:
            raise ConfigurationError(f"batch must be >= 1, got {self.batch}")


def _as_array(x) -> np.ndarray:
    return x.data if isinstance(x, Tensor) else np.asarray(x)


def _coeffs(t: int, sched: Schedule, dtype):
    t = _check_t(t, sched)
    return (dtype.type(sched.sqrt_alpha_bar[t]),
            dtype.type(sched.sqrt_one_minus_alpha_bar[t]))


def v_target(x0, eps, t: int, sched: Schedule) -> np.ndarray:
    """v = sqrt(abar_t) eps - sqrt(1 - abar_t) x0."""
    x0, eps = _as_array(x0), _as_array(eps)
    if x0.shape != eps.shape:
        raise DimensionError(f"x0 {x0.shape} != eps {eps.shape}")
    a, b = _coeffs(t, sched, x0.dtype)
    return a * eps - b * x0


def recover_x0(x_t, v, t: int, sched: Schedule) -> np.ndarray:
    """x0_hat = sqrt(abar_t) x_t - sqrt(1 - abar_t) v."""
    x_t, v = _as_array(x_t), _as_array(v)
    if x_t.shape != v.shape:
        raise DimensionError(f"x_t {x_t.shape} != v {v.shape}")
    a, b = _coeffs(t, sched, x_t.dtype)
    return a * x_t - b * v


def recover_eps(x_t, v, t: int, sched: Schedule) -> np.ndarray:
    """eps_hat = sqrt(1 - abar_t) x_t + sqrt(abar_t) v."""
    x_t, v = _as_array(x_t), _as_array(v)
    if x_t.shape != v.shape:
        raise DimensionError(f"x_t {x_t.shape} != v {v.shape}")
    a, b = _coeffs(t, sched, x_t.dtype)
    return b * x_t + a * v


def loss_snr(v_pred, v_true, t: int, sched: Schedule) -> Tensor:
    """Mean squared error scaled by the clamped signal-to-noise weight."""
    if not isinstance(v_pred, Tensor):
        v_pred = Tensor(np.asarray(v_pred))
    v_true = _as_array(v_true)
    if v_pred.shape != v_true.shape:
        raise DimensionError(f"v_pred {v_pred.shape} != v_true {v_true.shape}")
    diff = sub(v_pred, Tensor(v_true.astype(v_pred.dtype)))
    return mul(mul(diff, diff).mean(), snr_weight(t, sched))


def cfg_combine(v_cond, v_uncond, g: float) -> np.ndarray:
    """Guided prediction v_uncond + g * (v_cond - v_uncond).

    g = 0 and g = 1 return the respective branch untouched, so those fixed
    points hold bitwise.
    """
    v_cond, v_uncond = _as_array(v_cond), _as_array(v_uncond)
    if v_cond.shape != v_uncond.shape:
        raise DimensionError(
            f"v_cond {v_cond.shape} != v_uncond {v_uncond.shape}"
        )
    if g == 0.0:
        return v_uncond.copy()
    if g == 1.0:
        return v_cond.copy()
    return v_uncond + v_cond.dtype.type(g) * (v_cond - v_uncond)


def train_step(batch, params: ModelParams, opt_state: AdamWState,
               cfg: TrainConfig, sched: Schedule,
               rng: np.random.Generator, lr=None):
    """One optimization step over a batch of latent pairs.

    Per item: draw t uniform on {1..T} and eps ~ N(0,1), noise the target
    latent, drop the vocal conditioning with probability cond_dropout, and
    regress the v prediction under the SNR-weighted loss.  Returns
    (mean loss, opt_state); params are updated in place.  lr overrides
    cfg.lr when the caller anneals it.  A non-finite loss or pre-clip
    gradient norm raises VocalDiffError naming the step and the first
    parameter with a non-finite gradient; params and moments are then
    left untouched.
    """
    if not batch:
        raise ContractError("train_step needs a non-empty batch")
    if sched.num_steps != cfg.timesteps:
        raise ConfigurationError(
            f"schedule has {sched.num_steps} steps, config expects "
            f"{cfg.timesteps}"
        )
    for p in params.tensors.values():
        p.requires_grad = True

    draws = []
    for pair in batch:
        t = int(rng.integers(1, cfg.timesteps + 1))
        eps = rng.standard_normal(pair.z_a.shape).astype(pair.z_a.dtype)
        dropped = bool(rng.random() < cfg.cond_dropout)
        draws.append((pair, t, eps, dropped))

    with Tape() as tape:
        total = None
        for pair, t, eps, dropped in draws:
            x_t = forward_diffuse(pair.z_a, eps, t, sched)
            v_true = v_target(pair.z_a, eps, t, sched)
            cond = None if dropped else encode_vocal(pair.z_v, params)
            v_pred = unet_forward(x_t, t, cond, params, sched)
            item = loss_snr(v_pred, v_true, t, sched)
            total = item if total is None else total + item
        loss = mul(total, 1.0 / len(batch))
        grad_map = backward(loss)

    grads = {}
    for name, p in params.items():
        if p._tape is tape and p.node_id in grad_map:
            grads[name] = grad_map[p.node_id]
        else:
            # branch unused this step (e.g. null vector with no dropout)
            grads[name] = Tensor(np.zeros_like(p.data))
    loss_value = loss.item()
    norm = (clip_grad_norm(grads, cfg.max_grad_norm)
            if cfg.max_grad_norm > 0 else 0.0)
    if not np.isfinite((loss_value, norm)).all():
        bad = next((name for name, g in grads.items()
                    if not np.isfinite(g.data).all()), None)
        raise VocalDiffError(
            f"non-finite training step {opt_state.step + 1}: loss {loss_value}"
            f", gradient norm {norm}, first non-finite gradient {bad}")
    decay_skip = {name for name, p in params.items() if p.data.ndim < 2}
    adamw_step(params.tensors, grads, opt_state,
               lr=cfg.lr if lr is None else lr, decay_skip=decay_skip)
    return loss_value, opt_state


@dataclass
class SamplerTrace:
    """Per-reverse-step statistics of the guided v prediction."""

    records: list = field(default_factory=list)

    def append(self, t: int, mean_v: float, std_v: float):
        self.records.append((int(t), float(mean_v), float(std_v)))

    def __len__(self):
        return len(self.records)


X0_CLAMP = 5.0


def ddpm_sample(z_v, params: ModelParams, cfg: TrainConfig, sched: Schedule,
                rng: np.random.Generator, denoise_fn=None):
    """Ancestral reverse diffusion conditioned on a vocal latent.

    Runs the full T-step chain from x_T ~ N(0,1).  Each step combines the
    conditional and unconditional v predictions under the guidance scale,
    reads off a clamped x0 estimate, and steps the posterior with variance
    beta_t * (1 - abar_{t-1}) / (1 - abar_t), adding noise only for t > 1.

    denoise_fn, if given, replaces the network: it is called as
    denoise_fn(x_t, t) and must return v with x_t's shape.
    """
    z_v = _as_array(z_v)
    if z_v.ndim != 2 or z_v.shape[1] % 8:
        raise ConfigurationError(
            f"vocal latent shape {z_v.shape} needs length divisible by 8"
        )
    if sched.num_steps != cfg.timesteps:
        raise ConfigurationError(
            f"schedule has {sched.num_steps} steps, config expects "
            f"{cfg.timesteps}"
        )
    cond = None
    if denoise_fn is None:
        cond = encode_vocal(z_v, params)
    x = rng.standard_normal(z_v.shape).astype(np.float32)
    trace = SamplerTrace()
    for t in range(sched.num_steps, 0, -1):
        if denoise_fn is not None:
            v = np.asarray(denoise_fn(x, t))
        elif cfg.guidance_scale == 0.0:
            v = unet_forward(x, t, None, params, sched).data
        elif cfg.guidance_scale == 1.0:
            v = unet_forward(x, t, cond, params, sched).data
        else:
            v_cond = unet_forward(x, t, cond, params, sched).data
            v_uncond = unet_forward(x, t, None, params, sched).data
            v = cfg_combine(v_cond, v_uncond, cfg.guidance_scale)
        trace.append(t, v.mean(), v.std())
        x0_hat = np.clip(recover_x0(x, v, t, sched), -X0_CLAMP, X0_CLAMP)
        ab_t = sched.alpha_bar[t]
        ab_prev = sched.alpha_bar[t - 1]
        beta = sched.betas[t]
        mean = (np.sqrt(ab_prev) * beta / (1.0 - ab_t) * x0_hat
                + np.sqrt(1.0 - beta) * (1.0 - ab_prev) / (1.0 - ab_t) * x)
        if t > 1:
            var = beta * (1.0 - ab_prev) / (1.0 - ab_t)
            noise = rng.standard_normal(x.shape)
            x = (mean + np.sqrt(var) * noise).astype(np.float32)
        else:
            x = mean.astype(np.float32)
    return x, trace
