"""Diffusion algebra: targets, inversions, weighted loss, guidance, sampler."""

import dataclasses
import gc
import math

import numpy as np
import pytest

import vocaldiff.diffusion
from vocaldiff import (AdamWState, Schedule, TrainConfig, UNetConfig,
                       build_cosine_schedule, cfg_combine, ddpm_sample,
                       encode_vocal, gen_pair, init_model_params, loss_snr,
                       recover_eps, recover_x0, train_step, unet_forward,
                       v_target)
from vocaldiff.errors import (ConfigurationError, ContractError,
                              DimensionError, VocalDiffError)
from vocaldiff.tensor import Tape, Tensor, backward


def unit_snr_schedule():
    """Two-step schedule whose t=1 weight is exactly 1 (abar = 0.5)."""
    alpha_bar = np.array([1.0, 0.5, 0.25])
    return Schedule(
        num_steps=2,
        betas=np.array([0.0, 0.5, 0.5]),
        alpha_bar=alpha_bar,
        sqrt_alpha_bar=np.sqrt(alpha_bar),
        sqrt_one_minus_alpha_bar=np.sqrt(1.0 - alpha_bar),
        snr_weights=np.array([1e4, 1.0, 1.0 / 3.0]),
    )


# ---------------------------------------------------------- inversions

def test_round_trips_at_every_timestep(sched):
    rng = np.random.default_rng(20)
    x0 = rng.standard_normal((8, 16)).astype(np.float32)
    eps = rng.standard_normal((8, 16)).astype(np.float32)
    for t in range(sched.num_steps + 1):
        a = np.float32(sched.sqrt_alpha_bar[t])
        b = np.float32(sched.sqrt_one_minus_alpha_bar[t])
        x_t = a * x0 + b * eps
        v = v_target(x0, eps, t, sched)
        assert np.max(np.abs(recover_x0(x_t, v, t, sched) - x0)) <= 1e-5, t
        assert np.max(np.abs(recover_eps(x_t, v, t, sched) - eps)) <= 1e-5, t
        rebuilt = (a * recover_x0(x_t, v, t, sched)
                   + b * recover_eps(x_t, v, t, sched))
        assert np.max(np.abs(rebuilt - x_t)) <= 1e-5, t


def test_target_special_cases(sched):
    rng = np.random.default_rng(21)
    x0 = rng.standard_normal((4, 8)).astype(np.float32)
    eps = rng.standard_normal((4, 8)).astype(np.float32)
    t = 300
    a = np.float32(sched.sqrt_alpha_bar[t])
    b = np.float32(sched.sqrt_one_minus_alpha_bar[t])
    assert np.array_equal(v_target(x0, np.zeros_like(x0), t, sched), -(b * x0))
    assert np.array_equal(v_target(np.zeros_like(eps), eps, t, sched), a * eps)


def test_recovery_at_t_zero_is_the_identity(sched):
    rng = np.random.default_rng(22)
    x = rng.standard_normal((3, 8)).astype(np.float32)
    v = rng.standard_normal((3, 8)).astype(np.float32)
    assert np.array_equal(recover_x0(x, v, 0, sched), x)
    assert np.array_equal(recover_eps(x, v, 0, sched), v)


def test_recovery_is_linear(sched):
    rng = np.random.default_rng(23)
    x1, x2, v1, v2 = (rng.standard_normal((4, 4)) for _ in range(4))
    t = 555
    combined = recover_x0(2.0 * x1 + 3.0 * x2, 2.0 * v1 + 3.0 * v2, t, sched)
    parts = 2.0 * recover_x0(x1, v1, t, sched) + 3.0 * recover_x0(x2, v2, t,
                                                                  sched)
    assert np.max(np.abs(combined - parts)) < 1e-12


def test_shape_mismatches_rejected(sched):
    a = np.zeros((4, 8), np.float32)
    b = np.zeros((4, 9), np.float32)
    for fn in (v_target, recover_x0, recover_eps):
        with pytest.raises(DimensionError):
            fn(a, b, 10, sched)
    with pytest.raises(DimensionError):
        loss_snr(Tensor(a), b, 10, sched)


def test_out_of_range_timestep_rejected(sched):
    x = np.zeros((2, 4), np.float32)
    with pytest.raises(ContractError):
        v_target(x, x, -1, sched)
    with pytest.raises(ContractError):
        recover_x0(x, x, sched.num_steps + 1, sched)


# ---------------------------------------------------------------- loss

def test_loss_is_zero_at_the_target(sched):
    v = np.ones((4, 8), np.float32)
    assert loss_snr(Tensor(v.copy()), v, 100, sched).item() == 0.0


def test_loss_factorizes_into_weight_times_mse():
    sched = unit_snr_schedule()
    rng = np.random.default_rng(24)
    vp = rng.standard_normal((8, 16))
    vt = rng.standard_normal((8, 16))
    mse = float(np.mean((vp - vt) ** 2))
    # at abar = 0.5 the weight is exactly 1, so the loss IS the mse
    got = loss_snr(Tensor(vp), vt, 1, sched).item()
    assert got == pytest.approx(mse, rel=1e-12)
    got2 = loss_snr(Tensor(vp), vt, 2, sched).item()
    assert got2 == pytest.approx(mse / 3.0, rel=1e-12)


def test_loss_weight_sweep_against_schedule(sched):
    rng = np.random.default_rng(25)
    vp = rng.standard_normal((8, 16))
    vt = rng.standard_normal((8, 16))
    mse = float(np.mean((vp - vt) ** 2))
    for t in range(1, sched.num_steps + 1, 37):
        w = min(sched.alpha_bar[t] / (1.0 - sched.alpha_bar[t]), 1e4)
        got = loss_snr(Tensor(vp), vt, t, sched).item()
        assert abs(got - w * mse) <= 1e-6 * max(abs(w * mse), 1e-12), t


# ------------------------------------------------------------ guidance

def test_guidance_fixed_points_are_exact_copies():
    rng = np.random.default_rng(26)
    vc = rng.standard_normal((4, 8)).astype(np.float32)
    vu = rng.standard_normal((4, 8)).astype(np.float32)
    at_zero = cfg_combine(vc, vu, 0.0)
    at_one = cfg_combine(vc, vu, 1.0)
    assert np.array_equal(at_zero, vu) and np.array_equal(at_one, vc)
    at_zero[0, 0] += 1.0  # results are copies, not views
    at_one[0, 0] += 1.0
    assert vu[0, 0] != at_zero[0, 0] and vc[0, 0] != at_one[0, 0]


def test_guidance_extrapolates():
    vc = np.full((2, 2), 3.0)
    vu = np.full((2, 2), 1.0)
    assert np.array_equal(cfg_combine(vc, vu, 2.0), np.full((2, 2), 5.0))
    with pytest.raises(DimensionError):
        cfg_combine(np.zeros((2, 2)), np.zeros((2, 3)), 2.0)


def test_train_config_validation():
    with pytest.raises(ConfigurationError):
        TrainConfig(cond_dropout=1.0)
    with pytest.raises(ConfigurationError):
        TrainConfig(cond_dropout=-0.1)
    with pytest.raises(ConfigurationError):
        TrainConfig(guidance_scale=-1.0)
    with pytest.raises(ConfigurationError):
        TrainConfig(batch=0)
    with pytest.raises(ConfigurationError, match="steps"):
        TrainConfig(steps=-3)
    assert TrainConfig(steps=0).steps == 0  # writes the initialised model
    for lr in (float("nan"), float("inf"), -1.0):
        with pytest.raises(ConfigurationError, match="lr"):
            TrainConfig(lr=lr)
    assert TrainConfig(lr=0.0).lr == 0.0
    for norm in (0.0, -1.0, float("nan")):
        with pytest.raises(ConfigurationError, match="max_grad_norm"):
            TrainConfig(max_grad_norm=norm)
    assert TrainConfig(max_grad_norm=math.inf).max_grad_norm == math.inf


# ------------------------------------------------------------ training

def tiny_setup(seed=7, timesteps=50):
    cfg = TrainConfig(batch=2, timesteps=timesteps, cond_dropout=0.5,
                      seed=0, lr=1e-3)
    model_cfg = UNetConfig.for_width(1 / 16)
    params = init_model_params(model_cfg, seed=seed, zero_init_head=False)
    sched = build_cosine_schedule(timesteps)
    pairs = [gen_pair(s, length=16) for s in range(4)]
    return cfg, params, sched, pairs


def test_train_step_is_deterministic():
    losses = []
    final = []
    for _ in range(2):
        cfg, params, sched, pairs = tiny_setup()
        state = AdamWState(params.tensors)
        rng = np.random.default_rng(42)
        run = [train_step(pairs[:2], params, state, cfg, sched, rng)[0]
               for _ in range(3)]
        losses.append(run)
        final.append(params["stem.w"].data.copy())
    assert losses[0] == losses[1]
    assert np.array_equal(final[0], final[1])


def test_train_step_updates_and_counts():
    cfg, params, sched, pairs = tiny_setup()
    state = AdamWState(params.tensors)
    rng = np.random.default_rng(1)
    before = params["stem.w"].data.copy()
    loss, state = train_step(pairs[:2], params, state, cfg, sched, rng)
    assert np.isfinite(loss) and loss > 0.0
    assert state.step == 1
    assert not np.array_equal(params["stem.w"].data, before)


def test_train_step_without_dropout_leaves_null_vector_alone():
    # cond_dropout=0 keeps null_pooled out of the graph; its gradient is
    # zero-filled and only weight decay may move it (it starts at zero)
    cfg, params, sched, pairs = tiny_setup()
    cfg.cond_dropout = 0.0
    state = AdamWState(params.tensors)
    rng = np.random.default_rng(2)
    train_step(pairs[:2], params, state, cfg, sched, rng)
    assert np.all(params["cond.null_pooled"].data == 0.0)


def test_train_step_input_validation():
    cfg, params, sched, pairs = tiny_setup()
    state = AdamWState(params.tensors)
    rng = np.random.default_rng(3)
    with pytest.raises(ContractError):
        train_step([], params, state, cfg, sched, rng)
    with pytest.raises(ConfigurationError):
        train_step(pairs[:2], params, state, cfg,
                   build_cosine_schedule(80), rng)


def _assert_step_stops_untouched(cfg, params, sched, pairs, message):
    state = AdamWState(params.tensors)
    before = {name: t.data.copy() for name, t in params.items()}
    with pytest.raises(VocalDiffError, match=message):
        train_step(pairs[:2], params, state, cfg, sched,
                   np.random.default_rng(5))
    for name, t in params.items():
        assert np.array_equal(t.data, before[name], equal_nan=True), name
    assert state.step == 0
    assert not any(m.any() for m in state.m.values())
    assert not any(v.any() for v in state.v.values())


def test_train_step_stops_on_a_non_finite_step():
    cfg, params, sched, pairs = tiny_setup()
    params["stem.w"].data[0, 0, 0] = np.nan
    _assert_step_stops_untouched(cfg, params, sched, pairs,
                                 r"step 1:.*gradient stem\.w")


def test_unclipped_step_still_stops_on_a_non_finite_gradient(monkeypatch):
    # clipping off (inf) still measures the norm, so a non-finite gradient
    # under a finite loss is caught before AdamW
    cfg, params, sched, pairs = tiny_setup()
    stem = params["stem.w"]

    def poisoned_backward(loss):
        grads = backward(loss)
        grads[stem.node_id].data[0, 0, 0] = np.inf
        return grads

    monkeypatch.setattr(vocaldiff.diffusion, "backward", poisoned_backward)
    _assert_step_stops_untouched(
        dataclasses.replace(cfg, max_grad_norm=math.inf), params, sched,
        pairs, r"step 1: loss [-0-9.e]+, gradient norm inf, .*gradient "
        r"stem\.w")


def test_train_step_releases_its_tape():
    # with the collector off, only reference counts free the tape: no
    # parameter may keep the finished step's tape and saved activations
    cfg, params, sched, pairs = tiny_setup()
    state = AdamWState(params.tensors)
    rng = np.random.default_rng(6)
    gc.collect()
    gc.disable()
    try:
        train_step(pairs[:2], params, state, cfg, sched, rng)
        alive = [o for o in gc.get_objects() if isinstance(o, Tape)]
    finally:
        gc.enable()
    assert not alive
    assert all(p._tape is None and p.node_id is None
               for p in params.tensors.values())


# ------------------------------------------------------------- sampler

def test_sampler_contracts_to_the_oracle_fixed_point(sched):
    # a denoiser that always points at a fixed clean latent should pull the
    # chain onto it; the tail steps have almost no noise left to add
    rng = np.random.default_rng(27)
    x_star = np.clip(rng.standard_normal((8, 16)), -2.0, 2.0)

    def oracle(x_t, t):
        a = sched.sqrt_alpha_bar[t]
        b = sched.sqrt_one_minus_alpha_bar[t]
        return ((a * x_t - x_star) / b).astype(np.float32)

    cfg = TrainConfig(timesteps=sched.num_steps)
    out, trace = ddpm_sample(np.zeros((8, 16), np.float32), None, cfg, sched,
                             np.random.default_rng(5), denoise_fn=oracle)
    rel = np.max(np.abs(out - x_star)) / np.max(np.abs(x_star))
    assert rel <= 0.05
    assert len(trace) == sched.num_steps
    assert [r[0] for r in trace.records[:3]] == [800, 799, 798]


def test_sampler_trace_counts_clamped_x0_entries(sched):
    # |v| = 1e3 against the sign of x_t puts every x0 entry beyond the clamp
    # at every step (sqrt(1 - abar_t) * 1e3 >= 7.2); v = 0 with x_t ~ N(0, 1)
    # keeps them inside it at the first step
    def away(x_t, t):
        return np.where(x_t < 0, 1e3, -1e3).astype(np.float32)

    def still(x_t, t):
        return np.zeros_like(x_t)

    cfg = TrainConfig(timesteps=sched.num_steps)
    z_v = np.zeros((8, 16), np.float32)
    _, trace = ddpm_sample(z_v, None, cfg, sched, np.random.default_rng(6),
                           denoise_fn=away)
    assert [r[3] for r in trace.records] == [1.0] * sched.num_steps
    _, trace = ddpm_sample(z_v, None, cfg, sched, np.random.default_rng(6),
                           denoise_fn=still)
    assert trace.records[0][3] == 0.0


def test_sampler_is_deterministic_given_the_rng(sched):
    def still(x_t, t):
        return np.zeros_like(x_t)

    cfg = TrainConfig(timesteps=sched.num_steps)
    a, _ = ddpm_sample(np.zeros((4, 8), np.float32), None, cfg, sched,
                       np.random.default_rng(9), denoise_fn=still)
    b, _ = ddpm_sample(np.zeros((4, 8), np.float32), None, cfg, sched,
                       np.random.default_rng(9), denoise_fn=still)
    assert np.array_equal(a, b)


def test_guidance_zero_equals_unconditional_chain():
    # with g = 0 the guided sampler must be bit-identical to a chain that
    # only ever evaluates the unconditional branch
    timesteps = 10
    sched = build_cosine_schedule(timesteps)
    model_cfg = UNetConfig.for_width(1 / 16)
    params = init_model_params(model_cfg, seed=11, zero_init_head=False)
    z_v = np.random.default_rng(6).standard_normal((64, 16)).astype(np.float32)

    guided_cfg = TrainConfig(timesteps=timesteps, guidance_scale=0.0)
    guided, _ = ddpm_sample(z_v, params, guided_cfg, sched,
                            np.random.default_rng(13))

    def uncond_only(x_t, t):
        return unet_forward(x_t, t, None, params, sched).data

    manual_cfg = TrainConfig(timesteps=timesteps, guidance_scale=3.0)
    manual, _ = ddpm_sample(z_v, params, manual_cfg, sched,
                            np.random.default_rng(13),
                            denoise_fn=uncond_only)
    assert np.array_equal(guided, manual)


def test_guidance_one_equals_conditional_chain():
    # with g = 1 the guided sampler must be bit-identical to a chain that
    # only ever evaluates the conditional branch
    timesteps = 10
    sched = build_cosine_schedule(timesteps)
    params = init_model_params(UNetConfig.for_width(1 / 16), seed=11,
                               zero_init_head=False)
    z_v = np.random.default_rng(6).standard_normal((64, 16)).astype(np.float32)

    guided, _ = ddpm_sample(z_v, params,
                            TrainConfig(timesteps=timesteps,
                                        guidance_scale=1.0),
                            sched, np.random.default_rng(13))
    cond = encode_vocal(z_v, params)

    def cond_only(x_t, t):
        return unet_forward(x_t, t, cond, params, sched).data

    manual, _ = ddpm_sample(z_v, params,
                            TrainConfig(timesteps=timesteps,
                                        guidance_scale=3.0),
                            sched, np.random.default_rng(13),
                            denoise_fn=cond_only)
    assert np.array_equal(guided, manual)


class _CountingRng:
    """Generator proxy that counts ``standard_normal`` draws."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.draws = 0

    def standard_normal(self, *args, **kwargs):
        self.draws += 1
        return self._rng.standard_normal(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._rng, name)


def test_guided_step_is_one_unet_call_and_one_noise_draw(monkeypatch):
    # g = 3 runs both branches as one batch of 2 per reverse step, and the
    # chain draws x_T plus one noise block per step but the last: T draws,
    # which is what the benchmark times reverse steps by
    timesteps = 10
    sched = build_cosine_schedule(timesteps)
    params = init_model_params(UNetConfig.for_width(1 / 16), seed=11,
                               zero_init_head=False, dtype=np.float64)
    z_v = np.random.default_rng(6).standard_normal((64, 16)).astype(np.float32)
    cfg = TrainConfig(timesteps=timesteps, guidance_scale=3.0)
    shapes = []

    def counting_forward(x_t, *args):
        shapes.append(np.shape(x_t))
        return unet_forward(x_t, *args)

    monkeypatch.setattr(vocaldiff.diffusion, "unet_forward", counting_forward)
    rng = _CountingRng(13)
    guided, _ = ddpm_sample(z_v, params, cfg, sched, rng)
    assert shapes == [(2, 64, 16)] * timesteps
    assert rng.draws == timesteps

    # the same chain from one call per branch: only float32 rounding of the
    # state between steps may differ (the network itself runs in float64)
    cond = encode_vocal(z_v, params)

    def two_calls(x_t, t):
        return cfg_combine(unet_forward(x_t, t, cond, params, sched).data,
                           unet_forward(x_t, t, None, params, sched).data,
                           cfg.guidance_scale)

    manual, _ = ddpm_sample(z_v, params, cfg, sched, _CountingRng(13),
                            denoise_fn=two_calls)
    assert np.max(np.abs(guided - manual)) <= 1e-5


def test_sampler_input_validation(sched):
    cfg = TrainConfig(timesteps=sched.num_steps)
    with pytest.raises(ConfigurationError):
        ddpm_sample(np.zeros((4, 9), np.float32), None, cfg, sched,
                    np.random.default_rng(0), denoise_fn=lambda x, t: x)
    with pytest.raises(ConfigurationError):
        ddpm_sample(np.zeros((4, 8), np.float32), None,
                    TrainConfig(timesteps=123), sched,
                    np.random.default_rng(0), denoise_fn=lambda x, t: x)
