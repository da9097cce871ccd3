"""Acceptance gate: eleven checks, one printed verdict line each.

Every test prints its measured numbers through report() before asserting,
so the final tally is visible even when a criterion fails.
"""

import math
import re
import struct
import time

import numpy as np
import pytest

from vocaldiff import (AttentionConfig, TrainConfig, UNetConfig,
                       build_cosine_schedule, cfg_combine, ddpm_sample,
                       encode_vocal, forward_diffuse, gen_pair,
                       global_attention, init_attention_params,
                       init_model_params, load_checkpoint, local_attention,
                       loss_snr, mix_weight, read_pair, recover_eps,
                       recover_x0, save_checkpoint, unet_forward, v_target,
                       write_pair)
from vocaldiff.cli import main
from vocaldiff.errors import FormatError
from vocaldiff.gradcheck import check_gradients
from vocaldiff.rng import substream
from vocaldiff.tensor import (Tensor, add, concat, conv1d, conv_transpose1d,
                              group_norm, matmul, mul, narrow, neg, silu,
                              softmax, sub, tensor_mean, tensor_sum,
                              transpose)
from vocaldiff.training import run_training
from vocaldiff.unet import film


def report(capsys, num, ok, name, detail=""):
    with capsys.disabled():
        tail = f" ({detail})" if detail else ""
        print(f"[criterion {num:>2}] {'PASS' if ok else 'FAIL'} {name}{tail}")


def scalarized(op_out, m):
    return tensor_sum(mul(op_out, m))


# ---------------------------------------------------------- criterion 1

def test_criterion_1_gradient_suite(capsys, sched):
    start = time.perf_counter()
    rng = np.random.default_rng(31)

    def T(*shape):
        return Tensor(rng.standard_normal(shape))

    m34, m32, m45, m65, m94, m86 = (T(3, 4), T(3, 2), T(4, 5), T(6, 5),
                                    T(9, 4), T(8, 6))
    m_c1, m_ct = T(4, 4), T(2, 8)
    cases = {}

    a, b = T(3, 4), T(4)
    cases["add"] = ({"a": a, "b": b}, lambda: scalarized(add(a, b), m34))
    cases["sub"] = ({"a": a, "b": b}, lambda: scalarized(sub(a, b), m34))
    cases["mul"] = ({"a": a, "b": b}, lambda: scalarized(mul(a, b), m34))
    c = T(3, 4)
    cases["neg"] = ({"c": c}, lambda: scalarized(neg(c), m34))
    cases["silu"] = ({"c": c}, lambda: scalarized(silu(c), m34))
    cases["mean"] = ({"c": c}, lambda: tensor_mean(mul(c, c)))

    ma, mb = T(3, 4), T(4, 2)
    cases["matmul"] = ({"a": ma, "b": mb},
                       lambda: scalarized(matmul(ma, mb), m32))

    cx, cw, cb = T(3, 8), T(4, 3, 4), T(4)
    cases["conv1d"] = (
        {"x": cx, "w": cw, "b": cb},
        lambda: scalarized(conv1d(cx, cw, cb, stride=2, padding=1), m_c1))
    tx, tw, tb = T(3, 4), T(3, 2, 4), T(2)
    cases["conv_transpose1d"] = (
        {"x": tx, "w": tw, "b": tb},
        lambda: scalarized(conv_transpose1d(tx, tw, tb, stride=2, padding=1),
                           m_ct))

    sx = T(4, 5)
    cases["softmax"] = ({"x": sx}, lambda: scalarized(softmax(sx), m45))
    gx, gg, gb = T(6, 5), T(6), T(6)
    cases["group_norm"] = (
        {"x": gx, "gamma": gg, "beta": gb},
        lambda: scalarized(group_norm(gx, 3, gg, gb), m65))

    na, nb = T(3, 4), T(2, 3)
    cases["concat_narrow_transpose"] = (
        {"a": na, "b": nb},
        lambda: scalarized(concat([narrow(na, 1, 1, 2), transpose(nb)],
                                  axis=1), m34))

    fx, fc, fw, fb = T(3, 4), T(2), T(2, 6), T(6)
    # fixed norm affine: drawing it would shift every later draw
    fg = Tensor(np.array([0.8, 1.1, 1.3]))
    fbeta = Tensor(np.array([-0.2, 0.1, 0.3]))
    cases["film"] = ({"gamma": fg, "beta": fbeta, "cv": fc, "w": fw, "b": fb},
                     lambda: scalarized(film(fx, 3, fg, fbeta, fc, fw, fb),
                                        m34))

    lq, lk, lv = T(9, 4), T(9, 4), T(9, 4)
    cases["local_attention"] = (
        {"q": lq, "k": lk, "v": lv},
        lambda: scalarized(local_attention(lq, lk, lv, 4), m94))
    gq, gk, gv = T(8, 6), T(8, 6), T(8, 6)
    cases["global_attention"] = (
        {"q": gq, "k": gk, "v": gv},
        lambda: scalarized(global_attention(gq, gk, gv), m86))

    worst_prim = 0.0
    worst_name = ""
    for name, (params, f) in cases.items():
        errors = check_gradients(f, params)
        bad = max(errors.values())
        if bad > worst_prim:
            worst_prim, worst_name = bad, name

    model_cfg = UNetConfig.for_width(1 / 16)
    model = init_model_params(model_cfg, seed=5, zero_init_head=False,
                              dtype=np.float64)
    x = Tensor(rng.standard_normal((64, 16)))
    z_v = rng.standard_normal((64, 16))

    def full_model():
        pred = unet_forward(x, 100, encode_vocal(z_v, model), model, sched)
        uncond = unet_forward(x, 700, None, model, sched)
        return add(tensor_sum(pred), tensor_sum(uncond))

    # at this width the head norm has group size 1, so constant shifts from
    # the last block's biases cancel exactly and their true gradients are
    # zero; the floor scores those probes absolutely instead of comparing
    # finite-difference noise against zero
    errors = check_gradients(full_model, model.tensors, probes=2,
                             eps=1e-4, floor=1e-5)
    worst_full = max(errors.values())
    elapsed = time.perf_counter() - start

    ok = worst_prim < 1e-4 and worst_full < 1e-3 and elapsed < 120.0
    report(capsys, 1, ok, "gradient suite",
           f"primitives worst {worst_prim:.2e} ({worst_name}), "
           f"full model worst {worst_full:.2e}, {elapsed:.1f}s")
    assert worst_prim < 1e-4, worst_name
    assert worst_full < 1e-3
    assert elapsed < 120.0


# ---------------------------------------------------------- criterion 2

def test_criterion_2_local_attention_oracle(capsys):
    rng = np.random.default_rng(7)
    worst = 0.0
    for trial in range(100):
        length = int(rng.integers(1, 33))
        window = [1, 4, 16, 2 * length][trial % 4]
        d = int(rng.integers(1, 9)) * 2
        q, k, v = (rng.standard_normal((length, d)) for _ in range(3))
        out = local_attention(Tensor(q), Tensor(k), Tensor(v), window).data

        i = np.arange(length)[:, None]
        j = np.arange(length)[None, :]
        mask = (j > i - math.ceil(window / 2)) & (j <= i + window // 2)
        scores = np.where(mask, (q @ k.T) / math.sqrt(d), -np.inf)
        scores -= scores.max(axis=1, keepdims=True)
        e = np.exp(scores)
        want = (e / e.sum(axis=1, keepdims=True)) @ v
        worst = max(worst, float(np.max(np.abs(out - want))))
    report(capsys, 2, worst <= 1e-6, "local attention vs masked-full oracle",
           f"100 instances, worst {worst:.2e}")
    assert worst <= 1e-6


# ---------------------------------------------------------- criterion 3

def test_criterion_3_blend_endpoints_and_mix_sum(capsys, sched):
    from vocaldiff import soft_align_attention

    acfg = AttentionConfig(heads=2, head_dim=4, window=4)
    aparams = init_attention_params(acfg, substream(0, "init"),
                                    dtype=np.float64)
    rng = np.random.default_rng(12)
    x = Tensor(rng.standard_normal((acfg.model_dim, 16)))

    def per_head(fn, q, k, v):
        outs = [fn(narrow(q, 1, h * acfg.head_dim, acfg.head_dim),
                   narrow(k, 1, h * acfg.head_dim, acfg.head_dim),
                   narrow(v, 1, h * acfg.head_dim, acfg.head_dim))
                for h in range(acfg.heads)]
        return concat(outs, axis=1)

    lq = transpose(conv1d(x, aparams["local_q_w"], aparams["local_q_b"],
                          padding=1))
    lk = transpose(conv1d(x, aparams["local_k_w"], aparams["local_k_b"],
                          padding=1))
    lv = transpose(conv1d(x, aparams["local_v_w"], aparams["local_v_b"],
                          padding=1))
    xt = transpose(x)
    gq = add(matmul(xt, aparams["global_q_w"]), aparams["global_q_b"])
    gk = add(matmul(xt, aparams["global_k_w"]), aparams["global_k_b"])
    gv = add(matmul(xt, aparams["global_v_w"]), aparams["global_v_b"])

    def finish(ctx):
        return add(x, transpose(add(matmul(ctx, aparams["out_w"]),
                                    aparams["out_b"]))).data

    pure_global = finish(per_head(
        lambda q, k, v: global_attention(q, k, v), gq, gk, gv))
    pure_local = finish(per_head(
        lambda q, k, v: local_attention(q, k, v, acfg.window), lq, lk, lv))

    at_zero = soft_align_attention(x, 0, acfg, aparams, sched).data
    err_zero = float(np.max(np.abs(at_zero - pure_global)))

    clamped = build_cosine_schedule(800)
    clamped.alpha_bar[800] = 0.0
    clamped.sqrt_alpha_bar[800] = 0.0
    at_t = soft_align_attention(x, 800, acfg, aparams, clamped).data
    err_t = float(np.max(np.abs(at_t - pure_local)))

    exact = all(sum(mix_weight(t, sched)) == 1.0 for t in range(801))
    ok = err_zero <= 1e-6 and err_t <= 1e-6 and exact
    report(capsys, 3, ok, "blend endpoints and mix-weight sum",
           f"t=0 err {err_zero:.2e}, t=T err {err_t:.2e}, "
           f"sums exact: {exact}")
    assert err_zero <= 1e-6 and err_t <= 1e-6
    assert exact


# ---------------------------------------------------------- criterion 4

def test_criterion_4_v_parametrization_round_trips(capsys, sched):
    rng = np.random.default_rng(40)
    x0 = rng.standard_normal((8, 16)).astype(np.float32)
    eps = rng.standard_normal((8, 16)).astype(np.float32)
    worst_rt = worst_id = 0.0
    for t in range(1, sched.num_steps + 1):
        x_t = forward_diffuse(x0, eps, t, sched)
        v = v_target(x0, eps, t, sched)
        x0_hat = recover_x0(x_t, v, t, sched)
        eps_hat = recover_eps(x_t, v, t, sched)
        worst_rt = max(worst_rt,
                       float(np.max(np.abs(x0_hat - x0))),
                       float(np.max(np.abs(eps_hat - eps))))
        a = np.float32(sched.sqrt_alpha_bar[t])
        b = np.float32(sched.sqrt_one_minus_alpha_bar[t])
        worst_id = max(worst_id, float(np.max(np.abs(
            a * x0_hat + b * eps_hat - x_t))))
    ok = worst_rt <= 1e-5 and worst_id <= 1e-5
    report(capsys, 4, ok, "v-parametrization round trips",
           f"all t, float32: round trip {worst_rt:.2e}, "
           f"reconstruction {worst_id:.2e}")
    assert worst_rt <= 1e-5
    assert worst_id <= 1e-5


# ---------------------------------------------------------- criterion 5

def test_criterion_5_loss_factorization(capsys, sched):
    rng = np.random.default_rng(50)
    vp = rng.standard_normal((8, 16))
    vt = rng.standard_normal((8, 16))
    mse = float(np.mean((vp - vt) ** 2))
    worst = 0.0
    for t in range(sched.num_steps + 1):
        ab = sched.alpha_bar[t]
        w = min(ab / (1.0 - ab), 1e4) if ab < 1.0 else 1e4
        got = loss_snr(Tensor(vp), vt, t, sched).item()
        worst = max(worst, abs(got - w * mse) / abs(w * mse))
    report(capsys, 5, worst <= 1e-6, "SNR loss factorization",
           f"all t, worst relative error {worst:.2e}")
    assert worst <= 1e-6


# ---------------------------------------------------------- criterion 6

def test_criterion_6_schedule_properties(capsys, sched):
    ab = sched.alpha_bar
    monotone = bool(np.all(np.diff(ab) <= 0.0))
    pythagorean = float(np.max(np.abs(
        sched.sqrt_alpha_bar ** 2 + sched.sqrt_one_minus_alpha_bar ** 2
        - 1.0)))
    ok = (monotone and ab[0] == 1.0 and ab[800] <= 1e-3
          and pythagorean <= 1e-6)
    report(capsys, 6, ok, "schedule properties",
           f"monotone {monotone}, abar_0 {ab[0]}, abar_800 {ab[800]:.2e}, "
           f"pythagorean {pythagorean:.2e}")
    assert monotone
    assert ab[0] == 1.0
    assert ab[800] <= 1e-3
    assert pythagorean <= 1e-6


# ---------------------------------------------------------- criterion 7

def test_criterion_7_overfit_and_identification(capsys):
    # pinned recipe: width 1/8, L=64, 8 pairs, batch 8, lr 3.5e-4, T=800,
    # 2000 steps; then conditional sampling from the seed-0 training vocal
    start = time.perf_counter()
    pairs = [gen_pair(s, length=64) for s in range(8)]
    cfg = TrainConfig(batch=8, lr=3.5e-4, timesteps=800, steps=2000,
                      validation_fraction=0.0, seed=0)
    params = init_model_params(UNetConfig.for_width(1 / 8), seed=cfg.seed)
    result = run_training(pairs, cfg, params)

    first = float(np.mean(result.train_losses[:50]))
    final = float(np.mean(result.train_losses[-50:]))
    ratio = final / first

    sched = build_cosine_schedule(cfg.timesteps)
    rng = substream(cfg.seed, "sample")
    hits = 0
    corr_true = corr_rival = None
    for i, pair in enumerate(pairs):
        sample, _ = ddpm_sample(pair.z_v, params, cfg, sched, rng)
        corrs = [float(np.corrcoef(sample.ravel(), other.z_a.ravel())[0, 1])
                 for other in pairs]
        hits += int(np.argmax(corrs)) == i
        if i == 0:
            corr_true = corrs[0]
            corr_rival = max(corrs[1:])
    identified = corr_true > corr_rival
    elapsed = time.perf_counter() - start

    ok = ratio < 0.10 and identified and elapsed < 1200.0
    report(capsys, 7, ok, "overfit experiment",
           f"loss ratio {ratio:.3f} (bar 0.10), seed-0 sample corr "
           f"{corr_true:.3f} vs best rival {corr_rival:.3f}, "
           f"{hits}/8 vocals identified, {elapsed:.0f}s")
    assert elapsed < 1200.0
    assert ratio < 0.10
    assert identified


# ---------------------------------------------------------- criterion 8

def test_criterion_8_guidance_fixed_points(capsys):
    rng = np.random.default_rng(80)
    vc = rng.standard_normal((8, 16)).astype(np.float32)
    vu = rng.standard_normal((8, 16)).astype(np.float32)
    fixed = (np.array_equal(cfg_combine(vc, vu, 0.0), vu)
             and np.array_equal(cfg_combine(vc, vu, 1.0), vc))

    timesteps = 20
    sched = build_cosine_schedule(timesteps)
    params = init_model_params(UNetConfig.for_width(1 / 16), seed=8,
                               zero_init_head=False)
    z_v = rng.standard_normal((64, 16)).astype(np.float32)
    guided, gtrace = ddpm_sample(z_v, params,
                                 TrainConfig(timesteps=timesteps,
                                             guidance_scale=0.0),
                                 sched, np.random.default_rng(17))

    def uncond_only(x_t, t):
        return unet_forward(x_t, t, None, params, sched).data

    plain, ptrace = ddpm_sample(z_v, params,
                                TrainConfig(timesteps=timesteps),
                                sched, np.random.default_rng(17),
                                denoise_fn=uncond_only)
    bitwise = (np.array_equal(guided, plain)
               and gtrace.records == ptrace.records)
    report(capsys, 8, fixed and bitwise, "classifier-free guidance",
           f"fixed points exact: {fixed}, guidance-0 chain bitwise: "
           f"{bitwise}")
    assert fixed
    assert bitwise


# ---------------------------------------------------------- criterion 9

def test_criterion_9_parameter_count(capsys, tmp_path):
    data = tmp_path / "data"
    assert main(["gen-data", "--count", "2", "--length", "64",
                 "--out", str(data)]) == 0
    argv = ["train", "--data", str(data), "--steps", "0", "--batch", "2",
            "--width-mult", "1.0", "--length", "64",
            "--out", str(tmp_path / "m.vdif"),
            "--log", str(tmp_path / "log.csv")]
    assert main(argv) == 0
    out = capsys.readouterr().out
    match = re.search(r"parameters: ([\d,]+) total", out)
    count = int(match.group(1).replace(",", "")) if match else -1
    breakdown = bool(re.search(r"^  head\s+[\d,]+$", out, re.M))
    ok = 8_000_000 <= count <= 25_000_000 and breakdown
    report(capsys, 9, ok, "parameter count",
           f"{count:,} at width 1.0, breakdown printed: {breakdown}")
    assert 8_000_000 <= count <= 25_000_000
    assert breakdown


# --------------------------------------------------------- criterion 10

def test_criterion_10_kernel_scaling(capsys, tmp_path):
    start = time.perf_counter()
    csv = tmp_path / "bench.csv"
    assert main(["bench", "--length", "1024", "--reps", "5",
                 "--csv", str(csv)]) == 0
    rows = dict(line.rsplit(",", 1)
                for line in csv.read_text().strip().splitlines()[1:])
    g_exp = float(rows["exponent_global,"])
    l_exp = float(rows["exponent_local,"])
    elapsed = time.perf_counter() - start
    ok = 1.8 <= g_exp <= 2.2 and l_exp < 1.5 and elapsed < 300.0
    report(capsys, 10, ok, "kernel scaling",
           f"global exponent {g_exp:.2f} (want 1.8..2.2), local {l_exp:.2f} "
           f"(want < 1.5), {elapsed:.0f}s")
    assert 1.8 <= g_exp <= 2.2
    assert l_exp < 1.5
    assert elapsed < 300.0


# --------------------------------------------------------- criterion 11

def test_criterion_11_serialization(capsys, tmp_path):
    pair = gen_pair(3, length=24)
    ppath = tmp_path / "pair.vlat"
    write_pair(pair, ppath)
    back = read_pair(ppath)
    pair_ok = (np.array_equal(back.z_v, pair.z_v)
               and np.array_equal(back.z_a, pair.z_a))

    params = init_model_params(UNetConfig.for_width(1 / 16), seed=1,
                               zero_init_head=False)
    cpath = tmp_path / "model.vdif"
    save_checkpoint(cpath, params, step=9, train_cfg=TrainConfig())
    loaded, _, step = load_checkpoint(cpath)
    ckpt_ok = step == 9 and all(
        np.array_equal(loaded[name].data, t.data)
        for name, t in params.items())

    diagnostics = 0
    bad_pair = tmp_path / "bad.vlat"
    bad_pair.write_bytes(b"JUNKJUNK")
    try:
        read_pair(bad_pair)
    except FormatError as exc:
        diagnostics += "offset" in str(exc) or "truncated" in str(exc)
    cut_pair = tmp_path / "cut.vlat"
    cut_pair.write_bytes(ppath.read_bytes()[:-5])
    try:
        read_pair(cut_pair)
    except FormatError as exc:
        diagnostics += "truncated" in str(exc)
    bad_ckpt = tmp_path / "bad.vdif"
    blob = bytearray(cpath.read_bytes())
    blob[:4] = b"NOPE"
    bad_ckpt.write_bytes(bytes(blob))
    try:
        load_checkpoint(bad_ckpt)
    except FormatError as exc:
        diagnostics += "VDIF" in str(exc)
    cut_ckpt = tmp_path / "cut.vdif"
    cut_ckpt.write_bytes(cpath.read_bytes()[:100])
    try:
        load_checkpoint(cut_ckpt)
    except FormatError as exc:
        diagnostics += "truncated" in str(exc)

    ok = pair_ok and ckpt_ok and diagnostics == 4
    report(capsys, 11, ok, "serialization",
           f"pair bitwise: {pair_ok}, checkpoint bitwise: {ckpt_ok}, "
           f"{diagnostics}/4 corruptions diagnosed")
    assert pair_ok
    assert ckpt_ok
    assert diagnostics == 4
