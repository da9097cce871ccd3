"""Command-line interface.

Subcommands: gen-data (synthetic corpus), train, sample, bench (attention
kernel scaling), analyze (per-timestep prediction spread).  Every command
is deterministic under a fixed --seed and exits non-zero with a one-line
diagnostic on error.
"""

from __future__ import annotations

import argparse
import glob
import math
import os
import sys
import time

import numpy as np

from .attention import (AttentionConfig, global_attention,
                        init_attention_params, local_attention,
                        soft_align_attention)
from .checkpoint import load_checkpoint
from .diffusion import TrainConfig, ddpm_sample
from .errors import ConfigurationError, VocalDiffError
from .fileio import atomic_write
from .rng import substream
from .schedule import build_cosine_schedule, forward_diffuse
from .synthdata import LatentPair, gen_pair, read_pair, write_pair
from .tensor import Tensor
from .training import run_training
from .unet import (encode_vocal, init_model_params, param_breakdown,
                   unet_forward, UNetConfig)


def _load_pairs(data_dir, limit=None):
    paths = sorted(glob.glob(os.path.join(data_dir, "*.vlat")))
    if limit is not None:
        paths = paths[:limit]
    pairs = [read_pair(p) for p in paths]
    if pairs and len({p.length for p in pairs}) != 1:
        raise ConfigurationError(
            f"{data_dir}: pairs have mixed lengths "
            f"{sorted({p.length for p in pairs})}"
        )
    return pairs


def cmd_gen_data(args) -> int:
    os.makedirs(args.out, exist_ok=True)
    total = 0.0
    total_sq = 0.0
    count = 0
    for i in range(args.count):
        pair = gen_pair(args.seed + i, args.length)
        write_pair(pair, os.path.join(args.out, f"pair_{i:06d}.vlat"))
        for z in (pair.z_v, pair.z_a):
            total += float(z.sum(dtype=np.float64))
            total_sq += float((z.astype(np.float64) ** 2).sum())
            count += z.size
    print(f"wrote {args.count} pairs (length {args.length}) to {args.out}")
    if count:
        mean = total / count
        std = math.sqrt(max(total_sq / count - mean * mean, 0.0))
        print(f"corpus mean {mean:.4f} std {std:.4f}")
    else:
        print("corpus empty: no statistics")
    return 0


def cmd_train(args) -> int:
    pairs = _load_pairs(args.data)
    if len(pairs) < args.batch:
        raise ConfigurationError(
            f"{args.data} holds {len(pairs)} pairs, need at least "
            f"{args.batch} (the batch size)"
        )
    if pairs[0].length != args.length:
        raise ConfigurationError(
            f"pairs have length {pairs[0].length}, --length says "
            f"{args.length}"
        )
    cfg = TrainConfig(lr=args.lr, batch=args.batch, timesteps=args.timesteps,
                      cond_dropout=args.cond_dropout, seed=args.seed,
                      steps=args.steps)
    unet_cfg = UNetConfig.for_width(args.width_mult)
    params = init_model_params(unet_cfg, seed=args.seed)
    print(f"parameters: {params.param_count:,} total "
          f"(width_mult {args.width_mult})")
    for group, n in sorted(param_breakdown(params).items()):
        print(f"  {group:<8} {n:,}")
    result = run_training(pairs, cfg, params, ckpt_path=args.out,
                          log_path=args.log, log_fn=print)
    if result.train_losses:
        print(f"finished at step {result.steps_run}, "
              f"last loss {result.train_losses[-1]:.5g}")
    else:
        print("finished with no steps run; wrote initialized checkpoint")
    return 0


def cmd_sample(args) -> int:
    params, cfg_map, _ = load_checkpoint(args.ckpt)
    vocal = read_pair(args.vocal)
    expected = cfg_map.get("length")
    if expected is not None and int(expected) != vocal.length:
        raise ConfigurationError(
            f"checkpoint was trained at length {expected}, vocal file has "
            f"{vocal.length}"
        )
    timesteps = int(cfg_map.get("timesteps", 800))
    cfg = TrainConfig(guidance_scale=args.guidance, timesteps=timesteps,
                      seed=args.seed)
    sched = build_cosine_schedule(timesteps)
    rng = substream(args.seed, "sample")
    z_a, trace = ddpm_sample(vocal.z_v, params, cfg, sched, rng)
    write_pair(LatentPair(z_v=vocal.z_v, z_a=z_a, seed=args.seed,
                          length=vocal.length), args.out)
    rows = "".join(f"{t},{m:.8g},{s:.8g}\n" for t, m, s in trace.records)
    atomic_write(args.trace, ("t,mean_v,std_v\n" + rows).encode())
    print(f"sampled {z_a.shape} latent -> {args.out} "
          f"({len(trace)} steps, guidance {args.guidance})")
    return 0


def _time_call(fn, reps: int) -> float:
    fn()  # warmup
    best = np.inf
    for _ in range(max(reps, 1)):
        t0 = time.perf_counter_ns()
        fn()
        best = min(best, time.perf_counter_ns() - t0)
    return float(best)


def _fit_exponent(lengths, times) -> float:
    slope, _ = np.polyfit(np.log(np.asarray(lengths, dtype=np.float64)),
                          np.log(np.asarray(times, dtype=np.float64)), 1)
    return float(slope)


def cmd_bench(args) -> int:
    lengths = [args.length // 4, args.length // 2, args.length]
    rng = substream(args.seed, "bench")
    acfg = AttentionConfig(heads=args.heads, head_dim=args.head_dim,
                           window=args.window)
    aparams = init_attention_params(acfg, rng)
    sched = build_cosine_schedule(800)
    mid_t = 400
    # one case per (kernel, length): global and local branches each run all
    # heads as a single batched call
    cases = {}
    for length in lengths:
        q, k, v = (Tensor(rng.standard_normal(
            (args.heads, length, args.head_dim)).astype(np.float32))
            for _ in range(3))
        x = Tensor(rng.standard_normal((acfg.model_dim, length))
                   .astype(np.float32))
        cases[("local", length)] = (
            lambda q=q, k=k, v=v: local_attention(q, k, v, args.window))
        cases[("global", length)] = (
            lambda q=q, k=k, v=v: global_attention(q, k, v))
        cases[("soft_align", length)] = (
            lambda x=x: soft_align_attention(x, mid_t, acfg, aparams, sched))

    # warm every case up before timing any: the first multi-threaded BLAS
    # calls of a process, made right after a large free, can stall for about
    # a second, which would otherwise land on the first global length alone
    for fn in cases.values():
        fn()
    # kernel-major order keeps each exponent fit's three measurements within
    # a fraction of a second of each other, so drift in machine speed over
    # the run cannot tilt an individual fit
    results = {}
    for kernel in ("local", "global", "soft_align"):
        results[kernel] = [_time_call(cases[(kernel, length)], args.reps)
                           for length in lengths]

    print(f"attention forward timings, best of {args.reps} "
          f"(heads {args.heads}, head_dim {args.head_dim}, "
          f"window {args.window})")
    if args.reps == 1:
        print("warning: single repetition, timings are low-confidence")
    csv_lines = ["kernel,length,ns_per_call"]
    for kernel, times in results.items():
        for length, ns in zip(lengths, times):
            print(f"  {kernel:<10} L={length:<6} {ns / 1e6:10.3f} ms/call")
            csv_lines.append(f"{kernel},{length},{ns:.0f}")
    g_exp = _fit_exponent(lengths, results["global"])
    l_exp = _fit_exponent(lengths, results["local"])
    s_exp = _fit_exponent(lengths, results["soft_align"])
    print(f"fitted scaling exponents over L={lengths}:")
    print(f"  global     {g_exp:.2f} (full attention, quadratic expected)")
    print(f"  local      {l_exp:.2f} (windowed, near-linear expected)")
    print(f"  soft_align {s_exp:.2f}")
    if args.csv:
        csv_lines.append(f"exponent_global,,{g_exp:.4f}")
        csv_lines.append(f"exponent_local,,{l_exp:.4f}")
        csv_lines.append(f"exponent_soft_align,,{s_exp:.4f}")
        atomic_write(args.csv, ("\n".join(csv_lines) + "\n").encode())
    return 0


def cmd_analyze(args) -> int:
    params, cfg_map, _ = load_checkpoint(args.ckpt)
    pairs = _load_pairs(args.data, limit=args.count)
    if not pairs:
        raise ConfigurationError(f"{args.data} holds no .vlat pairs")
    timesteps = int(cfg_map.get("timesteps", 800))
    sched = build_cosine_schedule(timesteps)
    rng = substream(args.seed, "analyze")
    conds = [encode_vocal(p.z_v, params) for p in pairs]
    stds = []
    for t in range(1, timesteps + 1):
        values = []
        for pair, cond in zip(pairs, conds):
            eps = rng.standard_normal(pair.z_a.shape).astype(np.float32)
            x_t = forward_diffuse(pair.z_a, eps, t, sched)
            v = unet_forward(x_t, t, cond, params, sched)
            values.append(v.data.ravel())
        stds.append(float(np.concatenate(values).std()))
    rows = "".join(f"{t},{s:.8g}\n" for t, s in enumerate(stds, start=1))
    atomic_write(args.csv, ("t,std_v\n" + rows).encode())
    decile = max(timesteps // 10, 1)
    lo = float(np.mean(stds[:decile]))
    hi = float(np.mean(stds[-decile:]))
    print(f"prediction spread over {len(pairs)} pairs, {timesteps} steps")
    print(f"  mean std, first decile of t: {lo:.5g}")
    print(f"  mean std, last decile of t:  {hi:.5g}")
    print(f"  spread is {'higher' if hi > lo else 'lower'} at large t "
          f"(raw t reported; orientation left to the reader)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vocaldiff",
        description="Vocal-conditioned latent diffusion, from scratch",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="generate a synthetic latent corpus")
    g.add_argument("--count", type=int, default=16)
    g.add_argument("--length", type=int, default=64)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.set_defaults(fn=cmd_gen_data)

    t = sub.add_parser("train", help="train the denoiser on a corpus")
    t.add_argument("--data", required=True)
    t.add_argument("--steps", type=int, required=True)
    t.add_argument("--batch", type=int, default=16)
    t.add_argument("--lr", type=float, default=3.5e-4)
    t.add_argument("--timesteps", type=int, default=800)
    t.add_argument("--cond-dropout", type=float, default=0.1)
    t.add_argument("--width-mult", type=float, default=1.0)
    t.add_argument("--length", type=int, default=64)
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--out", required=True)
    t.add_argument("--log", required=True)
    t.set_defaults(fn=cmd_train)

    s = sub.add_parser("sample", help="generate accompaniment for a vocal")
    s.add_argument("--ckpt", required=True)
    s.add_argument("--vocal", required=True)
    s.add_argument("--guidance", type=float, default=3.0)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", required=True)
    s.add_argument("--trace", required=True)
    s.set_defaults(fn=cmd_sample)

    b = sub.add_parser("bench", help="time the attention kernels")
    b.add_argument("--length", type=int, default=1024)
    b.add_argument("--heads", type=int, default=8)
    b.add_argument("--head-dim", type=int, default=64)
    b.add_argument("--window", type=int, default=16)
    b.add_argument("--reps", type=int, default=5)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--csv", default=None)
    b.set_defaults(fn=cmd_bench)

    a = sub.add_parser("analyze",
                       help="per-timestep spread of the v prediction")
    a.add_argument("--ckpt", required=True)
    a.add_argument("--data", required=True)
    a.add_argument("--csv", required=True)
    a.add_argument("--seed", type=int, default=0)
    a.add_argument("--count", type=int, default=4)
    a.set_defaults(fn=cmd_analyze)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (VocalDiffError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
