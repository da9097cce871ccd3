"""1-D U-Net denoiser over latent sequences.

Channel ladder (64, 128, 256, 512) at lengths (L, L/2, L/4, L/8), scalable
by width_mult for desk-scale runs.  Every stage is FiLM-conditioned on the
timestep embedding plus the pooled vocal stream; the bottleneck applies the
soft-alignment self-attention block and cross-attention onto the vocal
token stream.  The network predicts v (same shape as its input).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .attention import (AttentionConfig, AttentionParams,
                         init_attention_params, merge_heads,
                         scaled_dot_attention, soft_align_attention,
                         split_heads)
from .errors import ConfigurationError, ContractError, DimensionError
from .rng import substream
from .schedule import Schedule
from .tensor import (Tensor, add, concat, conv1d, conv_transpose1d,
                     group_norm, matmul, mul, narrow, reshape, silu, sub,
                     tensor_mean, transpose)


@dataclass(frozen=True)
class UNetConfig:
    in_channels: int = 64
    channel_ladder: tuple = (64, 128, 256, 512)
    groups: int = 8
    time_embed_dim: int = 512
    width_mult: float = 1.0
    heads: int = 8
    window: int = 16

    def __post_init__(self):
        chans = self.channels
        if any(c < 1 for c in chans):
            raise ConfigurationError(f"scaled channels {chans} must be >= 1")
        if any(c % self.groups for c in chans):
            raise ConfigurationError(
                f"groups={self.groups} must divide every channel in {chans}"
            )
        if chans[-1] % self.heads:
            raise ConfigurationError(
                f"heads={self.heads} must divide bottleneck width {chans[-1]}"
            )
        if (chans[-1] // self.heads) % 2:
            raise ConfigurationError(
                f"per-head dim {chans[-1] // self.heads} must be even"
            )
        if self.time_embed_dim < 2 or self.time_embed_dim % 2:
            raise ConfigurationError(
                f"time_embed_dim must be even and >= 2, got "
                f"{self.time_embed_dim}"
            )

    @property
    def channels(self) -> tuple:
        return tuple(max(1, int(round(c * self.width_mult)))
                     for c in self.channel_ladder)

    @property
    def attention(self) -> AttentionConfig:
        c = self.channels[-1]
        return AttentionConfig(heads=self.heads, head_dim=c // self.heads,
                               window=self.window)

    @classmethod
    def for_width(cls, width_mult: float = 1.0, **overrides) -> "UNetConfig":
        """Config scaled to width_mult, with groups and embed dim re-derived."""
        chans = tuple(max(1, int(round(c * width_mult)))
                      for c in (64, 128, 256, 512))
        groups = next(g for g in (8, 4, 2, 1)
                      if all(c % g == 0 for c in chans))
        overrides.setdefault("groups", groups)
        overrides.setdefault("time_embed_dim", chans[-1])
        return cls(width_mult=width_mult, **overrides)


class ModelParams:
    """Named parameter tensors plus the config that shaped them."""

    def __init__(self, config: UNetConfig, tensors: dict):
        for name, t in tensors.items():
            if not isinstance(t, Tensor):
                raise ContractError(f"parameter {name!r} is not a Tensor")
        self.config = config
        self.tensors = dict(tensors)
        self.param_count = sum(t.size for t in self.tensors.values())

    def __getitem__(self, name: str) -> Tensor:
        return self.tensors[name]

    def items(self):
        return self.tensors.items()


def param_breakdown(params) -> dict:
    """Per-top-level-prefix element counts, e.g. {'mid': 8_668_160, ...}."""
    tensors = params.tensors if isinstance(params, ModelParams) else params
    out: dict[str, int] = {}
    for name, t in tensors.items():
        key = name.split(".", 1)[0]
        out[key] = out.get(key, 0) + t.size
    return out


def sinusoidal_embedding(t: int, dim: int) -> np.ndarray:
    """Half sin / half cos over log-spaced frequencies; float64."""
    if dim % 2:
        raise ConfigurationError(f"embedding dim must be even, got {dim}")
    half = dim // 2
    freqs = np.exp(-math.log(10000.0) * np.arange(half) / max(half - 1, 1))
    angle = float(t) * freqs
    return np.concatenate([np.sin(angle), np.cos(angle)])


def timestep_embedding(t: int, dim: int,
                       params: Optional["ModelParams"] = None) -> Tensor:
    """Sinusoidal timestep vector, refined by the model's 2-layer MLP.

    Without params the raw (pre-MLP) embedding is returned; the MLP halves
    live in params as time.mlp1/time.mlp2.
    """
    base = sinusoidal_embedding(t, dim)
    if params is None:
        return Tensor(base.astype(np.float32))
    p = params.tensors
    h = Tensor(base.astype(p["time.mlp1.w"].dtype))
    h = silu(add(matmul(reshape(h, (1, dim)), p["time.mlp1.w"]),
                 p["time.mlp1.b"]))
    h = add(matmul(h, p["time.mlp2.w"]), p["time.mlp2.b"])
    return reshape(h, (dim,))


def film(x: Tensor, cond_vec: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Per-channel affine modulation (1 + scale) * x + shift.

    scale and shift come from a learned linear map of cond_vec; with w and
    b zero the op is the identity.
    """
    c = x.shape[0]
    d = cond_vec.shape[0]
    if w.shape != (d, 2 * c) or b.shape != (2 * c,):
        raise ConfigurationError(
            f"film affine shapes {w.shape}/{b.shape} incompatible with "
            f"channels {c} and cond dim {d}"
        )
    sb = add(matmul(reshape(cond_vec, (1, d)), w), b)
    scale = transpose(narrow(sb, 1, 0, c))
    shift = transpose(narrow(sb, 1, c, c))
    return add(mul(x, add(scale, 1.0)), shift)


def encode_vocal(z_v, params: ModelParams):
    """Vocal latent -> (token sequence, pooled vector).

    Two stride-2 convolutions produce tokens of shape (L/4, D); the pooled
    conditioning vector is their arithmetic mean over time.
    """
    cfg = params.config
    p = params.tensors
    if not isinstance(z_v, Tensor):
        z_v = Tensor(np.asarray(z_v).astype(p["vocal.conv1.w"].dtype))
    if z_v.data.ndim != 2 or z_v.shape[0] != cfg.in_channels:
        raise DimensionError(
            f"vocal latent shape {z_v.shape} != ({cfg.in_channels}, L)"
        )
    if z_v.shape[1] % 4:
        raise DimensionError(
            f"vocal length {z_v.shape[1]} must be divisible by 4"
        )
    h = silu(conv1d(z_v, p["vocal.conv1.w"], p["vocal.conv1.b"],
                    stride=2, padding=1))
    h = conv1d(h, p["vocal.conv2.w"], p["vocal.conv2.b"],
               stride=2, padding=1)
    tokens = transpose(h)
    pooled = tensor_mean(tokens, axis=0)
    return tokens, pooled


def cross_attention(x: Tensor, tokens: Tensor, params: ModelParams,
                    prefix: str) -> Tensor:
    """Multi-head attention from sequence x (C, L) onto token rows (Lt, D)."""
    heads = params.config.heads
    p = params.tensors
    q = add(matmul(transpose(x), p[prefix + "q.w"]), p[prefix + "q.b"])
    k = add(matmul(tokens, p[prefix + "k.w"]), p[prefix + "k.b"])
    v = add(matmul(tokens, p[prefix + "v.w"]), p[prefix + "v.b"])
    scale = 1.0 / math.sqrt(q.shape[1] // heads)
    ctx = scaled_dot_attention(split_heads(q, heads), split_heads(k, heads),
                               split_heads(v, heads), scale)
    o = add(matmul(merge_heads(ctx), p[prefix + "out.w"]),
            p[prefix + "out.b"])
    return transpose(o)


def init_model_params(config: UNetConfig, seed: int = 0,
                      zero_init_head: bool = True,
                      dtype=np.float32) -> ModelParams:
    """Centered uniform fan-in init; FiLM generators and (by default) the
    output head start at zero so the freshly built net is the identity-zero
    map with healthy gradients.

    zero_init_head=False gives the head a fan-in init too, for tests that
    need a non-degenerate random model.
    """
    rng = substream(seed, "init")
    chans = config.channels
    d = config.time_embed_dim
    tensors: dict[str, Tensor] = {}

    def uniform(shape, fan_in):
        bound = 1.0 / math.sqrt(fan_in)
        return Tensor(rng.uniform(-bound, bound, shape).astype(dtype))

    def conv(name, c_out, c_in, k, zero=False):
        if zero:
            tensors[name + ".w"] = Tensor(np.zeros((c_out, c_in, k), dtype))
        else:
            tensors[name + ".w"] = uniform((c_out, c_in, k), c_in * k)
        tensors[name + ".b"] = Tensor(np.zeros(c_out, dtype))

    def linear(name, d_in, d_out):
        tensors[name + ".w"] = uniform((d_in, d_out), d_in)
        tensors[name + ".b"] = Tensor(np.zeros(d_out, dtype))

    def norm(name, c):
        tensors[name + ".gamma"] = Tensor(np.ones(c, dtype))
        tensors[name + ".beta"] = Tensor(np.zeros(c, dtype))

    def film_gen(name, c):
        tensors[name + ".w"] = Tensor(np.zeros((d, 2 * c), dtype))
        tensors[name + ".b"] = Tensor(np.zeros(2 * c, dtype))

    def res_block(prefix, c_in, c_out):
        norm(prefix + "gn1", c_in)
        film_gen(prefix + "film1", c_in)
        conv(prefix + "conv1", c_out, c_in, 3)
        norm(prefix + "gn2", c_out)
        film_gen(prefix + "film2", c_out)
        conv(prefix + "conv2", c_out, c_out, 3)
        if c_in != c_out:
            conv(prefix + "skip", c_out, c_in, 1)

    def sample_block(prefix, c_in, c_out, transposed):
        norm(prefix + "gn", c_in)
        film_gen(prefix + "film", c_in)
        if transposed:
            tensors[prefix + "conv.w"] = uniform((c_in, c_out, 4), c_in * 4)
            tensors[prefix + "conv.b"] = Tensor(np.zeros(c_out, dtype))
        else:
            conv(prefix + "conv", c_out, c_in, 4)

    conv("stem", chans[0], config.in_channels, 3)
    linear("time.mlp1", d, d)
    linear("time.mlp2", d, d)
    conv("vocal.conv1", d, config.in_channels, 4)
    conv("vocal.conv2", d, d, 4)
    linear("cond.pool_proj", d, d)
    tensors["cond.null_pooled"] = Tensor(np.zeros(d, dtype))

    for i in range(3):
        res_block(f"enc{i}.res.", chans[i], chans[i])
        sample_block(f"down{i}.", chans[i], chans[i + 1], transposed=False)

    c_mid = chans[-1]
    res_block("mid.res1.", c_mid, c_mid)
    norm("mid.attn_gn", c_mid)
    tensors.update(
        init_attention_params(config.attention, rng, dtype=dtype)
        .to_map("mid.attn.")
    )
    norm("mid.cross_gn", c_mid)
    linear("mid.cross.q", c_mid, c_mid)
    linear("mid.cross.k", d, c_mid)
    linear("mid.cross.v", d, c_mid)
    linear("mid.cross.out", c_mid, c_mid)
    res_block("mid.res2.", c_mid, c_mid)

    for i in reversed(range(3)):
        sample_block(f"up{i}.", chans[i + 1], chans[i], transposed=True)
        res_block(f"dec{i}.res.", 2 * chans[i], chans[i])

    norm("head.gn", chans[0])
    conv("head.conv", config.in_channels, chans[0], 3, zero=zero_init_head)
    return ModelParams(config, tensors)


def unet_forward(x_t, t: int, cond, params: ModelParams,
                 sched: Schedule) -> Tensor:
    """Predict v for a noised latent x_t (in_channels, L) at timestep t.

    cond is the (tokens, pooled) pair from encode_vocal, or None for the
    unconditional (classifier-free) pass, which substitutes zero tokens and
    the learned null pooled vector.
    """
    cfg = params.config
    p = params.tensors
    groups = cfg.groups
    d = cfg.time_embed_dim
    if not isinstance(x_t, Tensor):
        x_t = Tensor(np.asarray(x_t).astype(p["stem.w"].dtype))
    if x_t.data.ndim != 2 or x_t.shape[0] != cfg.in_channels:
        raise DimensionError(
            f"input shape {x_t.shape} != ({cfg.in_channels}, L)"
        )
    length = x_t.shape[1]
    if length % 8:
        raise ConfigurationError(f"length {length} must be divisible by 8")

    if cond is None:
        tokens = Tensor(np.zeros((max(length // 4, 1), d),
                                 p["stem.w"].dtype))
        pooled = p["cond.null_pooled"]
    else:
        tokens, pooled = cond
    temb = timestep_embedding(t, d, params)
    pp = add(matmul(reshape(pooled, (1, d)), p["cond.pool_proj.w"]),
             p["cond.pool_proj.b"])
    cond_vec = add(temb, reshape(pp, (d,)))

    def res(h, prefix):
        # modulation sits between the nonlinearity and each conv; putting it
        # after the conv would let the next norm absorb it at small widths
        y = group_norm(h, groups, p[prefix + "gn1.gamma"],
                       p[prefix + "gn1.beta"])
        y = silu(y)
        y = film(y, cond_vec, p[prefix + "film1.w"], p[prefix + "film1.b"])
        y = conv1d(y, p[prefix + "conv1.w"], p[prefix + "conv1.b"], padding=1)
        y = group_norm(y, groups, p[prefix + "gn2.gamma"],
                       p[prefix + "gn2.beta"])
        y = silu(y)
        y = film(y, cond_vec, p[prefix + "film2.w"], p[prefix + "film2.b"])
        y = conv1d(y, p[prefix + "conv2.w"], p[prefix + "conv2.b"], padding=1)
        if prefix + "skip.w" in p:
            h = conv1d(h, p[prefix + "skip.w"], p[prefix + "skip.b"])
        return add(h, y)

    def resample(h, prefix, transposed):
        y = group_norm(h, groups, p[prefix + "gn.gamma"],
                       p[prefix + "gn.beta"])
        y = silu(y)
        y = film(y, cond_vec, p[prefix + "film.w"], p[prefix + "film.b"])
        if transposed:
            return conv_transpose1d(y, p[prefix + "conv.w"],
                                    p[prefix + "conv.b"], stride=2, padding=1)
        return conv1d(y, p[prefix + "conv.w"], p[prefix + "conv.b"],
                      stride=2, padding=1)

    h = conv1d(x_t, p["stem.w"], p["stem.b"], padding=1)
    skips = []
    for i in range(3):
        h = res(h, f"enc{i}.res.")
        skips.append(h)
        h = resample(h, f"down{i}.", transposed=False)

    h = res(h, "mid.res1.")
    a = group_norm(h, groups, p["mid.attn_gn.gamma"], p["mid.attn_gn.beta"])
    # soft_align adds its own residual onto the normed input; keep only the
    # attention term so the unnormed stream carries the skip
    h = add(h, sub(soft_align_attention(
        a, t, cfg.attention, AttentionParams.from_map(p, "mid.attn."),
        sched), a))
    c = group_norm(h, groups, p["mid.cross_gn.gamma"],
                   p["mid.cross_gn.beta"])
    h = add(h, cross_attention(c, tokens, params, "mid.cross."))
    h = res(h, "mid.res2.")

    for i in reversed(range(3)):
        h = resample(h, f"up{i}.", transposed=True)
        h = res(concat([h, skips[i]], axis=0), f"dec{i}.res.")

    h = group_norm(h, groups, p["head.gn.gamma"], p["head.gn.beta"])
    h = silu(h)
    return conv1d(h, p["head.conv.w"], p["head.conv.b"], padding=1)
