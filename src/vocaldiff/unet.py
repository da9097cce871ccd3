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

import numpy as np

from .attention import (AttentionConfig, attention_layout, merge_heads,
                         scaled_dot_attention, soft_align_attention,
                         split_heads)
from .errors import ConfigurationError, ContractError, DimensionError
from .rng import ONES, ZEROS, init_params, substream
from .schedule import Schedule
from .tensor import (Factored, Tensor, _apply, _unbroadcast, add, concat,
                     conv1d, conv_transpose1d, group_norm, matmul, reshape,
                     silu, sub, tensor_mean, transpose)


def _scaled(ladder: tuple, width_mult: float) -> tuple:
    """The channel ladder scaled by width_mult, every stage at least 1."""
    if not 0.0 < width_mult < math.inf:
        raise ConfigurationError(
            f"width_mult must be finite and > 0, got {width_mult}")
    scaled = [c * width_mult for c in ladder]
    if not all(math.isfinite(c) for c in scaled):
        raise ConfigurationError(
            f"width_mult {width_mult} overflows the channel ladder {ladder}")
    return tuple(max(1, int(round(c))) for c in scaled)


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
        return _scaled(self.channel_ladder, self.width_mult)

    @property
    def attention(self) -> AttentionConfig:
        c = self.channels[-1]
        return AttentionConfig(heads=self.heads, head_dim=c // self.heads,
                               window=self.window)

    @classmethod
    def for_width(cls, width_mult: float = 1.0, **overrides) -> "UNetConfig":
        """Config scaled to width_mult, with groups and embed dim re-derived
        from the scaled channel ladder (the default or an override)."""
        chans = _scaled(overrides.get("channel_ladder", cls.channel_ladder),
                        width_mult)
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


def param_breakdown(params: ModelParams) -> dict:
    """Per-top-level-prefix element counts, e.g. {'mid': 8_668_160, ...}."""
    out: dict[str, int] = {}
    for name, t in params.items():
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


def timestep_embedding(t: int, dim: int, params: ModelParams) -> Tensor:
    """Sinusoidal timestep vector, refined by the model's 2-layer MLP
    (time.mlp1/time.mlp2 in params)."""
    p = params.tensors
    h = Tensor(sinusoidal_embedding(t, dim).astype(p["time.mlp1.w"].dtype))
    h = silu(add(matmul(reshape(h, (1, dim)), p["time.mlp1.w"]),
                 p["time.mlp1.b"]))
    h = add(matmul(h, p["time.mlp2.w"]), p["time.mlp2.b"])
    return reshape(h, (dim,))


def film(x: Tensor, cond_vec: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Per-channel affine modulation (1 + scale) * x + shift of x (..., C, L).

    scale and shift come from a learned linear map of cond_vec (..., d),
    whose leading axes match x's; with w and b zero the op is the identity.
    One primitive with a closed-form backward: the linear map is one GEMM
    forward and one for the cond_vec gradient, with the batch folded into
    the rows; the w gradient is returned ``Factored`` over those rows.
    """
    c = x.shape[-2]
    lead, d = cond_vec.shape[:-1], cond_vec.shape[-1]
    if w.shape != (d, 2 * c) or b.shape != (2 * c,):
        raise ConfigurationError(
            f"film affine shapes {w.shape}/{b.shape} incompatible with "
            f"channels {c} and cond dim {d}"
        )
    xd, wd = x.data, w.data
    cond2 = cond_vec.data.reshape(-1, d)
    sb = (np.dot(cond2, wd) + b.data).reshape(lead + (2 * c, 1))
    scale1 = sb[..., :c, :] + np.asarray(1.0, sb.dtype)
    out = xd * scale1 + sb[..., c:, :]
    half = scale1.shape

    def bwd(g):
        dsb = np.concatenate([_unbroadcast(g * xd, half),
                              _unbroadcast(g, half)], axis=-2)
        # one (2c,) row per item, as the linear map produced them
        dsb2 = dsb.reshape(-1, 2 * c)
        return (_unbroadcast(g * scale1, xd.shape),
                np.dot(dsb2, wd.T).reshape(lead + (d,)),
                Factored(cond2, dsb2, wd.shape),
                _unbroadcast(dsb2, (2 * c,)))

    return _apply(out, (x, cond_vec, w, b), bwd)


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
    """Multi-head attention from sequence x (..., C, L) onto token rows
    (..., Lt, D) with the same leading axes."""
    heads = params.config.heads
    p = params.tensors
    q = add(matmul(transpose(x), p[prefix + "q.w"]), p[prefix + "q.b"])
    k = add(matmul(tokens, p[prefix + "k.w"]), p[prefix + "k.b"])
    v = add(matmul(tokens, p[prefix + "v.w"]), p[prefix + "v.b"])
    scale = 1.0 / math.sqrt(q.shape[-1] // heads)
    ctx = scaled_dot_attention(split_heads(q, heads), split_heads(k, heads),
                               split_heads(v, heads), scale)
    o = add(matmul(merge_heads(ctx), p[prefix + "out.w"]),
            p[prefix + "out.b"])
    return transpose(o)


def param_layout(config: UNetConfig) -> dict:
    """Every parameter of the model as an ordered {name: (shape, init)}.

    init is a fan-in (uniform in ±1/sqrt(fan_in)), ZEROS or ONES; table
    order is draw order.  FiLM generators start at zero, so each
    modulation starts as the identity.
    """
    chans = config.channels
    d = config.time_embed_dim
    layout: dict[str, tuple] = {}

    def conv(name, c_out, c_in, k, transposed=False):
        shape = (c_in, c_out, k) if transposed else (c_out, c_in, k)
        layout[name + ".w"] = (shape, c_in * k)
        layout[name + ".b"] = ((c_out,), ZEROS)

    def linear(name, d_in, d_out):
        layout[name + ".w"] = ((d_in, d_out), d_in)
        layout[name + ".b"] = ((d_out,), ZEROS)

    def norm(name, c):
        layout[name + ".gamma"] = ((c,), ONES)
        layout[name + ".beta"] = ((c,), ZEROS)

    def film_gen(name, c):
        layout[name + ".w"] = ((d, 2 * c), ZEROS)
        layout[name + ".b"] = ((2 * c,), ZEROS)

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
        conv(prefix + "conv", c_out, c_in, 4, transposed)

    conv("stem", chans[0], config.in_channels, 3)
    linear("time.mlp1", d, d)
    linear("time.mlp2", d, d)
    conv("vocal.conv1", d, config.in_channels, 4)
    conv("vocal.conv2", d, d, 4)
    linear("cond.pool_proj", d, d)
    layout["cond.null_pooled"] = ((d,), ZEROS)

    for i in range(3):
        res_block(f"enc{i}.res.", chans[i], chans[i])
        sample_block(f"down{i}.", chans[i], chans[i + 1], transposed=False)

    c_mid = chans[-1]
    res_block("mid.res1.", c_mid, c_mid)
    norm("mid.attn_gn", c_mid)
    for name, row in attention_layout(config.attention).items():
        layout["mid.attn." + name] = row
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
    conv("head.conv", config.in_channels, chans[0], 3)
    return layout


def init_model_params(config: UNetConfig, seed: int = 0,
                      zero_init_head: bool = True,
                      dtype=np.float32) -> ModelParams:
    """Draw ``param_layout(config)`` from the seed's "init" substream.

    By default the output head starts at zero too, so the freshly built net
    is the identity-zero map with healthy gradients; zero_init_head=False
    keeps its fan-in init, for tests that need a non-degenerate random
    model.  The head is drawn last, so either choice leaves every other
    draw unchanged.
    """
    layout = param_layout(config)
    if zero_init_head:
        layout["head.conv.w"] = (layout["head.conv.w"][0], ZEROS)
    return ModelParams(config, init_params(layout, substream(seed, "init"),
                                           dtype))


def null_cond(params: ModelParams, shape) -> tuple:
    """(tokens, pooled) of the unconditional (classifier-free) pass for a
    latent of shape (..., in_channels, L): zero tokens (..., L/4, D) and the
    learned null pooled vector (D,)."""
    d = params.config.time_embed_dim
    p = params.tensors
    tokens = np.zeros(shape[:-2] + (max(shape[-1] // 4, 1), d),
                      p["stem.w"].dtype)
    return Tensor(tokens), p["cond.null_pooled"]


def stack_conds(conds) -> tuple:
    """Stack (tokens, pooled) pairs, in order, along a new leading batch
    axis; the result is untracked, for inference."""
    return tuple(Tensor(np.stack([c[i].data for c in conds])) for i in (0, 1))


def unet_forward(x_t, t: int, cond, params: ModelParams,
                 sched: Schedule) -> Tensor:
    """Predict v for a noised latent x_t (..., in_channels, L) at timestep t.

    Leading axes of x_t batch items that share t.  cond is the (tokens,
    pooled) pair from encode_vocal, stacked to tokens (..., Lt, D) and
    pooled (..., D) for a batch, or None for the unconditional pass, which
    substitutes ``null_cond``.
    """
    cfg = params.config
    p = params.tensors
    groups = cfg.groups
    d = cfg.time_embed_dim
    if not isinstance(x_t, Tensor):
        x_t = Tensor(np.asarray(x_t).astype(p["stem.w"].dtype))
    if x_t.data.ndim < 2 or x_t.shape[-2] != cfg.in_channels:
        raise DimensionError(
            f"input shape {x_t.shape} != (..., {cfg.in_channels}, L)"
        )
    length = x_t.shape[-1]
    if length % 8:
        raise ConfigurationError(f"length {length} must be divisible by 8")

    tokens, pooled = null_cond(params, x_t.shape) if cond is None else cond
    temb = timestep_embedding(t, d, params)
    pp = add(matmul(reshape(pooled, pooled.shape[:-1] + (1, d)),
                    p["cond.pool_proj.w"]), p["cond.pool_proj.b"])
    cond_vec = add(temb, reshape(pp, pooled.shape))

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
    h = add(h, sub(soft_align_attention(a, t, cfg.attention, p, sched,
                                        "mid.attn."), a))
    c = group_norm(h, groups, p["mid.cross_gn.gamma"],
                   p["mid.cross_gn.beta"])
    h = add(h, cross_attention(c, tokens, params, "mid.cross."))
    h = res(h, "mid.res2.")

    for i in reversed(range(3)):
        h = resample(h, f"up{i}.", transposed=True)
        h = res(concat([h, skips[i]], axis=-2), f"dec{i}.res.")

    h = group_norm(h, groups, p["head.gn.gamma"], p["head.gn.beta"])
    h = silu(h)
    return conv1d(h, p["head.conv.w"], p["head.conv.b"], padding=1)
