"""Binary model checkpoints.

Layout: magic "VDIF", u32 version, u32 config length, UTF-8 config text
(key=value lines), then one record per tensor (u16 name length, name, u8
ndim, u32 dims, raw little-endian float32 data), and finally the u64
training step.  Tensor records carry no count; they run until exactly the
8 step bytes remain.
"""

from __future__ import annotations

import dataclasses
import struct

import numpy as np

from .errors import ConfigurationError, ContractError, FormatError
from .fileio import atomic_write
from .tensor import Tensor
from .unet import ModelParams, UNetConfig

_MAGIC = b"VDIF"
_VERSION = 1


def config_text(unet_cfg: UNetConfig, train_cfg=None, extra=None) -> str:
    """Flatten configs into sorted key=value lines."""
    items = {}
    for f in dataclasses.fields(unet_cfg):
        value = getattr(unet_cfg, f.name)
        if isinstance(value, tuple):
            value = ",".join(str(v) for v in value)
        items[f.name] = str(value)
    if train_cfg is not None:
        for f in dataclasses.fields(train_cfg):
            items[f.name] = str(getattr(train_cfg, f.name))
    if extra:
        for k, v in extra.items():
            items[str(k)] = str(v)
    return "".join(f"{k}={items[k]}\n" for k in sorted(items))


def parse_config_text(text: str) -> dict:
    out = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if "=" not in line:
            raise FormatError(f"config line {lineno} has no '=': {line!r}")
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


def unet_config_from(cfg: dict) -> UNetConfig:
    try:
        return UNetConfig(
            in_channels=int(cfg["in_channels"]),
            channel_ladder=tuple(int(c) for c in
                                 cfg["channel_ladder"].split(",")),
            groups=int(cfg["groups"]),
            time_embed_dim=int(cfg["time_embed_dim"]),
            width_mult=float(cfg["width_mult"]),
            heads=int(cfg["heads"]),
            window=int(cfg["window"]),
        )
    except KeyError as exc:
        raise ConfigurationError(f"checkpoint config missing {exc}") from exc


def save_checkpoint(path, params: ModelParams, step: int,
                    train_cfg=None, extra=None) -> None:
    """Atomic write of params + config + step."""
    chunks = [_MAGIC, struct.pack("<I", _VERSION)]
    blob = config_text(params.config, train_cfg, extra).encode("utf-8")
    chunks.append(struct.pack("<I", len(blob)))
    chunks.append(blob)
    for name, tensor in params.items():
        if tensor.dtype != np.float32:
            raise ContractError(
                f"checkpoint tensors must be float32, {name!r} is "
                f"{tensor.dtype}"
            )
        encoded = name.encode("utf-8")
        if len(encoded) > 0xFFFF:
            raise ContractError(f"tensor name too long: {name[:40]!r}...")
        dims = tensor.shape
        chunks.append(struct.pack(f"<H{len(encoded)}sB{len(dims)}I",
                                  len(encoded), encoded, len(dims), *dims))
        chunks.append(np.ascontiguousarray(tensor.data, dtype="<f4")
                      .tobytes())
    chunks.append(struct.pack("<Q", int(step)))
    atomic_write(path, b"".join(chunks))


def load_checkpoint(path):
    """Read back (params, config map, step); rejects malformed files."""
    with open(path, "rb") as fh:
        raw = fh.read()
    pos = 0

    def take(n: int, what: str) -> bytes:
        nonlocal pos
        if pos + n > len(raw):
            raise FormatError(
                f"{path}: truncated {what} at offset {pos} "
                f"(need {n} bytes, have {len(raw) - pos})"
            )
        piece = raw[pos:pos + n]
        pos += n
        return piece

    if take(4, "magic") != _MAGIC:
        raise FormatError(
            f'{path}: bad magic at offset 0, expected "VDIF"'
        )
    (version,) = struct.unpack("<I", take(4, "version"))
    if version != _VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    (blob_len,) = struct.unpack("<I", take(4, "config length"))
    try:
        cfg_map = parse_config_text(take(blob_len, "config").decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: config is not UTF-8: {exc}") from exc

    tensors = {}
    while len(raw) - pos > 8:
        (name_len,) = struct.unpack("<H", take(2, "tensor name length"))
        try:
            name = take(name_len, "tensor name").decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(
                f"{path}: tensor name at offset {pos - name_len} is not "
                f"UTF-8"
            ) from exc
        (ndim,) = struct.unpack("<B", take(1, "tensor rank"))
        dims = struct.unpack(f"<{ndim}I", take(4 * ndim, "tensor dims"))
        count = 1
        for dim in dims:
            count *= dim
        data = np.frombuffer(take(4 * count, f"data of {name!r}"),
                             dtype="<f4").reshape(dims).copy()
        if name in tensors:
            raise FormatError(f"{path}: duplicate tensor name {name!r}")
        tensors[name] = Tensor(data)
    if len(raw) - pos != 8:
        raise FormatError(
            f"{path}: expected 8-byte step counter at offset {pos}, "
            f"found {len(raw) - pos} bytes"
        )
    (step,) = struct.unpack("<Q", take(8, "step"))
    params = ModelParams(unet_config_from(cfg_map), tensors)
    return params, cfg_map, step
