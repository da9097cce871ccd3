"""Binary model checkpoints.

Layout: magic "VDIF", u32 version, u32 config length, UTF-8 config text
(key=value lines), then one record per tensor (u16 name length, name, u8
ndim, u32 dims, raw little-endian float32 data), and finally the u64
training step.  Tensor records carry no count; they run until exactly the
8 step bytes remain.
"""

from __future__ import annotations

import dataclasses
import math
import os
import struct

import numpy as np

from .errors import ConfigurationError, ContractError, FormatError
from .fileio import atomic_write
from .tensor import Tensor
from .unet import ModelParams, UNetConfig, param_layout

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
    except (KeyError, ValueError) as exc:
        raise ConfigurationError(
            f"checkpoint config missing or malformed: {exc}") from exc


def int_setting(cfg: dict, key: str, default=None):
    """Integer run setting ``key`` of a checkpoint config, ``default`` if
    absent; a malformed value raises ConfigurationError naming the key."""
    if key not in cfg:
        return default
    try:
        return int(cfg[key])
    except ValueError as exc:
        raise ConfigurationError(
            f"checkpoint config {key}={cfg[key]!r} is not an integer"
        ) from exc


def save_checkpoint(path, params: ModelParams, step: int,
                    train_cfg=None, extra=None) -> None:
    """Atomic write of params + config + step.

    The tensors are written from their own buffers, so saving holds no
    second copy of the model.
    """
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
        chunks.append(np.ascontiguousarray(tensor.data, dtype="<f4"))
    chunks.append(struct.pack("<Q", int(step)))
    atomic_write(path, *chunks)


def load_checkpoint(path):
    """Read back (params, config map, step); rejects malformed files.

    The tensor names and shapes must match ``param_layout`` of the stored
    config: the first missing, unexpected or mis-shaped tensor raises
    FormatError.  The file is read one record at a time, and a length a
    record claims is checked against the bytes left before it is read, so
    loading holds no second copy of the model and a corrupt length never
    reaches a read.
    """
    with open(path, "rb") as fh:
        return _read_checkpoint(path, fh, os.fstat(fh.fileno()).st_size)


def _read_checkpoint(path, fh, size: int):
    pos = 0

    def take(n: int, what: str, reserve: int = 0) -> bytes:
        """The next n bytes, which must leave ``reserve`` bytes unread."""
        nonlocal pos
        left = max(size - pos - reserve, 0)
        if n > left:
            raise FormatError(
                f"{path}: truncated {what} at offset {pos} "
                f"(need {n} bytes, have {left})"
            )
        pos += n
        return fh.read(n)

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
    config = unet_config_from(cfg_map)
    schema = {name: shape for name, (shape, _) in param_layout(config).items()}

    tensors = {}
    while size - pos > 8:
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
        data = np.frombuffer(take(4 * math.prod(dims), f"data of {name!r}",
                                  reserve=8),
                             dtype="<f4").reshape(dims).copy()
        if name in tensors:
            raise FormatError(f"{path}: duplicate tensor name {name!r}")
        tensors[name] = Tensor(data)
    if size - pos != 8:
        raise FormatError(
            f"{path}: expected 8-byte step counter at offset {pos}, "
            f"found {size - pos} bytes"
        )
    (step,) = struct.unpack("<Q", take(8, "step"))
    for name in (*schema, *tensors):
        want = schema.get(name)
        got = tensors[name].shape if name in tensors else None
        if got != want:
            raise FormatError(f"{path}: tensor {name!r} " + (
                "is missing" if got is None
                else "is not part of the configured model" if want is None
                else f"has shape {got}, the configured model needs {want}"))
    return ModelParams(config, tensors), cfg_map, step
