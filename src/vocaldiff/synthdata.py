"""Procedural vocal/accompaniment latent pairs, and their file format.

Real training data would come from a pretrained audio VAE; these stand-ins
keep its coarse statistics (64 channels, zero mean, unit variance) while
embedding a fixed, learnable conditional structure: the target latent is a
deterministic function of the conditioning latent, identical for every
seed, so a small model can actually learn the mapping.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, FormatError
from .fileio import atomic_write
from .rng import substream

CHANNELS = 64
_BANDS = 8
_MAGIC = b"VLAT"
_VERSION = 1
_HEADER = struct.Struct("<4sIIIQ")


@dataclass
class LatentPair:
    z_v: np.ndarray
    z_a: np.ndarray
    seed: int
    length: int


def _standardize(x: np.ndarray) -> np.ndarray:
    return (x - x.mean()) / max(float(x.std()), 1e-8)


@functools.lru_cache(maxsize=1)
def _mix_matrix() -> np.ndarray:
    """Fixed orthogonal channel-mixing matrix shared by every pair."""
    q, _ = np.linalg.qr(substream(0, "mix").standard_normal((CHANNELS,
                                                             CHANNELS)))
    return q


def target_transform(z_v: np.ndarray) -> np.ndarray:
    """The corpus-wide conditioning map: z_a as a function of z_v.

    Shift by 4 frames, add a squared (frequency-doubled) component with its
    per-channel mean removed, mix channels with a fixed orthogonal matrix,
    and restandardize.
    """
    z_v = np.asarray(z_v, dtype=np.float64)
    doubled = z_v ** 2
    doubled = doubled - doubled.mean(axis=1, keepdims=True)
    mixed = _mix_matrix() @ (np.roll(z_v, 4, axis=1) + 0.7 * doubled)
    return _standardize(mixed)


def gen_pair(seed: int, length: int = 64) -> LatentPair:
    """Deterministic latent pair for one seed.

    The conditioning latent is built from 8 channel bands, each carrying
    three random-phase sinusoids plus small noise; the target latent is
    target_transform applied to it.
    """
    if length < 16 or length % 8:
        raise ConfigurationError(
            f"length must be >= 16 and divisible by 8, got {length}"
        )
    rng = substream(seed, "pair")
    tau = np.arange(length) / length
    z_v = np.empty((CHANNELS, length), dtype=np.float64)
    per_band = CHANNELS // _BANDS
    for band in range(_BANDS):
        wave = np.zeros(length)
        for _ in range(3):
            freq = rng.uniform(1.0, min(length / 4.0, 24.0))
            amp = rng.uniform(0.5, 1.0)
            phase = rng.uniform(0.0, 2.0 * np.pi)
            wave += amp * np.sin(2.0 * np.pi * freq * tau + phase)
        rows = slice(band * per_band, (band + 1) * per_band)
        z_v[rows] = wave + 0.1 * rng.standard_normal((per_band, length))
    z_v = _standardize(z_v)
    z_a = target_transform(z_v)
    return LatentPair(z_v=z_v.astype(np.float32),
                      z_a=z_a.astype(np.float32),
                      seed=int(seed), length=length)


def write_pair(pair: LatentPair, path) -> None:
    """Serialize a pair; the write is atomic (temp file + rename)."""
    header = _HEADER.pack(_MAGIC, _VERSION, CHANNELS, pair.length,
                          pair.seed & 0xFFFFFFFFFFFFFFFF)
    body = (pair.z_v.astype("<f4").tobytes()
            + pair.z_a.astype("<f4").tobytes())
    atomic_write(path, header + body)


def read_pair(path) -> LatentPair:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size:
        raise FormatError(
            f"{path}: truncated header, {len(raw)} bytes < {_HEADER.size}"
        )
    magic, version, channels, length, seed = _HEADER.unpack_from(raw)
    if magic != _MAGIC:
        raise FormatError(
            f'{path}: bad magic {magic!r} at offset 0, expected "VLAT"'
        )
    if version != _VERSION:
        raise FormatError(
            f"{path}: unsupported version {version} at offset 4"
        )
    if channels != CHANNELS:
        raise FormatError(
            f"{path}: channel count {channels} at offset 8, expected "
            f"{CHANNELS}"
        )
    expected = _HEADER.size + 2 * channels * length * 4
    if len(raw) != expected:
        raise FormatError(
            f"{path}: size {len(raw)} != expected {expected} "
            f"(truncated after offset {min(len(raw), expected)})"
        )
    n = channels * length
    z_v = np.frombuffer(raw, dtype="<f4", count=n, offset=_HEADER.size)
    z_a = np.frombuffer(raw, dtype="<f4", count=n,
                        offset=_HEADER.size + n * 4)
    return LatentPair(z_v=z_v.reshape(channels, length).copy(),
                      z_a=z_a.reshape(channels, length).copy(),
                      seed=int(seed), length=int(length))
