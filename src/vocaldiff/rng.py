"""Named random substreams so one --seed reproduces every draw.

Each consumer (init, training noise, data generation, sampling) gets its
own generator keyed by (seed, purpose name); streams stay independent and
platform-stable.  Parameters are drawn from a layout table, an ordered
{name: (shape, init)} map, where init is a fan-in (uniform in
±1/sqrt(fan_in)), ZEROS or ONES.
"""

from __future__ import annotations

import math
import zlib

import numpy as np

from .tensor import Tensor

ZEROS = "zeros"
ONES = "ones"


def substream(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng([int(seed) & 0xFFFFFFFFFFFFFFFF,
                                  zlib.crc32(name.encode("utf-8"))])


def init_params(layout: dict, rng: np.random.Generator,
                dtype=np.float32) -> dict:
    """{name: Tensor} for every row of a layout, drawn in table order."""
    tensors = {}
    for name, (shape, init) in layout.items():
        if init == ZEROS:
            data = np.zeros(shape, dtype)
        elif init == ONES:
            data = np.ones(shape, dtype)
        else:
            bound = 1.0 / math.sqrt(init)
            data = rng.uniform(-bound, bound, shape).astype(dtype)
        tensors[name] = Tensor(data)
    return tensors
