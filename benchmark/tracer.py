"""Span tracer that wraps vocaldiff's public functions from outside the package.

Every call to a traced function records one span: the function's name, its
start and end on ``time.perf_counter``, the span that was open when it was
called (its parent), and the id of the benchmark op (one train step or one
sample) it ran under.  Spans go into flat typed arrays, stay in memory while
the run is timed, and are written out once at the end.

Names such as ``conv1d`` are imported into several vocaldiff modules, so
installing the tracer rebinds every module-level name that refers to a
traced function, not only the defining module's.  ``uninstall`` puts the
original objects back.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# layer (vocaldiff module) -> traced public functions of that module
TRACED = {
    "diffusion": ("train_step", "ddpm_sample", "loss_snr", "cfg_combine"),
    "unet": ("unet_forward", "encode_vocal", "cross_attention", "film",
             "timestep_embedding"),
    "attention": ("soft_align_attention", "local_attention",
                  "global_attention", "scaled_dot_attention", "rope_rotate"),
    "tensor": ("backward", "conv1d", "conv_transpose1d", "group_norm",
               "matmul", "softmax", "silu", "add", "mul", "sub", "concat",
               "narrow", "transpose", "permute", "reshape"),
    "optim": ("adamw_step", "clip_grad_norm"),
    "schedule": ("forward_diffuse",),
    "synthdata": ("gen_pair",),
    "checkpoint": ("save_checkpoint", "load_checkpoint"),
}

# Functions that only set-up calls; they are reported per set-up, not per op.
SETUP_FUNCS = ("synthdata.gen_pair", "checkpoint.save_checkpoint",
               "checkpoint.load_checkpoint")

SETUP_OP = -1      # op id of spans recorded during set-up
OUTSIDE_OP = -2    # op id of spans between ops (output checks); not reported


def traced_names() -> list[str]:
    return [f"{layer}.{fn}" for layer, fns in TRACED.items() for fn in fns]


def self_times(start: np.ndarray, end: np.ndarray,
               parent: np.ndarray) -> np.ndarray:
    """Duration of each span minus the time its direct children cover.

    Spans come from one thread, so a span's children run one after another
    inside it and never overlap; the covered time is the sum of their
    durations.  Grandchildren lie inside children and are not counted again.
    """
    dur = end - start
    nested = parent >= 0
    covered = np.bincount(parent[nested], weights=dur[nested],
                          minlength=len(dur))
    return dur - covered


class Tracer:
    """Records spans for the functions in TRACED while installed."""

    def __init__(self):
        self.names = traced_names()
        self.op = SETUP_OP
        self._name = array("i")
        self._parent = array("i")
        self._op = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]
        self._tape_ops: dict[int, int] = {}     # op id -> tape records
        self._patches: list[tuple[object, str, object]] = []

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        """Rebind every vocaldiff module name that holds a traced function."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None
                   and (name == "vocaldiff" or name.startswith("vocaldiff."))]
        for layer, fns in TRACED.items():
            home = sys.modules[f"vocaldiff.{layer}"]
            for fn_name in fns:
                original = getattr(home, fn_name)
                wrapper = self._wrap(original, f"{layer}.{fn_name}")
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)
                            self._patches.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patches):
            setattr(module, key, original)
        self._patches.clear()

    def _wrap(self, fn, name: str):
        name_id = self.names.index(name)
        names, parents, ops = self._name, self._parent, self._op
        starts, ends, stack = self._start, self._end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            ops.append(self.op)
            ends.append(0.0)
            stack.append(span)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[span] = clock()
                stack.pop()

        if name == "tensor.backward":
            tape_module = sys.modules[fn.__module__]

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                # backward runs inside train_step's `with Tape()`, so the
                # active tape holds every record of this step
                tape = tape_module.active_tape()
                if tape is not None:
                    self._tape_ops[self.op] = (self._tape_ops.get(self.op, 0)
                                               + len(tape))
                return traced(*args, **kwargs)

            return counted
        return traced

    # -- recording --------------------------------------------------------

    def __len__(self) -> int:
        return len(self._start)

    def spans(self) -> dict[str, np.ndarray]:
        return {
            "name": np.array(self._name, dtype=np.int32),
            "parent": np.array(self._parent, dtype=np.int32),
            "op": np.array(self._op, dtype=np.int32),
            "start": np.array(self._start, dtype=np.float64),
            "end": np.array(self._end, dtype=np.float64),
        }

    def write(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.spans())

    # -- summarising ------------------------------------------------------

    def summary(self, n_ops: int, n_setups: int) -> dict[str, float]:
        """Per-function calls, inclusive ms and self ms, averaged per op.

        Spans of op id >= 0 are divided by n_ops; the SETUP_FUNCS are taken
        from the set-up spans and divided by n_setups instead.
        """
        s = self.spans()
        self_ms = self_times(s["start"], s["end"], s["parent"]) * 1e3
        dur_ms = (s["end"] - s["start"]) * 1e3
        in_op = s["op"] >= 0
        in_setup = s["op"] == SETUP_OP
        out: dict[str, float] = {}
        for name_id, name in enumerate(self.names):
            setup = name in SETUP_FUNCS
            sel = (in_setup if setup else in_op) & (s["name"] == name_id)
            per = max(n_setups if setup else n_ops, 1)
            out[f"{name}.calls"] = int(np.count_nonzero(sel)) / per
            out[f"{name}.ms"] = float(dur_ms[sel].sum()) / per
            out[f"{name}.self_ms"] = float(self_ms[sel].sum()) / per
        tape = sum(n for op, n in self._tape_ops.items() if op >= 0)
        out["tensor.tape_ops"] = tape / max(n_ops, 1)
        out["trace.spans"] = int(np.count_nonzero(in_op)) / max(n_ops, 1)
        return out
