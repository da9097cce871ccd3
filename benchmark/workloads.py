"""The benchmark's workloads: how each one sets up, what one op is, and how
its outputs are checked.

``--seed`` picks one of N_SLOTS input sets (seed mod N_SLOTS).  Each set is
a list of ``gen_pair`` latents and one initialisation seed; the program gets
only those pairs and the params initialised from them.  The outputs of every
set were recorded at the commit that introduced the benchmark
(``references.npz``, written by ``record_references.py``), so each run checks
its outputs against them.

* train_small: the recipe of acceptance criterion 7 (width 1/8, L=64, 8
  pairs, batch 8, T=800, lr 3.5e-4 on the cosine ramp, validation off).
  Per-op Python and tape overhead set the speed; GEMM and AdamW time do not.
* train_wide: the same recipe at width 1.0 (18.2M params).  Conv and matmul
  backward, ``adamw_step`` and ``clip_grad_norm`` dominate, and the tape
  holds the most memory.
* sample_guided: one guided (g=3) 800-step ``ddpm_sample`` at width 1/8 from
  a non-zero-head model that set-up round-trips through a checkpoint.  It is
  forward-only (no tape, backward or optimizer) and makes two U-Net calls per
  reverse step.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

N_SLOTS = 8
PAIRS = 8
LENGTH = 64
TIMESTEPS = 800
BATCH = 8
LR = 3.5e-4
RAMP_STEPS = 2000      # criterion 7's run length sets the cosine ramp
GUIDANCE = 3.0
PROBE_T = TIMESTEPS // 2   # both attention branches carry weight here
REFERENCES = Path(__file__).resolve().parent / "references.npz"


def slot_of(seed: int) -> int:
    return int(seed) % N_SLOTS


def _round_trip(vd, params, step, cfg, workdir: Path, tag: str):
    """Save params with save_checkpoint and read them back, as a user's
    train-then-sample hand-off does; the file is removed afterwards."""
    path = Path(workdir) / f"{tag}-{os.getpid()}.vdif"
    vd.checkpoint.save_checkpoint(path, params, step, cfg)
    try:
        loaded, _, _ = vd.checkpoint.load_checkpoint(path)
    finally:
        path.unlink()
    return loaded


@dataclass
class TrainState:
    vd: object
    pairs: list
    params: object
    opt: object
    cfg: object
    sched: object
    train_rng: np.random.Generator
    order_rng: np.random.Generator
    slot: int
    step: int = 0
    losses: list = field(default_factory=list)


class Train:
    """Training from scratch; one op is one ``train_step``.

    The first step runs inside set-up as its warm-up op, so a run's
    trajectory is steps 1, 2, ... and ``losses`` holds all of them.
    """

    items_per_op = BATCH

    def __init__(self, name: str, width: float, checked_steps: int,
                 setups: int, setup_bursts: int):
        self.name = name
        self.width = width
        self.checked_steps = checked_steps
        self.setups = setups
        self.setup_bursts = setup_bursts

    def setup(self, vd, seed: int, workdir: Path) -> TrainState:
        slot = slot_of(seed)
        pairs = [vd.synthdata.gen_pair(PAIRS * slot + i, LENGTH)
                 for i in range(PAIRS)]
        cfg = vd.diffusion.TrainConfig(batch=BATCH, lr=LR,
                                       timesteps=TIMESTEPS,
                                       steps=RAMP_STEPS,
                                       validation_fraction=0.0, seed=slot)
        params = vd.unet.init_model_params(
            vd.unet.UNetConfig.for_width(self.width), seed=slot)
        params = _round_trip(vd, params, 0, cfg, workdir, self.name)
        state = TrainState(
            vd=vd, pairs=pairs, params=params,
            opt=vd.optim.AdamWState(params.tensors), cfg=cfg,
            sched=vd.schedule.build_cosine_schedule(TIMESTEPS),
            train_rng=vd.rng.substream(slot, "train"),
            order_rng=vd.rng.substream(slot, "order"), slot=slot)
        state.losses.append(self.op(state)[0])
        return state

    def op(self, st: TrainState, pause=None):
        """One step, drawn and annealed the way ``run_training`` does it.

        Returns (loss, None): the op is itself the step to time.  ``pause``
        is unused: the loop already pauses between steps.
        """
        vd, cfg = st.vd, st.cfg
        lr = vd.optim.cosine_lr(st.step, max(cfg.steps - 1, 1), cfg.lr)
        take = min(cfg.batch, len(st.pairs))
        idx = st.order_rng.choice(len(st.pairs), size=take,
                                  replace=cfg.batch > len(st.pairs))
        batch = [st.pairs[i] for i in idx]
        loss, st.opt = vd.diffusion.train_step(batch, st.params, st.opt, cfg,
                                               st.sched, st.train_rng, lr=lr)
        st.step += 1
        return loss, None

    def record(self, st: TrainState, loss) -> None:
        st.losses.append(loss)

    def probe(self, st: TrainState) -> np.ndarray:
        """v prediction of the current params for a fixed noised input.

        The head starts at zero, so early losses barely depend on the rest
        of the network; this output does.
        """
        vd, pair = st.vd, st.pairs[0]
        eps = vd.rng.substream(st.slot, "probe").standard_normal(
            pair.z_a.shape).astype(pair.z_a.dtype)
        x_t = vd.schedule.forward_diffuse(pair.z_a, eps, PROBE_T, st.sched)
        cond = vd.unet.encode_vocal(pair.z_v, st.params)
        return vd.unet.unet_forward(x_t, PROBE_T, cond, st.params,
                                    st.sched).data

    def check(self, st: TrainState, refs) -> str | None:
        """The newest loss must be finite and, inside the recorded prefix,
        match the reference trajectory within its relative tolerance.  At
        the prefix's last step the probe must match its reference too."""
        i = len(st.losses) - 1
        loss = st.losses[i]
        if not np.isfinite(loss):
            return f"step {i + 1}: loss {loss} is not finite"
        recorded = refs[f"{self.name}_losses"][st.slot]
        if i < len(recorded):
            ref = recorded[i]
            rtol = float(refs[f"{self.name}_rtol"])
            if abs(loss - ref) > rtol * abs(ref):
                return (f"step {i + 1}: loss {loss!r} differs from reference "
                        f"{ref!r} by more than rtol {rtol:.3g}")
        if i + 1 == len(recorded):
            return _compare(self.probe(st), refs[f"{self.name}_probe"][st.slot],
                            float(refs[f"{self.name}_probe_atol"]),
                            f"probe after step {i + 1}")
        return None

    def outputs(self, st: TrainState):
        return list(st.losses)


class _StampedRng:
    """Generator proxy that timestamps each ``standard_normal`` draw.

    ``ddpm_sample`` draws x_T once and then one noise block at the end of
    every reverse step but the last, so the draws delimit reverse steps.
    Each draw appends the end of the step before it to ``ends`` and the
    start of the step after it to ``starts``; ``pause``, when given, runs
    between the two every ``every`` draws, outside every step.
    """

    def __init__(self, rng: np.random.Generator, ends: list, starts: list,
                 pause=None, every: int = 1):
        self._rng = rng
        self._ends = ends
        self._starts = starts
        self._pause = pause
        self._every = every

    def standard_normal(self, *args, **kwargs):
        self._ends.append(time.perf_counter())
        if self._pause is not None and len(self._ends) % self._every == 0:
            self._pause()
        self._starts.append(time.perf_counter())
        return self._rng.standard_normal(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._rng, name)


@dataclass
class SampleState:
    vd: object
    z_v: np.ndarray
    params: object
    cfg: object
    sched: object
    slot: int
    samples: list = field(default_factory=list)


class Sample:
    """Guided sampling; one op is one full ``ddpm_sample`` chain.

    Every op of a run samples the same vocal with the same noise stream, so
    every op must reproduce the slot's reference sample.
    """

    items_per_op = 1
    setups = 24
    setup_bursts = 2
    pause_every = 25    # reverse steps between pauses, about 0.3 s

    def __init__(self, name: str, timesteps: int = TIMESTEPS):
        self.name = name
        self.timesteps = timesteps

    def setup(self, vd, seed: int, workdir: Path) -> SampleState:
        slot = slot_of(seed)
        vocal = vd.synthdata.gen_pair(PAIRS * slot, LENGTH)
        params = vd.unet.init_model_params(
            vd.unet.UNetConfig.for_width(1 / 8), seed=slot,
            zero_init_head=False)
        cfg = vd.diffusion.TrainConfig(guidance_scale=GUIDANCE,
                                       timesteps=self.timesteps, seed=slot)
        params = _round_trip(vd, params, 0, cfg, workdir, self.name)
        # warm-up op: the same guided chain, two steps long
        warm = vd.diffusion.TrainConfig(guidance_scale=GUIDANCE,
                                        timesteps=2, seed=slot)
        vd.diffusion.ddpm_sample(vocal.z_v, params, warm,
                                 vd.schedule.build_cosine_schedule(2),
                                 vd.rng.substream(slot, "warmup"))
        return SampleState(vd=vd, z_v=vocal.z_v, params=params, cfg=cfg,
                           sched=vd.schedule.build_cosine_schedule(
                               self.timesteps),
                           slot=slot)

    def op(self, st: SampleState, pause=None):
        """Returns (sample, reverse-step durations in seconds).

        ``pause``, when given, is called every ``pause_every`` reverse
        steps, between two steps; its time is in no step.  Raises
        RuntimeError when the sampler's noise draws no longer delimit its
        reverse steps.
        """
        ends: list = []
        starts: list = []
        rng = _StampedRng(st.vd.rng.substream(st.slot, "sample"), ends,
                          starts, pause, self.pause_every)
        x, _ = st.vd.diffusion.ddpm_sample(st.z_v, st.params, st.cfg,
                                           st.sched, rng)
        ends.append(time.perf_counter())
        if len(starts) != self.timesteps:
            # Step times taken any other way would not be comparable with
            # the recorded ones, so the run fails instead of guessing.
            raise RuntimeError(
                f"ddpm_sample made {len(starts)} standard_normal draws, "
                f"not one per reverse step ({self.timesteps}): the benchmark "
                f"can no longer time reverse steps and must be revised")
        return x, np.asarray(ends[1:]) - np.asarray(starts)

    def record(self, st: SampleState, x) -> None:
        st.samples.append(x)

    def check(self, st: SampleState, refs) -> str | None:
        """The newest sample must be finite and match the slot's reference
        sample within the absolute tolerance."""
        return _compare(st.samples[-1], refs[f"{self.name}_samples"][st.slot],
                        float(refs[f"{self.name}_atol"]),
                        f"sample {len(st.samples)}")

    def outputs(self, st: SampleState):
        return list(st.samples)


def _compare(x, ref, atol: float, what: str) -> str | None:
    if not np.all(np.isfinite(x)):
        return f"{what} has non-finite values"
    err = float(np.max(np.abs(x.astype(np.float64) - ref)))
    if err > atol:
        return (f"{what}: max deviation {err:.3g} from the reference exceeds "
                f"atol {atol:.3g}")
    return None


WORKLOADS = {
    w.name: w for w in (
        Train("train_small", width=1 / 8, checked_steps=64, setups=25,
              setup_bursts=5),
        # one burst: a second 18M-param state alive next to the loop's
        # would double the peak memory the run reports
        Train("train_wide", width=1.0, checked_steps=12, setups=5,
              setup_bursts=1),
        Sample("sample_guided"),
    )
}


def load_references():
    with np.load(REFERENCES) as refs:
        return dict(refs)
