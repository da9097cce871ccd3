"""Tests for the benchmark's span tracer.

    python3 -m pytest -q benchmark/tests

The tracer is installed on the already imported vocaldiff and always
uninstalled again, so later tests in the same pytest run see the original
functions.
"""

import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402
from vocaldiff import (attention, checkpoint, diffusion, optim, rng,  # noqa: E402
                       schedule, synthdata, tensor, unet)

VD = SimpleNamespace(tensor=tensor, attention=attention, unet=unet,
                     diffusion=diffusion, optim=optim, schedule=schedule,
                     synthdata=synthdata, checkpoint=checkpoint, rng=rng)


def test_self_time_of_nested_and_sibling_spans():
    # root [0, 10] holds siblings a [1, 4] and b [5, 9]; b holds c [6, 7]
    start = np.array([0.0, 1.0, 5.0, 6.0])
    end = np.array([10.0, 4.0, 9.0, 7.0])
    parent = np.array([-1, 0, 0, 2])
    np.testing.assert_allclose(tr.self_times(start, end, parent),
                               [3.0, 3.0, 3.0, 1.0])


def test_self_time_of_a_lone_span_is_its_duration():
    got = tr.self_times(np.array([2.0]), np.array([2.5]), np.array([-1]))
    np.testing.assert_allclose(got, [0.5])


def _vocaldiff_modules():
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "vocaldiff"
                                  or name.startswith("vocaldiff."))]


def test_install_rebinds_every_binding_and_uninstall_restores():
    import vocaldiff.cli  # noqa: F401  (imports more re-bound names)
    import vocaldiff.training  # noqa: F401

    originals = {name: getattr(sys.modules[f"vocaldiff.{name.split('.')[0]}"],
                               name.split(".")[1])
                 for name in tr.traced_names()}
    t = tr.Tracer()
    t.install()
    try:
        for module in _vocaldiff_modules():
            for key, value in vars(module).items():
                for name, fn in originals.items():
                    assert value is not fn, (
                        f"{module.__name__}.{key} still holds unwrapped {name}")
        # names imported into other modules are wrapped too
        assert unet.conv1d is attention.conv1d is tensor.conv1d
        assert unet.conv1d is not originals["tensor.conv1d"]
        assert diffusion.backward.__wrapped__ is originals["tensor.backward"]
    finally:
        t.uninstall()
    assert unet.conv1d is originals["tensor.conv1d"]
    assert diffusion.train_step is originals["diffusion.train_step"]


def test_spans_record_parent_op_and_tape_length(tmp_path):
    work = wl.WORKLOADS["train_small"]
    t = tr.Tracer()
    t.install()
    try:
        state = work.setup(VD, 0, tmp_path)
        t.op = 0
        work.op(state)
        t.op = tr.SETUP_OP
    finally:
        t.uninstall()
    s = t.spans()
    assert np.all(s["end"] >= s["start"])
    nested = s["parent"] >= 0
    assert np.all(s["parent"][nested] < np.nonzero(nested)[0])
    summary = t.summary(n_ops=1, n_setups=1)
    assert summary["diffusion.train_step.calls"] == 1
    assert summary["tensor.backward.calls"] == 1
    assert summary["synthdata.gen_pair.calls"] == wl.PAIRS
    assert summary["checkpoint.load_checkpoint.calls"] == 1
    assert summary["tensor.tape_ops"] > 1000
    assert 0 < summary["tensor.backward.self_ms"] <= summary[
        "tensor.backward.ms"]


def _outputs(work, tmp_path, n_ops, tracer=None):
    if tracer is not None:
        tracer.install()
    try:
        state = work.setup(VD, 5, tmp_path)
        for i in range(n_ops):
            if tracer is not None:
                tracer.op = i
            out, _ = work.op(state)
            work.record(state, out)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return work.outputs(state)


@pytest.mark.parametrize("work", [wl.WORKLOADS["train_small"],
                                  wl.Sample("sample_guided", timesteps=30)],
                         ids=["train_small", "sample_guided_30_steps"])
def test_traced_outputs_are_bitwise_equal_to_untraced(work, tmp_path):
    plain = _outputs(work, tmp_path, 2)
    t = tr.Tracer()
    traced = _outputs(work, tmp_path, 2, t)
    assert len(t) > 0
    assert len(plain) == len(traced)
    for a, b in zip(plain, traced):
        assert np.array_equal(a, b)


def test_sample_op_times_steps_only_when_draws_delimit_them():
    def sampler(draws_per_chain):
        def ddpm_sample(z_v, params, cfg, sched, rng):
            for _ in range(draws_per_chain):
                rng.standard_normal(z_v.shape)
            return z_v, None
        return ddpm_sample

    work = wl.Sample("sample_guided", timesteps=30)
    state = wl.SampleState(vd=VD, z_v=np.zeros((4, 8), np.float32),
                           params=None, cfg=None, sched=None, slot=0)
    state.vd = SimpleNamespace(rng=rng, diffusion=SimpleNamespace(
        ddpm_sample=sampler(30)))
    pauses = []
    _, steps = work.op(state, pause=lambda: pauses.append(1))
    assert len(steps) == 30
    assert len(pauses) == 30 // work.pause_every
    # e.g. all noise drawn in one call: the op must fail, not guess
    state.vd.diffusion.ddpm_sample = sampler(2)
    with pytest.raises(RuntimeError, match="can no longer time"):
        work.op(state)
