"""Record the outputs the benchmark's checks compare against.

    python3 benchmark/record_references.py

For every input slot this stores, in ``references.npz``, train_small's and
train_wide's loss trajectories over their first ``checked_steps`` steps and
the probe output of the params after them, and sample_guided's final
sample.  It was run once, at the commit that
introduced the benchmark; rerunning it at a later commit would make the
checks compare that commit with itself.

Tolerances come from a rounding-level perturbation: slot 0 is rerun with
every element of ``stem.w`` scaled by (1 + 2e-7), about two float32 ulps,
and the tolerance is TOL_FACTOR times the largest deviation that causes
(relative, for losses; absolute, for the probe and the sample).  A change that only
reorders float arithmetic stays well inside it; a change to what is computed
does not.
"""

import run  # noqa: F401  (pins BLAS threads before numpy loads)

import sys  # noqa: E402

import numpy as np  # noqa: E402

from workloads import N_SLOTS, REFERENCES, WORKLOADS, Train  # noqa: E402

PERTURBATION = 1.0 + 2e-7
TOL_FACTOR = 100.0


def perturb_on_load(vd) -> None:
    """Make set-up's checkpoint load return params with stem.w perturbed."""
    load = vd.checkpoint.load_checkpoint

    def load_scaled(path):
        params, cfg_map, step = load(path)
        params.tensors["stem.w"].data *= np.float32(PERTURBATION)
        return params, cfg_map, step

    vd.checkpoint.load_checkpoint = load_scaled


def outputs(workload, slot: int, perturbed: bool = False):
    """(loss trajectory, probe) for training, (None, sample) for sampling."""
    vd = run.import_vocaldiff()
    if perturbed:
        perturb_on_load(vd)
    state = workload.setup(vd, slot, run.OUT)
    if not isinstance(workload, Train):
        return None, workload.op(state)[0]
    for _ in range(workload.checked_steps - 1):
        out, _ = workload.op(state)
        workload.record(state, out)
    return np.asarray(state.losses), workload.probe(state)


def max_dev(a, b, relative: bool = False) -> float:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    dev = np.abs(a - b) / (np.abs(b) if relative else 1.0)
    return float(np.max(dev))


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    run.OUT.mkdir(exist_ok=True)
    refs = {}
    for name, workload in WORKLOADS.items():
        losses, arrays = zip(*[outputs(workload, slot)
                               for slot in range(N_SLOTS)])
        moved_losses, moved_array = outputs(workload, 0, perturbed=True)
        effects = {}
        if isinstance(workload, Train):
            refs[f"{name}_losses"] = np.asarray(losses, dtype=np.float64)
            effects["rtol"] = max_dev(moved_losses, losses[0], relative=True)
            refs[f"{name}_probe"] = np.asarray(arrays, dtype=np.float32)
            effects["probe_atol"] = max_dev(moved_array, arrays[0])
        else:
            refs[f"{name}_samples"] = np.asarray(arrays, dtype=np.float32)
            effects["atol"] = max_dev(moved_array, arrays[0])
        for key, dev in effects.items():
            if dev == 0.0:
                raise RuntimeError(f"{name}: the perturbation left {key} "
                                   f"unchanged")
            refs[f"{name}_{key}"] = np.float64(TOL_FACTOR * dev)
            refs[f"{name}_{key}_perturbation_effect"] = np.float64(dev)
            print(f"{name}: perturbation effect on {key} {dev:.3g}",
                  flush=True)
    np.savez_compressed(REFERENCES, **refs)
    print(f"wrote {REFERENCES}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
