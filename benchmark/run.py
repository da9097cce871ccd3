"""Run one benchmark workload in this process and print its metrics.

    python3 benchmark/run.py --workload train_small --seed 3 --seconds 35 --trace 0

The program is imported from ``src/`` next to this directory.  With
``--trace 0`` the run times its workload untraced and prints the end-to-end
metrics; with ``--trace 1`` it runs half the time untraced and half with the
span tracer installed, and prints the per-layer metrics and the tracing
overhead.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The exit code is 0 only when every
output check passed.
"""

import os
import sys

# Pin BLAS to one thread before numpy loads: the machine this was sized on
# has 2 cores, and threaded first calls cost more than the ~1 ms kernels.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

from tracer import OUTSIDE_OP, Tracer  # noqa: E402
from workloads import WORKLOADS, load_references  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
MODULES = ("tensor", "attention", "unet", "diffusion", "optim", "schedule",
           "synthdata", "checkpoint", "rng")
BUSY_LOAD = 0.75      # 1-minute load per usable CPU above which a run is flagged
LOSS_LAST_STEPS = 16

TAIL_BEYOND = 10      # steps that must lie beyond the reported tail percentile

# name -> unit of the metrics in BENCHMARK.json, in the order they are printed
END_TO_END = {"setup_s": "s", "step_rel_p50": "ref", "peak_rss_mb": "MB"}

_REF_A = np.random.default_rng(0).standard_normal((96, 96)).astype(np.float32)


def reference_kernel() -> float:
    """Time, in ms, of a fixed piece of work that is not the program's.

    It mixes what the program's steps spend their time on: interpreted
    Python and small float32 GEMMs and element-wise ops.  The loop runs it
    between steps, so that the machine's speed at that moment can be
    divided out of the step times.
    """
    t0 = time.perf_counter()
    total = 0
    for i in range(60_000):
        total += i
    x = _REF_A
    for _ in range(40):
        x = np.tanh(x @ _REF_A * np.float32(0.05))
    return (time.perf_counter() - t0) * 1e3


def median(values) -> float:
    return float(statistics.median(values)) if len(values) else float("nan")


def import_vocaldiff() -> SimpleNamespace:
    """Import vocaldiff afresh from SRC and return its layer modules.

    Earlier imports are dropped first, so each set-up pays the import.
    """
    for name in [n for n in sys.modules
                 if n == "vocaldiff" or n.startswith("vocaldiff.")]:
        del sys.modules[name]
    mods = {m: importlib.import_module(f"vocaldiff.{m}") for m in MODULES}
    found = Path(sys.modules["vocaldiff"].__file__).resolve().parent
    if found != SRC / "vocaldiff":
        raise ImportError(f"vocaldiff came from {found}, not {SRC}")
    return SimpleNamespace(**mods)


def _blas_threads():
    """Thread count reported by numpy's bundled OpenBLAS, or None."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs",
                                  "*openblas*.so*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    ncpu = len(os.sched_getaffinity(0))
    load = os.getloadavg()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": ncpu,
        "loadavg": [round(x, 2) for x in load],
        "busy": load[0] > BUSY_LOAD * ncpu,
    }


@dataclass
class Loop:
    """What one timed loop did."""

    op_s: list = field(default_factory=list)      # seconds per op
    step_ms: list = field(default_factory=list)   # ms per step
    ref_ms: list = field(default_factory=list)    # ms per reference kernel
    attempted: int = 0
    failed: int = 0
    elapsed: float = 0.0
    aborted: bool = False


def run_loop(workload, state, seconds: float, refs, tracer=None,
             loop=None) -> Loop:
    """Run ops until the next one would take the loop's timed total past
    ``seconds``; at least one per call.

    The reference kernel runs before every op and, untraced, inside an op
    wherever the workload pauses between steps; its time is in no op or
    step, and inside a traced span it would be.  Passing an earlier ``loop``
    continues it: its time counts against ``seconds``.  An op fails when it
    raises (the loop then stops for good, since the state is no longer
    trustworthy) or when its output check fails.
    """
    loop = Loop() if loop is None else loop
    if loop.aborted:
        return loop

    paused = 0.0

    def pause():
        nonlocal paused
        t = time.perf_counter()
        loop.ref_ms.append(reference_kernel())
        paused += time.perf_counter() - t

    start = time.perf_counter() - loop.elapsed
    first = True
    while first or (time.perf_counter() - start
                    + statistics.median(loop.op_s) <= seconds):
        first = False
        pause()
        if tracer is not None:
            tracer.op = loop.attempted
        loop.attempted += 1
        t0, paused_before = time.perf_counter(), paused
        try:
            out, steps = workload.op(state,
                                     pause if tracer is None else None)
        except Exception:
            traceback.print_exc()
            loop.failed += 1
            loop.aborted = True
            break
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.op = OUTSIDE_OP   # the check is not part of the op
        op_s = t1 - t0 - (paused - paused_before)
        loop.op_s.append(op_s)
        loop.step_ms.extend(np.asarray([op_s] if steps is None else steps)
                            * 1e3)
        workload.record(state, out)
        problem = workload.check(state, refs)
        if problem:
            print(f"output check failed: {problem}", file=sys.stderr)
            loop.failed += 1
    loop.elapsed = time.perf_counter() - start
    return loop


def timed_setup(workload, seed: int, tracer=None):
    t0 = time.perf_counter()
    vd = import_vocaldiff()
    if tracer is not None:
        tracer.install()
    state = workload.setup(vd, seed, OUT)
    return state, time.perf_counter() - t0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def untraced(workload, seed: int, seconds: float, refs):
    """Time the workload with tracing off.

    The set-ups run in ``workload.setup_bursts`` bursts spread through the
    timed loop, so that setup_s, like the step times, samples the whole run
    rather than one stretch of it.  The first burst builds the loop's state;
    later bursts build a state and drop it while the loop's lives on.
    """
    per_burst = workload.setups // workload.setup_bursts
    setup_s = []
    loop = None
    for burst in range(workload.setup_bursts):
        for _ in range(per_burst):
            if burst == 0:
                state = None   # free the previous set-up before the next
                state, took = timed_setup(workload, seed)
            else:
                took = timed_setup(workload, seed)[1]
            setup_s.append(took)
        loop = run_loop(workload, state, seconds * (burst + 1)
                        / workload.setup_bursts, refs, loop=loop)
    step = np.asarray(loop.step_ms)
    metrics = {
        "setup_s": statistics.median(setup_s),
        "step_rel_p50": median(step) / median(loop.ref_ms),
        "peak_rss_mb": peak_rss_mb(),
    }
    print(f"# {workload.name}: {len(setup_s)} set-ups in "
          f"{workload.setup_bursts} burst(s); {len(loop.op_s)} ops in "
          f"{loop.elapsed:.2f} s, {step.size} steps, "
          f"{len(loop.ref_ms)} reference kernels")
    for name, unit in END_TO_END.items():
        print(f"{name:<14} {metrics[name]:>14.6g} {unit}")
    # Printed, not in BENCHMARK.json: on a shared machine these move with
    # the machine's speed as much as with the program (see README.md).
    print(f"{'step_ms_p50':<14} {median(step):>14.6g} ms")
    if step.size >= TAIL_BEYOND:
        pct = 100.0 * (1.0 - TAIL_BEYOND / step.size)
        print(f"{'step_ms_tail':<14} {np.percentile(step, pct):>14.6g} ms "
              f"(p{pct:.4g} of {step.size} steps, {TAIL_BEYOND} beyond it)")
    print(f"{'items_per_s':<14} "
          f"{workload.items_per_op * len(loop.op_s) / loop.elapsed:>14.6g}"
          f" 1/s")
    if hasattr(state, "losses"):
        last = state.losses[-LOSS_LAST_STEPS:]
        print(f"{'loss_last':<14} {float(np.mean(last)):>14.6g} "
              f"(mean loss over the last {len(last)} steps)")
    else:
        print(f"{'sample_s':<14} {median(loop.op_s):>14.6g} s "
              f"(median over {len(loop.op_s)} samples)")
    print(f"{'ref_ms':<14} {median(loop.ref_ms):>14.6g} ms "
          f"(median reference kernel)")
    print(f"{'failed_frac':<14} {loop.failed / loop.attempted:>14.6g} "
          f"({loop.failed} of {loop.attempted} ops)")
    return loop, {k: {"value": metrics[k], "unit": u}
                  for k, u in END_TO_END.items()}


def traced(workload, seed: int, seconds: float, refs):
    state, _ = timed_setup(workload, seed)
    plain = run_loop(workload, state, seconds / 2, refs)
    plain_out = workload.outputs(state)
    state = None

    tracer = Tracer()
    try:
        state, _ = timed_setup(workload, seed, tracer)
        loop = run_loop(workload, state, seconds / 2, refs, tracer)
    finally:
        tracer.uninstall()
    traced_out = workload.outputs(state)

    # tracing must not change a single bit of the outputs
    common = min(len(plain_out), len(traced_out))
    same = all(np.array_equal(a, b)
               for a, b in zip(plain_out[:common], traced_out[:common]))
    if not same:
        print("output check failed: traced outputs differ from untraced",
              file=sys.stderr)

    n_ops = len(loop.op_s)
    per_layer = tracer.summary(n_ops=n_ops, n_setups=1)
    overhead = median(loop.op_s) - median(plain.op_s)
    per_layer["trace.overhead_ms"] = overhead * 1e3
    tracer.write(OUT / f"trace_{workload.name}.npz")

    print(f"# {workload.name}: per op over {n_ops} traced ops "
          f"(set-up functions per set-up); {len(tracer)} spans")
    print(f"# tracing overhead {overhead * 1e3:.6g} ms per op: traced median "
          f"{median(loop.op_s) * 1e3:.6g} ms vs untraced "
          f"{median(plain.op_s) * 1e3:.6g} ms")
    rows = sorted(tracer.names, key=lambda n: -per_layer[f"{n}.self_ms"])
    print(f"{'function':<34} {'calls':>10} {'ms':>12} {'self_ms':>12}")
    for n in rows:
        print(f"{n:<34} {per_layer[n + '.calls']:>10.6g} "
              f"{per_layer[n + '.ms']:>12.6g} {per_layer[n + '.self_ms']:>12.6g}")
    print(f"{'tensor.tape_ops':<34} {per_layer['tensor.tape_ops']:>10.6g}")

    combined = Loop(attempted=plain.attempted + loop.attempted,
                    failed=plain.failed + loop.failed + (not same))
    units = {k: ("ms" if k.endswith("ms") else "count") for k in per_layer}
    return combined, {k: {"value": v, "unit": units[k]}
                      for k, v in per_layer.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(SRC))
    try:
        import_vocaldiff()
        refs = load_references()
    except (ImportError, OSError) as exc:
        print(f"error: cannot load the program or its references: {exc}",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    env = environment()
    print("# env " + json.dumps(env))
    if env["busy"]:
        print(f"# WARNING: machine busy at start (1-min load "
              f"{env['loadavg'][0]} on {env['nproc']} CPUs); timings may be "
              f"inflated")

    workload = WORKLOADS[args.workload]
    run = traced if args.trace else untraced
    loop, metrics = run(workload, args.seed, args.seconds, refs)
    correct = loop.failed == 0
    print(json.dumps({"correct": correct, "attempted": loop.attempted,
                      "failed": loop.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
