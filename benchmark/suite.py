"""Run every workload, interleaved over repetitions, then one traced run each.

    python3 benchmark/suite.py [--reps 3] [--seed 0]

Repetition r runs each workload once, in an order rotated by r, with seed
``seed + r``; a slow stretch of the machine then lands on several workloads
instead of owning every run of one.  Each run is its own process
(``run.py``) and measures for ``run_seconds`` of BENCHMARK.json.  The suite
prints every figure each run printed, then a table that gives, per workload
and BENCHMARK.json metric, the median, the quartiles and the spread (IQR /
median) next to the bound.  The traced runs then print the per-layer tables and the
tracing overhead.  Everything is also written to ``.bench_out/suite.json``.
The exit code is 0 only when every run's output checks passed.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUN = BENCH / "run.py"
RUN_TIMEOUT_S = 180


def _text(out) -> str:
    if isinstance(out, bytes):
        return out.decode(errors="replace")
    return out or ""


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload in its own process.  A run that overruns
    RUN_TIMEOUT_S is killed and recorded as failed, with no result."""
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        return {"workload": workload, "seed": seed, "trace": trace,
                "returncode": None, "env": None, "result": None,
                "stdout": _text(exc.stdout),
                "stderr": _text(exc.stderr)
                + f"\nkilled after {RUN_TIMEOUT_S} s"}
    lines = proc.stdout.splitlines()
    env = next((json.loads(line[len("# env "):]) for line in lines
                if line.startswith("# env ")), None)
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    return {"workload": workload, "seed": seed, "trace": trace,
            "returncode": proc.returncode, "env": env, "result": result,
            "stdout": proc.stdout, "stderr": proc.stderr}


def spread_table(runs: list, bench: dict) -> list:
    """Spread of each end-to-end metric over the runs whose checks passed."""
    rows = []
    for w in bench["workloads"]:
        ok = [r["result"]["metrics"] for r in runs
              if r["workload"] == w["name"] and r["returncode"] == 0]
        for m in bench["end_to_end"]:
            values = [x[m["name"]]["value"] for x in ok]
            if len(values) < 2:
                continue
            q1, med, q3 = statistics.quantiles(values, n=4)
            rows.append({"workload": w["name"], "metric": m["name"],
                         "unit": m["unit"], "n": len(values),
                         "median": statistics.median(values), "q1": q1,
                         "q3": q3,
                         "spread": (q3 - q1) / statistics.median(values),
                         "bound": m["bound"]})
    return rows


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--reps", type=int, default=3)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    runs = []
    for rep in range(args.reps):
        order = names[rep % len(names):] + names[:rep % len(names)]
        for w in order:
            r = run_one(w, args.seed + rep, seconds, 0)
            runs.append(r)
            print(f"\n== rep {rep} {w} seed {args.seed + rep} "
                  f"(exit {r['returncode']})"
                  + (" BUSY" if r["env"] and r["env"]["busy"] else ""))
            # every figure the run printed, with its unit, but the JSON line
            print("\n".join(line for line in r["stdout"].splitlines()[:-1]
                            if not line.startswith("# env ")), flush=True)
            if r["returncode"] != 0:
                print(r["stderr"], file=sys.stderr)

    rows = spread_table(runs, bench)
    print(f"\n{'workload':<14} {'metric':<12} {'unit':<4} {'n':>3} "
          f"{'median':>11} {'q1':>11} {'q3':>11} {'spread':>7} {'bound':>6}")
    for row in rows:
        print(f"{row['workload']:<14} {row['metric']:<12} {row['unit']:<4} "
              f"{row['n']:>3} {row['median']:>11.5g} {row['q1']:>11.5g} "
              f"{row['q3']:>11.5g} {row['spread']:>7.3f} {row['bound']:>6.2f}")

    traced = []
    for w in names:
        r = run_one(w, args.seed, seconds, 1)
        traced.append(r)
        print(f"\n== traced run: {w} (exit {r['returncode']})")
        print("\n".join(r["stdout"].splitlines()[:-1]))
        if r["returncode"] != 0:
            print(r["stderr"], file=sys.stderr)

    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    (out / "suite.json").write_text(json.dumps(
        {"args": vars(args), "runs": runs, "spread": rows, "traced": traced},
        indent=1))
    return 0 if all(r["returncode"] == 0 for r in runs + traced) else 1


if __name__ == "__main__":
    sys.exit(main())
