"""permsnake benchmark: one workload per invocation, one result line.

    python3 perfbench/run.py --workload codec|verify|search --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout that holds src/permsnake.  Each workload runs
in a fresh interpreter (``python -m perfbench.worker``) with one thread for
numpy's BLAS; this process only starts workers, one after another, and
collects their results.

With --trace 0 the last stdout line holds the end-to-end metrics.  Set-up
time is the median over fresh interpreters that stop after set-up (at least
SETUP_SAMPLES - 1 of them, and more until SETUP_MIN_S have passed), and the
one that goes on to the timed phase.

With --trace 1 the last stdout line holds the per-layer metrics instead; the
worker records spans, and cli.import_ms is the median over IMPORT_SAMPLES
fresh interpreters that only import permsnake.cli.

Either way the full result, with the machine, the counts of ops attempted
and failed per workload, and (traced) the spans, goes to
perfbench/results/<workload>-trace<0|1>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("codec", "verify", "search")
SETUP_SAMPLES = 7  # at least this many set-ups per run,
SETUP_MIN_S = 4.0  # and more until they have taken this long
IMPORT_SAMPLES = 5
CHILD_TIMEOUT_S = 150

class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(argv: list[str], env: dict) -> dict:
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, *argv],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker timed out after {CHILD_TIMEOUT_S} s: {argv}") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-5:]
        raise BenchError(f"worker exited {proc.returncode}: " + " | ".join(tail))
    out = json.loads(lines[-1])
    out["wall_s"] = time.perf_counter() - t0
    return out


def worker(args, env: dict, setup_only: bool = False) -> dict:
    argv = ["-m", "perfbench.worker", "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--t0", repr(time.perf_counter())]
    if setup_only:
        argv.append("--setup-only")
    return run_child(argv, env)


def import_ms(env: dict) -> float:
    code = ("import time; t = time.perf_counter(); import permsnake.cli; "
            "print(time.perf_counter() - t)")
    samples = []
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchError("import permsnake.cli failed: " + proc.stderr.strip()[-300:])
        samples.append(float(proc.stdout.strip()) * 1e3)
    return statistics.median(samples)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "permsnake" / "__init__.py").is_file():
        print(f"error: no permsnake sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = child_env()
    try:
        setups = []
        t0 = time.perf_counter()
        while not args.trace and (len(setups) < SETUP_SAMPLES - 1
                                  or time.perf_counter() - t0 < SETUP_MIN_S):
            setups.append(worker(args, env, setup_only=True)["setup_s"])
        result = worker(args, env)
        setups.append(result["setup_s"])
        if args.trace:
            result["layers"]["cli.import_ms"] = import_ms(env)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    result["setup_samples_s"] = setups
    result["metrics"]["setup_s"] = statistics.median(setups)
    # BENCHMARK.json names the metrics each mode prints, with their units.
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed, values = ((listed["per_layer"], result["layers"]) if args.trace
                      else (listed["end_to_end"], result["metrics"]))
    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    for note in result["problems"]:
        print(f"wrong: {note}", file=sys.stderr)
    for note in result["faults"]:
        print(f"known fault: {note}", file=sys.stderr)

    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    result["args"] = vars(args)
    (out_dir / f"{args.workload}-trace{args.trace}.json").write_text(json.dumps(result))

    print(json.dumps({
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT))
    raise SystemExit(main())
