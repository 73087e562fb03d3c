"""leibalg benchmark: one command, two workloads, checked verdicts.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workload runs in fresh single-threaded interpreters started by this
script with ``PYTHONPATH=src``, so the library is built from the checkout's
sources and nothing is installed.  With ``--trace 0`` the last line of
standard output is the end-to-end result:

    setup_s         process start to the first timed operation, median of
                    SETUP_SAMPLES set-up-only processes and the measuring one
    wall_s          wall time of one round, median over the rounds
    cpu_s           process CPU time of one round, median over the rounds
    peak_rss_mb     peak RSS after the last round, before any check runs
    verdict_ms_p50  median over the operations of a round of each one's
                    median time over the rounds

With ``--trace 1`` every layer is wrapped (see tracer.py) and the last line
holds the per-layer metrics instead.  Both modes check every round's
outputs against independent answers (checks.py); ``correct`` is false when
any output that did not hit a named fault is wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import checks

HERE = os.path.dirname(os.path.abspath(__file__))

WORKLOADS = ("reproduce", "rational")
SETUP_SAMPLES = 5
# Every process the benchmark starts must end within this many seconds of
# its own start.
DEADLINE_S = 170.0
OUT_DIR = ".perfbench_out"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    began = time.monotonic()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "leibalg", "__init__.py")):
        print(f"error: no library sources under {root}/src/leibalg", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    env["OMP_NUM_THREADS"] = "1"

    base = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--seconds",
        str(args.seconds),
        "--trace",
        str(args.trace),
    ]
    setup_samples = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES):
            setup_samples.append(_spawn(base + ["--setup-only"], env, began)["setup_s"])
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    extra = ["--trace-out", stem + "-spans.json"] if args.trace else []
    out = _spawn(base + extra, env, began)
    setup_samples.append(out["setup_s"])
    with open(stem + "-timings.json", "w") as f:
        timing_keys = ("op_names", "op_ms", "round_wall_s", "round_cpu_s", "peak_rss_mb")
        json.dump({k: out[k] for k in timing_keys} | {"setup_s": setup_samples}, f)

    failed, errors = checks.CHECKS[args.workload](out["records"][0])
    for r, record in enumerate(out["records"][1:], start=2):
        if record != out["records"][0]:
            errors.append(f"round {r} gave other outputs than round 1")
    for line in errors:
        print(f"WRONG: {line}")
    for name in failed:
        print(f"FAILED (known fault): {name}")

    rounds = out["rounds"]
    if args.trace:
        metrics = {name: tuple(value) for name, value in out["per_layer"].items()}
    else:
        op_median_ms = [statistics.median(times) for times in zip(*out["op_ms"])]
        metrics = {
            "setup_s": (statistics.median(setup_samples), "s"),
            "wall_s": (statistics.median(out["round_wall_s"]), "s"),
            "cpu_s": (statistics.median(out["round_cpu_s"]), "s"),
            "peak_rss_mb": (out["peak_rss_mb"], "MB"),
            "verdict_ms_p50": (statistics.median(op_median_ms), "ms"),
        }
        for name, ms in zip(out["op_names"], op_median_ms):
            print(f"op {ms:10.1f} ms  {name}")
        print(
            f"{args.workload}: {rounds} rounds of {len(op_median_ms)} operations; "
            f"verdict_ms_p50 over {len(op_median_ms)} operations, each the median of "
            f"{rounds}; setup_s over {len(setup_samples)} processes"
        )
    result = {
        "correct": not errors,
        "attempted": len(out["op_names"]) * rounds,
        "failed": len(failed) * rounds,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def _spawn(cmd, env, began) -> dict:
    """Run one worker to its end and return the JSON of its last line."""
    budget = DEADLINE_S - (time.monotonic() - began)
    if budget <= 0:
        raise SystemExit("error: out of time before starting a worker")
    proc = subprocess.Popen(
        cmd + ["--t0", repr(time.monotonic())],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=budget)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit("error: worker did not finish in time") from None
    if proc.returncode != 0:
        sys.stderr.write(stderr)
        raise SystemExit(f"error: worker exited with code {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


if __name__ == "__main__":
    sys.exit(main())
