"""One benchmark process: set-up, verdict rounds, and the raw outputs.

``run.py`` starts this file in a fresh interpreter with ``PYTHONPATH=src``
and reads the one JSON line it prints.  The clock of ``setup_s`` starts in
the parent just before the process is created (``--t0``, a
``time.monotonic()`` value, which every process on the host shares), so it
counts interpreter start, import, catalog instantiation, parsing and
seeded input generation.

With ``--setup-only`` the process stops after set-up.  Otherwise it runs
whole rounds of the workload's operations until ``--seconds`` have passed,
reads its peak RSS and CPU time, and only then turns results into JSON.
With ``--trace 1`` every layer is wrapped by ``tracer.Tracer`` before
set-up, and the micro-timings of ``micro.py`` follow the rounds.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import sys
import time


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-out")
    args = ap.parse_args()

    import leibalg

    src = os.path.realpath(os.path.join(os.getcwd(), "src", "leibalg"))
    if os.path.dirname(os.path.realpath(leibalg.__file__)) != src:
        raise SystemExit(f"leibalg was imported from {leibalg.__file__}, not from {src}")
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    spans = counters = None
    if args.trace:
        import tracer

        counters = Counters()
        spans = tracer.Tracer()
        spans.install(counters.hooks())

    state = workload.setup(args.seed)
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    after_setup = spans.snapshot() if spans else None
    counters_setup = counters.snapshot() if counters else None
    ops = workload.ops(state)
    op_ms: list[list[float]] = []
    round_wall: list[float] = []
    round_cpu: list[float] = []
    results_by_round = []
    # Each round runs the operations in its own seeded order.  The host
    # slows down in stretches of a few seconds; in a fixed order such a
    # stretch would hit every operation of one kind (say, all the identity
    # claims) and move the median operation with it.
    order_rng = random.Random(args.seed)
    start = time.perf_counter()
    while not round_wall or time.perf_counter() - start < args.seconds:
        order = list(range(len(ops)))
        order_rng.shuffle(order)
        times, results = [0.0] * len(ops), [None] * len(ops)
        w0, c0 = time.perf_counter(), time.process_time()
        for k in order:
            t = time.perf_counter()
            results[k] = ops[k][1]()
            times[k] = (time.perf_counter() - t) * 1000.0
        round_wall.append(time.perf_counter() - w0)
        round_cpu.append(time.process_time() - c0)
        op_ms.append(times)
        results_by_round.append(results)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rounds = len(round_wall)

    out = {
        "setup_s": setup_s,
        "rounds": rounds,
        "op_names": [name for name, _ in ops],
        "op_ms": op_ms,
        "round_wall_s": round_wall,
        "round_cpu_s": round_cpu,
        "peak_rss_mb": peak_rss_mb,
    }
    if spans:
        after_rounds = spans.snapshot()
        counters_rounds = counters.snapshot()
        spans.uninstall()
        if args.trace_out:
            spans.write(args.trace_out)
        import micro

        counts = {
            k: counters_setup[k] + (counters_rounds[k] - counters_setup[k]) / rounds
            for k in counters_rounds
        }
        out["per_layer"] = per_layer(
            layer_figures(after_setup, after_rounds, rounds), counts, round_wall, micro.run_all()
        )
    # Every round is checked: the first in full, the others for equal outputs.
    out["records"] = [workload.record(state, results) for results in results_by_round]
    print(json.dumps(out))
    return 0


class Counters:
    """Counts read from results: verdict kinds, maximals, subspaces."""

    FASTPATH = ("identical structure constants", "dimensions differ", "invariant ")
    SEARCHED = ("exhaustive generator-image search", "explicit isomorphism found")

    def __init__(self):
        self.values = {
            "maximal.iso_fastpath": 0,
            "maximal.iso_searched": 0,
            "maximal.maximals_enumerated": 0,
            "reproduce.subspaces_enumerated": 0,
            "reproduce.subspaces_possible": 0,
        }

    def snapshot(self) -> dict:
        return dict(self.values)

    def hooks(self) -> dict:
        import checks

        def iso(args, verdict):
            if verdict.reason.startswith(self.FASTPATH):
                self.values["maximal.iso_fastpath"] += 1
            elif verdict.reason.startswith(self.SEARCHED):
                self.values["maximal.iso_searched"] += 1

        def maximals(args, result):
            self.values["maximal.maximals_enumerated"] += len(result)

        def subspaces(args, result):
            space = args[0]
            min_dim = args[1] if len(args) > 1 else 0
            self.values["reproduce.subspaces_enumerated"] += len(result)
            self.values["reproduce.subspaces_possible"] += checks.subspace_count(
                space.dim, space.field.modulus, min_dim
            )

        return {
            "maximal.is_isomorphic": iso,
            "maximal.enumerate_maximal": maximals,
            "reproduce.enumerate_subspaces": subspaces,
        }


def per_layer(layers: dict, counts: dict, round_wall: list, micro_figures: dict) -> dict:
    """The per-layer metrics as {name: (value, unit)}."""

    def total(name, column):
        return layers.get(name, (0, 0.0, 0.0))[column]

    from tracer import LAYERS

    metrics = {}
    for layer in LAYERS:
        names = [n for n in layers if n.startswith(layer + ".")]
        label = layer.lstrip("_")  # metric names start with a letter
        metrics[f"{label}.self_s"] = (sum(layers[n][2] for n in names), "s")
        metrics[f"{label}.calls"] = (sum(layers[n][0] for n in names), "count")
    iso_incl = total("maximal.is_isomorphic", 1)
    fingerprint_incl = total("maximal.fingerprint", 1)
    possible = counts["reproduce.subspaces_possible"]
    enumerated = counts["reproduce.subspaces_enumerated"]
    metrics.update(
        {
            "core.bracket_calls": (total("core.LeibnizAlgebra.bracket", 0), "count"),
            "randomgen.towers": (total("randomgen.random_nilpotent_algebra", 0), "count"),
            "maximal.iso_calls": (total("maximal.is_isomorphic", 0), "count"),
            "maximal.iso_fastpath": (counts["maximal.iso_fastpath"], "count"),
            "maximal.iso_searched": (counts["maximal.iso_searched"], "count"),
            "maximal.search_s": (iso_incl - fingerprint_incl, "s"),
            "maximal.fingerprint_s": (fingerprint_incl, "s"),
            "maximal.maximals_enumerated": (counts["maximal.maximals_enumerated"], "count"),
            "reproduce.subspaces_enumerated": (enumerated, "count"),
            # Nothing asked for counts as nothing missed.
            "reproduce.subspace_coverage": (enumerated / possible if possible else 1.0, "ratio"),
            "trace.round_wall_s": (statistics.median(round_wall), "s"),
        }
    )
    for name, value in micro_figures.items():
        metrics[name] = (value, name.rsplit("_", 1)[1])
    return metrics


def layer_figures(after_setup: dict, after_rounds: dict, rounds: int) -> dict:
    """Per-name (calls, incl, self) for set-up plus one average round."""
    out = {}
    for name, totals in after_rounds.items():
        base = after_setup.get(name, (0, 0.0, 0.0))
        out[name] = [b + (t - b) / rounds for b, t in zip(base, totals)]
    return out


if __name__ == "__main__":
    sys.exit(main())
