"""Micro-timings of single kernels on fixed seeded inputs.

Each figure is the median over ``REPEATS`` timed batches, divided by the
batch size.  The inputs do not depend on ``--seed``: they are the same in
every run, so the figures compare kernels between commits, not inputs.
"""

from __future__ import annotations

import random
import statistics
import time

from leibalg import _modp, catalog, linalg, maximal, series
from leibalg.fields import GF, QQ

REPEATS = 15
MICRO_SEED = 0


def _median_per_call(fn, batch: int) -> float:
    """Median seconds per call over REPEATS batches of ``batch`` calls."""
    samples = []
    for _ in range(REPEATS):
        t = time.perf_counter()
        for _ in range(batch):
            fn()
        samples.append((time.perf_counter() - t) / batch)
    return statistics.median(samples)


def _scalar_mul(field, values):
    def run():
        acc = field.one()
        for v in values:
            acc = acc * v
        return acc

    return run


def run_all() -> dict:
    rng = random.Random(MICRO_SEED)
    gf7, gf13 = GF(7), GF(13)
    out = {}

    gf_values = [gf7(rng.randrange(1, 7)) for _ in range(1000)]
    q_values = [QQ(rng.randint(1, 9)) / QQ(rng.randint(1, 9)) for _ in range(1000)]
    out["fields.gf_mul_ns"] = _median_per_call(_scalar_mul(gf7, gf_values), 5) / 1000 * 1e9
    out["fields.q_mul_ns"] = _median_per_call(_scalar_mul(QQ, q_values), 2) / 1000 * 1e9

    int_rows = [[rng.randrange(7) for _ in range(12)] for _ in range(10)]
    gf_rows = [[gf7(c) for c in row] for row in int_rows]
    q_rows = [[QQ(rng.randint(-3, 3)) for _ in range(10)] for _ in range(8)]
    out["linalg.rref_gf7_us"] = _median_per_call(lambda: linalg.rref(gf_rows, gf7, 12), 20) * 1e6
    out["linalg.rref_q_us"] = _median_per_call(lambda: linalg.rref(q_rows, QQ, 10), 10) * 1e6
    out["modp.rref_gf7_us"] = _median_per_call(lambda: _modp.rref(int_rows, 7, 12), 200) * 1e6

    a1_gf7 = catalog.instantiate("A1_6dim", gf7, catalog.sample_params("A1_6dim", gf7))
    a1_q = catalog.instantiate("A1_6dim", QQ, catalog.sample_params("A1_6dim", QQ))
    xs = [tuple(gf7(rng.randrange(7)) for _ in range(6)) for _ in range(2)]
    qs = [tuple(QQ(rng.randint(-3, 3)) for _ in range(6)) for _ in range(2)]
    out["core.bracket_gf7_us"] = _median_per_call(lambda: a1_gf7.bracket(*xs), 200) * 1e6
    out["core.bracket_q_us"] = _median_per_call(lambda: a1_q.bracket(*qs), 100) * 1e6

    out["series.nilpotency_data_ms"] = (
        _median_per_call(lambda: series.nilpotency_data(a1_gf7), 2) * 1e3
    )
    form = catalog.instantiate("cc1_case2", gf13, catalog.sample_params("cc1_case2", gf13))
    out["maximal.fingerprint_ms"] = _median_per_call(lambda: maximal.fingerprint(form), 1) * 1e3
    out["maximal.enumerate_maximal_ms"] = (
        _median_per_call(lambda: maximal.enumerate_maximal(a1_gf7), 1) * 1e3
    )
    return out
