"""Count the kernel calls one round of each benchmark workload makes.

Usage, from the root of a checkout:

    PYTHONPATH=src python tools/kernel_calls.py [--seed N]

Builds each workload of ``perfbench/workloads.py`` at the seed, runs the
operations of one round once, and prints, per workload, how often the
central series, the elimination kernel, its nullspace read-off
(``echelon_nullspace``, also counted inside ``nullspace``) and its
one-elimination canonical kernel (``kernel_echelon``), the raw bracket
(``_modp.bracket``), the isomorphism decision (``_Side.isomorphism``), the
generator-image search, the replay of a candidate's images along a closure
recipe (``_Closure.replay``), the operator signature of a vector
(``maximal._mult_data``: signatures computed, not the memo hits of
``_Side.mult_data``) and the cocycle space of a tower step
(``randomgen._cocycle_space``) were called, and how often
``Subspace.reduce`` ran: the boxed reduction that the Q branch of
``centralizer_mod`` still makes, 2 n^2 of them per call.
It then runs a second round under ``cProfile`` and prints the number of
Python function calls in it (builtins are not counted); the first round
is its warm-up, so imports and other first-round work are left out.
Counts are exact and do not depend on the host, so two checkouts are
compared by running this in each.
"""

from __future__ import annotations

import argparse
import cProfile
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402  (perfbench/ is not a package)

from leibalg import _modp, core, linalg, maximal, randomgen, series  # noqa: E402

COUNTED = [
    (series, "lower_central_series"),
    (series, "upper_central_series"),
    (core.LeibnizAlgebra, "span_products"),
    (core.LeibnizAlgebra, "centralizer_mod"),
    (core.LeibnizAlgebra, "leib_ideal"),
    (_modp, "rref"),
    (_modp, "echelon_nullspace"),
    (_modp, "kernel_echelon"),
    (_modp, "bracket"),
    (maximal._Side, "isomorphism"),
    (maximal, "_search_isomorphism"),
    (maximal._Closure, "replay"),
    (maximal, "_mult_data"),
    (randomgen, "_cocycle_space"),
    (linalg.Subspace, "reduce"),
]


def holders(owner, name):
    """``owner`` and every ``leibalg`` module that imported the function by name."""
    real = getattr(owner, name)
    found = [owner]
    for module_name, module in sys.modules.items():
        if module_name.startswith("leibalg.") and module is not owner:
            if getattr(module, name, None) is real:
                found.append(module)
    return found


def count_round(ops) -> Counter:
    counts: Counter = Counter()
    saved = []
    for owner, name in COUNTED:
        real = getattr(owner, name)

        def counting(*args, name=name, real=real, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        for holder in holders(owner, name):
            saved.append((holder, name, real))
            setattr(holder, name, counting)
    try:
        for _, call in ops:
            call()
    finally:
        for owner, name, real in saved:
            setattr(owner, name, real)
    return counts


def python_calls(ops) -> int:
    """Python function calls made by one round of ``ops``."""
    profile = cProfile.Profile(builtins=False)
    profile.enable()
    for _, call in ops:
        call()
    profile.disable()
    # per code object: pstats would merge the comprehensions that share a line
    return sum(entry.callcount for entry in profile.getstats())


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    for name, workload in workloads.WORKLOADS.items():
        ops = workload.ops(workload.setup(args.seed))
        counts = count_round(ops)
        print(name + ": " + ", ".join(f"{n} {counts[n]}" for _, n in COUNTED))
        print(f"{name}: python calls {python_calls(ops)}")


if __name__ == "__main__":
    main()
