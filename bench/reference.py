"""A fixed piece of pure-Python work that measures the machine's current speed.

On a shared host the speed of the processor drifts by 10-25% over tens of
seconds, and every timing of a run moves with it.  The benchmark times this
work between the program's operations and reports each time metric in
seconds at a nominal speed: the measured time multiplied by the nominal time
of the reference over the geometric mean of the run's reference samples.
The work does not touch the program, so a faster program still shows as
faster.

There are two kinds of sample, each matching the operations it normalises:

``process``  a fresh interpreter running this file (``python3
             bench/reference.py``): start-up, imports and the work, like a
             CLI call.  A reference timed inside the benchmark's own process
             tracked the CLI calls less well.
``inline``   the work inside the calling process, for the library session.

The work resembles the program's own: exact integer elimination with growing
integers, ``Fraction`` arithmetic, and dictionaries keyed by sorted tuples.
"""

from __future__ import annotations

import statistics
import sys
import time
from fractions import Fraction

# geometric mean of one sample on the baseline machine (2-core x86-64)
NOMINAL_S = {"process": 0.080, "inline": 0.023}
RESULT = 28525


def work(n: int = 14, reps: int = 20) -> int:
    total = 0
    for rep in range(reps):
        m = [[(i * 7 + j * 13 + rep) % 17 - 8 + 5 * (i == j) for j in range(n)] for i in range(n)]
        prev = 1
        for k in range(n - 1):  # Bareiss fraction-free elimination
            if m[k][k] == 0:
                pivot = next((r for r in range(k + 1, n) if m[r][k]), None)
                if pivot is None:
                    continue
                m[k], m[pivot] = m[pivot], m[k]
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            prev = m[k][k] or 1
        acc = sum(Fraction(m[i][i], i + rep + 1) for i in range(n))
        seen = {}
        for i in range(1500):
            key = tuple(sorted((i * 31 % 97, i % 13, i * i % 11)))
            seen[key] = seen.get(key, 0) + 1
        total += len(seen) + m[-1][-1].bit_length() + acc.denominator % 7
    return total


def sample_inline() -> float:
    """Wall seconds of one run of ``work`` in this process, whose result is checked."""
    start = time.perf_counter()
    result = work()
    elapsed = time.perf_counter() - start
    if result != RESULT:
        raise RuntimeError("the reference work gave a different result")
    return elapsed


def slowdown(samples, kind: str) -> float:
    """How much slower than nominal the machine ran: the factor to divide times by."""
    return statistics.geometric_mean(samples) / NOMINAL_S[kind]


if __name__ == "__main__":
    sys.exit(0 if work() == RESULT else 1)
