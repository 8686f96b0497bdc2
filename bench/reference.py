"""A fixed amount of pure-Python work that does not touch quiltops.

Prints how long the work took, in seconds: exact fractions, dicts keyed by
tuples, many small tuples and a sort, the kinds of work a worker does.
run.py runs it before the first round and after each one; these times
measure how fast the host is next to each round, and run.py scales the
round's times by them.  Process start-up is left out: it varies in steps
of about 50 ms on the calibration host, whatever the work.  A change here
changes every end-to-end metric, so the baseline must then be measured
again.
"""

import fractions
import itertools
import time


def work():
    acc = {}
    for a, b in itertools.product(range(1, 120), repeat=2):
        key = (a % 13, b % 11, (a * b) % 7)
        acc[key] = acc.get(key, 0) + fractions.Fraction(a, b)
    words = [tuple((i * 7 + j) % 10 for j in range(i % 9)) for i in range(120000)]
    words.sort()
    return len(acc) + len(set(words))


if __name__ == "__main__":
    t0 = time.perf_counter()
    work()
    print(time.perf_counter() - t0)
