"""An in-order map over independent computations.

It runs inline.  The module stays only because the benchmark's tracer
and its metrics name `parallel.parallel_map`; it goes with the
benchmark-only change of ROADMAP item 1.
"""


def parallel_map(fn, items):
    """Map fn over items, in order."""
    return [fn(x) for x in items]
