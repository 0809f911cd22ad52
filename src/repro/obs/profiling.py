"""``--profile``: wrap any CLI command in cProfile, report hot functions.

Prints a deterministic-format table of the top ``top`` functions by
cumulative time to stderr after the command finishes (whether it returned
or raised), leaving stdout untouched so piped command output stays clean.
``cProfile`` and ``pstats`` are imported by :func:`run_profiled` itself, so
a process that never profiles never loads them.
"""

from __future__ import annotations

import sys
from typing import Any, Callable, Optional, TextIO

__all__ = ["DEFAULT_TOP", "run_profiled"]

DEFAULT_TOP = 20


def run_profiled(
    fn: Callable[[], Any],
    *,
    top: int = DEFAULT_TOP,
    stream: Optional[TextIO] = None,
) -> Any:
    """Run ``fn`` under cProfile; return its result, stats go to stderr."""
    import cProfile
    import pstats

    out = sys.stderr if stream is None else stream
    profiler = cProfile.Profile()
    try:
        return profiler.runcall(fn)
    finally:
        stats = pstats.Stats(profiler, stream=out)
        stats.sort_stats("cumulative")
        print(f"profile: top {top} functions by cumulative time", file=out)
        stats.print_stats(top)
        out.flush()
