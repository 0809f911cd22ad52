"""One cold process: import, generate the inputs and, if asked, the rest.

``run.py`` starts this script for every set-up it times, because a CLI user
pays a cold interpreter on every invocation: the first ``import repro``, a
cold interner, cold caches.  With ``FULL`` the child also writes the inputs
to ``WORKDIR``, does one repetition and reports its own peak resident set --
memory is never read from the process that takes the walls.  The answer is
one JSON line.

usage: child.py WORKLOAD SEED QUICK(0|1) FULL(0|1) WORKDIR
(``src`` reaches this process through ``PYTHONPATH``.)
"""

from __future__ import annotations

import dataclasses
import json
import os
import resource
import sys
import tempfile
import time


def peak_rss_mb() -> float:
    """This process's peak resident set, in MiB.

    ``ru_maxrss`` survives ``exec``: a child starts from its parent's peak,
    so a big parent would hide a small child.  ``VmHWM`` belongs to the
    address space ``exec`` made and is read where the kernel offers it.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv) -> int:
    name, seed, quick, full, workdir = argv
    started = time.perf_counter()
    import workloads

    import_s = time.perf_counter() - started
    workload = workloads.make_workload(name, quick == "1")
    started = time.perf_counter()
    generated = workload.generate(int(seed))
    generate_s = time.perf_counter() - started
    answer = {"import_s": import_s, "generate_s": generate_s}
    if full == "1":
        os.makedirs(workdir)
        # The library's own temp files (SQLite store, frontier spill) go here too.
        tempfile.tempdir = workdir
        started = time.perf_counter()
        inputs = workload.write(generated, workdir)
        inputs.stage_seconds = {
            "generate": generate_s, "write": time.perf_counter() - started,
        }
        workload.run(inputs)
        answer.update(peak_rss_mb=peak_rss_mb(), inputs=dataclasses.asdict(inputs))
    print(json.dumps(answer))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
