"""A low-priority co-runner that measures the host's speed during a pass.

On a shared host the speed of the same pass drifts by a factor of up to two
over seconds to minutes, and process CPU time drifts with wall time, so raw
seconds from runs made minutes apart do not agree.  The sampler is a forked
child pinned to the worker's CPU at nice 19.  The scheduler gives it about
1.5 % of that CPU in short slices spread over the whole pass, and it counts
fixed units of work and the CPU time they took.  Its rate, units per CPU
second, falls when the host slows the CPU and rises when it speeds up.  A
pass's seconds times that rate is its cost in sampler units (`wall_rel`,
`cpu_rel`): a slower program raises it, a slower host moves both factors
the other way and cancels.

The unit of work lives in the benchmark's own files and never calls
braidfloer, so a change to the program cannot move it.  It does what the
route does most: looks up and updates a dict of tuple keys.  On nine desk
passes on a 2-vCPU shared Xeon, whose raw seconds spread by 0.26 (quartile
distance over median), a cache-sized dict brought the spread to 0.05; a
200K-key dict gave 0.07 and an integer loop 0.11.  The child exits when stop() is called
or when the worker that forked it is gone.
"""

from __future__ import annotations

import multiprocessing
import os
import time

CELLS = 5_000
UNIT_OPS = 1000
NICE = 19
START_TIMEOUT_S = 30.0


def _unit_loop(shared, cpu: int, parent: int) -> None:
    os.sched_setaffinity(0, {cpu})
    os.nice(NICE)
    cells = {}
    for i in range(CELLS):
        cells[(i % 1009, i % 17, i >> 4)] = i
    x, units = 12345, 0
    while os.getppid() == parent:
        for _ in range(UNIT_OPS):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            i = x % CELLS
            key = (i % 1009, i % 17, i >> 4)
            cells[key] = cells.get(key, 0) + 1
        units += 1
        shared[0], shared[1] = units, time.process_time()


class Sampler:
    """Start with start(), read (units, CPU seconds) with read(), end with stop()."""

    def __init__(self) -> None:
        self.cpu = min(os.sched_getaffinity(0))
        ctx = multiprocessing.get_context("fork")
        self.shared = ctx.RawArray("d", 2)
        self.process = ctx.Process(
            target=_unit_loop, args=(self.shared, self.cpu, os.getpid()), daemon=True
        )

    def start(self) -> "Sampler":
        os.sched_setaffinity(0, {self.cpu})  # the worker shares the sampler's CPU
        self.process.start()
        deadline = time.monotonic() + START_TIMEOUT_S
        while self.shared[0] < 10:  # the cell dict is built and units are counting
            if not self.process.is_alive() or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError("the speed sampler did not start")
            time.sleep(0.05)
        return self

    def read(self) -> tuple[float, float]:
        """Units counted and the sampler's CPU seconds, so far."""
        return self.shared[0], self.shared[1]

    def stop(self) -> None:
        if self.process.is_alive():
            self.process.terminate()
        self.process.join()


def rate(before: tuple[float, float], after: tuple[float, float]) -> float:
    """Sampler units per CPU second between two reads."""
    return (after[0] - before[0]) / (after[1] - before[1])
