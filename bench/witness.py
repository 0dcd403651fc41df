"""Host-speed witness: a fixed loop that runs beside the measured processes.

On a shared machine the speed of a core changes by up to 1.6x within
seconds, and CPU time moves with wall time, so the change is host speed,
not waiting. The witness process shares the one core the benchmark is
pinned to, at a lower priority, so the scheduler runs its short chunks
between slices of the measured process. Each chunk is the same small
numpy work with Python glue around it, the mix the solver's loop is made of,
timed in CPU seconds; its rate is the core's speed at that moment.

A measured interval is then reported as its wall time minus the CPU time
the witness took inside it, times the witness rate over it divided by
``REFERENCE_RATE``: the time it would take on a host that runs the chunk at
that rate with no witness beside it.

    python3 bench/witness.py     # prints "ready", runs until SIGTERM, prints its samples
"""

from __future__ import annotations

import bisect
import json
import os
import signal
import subprocess
import sys
import time

# Chunks per CPU second beside an execution on a quiet 2-core x86-64 VM with
# Python 3.11 and numpy 2.4, so that reported times read close to wall times
# there. It is the speed every reported time is scaled to.
REFERENCE_RATE = 4500.0
# Fewer samples than this in an interval: take the rate over the wider one.
MIN_SAMPLES = 20
NICE = 10


class Witness:
    """Runs the witness process and scales measured intervals by its rate."""

    def __init__(self, env=None):
        self._proc = subprocess.Popen([sys.executable, os.path.abspath(__file__)],
                                      stdout=subprocess.PIPE, text=True, env=env)
        if self._proc.stdout.readline().strip() != "ready":
            self.stop()
            raise RuntimeError("the witness did not start")
        self._times: list = []
        self._cpu_sums: list = [0.0]

    def stop(self) -> None:
        """Stop the witness and keep its samples."""
        if self._proc.poll() is None:
            self._proc.send_signal(signal.SIGTERM)
        out, _ = self._proc.communicate(timeout=30)
        if self._proc.returncode == 0 and out.strip():
            for end, cpu in json.loads(out):
                self._times.append(end)
                self._cpu_sums.append(self._cpu_sums[-1] + cpu)

    @property
    def samples(self) -> int:
        return len(self._times)

    def _span(self, start: float, end: float) -> tuple:
        lo = bisect.bisect_left(self._times, start)
        hi = bisect.bisect_right(self._times, end)
        return hi - lo, self._cpu_sums[hi] - self._cpu_sums[lo]

    def factor(self, start: float, end: float) -> float:
        """Witness rate over [start, end] divided by the reference rate."""
        chunks, cpu = self._span(start, end)
        if chunks == 0:
            raise RuntimeError("the witness recorded no samples in the interval")
        return chunks / cpu / REFERENCE_RATE

    def scaled(self, start: float, end: float, wider: tuple) -> float:
        """Seconds [start, end] took without the witness, at the reference speed.

        The rate comes from `wider` when the interval holds fewer than
        ``MIN_SAMPLES`` chunks.
        """
        chunks, cpu = self._span(start, end)
        rate_window = (start, end) if chunks >= MIN_SAMPLES else wider
        return (end - start - cpu) * self.factor(*rate_window)


def _loop() -> None:
    import numpy as np

    stopped = []
    signal.signal(signal.SIGTERM, lambda *_: stopped.append(True))
    os.nice(NICE)
    phi = np.random.default_rng(0).standard_normal((40, 64))
    x = np.ones(64)
    clock, cpu = time.perf_counter, time.process_time
    parent = os.getppid()
    samples = []
    print("ready", flush=True)
    # Also stop when the benchmark is gone, so no witness outlives its run.
    while not stopped and os.getppid() == parent:
        began = cpu()
        total = 0.0
        for _ in range(40):
            r = phi @ x
            total += float(r @ r)
            x = x - 1e-6 * (phi.T @ r)
        samples.append((clock(), cpu() - began))
    json.dump(samples, sys.stdout)


if __name__ == "__main__":
    _loop()
