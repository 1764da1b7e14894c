"""Host-speed probe: scales measured times to one reference speed.

On a shared virtual machine each CPU flips between a fast and a slow
state for seconds at a time; on the 2-core VM the bounds were calibrated
on, a fixed loop takes about 1.5x longer in the slow state.  A 15 s run
can sit in either state for most of its length, so raw times spread by
10-50% from run to run, and the state shows in CPU time as much as in
wall time.

Every measured process (a library child, a server, a set-up spawn) runs
pinned to one CPU, and a probe process pinned to the same CPU times a
fixed loop in CPU time every :data:`PERIOD_S`.  A measured time is
multiplied by :data:`REFERENCE_MS` over the probe's mean in the time
window it was measured in: it reads as if the host had run at the speed
at which the loop takes :data:`REFERENCE_MS` throughout.  The probe takes
about 1% of that CPU.

The loop is a batch of 20x20 dense solves.  Of the loops tried (pure
Python, single small solves, a mix of the two, batched solves, a memory
sweep), its slowdown tracked the slowdown of all four workloads most
closely: over ten runs of each, log workload time against log probe time
has slopes of 0.95-1.17.  Scaled by it, those runs spread by 2-5%
(interquartile range over median), against 10-21% raw.

    python3 hostspeed.py CPU OUT

runs the probe until SIGTERM, then writes one ``time cpu_ms`` line per
sample to ``OUT``; times are ``time.perf_counter`` readings, which share
one monotonic clock across the processes of a host.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

PERIOD_S = 0.1
#: CPU milliseconds of the probe loop that scaled times refer to.  On the
#: calibration VM the loop takes about 0.9 ms in the fast state and 1.5 ms
#: in the slow one.
REFERENCE_MS = 1.0
#: The CPU shared by the measured processes and the probe.
MEASURED_CPU = min(os.sched_getaffinity(0))


def pin_measured() -> None:
    """``preexec_fn`` of every measured process: run on the probed CPU."""
    os.sched_setaffinity(0, {MEASURED_CPU})


class Probe:
    """The probe process of one run; :meth:`stop` returns its samples."""

    def __init__(self, out: Path, log):
        self.out = out
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), str(MEASURED_CPU), str(out)],
            stdout=log, stderr=log)

    def stop(self) -> list[tuple[float, float]]:
        self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            raise RuntimeError("host-speed probe did not stop") from None
        if code:
            raise RuntimeError(f"host-speed probe exited {code}")
        return [tuple(map(float, line.split()))
                for line in self.out.read_text().splitlines() if line]


def scale(samples: list[tuple[float, float]], start: float, end: float) -> float:
    """Factor that scales a time measured over ``[start, end]``.

    It uses the samples inside the window, or the one nearest its middle
    when the window is shorter than the probe period.
    """
    inside = [ms for t, ms in samples if start <= t <= end]
    if not inside:
        middle = (start + end) / 2
        inside = [min(samples, key=lambda s: abs(s[0] - middle))[1]]
    return REFERENCE_MS * len(inside) / sum(inside)


def _run(cpu: int, out: str) -> None:
    stopping = []
    signal.signal(signal.SIGTERM, lambda *_: stopping.append(True))
    import numpy as np

    os.sched_setaffinity(0, {cpu})
    matrix = np.arange(400.0).reshape(20, 20) % 7 + 20 * np.eye(20)
    stack = np.broadcast_to(matrix, (30, 20, 20)).copy()
    rhs = np.ones((30, 20, 1))

    def loop() -> None:
        for _ in range(6):
            np.linalg.solve(stack, rhs)

    rows = []
    while not stopping:
        at, cpu0 = time.perf_counter(), time.process_time()
        loop()
        rows.append(f"{at!r} {(time.process_time() - cpu0) * 1e3!r}")
        time.sleep(PERIOD_S)
    Path(out).write_text("\n".join(rows) + "\n")


if __name__ == "__main__":
    _run(int(sys.argv[1]), sys.argv[2])
