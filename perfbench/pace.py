"""Machine-speed reference for the benchmark's timings.

The benchmark was built on a 2-vCPU share of a busy host whose speed
drifts by up to half for seconds to minutes at a time (the same heatmap
pair took 12 ms or 19 ms a few seconds apart), and identical runs taken
minutes apart differed by 25% and more. Every workload is slowed alike,
so `Pace` measures the host's speed alongside the program: while
active, it runs a fixed probe kernel written here, which calls nothing
of the package, before every timed sample and every 50 ms from an
interval timer. A timed sample is then rescaled by the probe times taken
during it and next to it (`Pace.measure`). Probe time inside a sample is
taken out of the sample first.

The probe imitates the program's mix: an im2col gather, a batched BLAS
product, a contraction back, a scatter-add and a loop of small-array
calls. A change to the package cannot change the probe, so a faster
program still reads faster; a slower host does not.
"""
from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

import numpy as np

# Timings are reported at the speed where one probe takes this long,
# about the probe's time on the host the benchmark was built on.
REF_PROBE_S = 2.0e-3
INTERVAL_S = 0.05

_rng = np.random.default_rng(12345)
_N, _C, _HW, _F = 4, 8, 16, 16
_X = _rng.standard_normal((_N, _C, _HW + 2, _HW + 2))
_ci, _ky, _kx, _oy, _ox = np.meshgrid(np.arange(_C), np.arange(3), np.arange(3),
                                      np.arange(_HW), np.arange(_HW), indexing="ij")
_IDX = (_ci * (_HW + 2) ** 2 + (_oy + _ky) * (_HW + 2) + (_ox + _kx)).reshape(_C * 9, _HW * _HW)
_SCATTER = np.broadcast_to(_IDX, (_N, _C * 9, _HW * _HW)).ravel()
_K = _rng.standard_normal((_F, _C * 9))
_SMALL = [_rng.standard_normal((8, 12, 12)) for _ in range(4)]


def probe() -> float:
    """One run of the fixed probe kernel (about 2 ms); returns its result
    so no step can be skipped."""
    cols = _X.reshape(_N, -1)[:, _IDX]                   # gather [N, 72, 256]
    y = np.maximum(np.matmul(_K, cols), 0.0)             # BLAS [N, 16, 256]
    g = np.einsum("nfl,fm->nml", y, _K)                  # contraction back
    acc = float(np.bincount(_SCATTER, weights=g.ravel(),
                            minlength=_C * (_HW + 2) ** 2).sum())
    for a in _SMALL:                                     # small-array call overhead
        for _ in range(5):
            acc += float((np.where(a >= 0, a, -a) / (np.abs(a).sum() + 1.0)).max())
    return acc


class Pace:
    """Probes the host's speed while active: before every sample
    (`start`) and every INTERVAL_S from a SIGALRM handler, which runs in
    the main thread between two bytecodes of the program, so the
    program's state is never seen half-updated.

    A disabled Pace (the traced run, whose spans must not hold probes)
    takes no probes and measures plain wall time.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.starts: list = []
        self.seconds: list = []
        self._busy = False
        self._old = None

    def _probe(self, *_):
        if self._busy:  # a tick during a probe is dropped, keeping starts sorted
            return
        self._busy = True
        t0 = perf_counter()
        probe()
        self.starts.append(t0)
        self.seconds.append(perf_counter() - t0)
        self._busy = False

    def __enter__(self):
        if self.enabled:
            self._probe()
            self._old = signal.signal(signal.SIGALRM, self._probe)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        if self.enabled:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._old)
            self._probe()

    def start(self) -> float:
        """Probe, then return the start time of the sample that follows."""
        if self.enabled:
            self._probe()
        return perf_counter()

    def wall(self, t0: float, t1: float) -> float:
        """Seconds the program spent in [t0, t1]: the probes taken out."""
        i = bisect.bisect_left(self.starts, t0)
        j = bisect.bisect_left(self.starts, t1)
        return t1 - t0 - sum(self.seconds[i:j])

    def measure(self, t0: float, t1: float) -> float:
        """`wall` rescaled to the reference speed by the mean of the probes
        inside [t0, t1] and the nearest one on each side. Call it after
        the Pace has exited, when every probe is in."""
        if not self.enabled:
            return t1 - t0
        i = bisect.bisect_left(self.starts, t0)
        j = bisect.bisect_left(self.starts, t1)
        near = self.seconds[max(i - 1, 0):j + 1]
        return self.wall(t0, t1) * REF_PROBE_S / statistics.fmean(near)

    def summary(self) -> dict:
        if not self.enabled:
            return {"probes": 0}
        ms = [1e3 * s for s in self.seconds]
        return {"probes": len(ms), "interval_ms": 1e3 * INTERVAL_S,
                "probe_ms_median": statistics.median(ms),
                "probe_ms_p10_p90": [float(np.percentile(ms, 10)), float(np.percentile(ms, 90))],
                "ref_probe_ms": 1e3 * REF_PROBE_S}
