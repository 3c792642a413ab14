"""Times at a reference machine speed.

The benchmark runs on shared machines whose speed for the same Python code
changes by up to 45% within seconds, as other tenants come and go on the
same cores: on a 2-core machine a fixed loop took 0.0070 s in one
five-second window and 0.0102 s in the next.  A run cannot outlast that, so
every time the benchmark reports is scaled to a reference speed.  A fixed
piece of Python work, the probe, is timed throughout the run, and an
operation that took ``t`` seconds while the probe took ``p`` seconds is
reported as ``t * PROBE_REF_S / p``: the time it would have taken on a
machine where the probe takes ``PROBE_REF_S``.  Over twelve such windows the
interquartile range of an operation's time was 26% of its median, and that
of its ratio to the probe's time 3%.

The set-up timer runs ``probe`` inside a fresh interpreter before that
interpreter imports finsite, so this module must not import anything that
finsite's import would otherwise pay for; ``signal`` is the only module it
adds to those loaded at start-up.
"""
import bisect
import signal
import time

# The probe's duration at the reference speed: about its duration on the
# 2-core machine the benchmark was defined on, when that machine was busy.
PROBE_REF_S = 0.0005
PROBE_LOOPS = 2500
# Probe every SAMPLE_S seconds while operations run.
SAMPLE_S = 0.02
# An operation is normalised with the probes taken within WINDOW_S of it,
# and with at least MIN_PROBES probes.
WINDOW_S = 0.5
MIN_PROBES = 9

_TABLE = {i: (i * 2654435761) % 1009 for i in range(64)}


def _step(value: int, key: int) -> int:
    return (value + _TABLE[key]) % 1000003


def probe(loops: int = PROBE_LOOPS) -> float:
    """Seconds taken by a fixed mix of dict lookups, calls and int arithmetic.

    It allocates no containers, so it never triggers a garbage collection
    and its time does not depend on the size of the heap.
    """
    start = time.perf_counter()
    value = 0
    for i in range(loops):
        value = _step(value, i & 63) ^ (i >> 3)
    return time.perf_counter() - start


def reference_factor(probes) -> float:
    """Reference speed over the machine's speed while ``probes`` were taken.

    Probes are evenly spaced in time, so the mean of their speeds is the
    machine's mean speed over an interval in which its speed changed.
    """
    return sum(PROBE_REF_S / p for p in probes) / len(probes)


class SpeedMeter:
    """Probes the machine every ``SAMPLE_S`` seconds from a SIGALRM handler.

    The handler runs between bytecodes of whatever operation is running, so
    long operations are sampled throughout.  Time spent probing is counted
    in ``paused_s`` so that callers can take it out of their own timings,
    and is charged as a child span to the innermost open span of ``spans``
    (a tracer's stack of ``[start_ns, child_ns]`` frames) when one is given.
    """

    def __init__(self, spans: list | None = None):
        self.spans = spans
        self.times: list[float] = []
        self.probes: list[float] = []
        self.paused_s = 0.0
        self._previous = None

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum, frame) -> None:
        begin = time.perf_counter()
        took = probe()
        self.times.append(begin)
        self.probes.append(took)
        spent = time.perf_counter() - begin
        self.paused_s += spent
        if self.spans:
            self.spans[-1][1] += int(spent * 1e9)

    def factor(self, start: float, end: float) -> float:
        """Reference speed over machine speed around ``[start, end]``."""
        times = self.times
        lo = bisect.bisect_left(times, start - WINDOW_S)
        hi = bisect.bisect_right(times, end + WINDOW_S)
        while hi - lo < MIN_PROBES and (lo > 0 or hi < len(times)):
            lo, hi = max(lo - 1, 0), min(hi + 1, len(times))
        return reference_factor(self.probes[lo:hi])
