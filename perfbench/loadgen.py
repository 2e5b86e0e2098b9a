"""Open-loop load generation and the percentile rules the benchmark reports.

An open loop sends request ``i`` at ``start + i / rate`` whether or not
earlier requests have finished, as independent users would.  Latency is
measured from the time a request was *due*, not from when the generator
got round to sending it: a stall then shows on every request queued
behind it, and the generator's own lateness is reported separately.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from typing import Any, Callable, List, Optional, Sequence, Tuple

#: Percentiles tried, highest first, for the "tail" of a sample: the
#: benchmark reports the highest one, up to the workload's own, that
#: leaves at least ten samples beyond it.
TAIL_PERCENTILES = (99.0, 95.0, 90.0, 75.0, 50.0)
#: The generator sleeps until this long before a request is due, then
#: yields the interpreter until it is.
SPIN_S = 0.0003


def percentile(samples: Any, pct: float) -> float:
    """Nearest-rank percentile of a non-empty sample: a sequence, or a
    ``Counter`` of value to count."""
    pairs = _pairs(samples)
    return _percentile_of(pairs, sum(n for _, n in pairs), pct)


def tail_percentile(count: int, top: float) -> float:
    """The highest entry of :data:`TAIL_PERCENTILES`, at most ``top``,
    with ten samples beyond it (the median for samples too small for
    any tail)."""
    for pct in TAIL_PERCENTILES:
        if pct <= top and count * (100.0 - pct) / 100.0 >= 10:
            return pct
    return 50.0


def summarize(samples: Any, central: str, top: float
              ) -> Tuple[float, float, float, int]:
    """``(central value, tail value, tail percentile, n)`` of a
    non-empty sample (as for :func:`percentile`).  ``central`` is
    ``"mean"`` or ``"p50"``; the tail is at :func:`tail_percentile`."""
    pairs = _pairs(samples)
    count = sum(n for _, n in pairs)
    if central == "mean":
        middle = sum(value * n for value, n in pairs) / count
    else:
        middle = _percentile_of(pairs, count, 50.0)
    pct = tail_percentile(count, top)
    return middle, _percentile_of(pairs, count, pct), pct, count


def _pairs(samples: Any) -> List[Tuple[float, int]]:
    """A sample as sorted ``(value, count)`` pairs."""
    return sorted(Counter(samples).items())


def _percentile_of(pairs: List[Tuple[float, int]], total: int,
                   pct: float) -> float:
    """Nearest-rank percentile of sorted ``(value, count)`` pairs."""
    rank = max(1, math.ceil(pct / 100.0 * total))
    seen = 0
    for value, count in pairs:
        seen += count
        if seen >= rank:
            return value
    return pairs[-1][0]


class OpenLoopResult:
    """Per-request timings of one open-loop phase.

    ``due[i]`` and ``sent[i]`` are clock readings; ``done[i]`` is when
    the request's future resolved (``None`` if it never did), ``value[i]``
    its result and ``error[i]`` its exception, if any.
    """

    def __init__(self, keys: Sequence[Any]) -> None:
        count = len(keys)
        self.keys = keys
        self.due: List[float] = [0.0] * count
        self.sent: List[float] = [0.0] * count
        self.done: List[Optional[float]] = [None] * count
        self.value: List[Any] = [None] * count
        self.error: List[Optional[BaseException]] = [None] * count
        #: Whether the future was already resolved when submit returned
        #: (a result-cache hit served inline, without the queue).
        self.inline: List[bool] = [False] * count

    def latencies(self) -> List[float]:
        """Due time to resolution, in seconds, of every resolved request."""
        return [done - due for due, done in zip(self.due, self.done)
                if done is not None]

    def lags(self) -> List[float]:
        """How late the generator sent each request, in seconds."""
        return [sent - due for due, sent in zip(self.due, self.sent)]


def open_loop(submit: Callable[[Any], Any], keys: Sequence[Any],
              rate: float, wait_s: float = 5.0) -> OpenLoopResult:
    """Send ``keys[i]`` through ``submit`` at ``start + i / rate``.

    ``submit(key)`` returns a :class:`concurrent.futures.Future`.  The
    generator never waits for a reply; when it falls behind schedule it
    sends at once, and the lateness is recorded.  After the last send it
    waits up to ``wait_s`` seconds for outstanding futures.
    """
    clock, sleep = time.perf_counter, time.sleep
    result = OpenLoopResult(keys)
    due, sent, done = result.due, result.sent, result.done
    value, error, inline = result.value, result.error, result.inline

    def resolver(index: int) -> Callable[[Any], None]:
        def on_done(future: Any) -> None:
            done[index] = clock()
            exc = future.exception()
            if exc is None:
                value[index] = future.result()
            else:
                error[index] = exc
        return on_done

    interval = 1.0 / rate
    start = clock() + 0.001
    for index, key in enumerate(keys):
        due_at = start + index * interval
        due[index] = due_at
        now = clock()
        if now < due_at - SPIN_S:
            sleep(due_at - now - SPIN_S)
        # The last stretch yields instead of sleeping: a sleep overshoots
        # by tens of microseconds, which would be charged to every read.
        while now < due_at:
            sleep(0)
            now = clock()
        sent[index] = now
        try:
            future = submit(key)
        except Exception as exc:  # noqa: BLE001 - a refusal is a failure
            done[index] = clock()
            error[index] = exc
            continue
        inline[index] = future.done()
        # No reference to the future is kept: requests must die young,
        # or the generator itself would feed the collector's oldest
        # generation and stall the service it measures.
        future.add_done_callback(resolver(index))
    deadline = clock() + wait_s
    while None in done and clock() < deadline:
        sleep(0.001)
    return result
