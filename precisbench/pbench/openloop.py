"""Open-loop and closed-loop load generators on one asyncio event loop.

An open loop sends each request at its due instant whatever the state
of earlier ones, so a stall makes later requests queue. Latency is
timed from the due instant, not from the moment the generator got
round to sending, and how late the generator fired is recorded as lag.
Clock and sleep are injectable so the accounting can be tested on a
fake clock.
"""

from __future__ import annotations

import asyncio
import math
import random
import time
from dataclasses import dataclass, field
from typing import Any, Awaitable, Callable, Optional


@dataclass
class Outcome:
    request: Any
    #: seconds from the due instant (or submit, in a closed loop) to the
    #: answer; ``inf`` when the request was shed or failed
    latency_s: float
    answer: Any = None
    error: Optional[str] = None
    #: the answer's digest and size, once the answer itself is dropped
    digest: Optional[str] = None
    tuples: int = 0

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class LoopResult:
    outcomes: list[Outcome] = field(default_factory=list)
    #: seconds each arrival fired after its due instant
    lags: list[float] = field(default_factory=list)
    elapsed_s: float = 0.0

    @property
    def failed(self) -> int:
        return sum(1 for outcome in self.outcomes if not outcome.ok)


def poisson_schedule(
    rate: float, duration_s: float, rng: random.Random
) -> list[float]:
    """Arrival offsets (seconds) of a Poisson process of *rate* per s."""
    offsets: list[float] = []
    at = rng.expovariate(rate)
    while at < duration_s:
        offsets.append(at)
        at += rng.expovariate(rate)
    return offsets


async def _settle(submit, request, started: float, clock) -> Outcome:
    try:
        answer = await submit(request)
    except asyncio.CancelledError:
        raise
    except Exception as exc:  # noqa: BLE001 — every failure is counted
        return Outcome(request, math.inf, error=f"{type(exc).__name__}: {exc}")
    return Outcome(request, clock() - started, answer)


async def open_loop(
    arrivals: list[tuple[float, Any]],
    submit: Callable[[Any], Awaitable[Any]],
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], Awaitable[None]] = asyncio.sleep,
) -> LoopResult:
    """Fire each ``(offset_s, request)`` at ``start + offset_s`` and
    wait until every request has settled."""
    result = LoopResult()
    start = clock()
    tasks = []
    for offset, request in arrivals:
        due = start + offset
        delay = due - clock()
        if delay > 0:
            await sleep(delay)
        result.lags.append(max(0.0, clock() - due))
        tasks.append(
            asyncio.ensure_future(_settle(submit, request, due, clock))
        )
    result.outcomes = list(await asyncio.gather(*tasks))
    result.elapsed_s = clock() - start
    return result


async def closed_loop(
    requests: list[Any],
    submit: Callable[[Any], Awaitable[Any]],
    clock: Callable[[], float] = time.perf_counter,
) -> LoopResult:
    """One client sending each request when the previous one settled."""
    result = LoopResult()
    start = clock()
    for request in requests:
        result.outcomes.append(await _settle(submit, request, clock(), clock))
    result.elapsed_s = clock() - start
    return result
