"""Bounded retry with decorrelated-jitter backoff.

The policy follows the standard exponential-backoff-with-decorrelated-
jitter recipe (sleep ~ U(base, 3·previous), capped), which avoids the
synchronized retry storms of plain exponential backoff when many worker
units fail at once.  Retries cover attempts that *raise*; an attempt
that hangs is the supervisor's business (:mod:`repro.robust.supervisor`
reaps or abandons the worker running it), because a hung NumPy kernel
cannot be interrupted from Python.

Every performed retry is a ``retry`` event (:func:`repro.obs.emit`:
the ``block_retries`` counter, a journal line, a trace event) and its
backoff sleep a ``robust.retry`` span, so recovery behavior is visible
in ``python -m repro profile`` output and exported traces.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from ..obs import emit
from ..obs.tracing import span

__all__ = ["RetryPolicy", "RetryExhausted", "retry_call"]


class RetryExhausted(RuntimeError):
    """All attempts (initial + retries) failed; chains the last error."""

    def __init__(self, site: str, attempts: int, last: BaseException):
        super().__init__(
            f"{site}: all {attempts} attempts failed "
            f"(last: {type(last).__name__}: {last})"
        )
        self.site = site
        self.attempts = attempts
        self.last = last


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with decorrelated jitter."""

    max_retries: int = 3  #: retries after the first attempt
    base_delay: float = 0.002  #: backoff floor (seconds)
    max_delay: float = 0.25  #: backoff cap (seconds)

    def __post_init__(self):
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.base_delay < 0 or self.max_delay < self.base_delay:
            raise ValueError(
                f"need 0 <= base_delay <= max_delay, got "
                f"{self.base_delay}, {self.max_delay}"
            )


def retry_call(fn, policy: RetryPolicy, site: str, seed: int = 0):
    """Call ``fn()`` under ``policy``; returns ``(value, attempts_used)``.

    Retries on any :class:`Exception` (not ``KeyboardInterrupt``);
    raises :class:`RetryExhausted` chaining the last failure once
    ``max_retries`` retries are spent.
    """
    jitter = None  # seeded lazily: the healthy first attempt never draws
    delay = policy.base_delay
    last: Exception | None = None
    for attempt in range(1, policy.max_retries + 2):
        try:
            return fn(), attempt
        except Exception as exc:
            last = exc
            if attempt > policy.max_retries:
                break
            emit("retry", site=site, attempt=attempt, error=type(exc).__name__)
            if jitter is None:
                jitter = random.Random(seed)
            delay = min(policy.max_delay, jitter.uniform(policy.base_delay, delay * 3))
            with span(
                "robust.retry", site=site, attempt=attempt, error=type(exc).__name__
            ):
                if delay > 0:
                    time.sleep(delay)
    raise RetryExhausted(site, policy.max_retries + 1, last) from last
