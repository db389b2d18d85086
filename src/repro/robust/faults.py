"""Deterministic, seeded fault injection for the execution layer.

The fault-tolerance machinery (retry/backoff in the parallel executor,
numerical guards at the treecode/FMM/GMRES boundaries, checkpoint
resume) is only trustworthy if its recovery paths are *exercised*, and
real worker crashes, hangs and NaN corruption are too rare to test
against.  This module makes them cheap and reproducible: a
:class:`FaultInjector` configured from a compact spec string fires
faults at named *sites* in the codebase, with every decision drawn from
a seeded counter-keyed RNG stream so a given ``(spec, seed)`` produces
the same fault schedule per site on every run (exactly deterministic
under ``n_threads=1``; under real concurrency the draw *sequence* per
site is fixed but its assignment to blocks follows scheduling order).

Spec strings are comma-separated ``mode:rate[:param]`` entries::

    block_error:0.2                 # 20% of worker-block attempts raise
    block_hang:0.1:0.5              # 10% of attempts sleep 0.5 s first
    block_nan:0.05                  # 5% of block outputs get NaN entries
    block_oom:0.05:256              # 5% of attempts balloon RSS by 256 MiB
    coeff_nan:1.0                   # corrupt multipole coefficients
    gmres_nan:0.1                   # corrupt GMRES matvec results
    fmm_nan:0.5                     # corrupt the FMM output potential

Injection is reached through three module-level hooks — :func:`maybe_fault`
(raise / hang), :func:`maybe_corrupt` (NaN-poison an array) — which are
no-ops unless an injector is active.  The active injector comes from
:func:`set_injector` (tests, the ``--inject-faults`` CLI flag) or, on
first use, from the ``REPRO_INJECT_FAULTS`` / ``REPRO_FAULT_SEED``
environment variables (the CI fault-injection job).  Recovery code runs
its fallbacks inside :func:`suppress_faults` so a fallback re-evaluation
is never re-poisoned.

Every injected fault is a ``fault_injected`` event
(:func:`repro.obs.emit`), counted in ``faults_injected``, so ``python -m
repro profile`` and the journal show how many faults a run absorbed
alongside its retries and fallbacks.
"""

from __future__ import annotations

import os
import threading
import time
import zlib
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from ..obs import emit

__all__ = [
    "InjectedFault",
    "FaultRule",
    "FaultInjector",
    "parse_fault_spec",
    "active_injector",
    "set_injector",
    "maybe_fault",
    "maybe_corrupt",
    "suppress_faults",
    "clear_ballast",
    "ENV_SPEC",
    "ENV_SEED",
]

ENV_SPEC = "REPRO_INJECT_FAULTS"
ENV_SEED = "REPRO_FAULT_SEED"


class InjectedFault(RuntimeError):
    """A deliberately injected failure (raised only by the harness)."""

    def __init__(self, site: str, mode: str, draw: int):
        super().__init__(f"injected fault at {site!r} (mode={mode}, draw #{draw})")
        self.site = site
        self.mode = mode
        self.draw = draw


#: mode name -> (site it fires at, behavior kind, default param)
_MODES: dict[str, tuple[str, str, float]] = {
    "block_error": ("parallel.block", "error", 0.0),
    "block_hang": ("parallel.block", "hang", 0.25),
    "block_nan": ("parallel.block", "corrupt", 0.01),
    "block_oom": ("parallel.block", "oom", 64.0),
    "coeff_nan": ("treecode.coeffs", "corrupt", 0.001),
    "gmres_nan": ("gmres.matvec", "corrupt", 0.01),
    "fmm_nan": ("fmm.potential", "corrupt", 0.01),
}


@dataclass(frozen=True)
class FaultRule:
    """One armed fault mode: fire with probability ``rate`` at ``site``."""

    mode: str
    rate: float
    param: float  #: hang seconds, ballast MiB, or corrupt fraction

    @property
    def site(self) -> str:
        return _MODES[self.mode][0]

    @property
    def kind(self) -> str:
        return _MODES[self.mode][1]


def parse_fault_spec(spec: str) -> list[FaultRule]:
    """Parse ``"mode:rate[:param],..."`` into :class:`FaultRule` s."""
    rules: list[FaultRule] = []
    for entry in spec.split(","):
        entry = entry.strip()
        if not entry:
            continue
        parts = entry.split(":")
        if len(parts) not in (2, 3):
            raise ValueError(
                f"bad fault entry {entry!r}: expected mode:rate[:param]"
            )
        mode = parts[0]
        if mode not in _MODES:
            raise ValueError(
                f"unknown fault mode {mode!r}; known: {', '.join(sorted(_MODES))}"
            )
        rate = float(parts[1])
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"fault rate must be in [0, 1], got {rate}")
        param = float(parts[2]) if len(parts) == 3 else _MODES[mode][2]
        if param < 0.0:
            raise ValueError(f"fault param must be >= 0, got {param}")
        rules.append(FaultRule(mode=mode, rate=rate, param=param))
    return rules


class FaultInjector:
    """Fires the configured rules from seeded per-mode RNG streams.

    Draw ``k`` of mode ``m`` uses ``default_rng([seed, crc32(m), k])``
    (CRC, not ``hash()``, so streams survive interpreter hash
    randomization); a per-mode counter hands out ``k`` under a lock.
    """

    def __init__(self, rules: list[FaultRule], seed: int = 0):
        self.rules = list(rules)
        self.seed = int(seed)
        self._lock = threading.Lock()
        self._counts: dict[str, int] = {}
        self._by_site: dict[str, list[FaultRule]] = {}
        for r in self.rules:
            self._by_site.setdefault(r.site, []).append(r)

    def sites(self) -> set[str]:
        return set(self._by_site)

    def _draw(self, rule: FaultRule) -> tuple[bool, int, np.random.Generator]:
        with self._lock:
            k = self._counts.get(rule.mode, 0)
            self._counts[rule.mode] = k + 1
        rng = np.random.default_rng(
            [self.seed, zlib.crc32(rule.mode.encode()), k]
        )
        return bool(rng.random() < rule.rate), k, rng

    def maybe_fault(self, site: str) -> None:
        """Fire error/hang/oom rules armed at ``site`` (may raise, sleep
        or balloon this process's RSS)."""
        global _ballast
        for rule in self._by_site.get(site, ()):
            if rule.kind == "hang":
                fired, _, _ = self._draw(rule)
                if fired:
                    emit("fault_injected", site=site, mode=rule.mode)
                    time.sleep(rule.param)
            elif rule.kind == "oom":
                fired, _, _ = self._draw(rule)
                if fired:
                    emit("fault_injected", site=site, mode=rule.mode)
                    # one live ballast: repeated fires swap rather than
                    # accumulate, so the injected pressure is bounded at
                    # `param` MiB (np.ones forces page commit)
                    n = int(rule.param * 1024 * 1024 / 8)
                    _ballast = np.ones(max(1, n), dtype=np.float64)
            elif rule.kind == "error":
                fired, k, _ = self._draw(rule)
                if fired:
                    emit("fault_injected", site=site, mode=rule.mode)
                    raise InjectedFault(site, rule.mode, k)

    def maybe_corrupt(self, site: str, arr: np.ndarray) -> np.ndarray:
        """Return ``arr``, NaN-poisoned if a corrupt rule fires at ``site``."""
        for rule in self._by_site.get(site, ()):
            if rule.kind != "corrupt":
                continue
            fired, _, rng = self._draw(rule)
            if fired and arr.size:
                emit("fault_injected", site=site, mode=rule.mode)
                arr = np.array(arr, copy=True)
                n_bad = max(1, int(round(rule.param * arr.size)))
                idx = rng.choice(arr.size, size=min(n_bad, arr.size), replace=False)
                arr.reshape(-1)[idx] = np.nan
        return arr


_UNSET = object()
_active: object = _UNSET
_state = threading.local()

#: The live oom ballast (``block_oom``); each fire replaces it.
_ballast: np.ndarray | None = None


def clear_ballast() -> None:
    """Drop the oom ballast."""
    global _ballast
    _ballast = None


def active_injector() -> FaultInjector | None:
    """The process-wide injector; initialized from the environment
    (``REPRO_INJECT_FAULTS``) on first use."""
    global _active
    if _active is _UNSET:
        spec = os.environ.get(ENV_SPEC, "").strip()
        if spec:
            seed = int(os.environ.get(ENV_SEED, "0") or 0)
            _active = FaultInjector(parse_fault_spec(spec), seed=seed)
        else:
            _active = None
    return _active  # type: ignore[return-value]


def set_injector(injector: FaultInjector | None) -> None:
    """Install (or with ``None`` disable) the process-wide injector."""
    global _active
    _active = injector
    clear_ballast()


def _suppressed() -> bool:
    return getattr(_state, "depth", 0) > 0


@contextmanager
def suppress_faults():
    """Disable injection on this thread — recovery/fallback paths run
    inside this so a re-evaluation cannot be poisoned again."""
    _state.depth = getattr(_state, "depth", 0) + 1
    try:
        yield
    finally:
        _state.depth -= 1


def maybe_fault(site: str) -> None:
    """Site hook: raise/hang per the active injector (no-op otherwise)."""
    inj = active_injector()
    if inj is not None and not _suppressed():
        inj.maybe_fault(site)


def maybe_corrupt(site: str, arr: np.ndarray) -> np.ndarray:
    """Site hook: possibly NaN-poison ``arr`` (identity otherwise)."""
    inj = active_injector()
    if inj is None or _suppressed():
        return arr
    return inj.maybe_corrupt(site, arr)
