"""Deterministic fault injection for the resilience layer.

A :class:`FaultPlan` is a seeded list of :class:`FaultRule`\\ s.  Call
sites in the engine, store, and kernels consult the current plan at
*named fault points* (:data:`FAULT_POINTS`); a matching rule raises an
exception, corrupts bytes, or sleeps.  Everything is driven by one
seeded RNG, so the same plan consulted by the same program fires the
same faults -- chaos tests are reproducible, not flaky.

Two ways to activate a plan:

* programmatically, with ``install_plan(plan)`` or the scoped
  :func:`inject` context manager (what the chaos suite uses);
* via the ``REPRO_FAULT_SEED`` environment variable, read once at
  import, which installs :meth:`FaultPlan.light` -- low-rate transient
  I/O failures, cache-byte corruption, and micro-delays, all of which
  the system must absorb without a single test failing.  CI runs the
  full suite under this plan.

Injected exceptions default to :class:`InjectedFault`, which is
deliberately **not** a :class:`~repro.errors.ReproError`: it simulates
an unexpected crash, and the chaos suite asserts the system converts it
into a structured outcome or a typed error before it reaches a caller.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator, List, Optional, Tuple

from contextlib import contextmanager

from repro.settings import FAULT_SEED, read

__all__ = [
    "CORRUPT",
    "DELAY",
    "FAULT_POINTS",
    "FAULT_SEED_ENV_VAR",
    "FaultPlan",
    "FaultRule",
    "InjectedFault",
    "RAISE",
    "current_plan",
    "fault_check",
    "fault_corrupt",
    "inject",
    "install_plan",
]

#: Environment variable enabling the light background plan.
FAULT_SEED_ENV_VAR = FAULT_SEED.env

#: Every named fault point a call site consults.  The chaos suite
#: parametrises over this registry, so adding a call site without
#: registering it here leaves it untested -- keep them in sync.
FAULT_POINTS: Tuple[str, ...] = (
    "store.load",
    "store.save",
    "backend.open",
    "lock.acquire",
    "lock.release",
    "kernel.encode",
    "kernel.poset",
    "kernel.analysis",
    "enumeration.step",
    "server.admit",
    "server.drain",
    "remote.get",
    "remote.put",
    "remote.lease",
)

RAISE = "raise"
CORRUPT = "corrupt"
DELAY = "delay"
_KINDS = (RAISE, CORRUPT, DELAY)


class InjectedFault(RuntimeError):
    """The default injected exception: an *unexpected* crash.

    Not a ``ReproError`` on purpose -- the whole point of injecting it
    is to prove the system never lets it escape untyped.
    """


@dataclass
class FaultRule:
    """One fault: where it fires, what it does, and how often."""

    #: Fault point name (exact match against :data:`FAULT_POINTS`).
    point: str
    kind: str = RAISE
    #: Probability of firing per consultation (decided by the plan RNG).
    rate: float = 1.0
    #: Fire at most this many times (``None`` = unlimited).
    times: Optional[int] = None
    #: Only fire under this kernel mode (``None`` = both).
    kernel: Optional[str] = None
    #: Factory for the exception a ``raise`` rule throws.
    exception: Callable[[], BaseException] = InjectedFault
    #: Seconds a ``delay`` rule sleeps.
    delay: float = 0.0
    fired: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            # reprolint: disable=RL001 -- validation of fault-rule kinds; asserted by tests/resilience/test_faults.py
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of {_KINDS}"
            )


class FaultPlan:
    """A seeded, deterministic schedule of faults.

    Rule matching and probabilistic firing draw from one
    ``random.Random(seed)``, so a fixed plan consulted by a fixed
    program produces a fixed fault sequence.  The :attr:`log` records
    every firing as ``(point, kind)`` for test assertions.
    """

    def __init__(
        self, seed: int = 0, rules: Tuple[FaultRule, ...] = ()
    ) -> None:
        self.seed = seed
        self.rules: List[FaultRule] = list(rules)
        self.log: List[Tuple[str, str]] = []
        self._rng = random.Random(seed)

    @classmethod
    def light(cls, seed: int = 1) -> "FaultPlan":
        """The background plan CI runs the whole suite under.

        Every rule here is *recoverable by design*: transient I/O
        errors are absorbed by the store's bounded retry, corrupted
        cache bytes by the integrity envelope (silent miss + rebuild),
        failed lease acquisitions by the advisory contract (the build
        simply runs unleased), and delays are just latency.  Rates are
        low enough that the bounded retries fail all attempts with
        negligible probability.
        """
        io_error = lambda: OSError("injected transient I/O failure")  # noqa: E731
        return cls(
            seed=seed,
            rules=(
                FaultRule("store.load", RAISE, rate=0.02, exception=io_error),
                FaultRule("store.save", RAISE, rate=0.02, exception=io_error),
                FaultRule("store.load", CORRUPT, rate=0.02),
                FaultRule("lock.acquire", RAISE, rate=0.02),
                FaultRule(
                    "enumeration.step", DELAY, rate=0.001, delay=0.0002
                ),
            ),
        )

    # -- matching -------------------------------------------------------------

    def _matches(self, rule: FaultRule, point: str) -> bool:
        if rule.point != point:
            return False
        if rule.times is not None and rule.fired >= rule.times:
            return False
        if rule.kernel is not None:
            from repro.kernel.config import kernel_mode

            if kernel_mode() != rule.kernel:
                return False
        return rule.rate >= 1.0 or self._rng.random() < rule.rate

    # -- consultation ---------------------------------------------------------

    def check(self, point: str) -> None:
        """Consult the raise/delay rules for *point* (may raise/sleep)."""
        for rule in self.rules:
            if rule.kind == CORRUPT:
                continue
            if self._matches(rule, point):
                rule.fired += 1
                self.log.append((point, rule.kind))
                if rule.kind == DELAY:
                    # reprolint: disable=RL009 -- the delay fault IS the injected blocking: chaos tests must observe a stalled loop, and production plans never configure DELAY at loop-reachable points
                    time.sleep(rule.delay)
                else:
                    # reprolint: disable=RL001 -- deliberately raises the configured exception type: fault injection must simulate untyped failures too
                    raise rule.exception()

    def corrupt(self, point: str, data: bytes) -> bytes:
        """Pass *data* through the corrupt rules for *point*."""
        for rule in self.rules:
            if rule.kind != CORRUPT:
                continue
            if self._matches(rule, point):
                rule.fired += 1
                self.log.append((point, rule.kind))
                data = self._corrupt_bytes(data)
        return data

    def _corrupt_bytes(self, data: bytes) -> bytes:
        """Deterministically damage *data* (bit flips or truncation)."""
        if not data:
            return b"\xff"
        mutated = bytearray(data)
        if self._rng.random() < 0.25:
            return bytes(mutated[: self._rng.randrange(len(mutated))])
        for _ in range(1 + len(mutated) // 256):
            position = self._rng.randrange(len(mutated))
            mutated[position] ^= 1 << self._rng.randrange(8)
        return bytes(mutated)


# -- the current-plan protocol ------------------------------------------------

_PLAN: Optional[FaultPlan] = None


def install_plan(plan: Optional[FaultPlan]) -> None:
    """Install *plan* process-wide (``None`` disables injection)."""
    global _PLAN
    _PLAN = plan


def current_plan() -> Optional[FaultPlan]:
    """The active plan, or ``None`` (the common, zero-fault case)."""
    return _PLAN


@contextmanager
def inject(plan: Optional[FaultPlan]) -> Iterator[Optional[FaultPlan]]:
    """Scope *plan* as the active plan within the block."""
    global _PLAN
    previous = _PLAN
    _PLAN = plan
    try:
        yield plan
    finally:
        _PLAN = previous


def fault_check(point: str) -> None:
    """Consult the active plan at *point* (no-op without a plan)."""
    plan = _PLAN
    if plan is not None:
        plan.check(point)


def fault_corrupt(point: str, data: bytes) -> bytes:
    """Corruption hook for byte payloads (identity without a plan)."""
    plan = _PLAN
    if plan is not None:
        return plan.corrupt(point, data)
    return data


def _plan_from_env() -> Optional[FaultPlan]:
    seed = read(FAULT_SEED)
    return None if seed is None else FaultPlan.light(seed)


# Read once at import: the environment plan is a process-lifetime
# setting (CI's chaos matrix entry), not something to toggle at runtime
# -- use install_plan()/inject() for that.
_PLAN = _plan_from_env()
