"""The resilience layer: fail closed, never silently corrupt.

Constant-complement translation is only trustworthy if the system
either answers correctly or *visibly* refuses (the paper already models
refusal as a first-class outcome, Definition 0.1.2(c)).  This package
makes that guarantee operational for the machinery around the theory:

* :mod:`repro.resilience.guard` -- wall-clock deadlines and step
  budgets (:class:`ExecutionGuard`), checked cooperatively inside the
  enumeration and kernel hot loops, raising a typed
  :class:`~repro.errors.DeadlineExceededError` instead of hanging;
* :mod:`repro.resilience.faults` -- seeded, deterministic fault
  injection (:class:`FaultPlan`) consulted at named fault points by the
  store, the kernels, and enumeration, powering the chaos suite and the
  ``REPRO_FAULT_SEED`` CI matrix entry;
* :mod:`repro.resilience.locks` -- advisory cross-process file leases
  (:class:`FileLease`) around disk-cache builds, with TTL-based
  stale-lease takeover (``REPRO_CACHE_LOCK_TTL_MS``) and a startup
  sweep of dead writers' temp files;
* :mod:`repro.resilience.breaker` -- a per-derivation circuit breaker
  (:class:`CircuitBreaker`) that converts deterministic kernel crashes
  into fast typed :class:`~repro.errors.CircuitOpenError`\\ s instead
  of re-running the bulk -> naive fallback per request; the remote
  artifact backend runs its transport circuit on the same class.

The fallback (a bulk-kernel crash is retried once on the naive
kernel, and a crash there is a typed
:class:`~repro.errors.KernelFailureError`) and the checksummed cache
envelope live in :mod:`repro.engine`, which consumes this package.
"""

from repro.resilience.faults import (
    CORRUPT,
    DELAY,
    FAULT_POINTS,
    FAULT_SEED_ENV_VAR,
    FaultPlan,
    FaultRule,
    InjectedFault,
    RAISE,
    current_plan,
    fault_check,
    fault_corrupt,
    inject,
    install_plan,
)
from repro.resilience.guard import (
    DEADLINE_ENV_VAR,
    ExecutionGuard,
    current_guard,
    deadline_from_env,
    guarded,
)
from repro.resilience.locks import (
    DEFAULT_LOCK_TTL_MS,
    FileLease,
    LOCK_TTL_ENV_VAR,
    lock_ttl_ms,
    sweep_stale_temp_files,
)
from repro.resilience.breaker import CircuitBreaker

__all__ = [
    "CORRUPT",
    "CircuitBreaker",
    "DEADLINE_ENV_VAR",
    "DEFAULT_LOCK_TTL_MS",
    "DELAY",
    "ExecutionGuard",
    "FAULT_POINTS",
    "FAULT_SEED_ENV_VAR",
    "FaultPlan",
    "FaultRule",
    "FileLease",
    "InjectedFault",
    "LOCK_TTL_ENV_VAR",
    "RAISE",
    "current_guard",
    "current_plan",
    "deadline_from_env",
    "fault_check",
    "fault_corrupt",
    "guarded",
    "inject",
    "install_plan",
    "lock_ttl_ms",
    "sweep_stale_temp_files",
]
