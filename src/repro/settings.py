"""Every numeric setting, declared once, and the one reader for them.

A setting is a ``REPRO_*`` environment knob, a CLI flag or a
constructor limit: its keyword name, int or float, default and
admitted range.  :func:`read` takes the explicit value if one is given,
else the variable, else the default, and refuses a value that does not
parse, is NaN or lies outside the range with a
:class:`~repro.errors.ConfigError` naming its source, the raw value and
the range -- a typo'd knob must never silently mean its default.
Settings are read when a component is built, never per served update.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import partial
from typing import Callable, Generic, Optional, TypeVar, Union, cast

from repro.errors import ConfigError

N = TypeVar("N", bound=Optional[float])


@dataclass(frozen=True)
class Setting(Generic[N]):
    """One numeric setting: its name, kind, default and admitted range."""

    #: The keyword argument that carries an explicit value.
    name: str
    #: ``int`` or ``float``: how a variable's or a flag's text parses.
    kind: Callable[[str], N]
    default: N
    #: The ``REPRO_*`` variable supplying the value, if there is one.
    env: Optional[str] = None
    low: float = -math.inf
    high: float = math.inf
    #: ``low`` itself is refused ("above 0" rather than "at least 0").
    above: bool = False

    @property
    def admits(self) -> str:
        """The admitted values, in words."""
        noun = "an integer" if self.kind is int else "a number"
        if self.high < math.inf:
            return f"{noun} from {self.low:g} to {self.high:g}"
        if self.low > -math.inf:
            bound = "above" if self.above else "at least"
            return f"{noun} {bound} {self.low:g}"
        return noun if self.kind is int else f"{noun} other than NaN"


def read(
    setting: Setting[N], value: Union[N, str, None] = None, owner: str = ""
) -> N:
    """*value* if given, else the variable if set and not blank, else the
    default.  Text parses as the setting's kind; a refused value names
    the variable, or ``owner(name=value)`` for an explicit one."""
    label = ""
    if value is None:
        raw = os.environ.get(setting.env) if setting.env else None
        if raw is None or not raw.strip():
            return setting.default
        value, label = raw, f"{setting.env}={raw!r}"
    try:
        number = setting.kind(value) if isinstance(value, str) else value
    except ValueError:
        number = None
    if isinstance(number, (int, float)) and (
        setting.low < number if setting.above else setting.low <= number
    ) and number <= setting.high:
        return cast(N, number)
    if not label:
        label = f"{owner}({setting.name}={value!r})" if owner else repr(value)
    raise ConfigError(f"{label}: expected {setting.admits}")


def flag(setting: Setting[N]) -> Callable[[str], N]:
    """An argparse ``type=`` reading a flag's text through :func:`read`:
    a ``ConfigError`` is also an ``ArgumentTypeError``, so a refused
    value is argparse's usage error (exit status 2)."""
    return partial(read, setting)


# -- the ten numeric REPRO_* knobs --------------------------------------------

#: Wall-clock budget per engine derivation (ms; unset: none).
DEADLINE_MS: Setting[Optional[float]] = Setting(
    "deadline_ms", float, None, env="REPRO_DEADLINE_MS", low=0
)
#: The update server's concurrency tokens, one worker each.
SERVER_MAX_INFLIGHT: Setting[int] = Setting(
    "max_inflight", int, 4, env="REPRO_SERVER_MAX_INFLIGHT", low=1
)
#: Bound of each of the server's per-priority admission queues.
SERVER_QUEUE_DEPTH: Setting[int] = Setting(
    "queue_depth", int, 16, env="REPRO_SERVER_QUEUE_DEPTH", low=1
)
#: The server's graceful-drain budget after SIGTERM (ms).
SERVER_DRAIN_MS: Setting[float] = Setting(
    "drain_ms", float, 5_000.0, env="REPRO_SERVER_DRAIN_MS", low=0
)
#: Deadline of a served request that names none (ms; unset: none);
#: above 0, as the wire requires of a request's own deadline.
SERVER_DEADLINE_MS: Setting[Optional[float]] = Setting(
    "deadline_ms",
    float,
    None,
    env="REPRO_SERVER_DEADLINE_MS",
    low=0,
    above=True,
)
#: Consecutive kernel failures that open a derivation's circuit.
BREAKER_THRESHOLD: Setting[int] = Setting(
    "threshold", int, 3, env="REPRO_BREAKER_THRESHOLD", low=1
)
#: How long an open circuit waits before its half-open probe (ms).
BREAKER_COOLDOWN_MS: Setting[float] = Setting(
    "cooldown_ms", float, 30_000.0, env="REPRO_BREAKER_COOLDOWN_MS", low=0
)
#: Age at which a silent lease holder is taken over (ms); 0 or below
#: disables leasing.
CACHE_LOCK_TTL_MS: Setting[float] = Setting(
    "ttl_ms", float, 30_000.0, env="REPRO_CACHE_LOCK_TTL_MS"
)
#: Per-operation HTTP deadline of the remote artifact backend (ms).
REMOTE_TIMEOUT_MS: Setting[float] = Setting(
    "timeout_ms",
    float,
    2_000.0,
    env="REPRO_REMOTE_TIMEOUT_MS",
    low=0,
    above=True,
)
#: Seed of the light background fault plan (unset: no plan).
FAULT_SEED: Setting[Optional[int]] = Setting(
    "seed", int, None, env="REPRO_FAULT_SEED"
)

# -- limits with no variable: constructor arguments and CLI flags -------------

#: Cooperative step budget per derivation (unset: none).
MAX_STEPS: Setting[Optional[int]] = Setting("max_steps", int, None, low=0)
#: Attempts per backend I/O operation, the first one included.
RETRY_ATTEMPTS: Setting[int] = Setting("attempts", int, 3, low=1)
#: Capacity of the artifact store's in-memory LRU tier.
MAX_ENTRIES: Setting[int] = Setting("max_entries", int, 256, low=1)
#: Harness ``--workers``, ``--clients`` and ``--duration`` (seconds).
WORKERS: Setting[int] = Setting("workers", int, 1, low=1)
CLIENTS: Setting[int] = Setting("clients", int, 4, low=1)
DURATION_S: Setting[float] = Setting(
    "duration", float, 3.0, low=0, above=True
)
#: A port to listen on (0: the OS picks one), or to connect to.
PORT: Setting[int] = Setting("port", int, 0, low=0, high=65535)
PEER_PORT: Setting[Optional[int]] = Setting(
    "port", int, None, low=1, high=65535
)
