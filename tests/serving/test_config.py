"""The serving tier's environment knobs, read through
:func:`repro.settings.read`."""

import pytest

from repro.errors import ConfigError
from repro.settings import (
    SERVER_DEADLINE_MS,
    SERVER_DRAIN_MS,
    SERVER_MAX_INFLIGHT,
    SERVER_QUEUE_DEPTH,
    read,
)


@pytest.mark.parametrize(
    "setting, knob, raw, parsed, explicit, malformed",
    [
        (SERVER_MAX_INFLIGHT, "REPRO_SERVER_MAX_INFLIGHT", "7", 7, 2, "many"),
        (SERVER_QUEUE_DEPTH, "REPRO_SERVER_QUEUE_DEPTH", "9", 9, 3, "0"),
        (SERVER_DRAIN_MS, "REPRO_SERVER_DRAIN_MS", "250", 250.0, 10.0, "soon"),
        (SERVER_DEADLINE_MS, "REPRO_SERVER_DEADLINE_MS", "40", 40.0, 5.0, "never"),
    ],
    ids=["max-inflight", "queue-depth", "drain-ms", "deadline-ms"],
)
def test_env_read_explicit_wins_malformed_raises(
    monkeypatch, setting, knob, raw, parsed, explicit, malformed
):
    monkeypatch.setenv(knob, raw)
    assert read(setting) == parsed
    assert read(setting, explicit) == explicit
    monkeypatch.setenv(knob, malformed)
    with pytest.raises(ConfigError):
        read(setting)
