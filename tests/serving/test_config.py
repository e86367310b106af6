"""The serving tier's environment knobs (:mod:`repro.serving.config`)."""

import pytest

from repro.serving.config import (
    server_deadline_ms,
    server_drain_ms,
    server_max_inflight,
    server_queue_depth,
)


@pytest.mark.parametrize(
    "reader, knob, raw, parsed, explicit, malformed",
    [
        (server_max_inflight, "REPRO_SERVER_MAX_INFLIGHT", "7", 7, 2, "many"),
        (server_queue_depth, "REPRO_SERVER_QUEUE_DEPTH", "9", 9, 3, "0"),
        (server_drain_ms, "REPRO_SERVER_DRAIN_MS", "250", 250.0, 10.0, "soon"),
        (server_deadline_ms, "REPRO_SERVER_DEADLINE_MS", "40", 40.0, 5.0, "never"),
    ],
    ids=["max-inflight", "queue-depth", "drain-ms", "deadline-ms"],
)
def test_env_read_explicit_wins_malformed_raises(
    monkeypatch, reader, knob, raw, parsed, explicit, malformed
):
    monkeypatch.setenv(knob, raw)
    assert reader() == parsed
    assert reader(explicit) == explicit
    monkeypatch.setenv(knob, malformed)
    with pytest.raises(ValueError):
        reader()
