"""The one reader of every numeric setting (:mod:`repro.settings`)."""

import math

import pytest

from repro import settings
from repro.errors import ConfigError, ReproError
from repro.settings import Setting, read

#: The ten numeric knobs: each setting, a value in range and what it
#: reads as, and a value out of range (``None`` where every number but
#: NaN is admitted).
KNOBS = [
    (settings.DEADLINE_MS, "250", 250.0, "-5"),
    (settings.SERVER_MAX_INFLIGHT, "7", 7, "0"),
    (settings.SERVER_QUEUE_DEPTH, "9", 9, "0"),
    (settings.SERVER_DRAIN_MS, "0", 0.0, "-1"),
    (settings.SERVER_DEADLINE_MS, "40", 40.0, "0"),
    (settings.BREAKER_THRESHOLD, "5", 5, "0"),
    (settings.BREAKER_COOLDOWN_MS, "1000", 1000.0, "-1"),
    (settings.CACHE_LOCK_TTL_MS, "-1", -1.0, None),
    (settings.REMOTE_TIMEOUT_MS, "1500", 1500.0, "-5"),
    (settings.FAULT_SEED, "7", 7, None),
]
IDS = [setting.env for setting, *_ in KNOBS]

REFUSED = [
    pytest.param(setting, raw, id=f"{setting.env}={raw}")
    for setting, _, _, out_of_range in KNOBS
    for raw in ("soon", "nan", out_of_range)
    if raw is not None
]


def test_the_ten_knobs_are_declared_once():
    declared = [
        value.env
        for value in vars(settings).values()
        if isinstance(value, Setting) and value.env is not None
    ]
    assert sorted(declared) == sorted(IDS)


@pytest.mark.parametrize("setting, raw, parsed, out_of_range", KNOBS, ids=IDS)
def test_unset_or_blank_reads_the_default(
    monkeypatch, setting, raw, parsed, out_of_range
):
    monkeypatch.delenv(setting.env, raising=False)
    assert read(setting) == setting.default
    monkeypatch.setenv(setting.env, "  ")
    assert read(setting) == setting.default


@pytest.mark.parametrize("setting, raw, parsed, out_of_range", KNOBS, ids=IDS)
def test_in_range_value_parses_as_its_kind(
    monkeypatch, setting, raw, parsed, out_of_range
):
    monkeypatch.setenv(setting.env, raw)
    value = read(setting)
    assert value == parsed
    assert type(value) is setting.kind


@pytest.mark.parametrize("setting, raw, parsed, out_of_range", KNOBS, ids=IDS)
def test_explicit_value_beats_the_environment(
    monkeypatch, setting, raw, parsed, out_of_range
):
    monkeypatch.setenv(setting.env, "soon")
    assert read(setting, parsed, "Owner") == parsed


@pytest.mark.parametrize("setting, raw", REFUSED)
def test_refused_value_names_knob_value_and_range(monkeypatch, setting, raw):
    monkeypatch.setenv(setting.env, raw)
    with pytest.raises(ConfigError) as refused:
        read(setting)
    assert str(refused.value) == (
        f"{setting.env}={raw!r}: expected {setting.admits}"
    )
    assert isinstance(refused.value, ReproError)
    assert isinstance(refused.value, ValueError)


@pytest.mark.parametrize(
    "setting, value",
    [
        (settings.DEADLINE_MS, -5.0),
        (settings.MAX_STEPS, -1),
        (settings.CACHE_LOCK_TTL_MS, math.nan),
        (settings.SERVER_DRAIN_MS, math.nan),
        (settings.RETRY_ATTEMPTS, 0),
        (settings.MAX_ENTRIES, 0),
        (settings.PORT, 70000),
    ],
)
def test_refused_argument_names_owner_argument_and_range(setting, value):
    with pytest.raises(ConfigError) as refused:
        read(setting, value, "Owner")
    assert str(refused.value) == (
        f"Owner({setting.name}={value!r}): expected {setting.admits}"
    )


@pytest.mark.parametrize(
    "setting, admits",
    [
        (settings.SERVER_MAX_INFLIGHT, "an integer at least 1"),
        (settings.DEADLINE_MS, "a number at least 0"),
        (settings.SERVER_DEADLINE_MS, "a number above 0"),
        (settings.CACHE_LOCK_TTL_MS, "a number other than NaN"),
        (settings.FAULT_SEED, "an integer"),
        (settings.PORT, "an integer from 0 to 65535"),
        (settings.PEER_PORT, "an integer from 1 to 65535"),
    ],
)
def test_admitted_values_in_words(setting, admits):
    assert setting.admits == admits
