"""Unit tests for :mod:`repro.resilience.faults`."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.engine.backends.envelope import unwrap_payload, wrap_payload
from repro.kernel.config import BULK, NAIVE, use_kernel
from repro.resilience.faults import (
    CORRUPT,
    DELAY,
    FAULT_POINTS,
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


class TestRuleValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultRule("store.load", kind="explode")

    def test_known_kinds_accepted(self):
        for kind in (RAISE, CORRUPT, DELAY):
            FaultRule("store.load", kind=kind)


class TestMatching:
    def test_point_must_match_exactly(self):
        plan = FaultPlan(rules=(FaultRule("store.load"),))
        plan.check("store.save")  # no fire
        with pytest.raises(InjectedFault):
            plan.check("store.load")

    def test_times_bounds_firings(self):
        plan = FaultPlan(rules=(FaultRule("store.load", times=2),))
        for _ in range(2):
            with pytest.raises(InjectedFault):
                plan.check("store.load")
        plan.check("store.load")  # exhausted, no fire
        assert plan.log == [("store.load", RAISE)] * 2

    def test_kernel_filter(self):
        plan = FaultPlan(rules=(FaultRule("kernel.analysis", kernel=BULK),))
        with use_kernel(NAIVE):
            plan.check("kernel.analysis")  # filtered out
        with use_kernel(BULK):
            with pytest.raises(InjectedFault):
                plan.check("kernel.analysis")

    def test_custom_exception_factory(self):
        plan = FaultPlan(
            rules=(FaultRule("store.load", exception=lambda: OSError("io")),)
        )
        with pytest.raises(OSError, match="io"):
            plan.check("store.load")


class TestDeterminism:
    def consult(self, seed):
        plan = FaultPlan(
            seed=seed,
            rules=(FaultRule("enumeration.step", rate=0.3),),
        )
        fired = []
        for i in range(200):
            try:
                plan.check("enumeration.step")
            except InjectedFault:
                fired.append(i)
        return fired

    def test_same_seed_same_firings(self):
        assert self.consult(42) == self.consult(42)

    def test_different_seed_different_firings(self):
        assert self.consult(42) != self.consult(43)

    def test_rate_is_roughly_respected(self):
        fired = self.consult(42)
        assert 30 <= len(fired) <= 90  # ~60 expected of 200 at 0.3

    def test_corruption_is_deterministic(self):
        blob = bytes(range(256)) * 4

        def corrupt(seed):
            plan = FaultPlan(
                seed=seed, rules=(FaultRule("store.load", kind=CORRUPT),)
            )
            return plan.corrupt("store.load", blob)

        assert corrupt(7) == corrupt(7)
        assert corrupt(7) != blob

    def test_corruption_defeats_the_envelope(self):
        blob = wrap_payload(b"payload bytes for the integrity check")
        plan = FaultPlan(
            seed=3, rules=(FaultRule("store.load", kind=CORRUPT),)
        )
        assert unwrap_payload(plan.corrupt("store.load", blob)) is None

    def test_empty_bytes_still_mutated(self):
        plan = FaultPlan(rules=(FaultRule("store.load", kind=CORRUPT),))
        assert plan.corrupt("store.load", b"") != b""


class TestInstallation:
    def test_no_plan_means_noop_checks(self):
        with inject(None):
            assert current_plan() is None
            fault_check("store.load")  # no-op
            assert fault_corrupt("store.load", b"data") == b"data"

    def test_inject_scopes_the_plan(self):
        ambient = current_plan()  # whatever REPRO_FAULT_SEED installed
        plan = FaultPlan(rules=(FaultRule("store.load"),))
        with inject(plan):
            assert current_plan() is plan
            with pytest.raises(InjectedFault):
                fault_check("store.load")
        assert current_plan() is ambient

    def test_inject_restores_after_a_fire(self):
        ambient = current_plan()
        plan = FaultPlan(rules=(FaultRule("store.load"),))
        with pytest.raises(InjectedFault):
            with inject(plan):
                fault_check("store.load")
        assert current_plan() is ambient

    def test_install_plan_process_wide(self):
        ambient = current_plan()
        plan = FaultPlan()
        try:
            install_plan(plan)
            assert current_plan() is plan
        finally:
            install_plan(ambient)
        assert current_plan() is ambient

    def test_injected_fault_is_not_a_repro_error(self):
        from repro.errors import ReproError

        assert not issubclass(InjectedFault, ReproError)


class TestEnvironmentPlan:
    def test_malformed_seed_is_refused_at_import(self):
        """The seed is read once, at import: a typo'd one refuses the
        import with a typed error naming the knob and the value."""
        env = {
            name: value
            for name, value in os.environ.items()
            if not name.startswith("REPRO_")
        }
        env["REPRO_FAULT_SEED"] = "x"
        env["PYTHONPATH"] = str(Path(repro.__file__).parents[1])
        completed = subprocess.run(
            [sys.executable, "-c", "import repro.resilience.faults"],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert completed.returncode == 1
        assert (
            "repro.errors.ConfigError: REPRO_FAULT_SEED='x': "
            "expected an integer"
        ) in completed.stderr


class TestLightPlan:
    def test_only_recoverable_rules(self):
        """Every light rule must be absorbable: transient raises on the
        retried store points (or the advisory lease acquisition, which
        degrades to an unleased build), corruption (envelope-detected),
        delays."""
        plan = FaultPlan.light(seed=1)
        for rule in plan.rules:
            assert rule.point in FAULT_POINTS
            if rule.kind == RAISE:
                assert rule.point in (
                    "store.load",
                    "store.save",
                    "lock.acquire",
                )
                if rule.point.startswith("store."):
                    assert isinstance(rule.exception(), OSError)
                assert rule.rate <= 0.05
            elif rule.kind == CORRUPT:
                assert rule.point == "store.load"
            else:
                assert rule.delay <= 0.001

    def test_env_parsing(self, monkeypatch):
        from repro.resilience.faults import FAULT_SEED_ENV_VAR, _plan_from_env

        monkeypatch.delenv(FAULT_SEED_ENV_VAR, raising=False)
        assert _plan_from_env() is None
        monkeypatch.setenv(FAULT_SEED_ENV_VAR, "17")
        plan = _plan_from_env()
        assert plan is not None
        assert plan.seed == 17


class TestRegistry:
    CONSULT = re.compile(
        r"(?:fault_check|fault_corrupt|plan\.check|plan\.corrupt)\(\s*"
        r"\"([a-z.]+)\""
    )

    def consulted_points(self):
        root = Path(repro.__file__).parent
        points = set()
        for source in root.rglob("*.py"):
            points.update(self.CONSULT.findall(source.read_text()))
        return points

    def test_every_consulted_point_is_registered(self):
        """A call site naming an unregistered point would silently
        escape the chaos suite's parametrisation."""
        assert self.consulted_points() <= set(FAULT_POINTS)

    def test_every_registered_point_is_consulted(self):
        """A registered point nobody consults is dead weight that makes
        the chaos suite assert vacuously."""
        assert self.consulted_points() == set(FAULT_POINTS)
