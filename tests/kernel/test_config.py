"""Unit tests for :mod:`repro.kernel.config` (mode selection)."""

import pytest

from repro.errors import ReproError
from repro.kernel.config import (
    KERNEL_ENV_VAR,
    bulk_enabled,
    kernel_mode,
    use_kernel,
)


class TestKernelMode:
    def test_default_is_bulk(self, monkeypatch):
        monkeypatch.delenv(KERNEL_ENV_VAR, raising=False)
        assert kernel_mode() == "bulk"
        assert bulk_enabled()

    def test_env_var_selects_naive(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV_VAR, "naive")
        assert kernel_mode() == "naive"
        assert not bulk_enabled()

    def test_env_var_rejects_bitset(self, monkeypatch):
        """``bitset`` is not a mode: it fails typed, naming the valid
        ones, instead of silently aliasing to bulk."""
        monkeypatch.setenv(KERNEL_ENV_VAR, "bitset")
        with pytest.raises(ReproError, match="unknown kernel mode") as info:
            kernel_mode()
        assert "('bulk', 'naive')" in str(info.value)
        with pytest.raises(ReproError, match="unknown kernel mode"):
            with use_kernel("bitset"):
                pass  # pragma: no cover

    def test_env_var_is_normalised(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV_VAR, "  NaIvE ")
        assert kernel_mode() == "naive"

    def test_invalid_env_var_raises(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV_VAR, "vectorised")
        with pytest.raises(ReproError, match="unknown kernel mode"):
            kernel_mode()

    def test_invalid_override_raises(self):
        with pytest.raises(ReproError, match="unknown kernel mode"):
            with use_kernel("nope"):
                pass  # pragma: no cover


class TestUseKernel:
    def test_override_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV_VAR, "naive")
        with use_kernel("bulk"):
            assert kernel_mode() == "bulk"
        assert kernel_mode() == "naive"

    def test_reentrant(self):
        with use_kernel("naive"):
            with use_kernel("bulk"):
                assert kernel_mode() == "bulk"
            assert kernel_mode() == "naive"

    def test_restores_on_exception(self, monkeypatch):
        monkeypatch.delenv(KERNEL_ENV_VAR, raising=False)
        with pytest.raises(RuntimeError):
            with use_kernel("naive"):
                raise RuntimeError("boom")
        assert kernel_mode() == "bulk"
