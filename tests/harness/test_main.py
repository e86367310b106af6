"""Unit tests for the harness CLI (:mod:`repro.harness.__main__`)."""

import pytest

from repro.errors import ReproError
from repro.harness.__main__ import main
from repro.serving.client import run_load
from repro.serving.service import chain_service


class TestMain:
    def test_runs_selection(self, capsys):
        exit_code = main(["E1", "E2"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "[E1]" in captured
        assert "[E2]" in captured
        assert "all 2 experiments passed" in captured

    def test_lowercase_ids_accepted(self, capsys):
        assert main(["e1"]) == 0

    def test_markdown_mode(self, capsys):
        exit_code = main(["--markdown", "E1"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "### E1:" in captured
        assert "**Paper claim.**" in captured
        assert "**Measured**" in captured

    def test_workers_mode_matches_serial(self, capsys):
        """--workers=N serves the same experiments through one shared
        engine, with the report in deterministic request order."""
        exit_code = main(["--workers=4", "--stats", "E1", "E2", "E7"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert captured.index("[E1]") < captured.index("[E2]")
        assert captured.index("[E2]") < captured.index("[E7]")
        assert "all 3 experiments passed" in captured
        assert "engine artifact cache:" in captured

    def test_unknown_experiment_rejected(self, capsys):
        assert main(["E999"]) == 2

    @staticmethod
    def _refused(capsys, argv):
        """Run *argv*, which argparse must refuse: exit status 2 and the
        usage error on stderr, with no experiment output."""
        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert exited.value.code == 2
        captured = capsys.readouterr()
        assert "[E1]" not in captured.out
        assert "serviced" not in captured.out
        return captured.err

    @classmethod
    def _refused_value(cls, capsys, argv, expected):
        """*expected* reads ``--flag=raw (expected what)``: stderr names
        the flag, the raw value and what the flag admits."""
        err = cls._refused(capsys, argv)
        flag_raw, _, admits = expected.partition(" (expected ")
        flag, _, raw = flag_raw.partition("=")
        assert f"argument {flag}: {raw!r}: expected " in err
        assert admits.rstrip(")") in err

    @pytest.mark.parametrize("flag", ["--serve", "--stat"])
    def test_unknown_flag_rejected(self, capsys, flag):
        err = self._refused(capsys, [flag, "E1"])
        assert f"unrecognized arguments: {flag}" in err
        assert "--stats" in err

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["--workers=x", "E1"], "--workers=x (expected an integer)"),
            (["--workers=", "E1"], "--workers= (expected an integer)"),
            (
                ["--deadline=soon", "E1"],
                "--deadline=soon (expected a number at least 0)",
            ),
            (
                ["--load-gen", "--port=http"],
                "--port=http (expected an integer)",
            ),
            (
                ["--load-gen", "--port=1", "--clients=many"],
                "--clients=many (expected an integer)",
            ),
            (
                ["--load-gen", "--port=1", "--duration=long"],
                "--duration=long (expected a number above 0)",
            ),
        ],
    )
    def test_malformed_flag_value_rejected(self, capsys, argv, expected):
        self._refused_value(capsys, argv, expected)

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["--workers=0", "E1"], "--workers=0 (expected at least 1)"),
            (["--workers=-3", "E1"], "--workers=-3 (expected at least 1)"),
            (["--deadline=-5", "E1"], "--deadline=-5 (expected at least 0)"),
            (["--deadline=nan", "E1"], "--deadline=nan (expected at least 0)"),
            (
                ["--load-gen", "--port=1", "--clients=0"],
                "--clients=0 (expected at least 1)",
            ),
            (
                ["--load-gen", "--port=1", "--clients=-2", "--duration=-1"],
                "--clients=-2 (expected at least 1)",
            ),
            (
                ["--load-gen", "--port=1", "--duration=0"],
                "--duration=0 (expected above 0)",
            ),
            (
                ["--load-gen", "--port=0", "--clients=1", "--duration=0.2"],
                "--port=0 (expected 1 to 65535)",
            ),
            (
                ["--load-gen", "--port=65536", "--clients=1"],
                "--port=65536 (expected 1 to 65535)",
            ),
        ],
    )
    def test_out_of_range_flag_value_rejected(self, capsys, argv, expected):
        self._refused_value(capsys, argv, expected)

    @pytest.mark.parametrize("raw", ["-5", "nan", "soon"])
    def test_bad_environment_deadline_is_one_line(
        self, capsys, monkeypatch, raw
    ):
        monkeypatch.setenv("REPRO_DEADLINE_MS", raw)
        assert main(["E1"]) == 2
        assert capsys.readouterr().out.splitlines() == [
            f"deadline configuration error: REPRO_DEADLINE_MS={raw!r}: "
            "expected a number at least 0"
        ]

    def test_load_gen_failure_is_one_line(self, capsys):
        """Nothing listens on port 1, so every load thread dies: the
        typed error is one line and exit status 1, not a traceback."""
        argv = ["--load-gen", "--port=1", "--clients=1", "--duration=0.2"]
        assert main(argv) == 1
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("load generator failed: ")

    def test_run_load_needs_a_client(self):
        with pytest.raises(ReproError, match="at least one client"):
            run_load(
                "127.0.0.1", 1, chain_service().sample_requests, clients=0
            )
