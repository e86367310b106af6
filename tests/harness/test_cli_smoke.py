"""End-to-end smoke test: the harness CLI as CI runs it."""

import os
import re
import subprocess
import sys

EXPERIMENTS = tuple(f"E{i}" for i in range(1, 13))


def _harness(*argv, **env_overrides):
    env = dict(os.environ, **env_overrides)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    completed = subprocess.run(
        [sys.executable, "-m", "repro.harness", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=600,
    )
    assert completed.returncode == 0, completed.stderr
    return completed.stdout


def test_harness_cli_markdown_all_pass():
    output = _harness("--markdown", *EXPERIMENTS)
    for experiment_id in EXPERIMENTS:
        assert experiment_id in output
    assert "PASS" in output
    assert "FAIL" not in output


def test_markdown_does_not_depend_on_the_string_hash():
    """E11 observes a frozenset of tuples of strings, whose iteration
    order follows the per-process string hash: the report sorts it."""
    outputs = [
        re.sub(
            r"\((PASS|FAIL), [0-9.]+s\)",
            "",
            _harness("--markdown", "E11", PYTHONHASHSEED=seed),
        )
        for seed in ("1", "2")
    ]
    assert outputs[0] == outputs[1]
    assert "`frozenset({('a1', 'b1', n), (n, n, 'd1')})`" in outputs[0]
