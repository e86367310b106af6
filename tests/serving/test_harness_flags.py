"""``python -m repro.harness --load-gen``, the server's warm-start exit
and its refusal of numeric flags out of range."""

import asyncio
import json

import pytest

from repro.harness.__main__ import main as harness_main
from repro.serving.__main__ import main as serve_main
from repro.serving.server import UpdateServer


def test_load_gen_requires_a_port(capsys):
    assert harness_main(["--load-gen"]) == 2
    assert "--port" in capsys.readouterr().out


def test_load_gen_drives_a_running_server(spec, capsys):
    async def scenario():
        server = UpdateServer(spec, max_inflight=2, queue_depth=4)
        await server.start()
        await server._warmed.wait()
        loop = asyncio.get_running_loop()
        try:
            return await loop.run_in_executor(
                None,
                harness_main,
                [
                    "--load-gen",
                    f"--port={server.port}",
                    "--clients=2",
                    "--duration=0.5",
                ],
            )
        finally:
            await server.stop()

    assert asyncio.run(scenario()) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["clients"] == 2
    assert report["serviced"] > 0
    assert report["other_errors"] == 0


def test_serve_forwards_warm_url_failures_typed(capsys):
    # /etc/passwd is a file, so the sibling can never create a store
    # beneath it: the warm start fails typed and python -m
    # repro.serving exits 3 before ever binding a socket.
    assert serve_main(["--warm-url=/etc/passwd/x.db"]) == 3


@pytest.mark.parametrize(
    "flag, expected",
    [
        (
            "--max-inflight=0",
            "--max-inflight: '0': expected an integer at least 1",
        ),
        (
            "--queue-depth=0",
            "--queue-depth: '0': expected an integer at least 1",
        ),
        (
            "--deadline-ms=-5",
            "--deadline-ms: '-5': expected a number above 0",
        ),
        (
            "--port=70000",
            "--port: '70000': expected an integer from 0 to 65535",
        ),
    ],
)
def test_serve_refuses_a_flag_out_of_range(capsys, flag, expected):
    with pytest.raises(SystemExit) as exited:
        serve_main([flag])
    assert exited.value.code == 2
    captured = capsys.readouterr()
    assert f"argument {expected}\n" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""
