"""``python -m repro.harness --load-gen`` and the server's warm-start exit."""

import asyncio
import json

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
