import json
import os
import subprocess
import sys
from pathlib import Path

from conftest import alloc_base_port

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_and_counts_every_layer():
    # perfbench's tracer rebinds module globals of the package by name; a
    # renamed or deleted name breaks `perfbench/run.py --trace`. In-process
    # runs deliver canonical copies, so one TCP hop is what decodes a frame.
    code = (
        "import json, sys\n"
        "import tracer\n"
        "from fltestbed.engine import FlConfig\n"
        "from fltestbed.harness import fuzz_verify, run_and_verify\n"
        "from fltestbed.transport import Envelope, Phase, TcpTransport\n"
        "t = tracer.Tracer()\n"
        "t.install()\n"
        "assert run_and_verify(3, 'inproc').overall_match\n"
        "assert fuzz_verify('cent', 3, 0).ok\n"
        "base = int(sys.argv[1])\n"
        "a, b = (TcpTransport(FlConfig(no_nodes=2, node_id=i, base_port=base,\n"
        "                              connect_timeout=5.0, recv_timeout=5.0)) for i in (0, 1))\n"
        "try:\n"
        "    a.send(Envelope(0, 1, Phase.CLI_DATA, 0, [1.5]))\n"
        "    (env,) = b.recv_matching(Phase.CLI_DATA, 0, (0,))\n"
        "    assert env.payload == [1.5]\n"
        "finally:\n"
        "    a.close()\n"
        "    b.close()\n"
        "print(json.dumps({name: rec[0] for name, rec in t.snapshot()['agg'].items()}))\n"
    )
    path = os.pathsep.join(filter(None, (str(PERFBENCH), os.environ.get("PYTHONPATH"))))
    out = subprocess.run(
        [sys.executable, "-c", code, str(alloc_base_port(2))],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    calls = json.loads(out.stdout)
    for name in ("harness.oracle", "engine.run", "transport.send", "transport.decode",
                 "values.validate"):
        assert calls.get(name, 0) > 0, (name, calls)
