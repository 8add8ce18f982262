import json
import os
import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_and_counts_every_layer():
    # perfbench's tracer rebinds module globals of the package by name; a
    # renamed or deleted name breaks `perfbench/run.py --trace`
    code = (
        "import json\n"
        "import tracer\n"
        "from fltestbed.harness import fuzz_verify, run_and_verify\n"
        "t = tracer.Tracer()\n"
        "t.install()\n"
        "assert run_and_verify(3, 'inproc').overall_match\n"
        "assert fuzz_verify('cent', 3, 0).ok\n"
        "print(json.dumps({name: rec[0] for name, rec in t.snapshot()['agg'].items()}))\n"
    )
    path = os.pathsep.join(filter(None, (str(PERFBENCH), os.environ.get("PYTHONPATH"))))
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    calls = json.loads(out.stdout)
    for name in ("harness.oracle", "engine.run", "transport.send", "transport.decode"):
        assert calls.get(name, 0) > 0, (name, calls)
