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


def test_node_side_install_traces_the_example_callbacks(tmp_path):
    # what a verify-proc node runs under `--trace 1`: install_in_child
    # rebuilds every EXAMPLES entry with traced callbacks and dumps the
    # aggregates to PERFBENCH_TRACE_DIR at exit
    code = (
        "import tracer\n"
        "tracer.install_in_child()\n"
        "from fltestbed.examples import EXAMPLES\n"
        "from fltestbed.harness import verify_run\n"
        "assert verify_run(EXAMPLES[3], 'inproc').overall_match\n"
    )
    path = os.pathsep.join(filter(None, (str(PERFBENCH), os.environ.get("PYTHONPATH"))))
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path, "PERFBENCH_TRACE_DIR": str(tmp_path)},
        capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    (dump,) = tmp_path.glob("*.json")
    calls = {name: rec[0] for name, rec in json.loads(dump.read_text())["agg"].items()}
    assert calls.get("engine.client_cb", 0) > 0, calls


def test_forked_nodes_of_a_proc_run_are_traced(tmp_path):
    # verify-proc under `--trace 1`: the benchmark puts childsite on its
    # nodes' PYTHONPATH only, merges what each node dumps when it exits and
    # then removes the directory. Forked nodes run the dump they inherit
    # from the zygote, which itself leaves without running it.
    trace_dir = tmp_path / "trace"
    trace_dir.mkdir()
    code = (
        "import json, os, shutil, sys\n"
        "from fltestbed.harness import run_and_verify\n"
        "childsite, trace_dir, base = sys.argv[1:]\n"
        "os.environ['PYTHONPATH'] = os.pathsep.join([childsite, os.environ['PYTHONPATH']])\n"
        "os.environ['PERFBENCH_TRACE_DIR'] = trace_dir\n"
        "assert run_and_verify(3, 'proc', no_nodes=4, seed=1, base_port=int(base)).overall_match\n"
        "dumps = []\n"
        "for fn in sorted(os.listdir(trace_dir)):\n"
        "    with open(os.path.join(trace_dir, fn)) as f:\n"
        "        dumps.append({name: rec[0] for name, rec in json.load(f)['agg'].items()})\n"
        "shutil.rmtree(trace_dir)\n"
        "print(json.dumps(dumps))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(PERFBENCH / "childsite"), str(trace_dir),
         str(alloc_base_port(4))],
        capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert "Exception ignored" not in out.stderr, out.stderr
    dumps = json.loads(out.stdout)
    assert len(dumps) == 4  # one per node, none from the zygote
    assert sum(d.get("engine.client_cb", 0) for d in dumps) == 12  # 4 nodes x 3 peers
    assert all(d.get("engine.run", 0) == 1 for d in dumps), dumps
