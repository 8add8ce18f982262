import json
import locale
import os
import signal
import subprocess
import sys
import time

import pytest

from fltestbed import launcher
from fltestbed.errors import ConfigError, LaunchError
from fltestbed.examples import example_run
from fltestbed.harness import launch_federation
from fltestbed.launcher import LaunchSpec, launch_all, node_argv

from conftest import alloc_base_port, zygote_family


def _node_program(example: int, extra: tuple[str, ...] = ()) -> tuple[str, ...]:
    return (sys.executable, "-m", "fltestbed", "node", "--example", str(example), *extra)


ECHO_ARGS = (sys.executable, "-c", "import sys; print(' '.join(sys.argv[1:]))")
SLEEP_FOREVER = (sys.executable, "-c", "import time; time.sleep(60)")
EXIT_WITH_NODE_ID = (
    sys.executable,
    "-c",
    "import sys; sys.exit(int(sys.argv[sys.argv.index('--node-id') + 1]))",
)
ONLY_NODE_1_HANGS = (
    sys.executable,
    "-c",
    "import sys, time; i = int(sys.argv[sys.argv.index('--node-id') + 1]);"
    " time.sleep(60 if i == 1 else 0); print('done', i)",
)
ONLY_NODE_0_HANGS = (
    sys.executable,
    "-c",
    "import sys, time; time.sleep(60 if sys.argv[sys.argv.index('--node-id') + 1] == '0' else 0)",
)
CLOSES_ITS_PIPES_AND_SLEEPS = (
    sys.executable,
    "-c",
    "import os, time; os.close(1); os.close(2); time.sleep(60)",
)


class TestSpecValidation:
    def test_too_few_nodes(self):
        with pytest.raises(ConfigError):
            LaunchSpec(program=ECHO_ARGS, no_nodes=1, fl_srv_id=0, base_port=6000)

    def test_fl_srv_id_range(self):
        with pytest.raises(ConfigError):
            LaunchSpec(program=ECHO_ARGS, no_nodes=3, fl_srv_id=3, base_port=6000)

    def test_missing_program_fails_before_spawn(self, tmp_path):
        not_executable = tmp_path / "node.sh"
        not_executable.write_text("#!/bin/sh\necho started\n")
        not_executable.chmod(0o644)
        for program in ("/no/such/binary", str(not_executable)):
            spec = LaunchSpec(program=(program,), no_nodes=2, fl_srv_id=0, base_port=6000)
            with pytest.raises(LaunchError, match="failed to spawn node 0"):
                launch_all(spec)


class TestNodeArgv:
    def test_identity_flags_appended(self):
        spec = LaunchSpec(program=("prog", "--example", "2"), no_nodes=3, fl_srv_id=1,
                          base_port=7000)
        argv = node_argv(spec, 2)
        assert argv == ["prog", "--example", "2",
                        "--no-nodes", "3", "--node-id", "2",
                        "--fl-srv-id", "1", "--base-port", "7000"]

    def test_each_node_id_once(self):
        spec = LaunchSpec(program=ECHO_ARGS, no_nodes=4, fl_srv_id=0, base_port=7000)
        result = launch_all(spec)
        assert result.overall_success
        ids = []
        for o in result.per_node:
            parts = o.stdout.split()
            ids.append(parts[parts.index("--node-id") + 1])
        assert sorted(ids) == ["0", "1", "2", "3"]


@pytest.mark.parametrize("forked", [False, True])
def test_outcomes_name_pids_that_are_reaped(forked):
    program = _node_program(2) if forked else ECHO_ARGS
    spec = LaunchSpec(program=program, no_nodes=3, fl_srv_id=0, base_port=alloc_base_port(3),
                      per_node_timeout=30.0)
    result = launch_all(spec)
    assert result.overall_success
    pids = [o.pid for o in result.per_node]
    assert len(set(pids)) == 3 and all(pid > 0 for pid in pids)
    for pid in pids:  # reaped by the launcher, or by the zygote before it replied
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


class TestFederationLaunch:
    def test_example2_all_exit_zero(self):
        base = alloc_base_port(3)
        spec = LaunchSpec(program=_node_program(2), no_nodes=3, fl_srv_id=0, base_port=base,
                          per_node_timeout=30.0)
        result = launch_all(spec)
        assert result.overall_success
        assert [o.exit_code for o in result.per_node] == [0, 0, 0]
        assert "RESULT 0 [1.75]" in result.outcome(0).stdout
        assert "RESULT 1 [1.5]" in result.outcome(1).stdout
        assert "RESULT 2 [2]" in result.outcome(2).stdout

    def test_repeated_launches_are_identical(self):
        base = alloc_base_port(3)
        spec = LaunchSpec(program=_node_program(3), no_nodes=3, fl_srv_id=0, base_port=base,
                          per_node_timeout=30.0)
        first = launch_all(spec)
        second = launch_all(spec)
        assert first.overall_success and second.overall_success
        assert [o.stdout for o in first.per_node] == [o.stdout for o in second.per_node]

    def test_nonzero_exit_fails_overall(self):
        spec = LaunchSpec(program=EXIT_WITH_NODE_ID, no_nodes=3, fl_srv_id=0, base_port=7000)
        result = launch_all(spec)
        assert not result.overall_success
        assert [o.exit_code for o in result.per_node] == [0, 1, 2]


class TestTimeouts:
    def test_hung_nodes_are_terminated_within_grace(self):
        spec = LaunchSpec(program=SLEEP_FOREVER, no_nodes=2, fl_srv_id=0, base_port=7000,
                          per_node_timeout=1.0)
        started = time.monotonic()
        result = launch_all(spec)
        elapsed = time.monotonic() - started
        assert not result.overall_success
        assert all(o.timed_out for o in result.per_node)
        assert all(o.exit_code != 0 for o in result.per_node)
        assert elapsed < 1.0 + 2.0 + 3.0  # timeout + grace + spawn slack

    def test_single_hung_node_among_healthy_ones(self):
        spec = LaunchSpec(program=ONLY_NODE_1_HANGS, no_nodes=3, fl_srv_id=0, base_port=7000,
                          per_node_timeout=1.5)
        result = launch_all(spec)
        assert not result.overall_success
        assert [o.timed_out for o in result.per_node] == [False, True, False]
        assert result.outcome(0).exit_code == 0
        assert result.outcome(2).exit_code == 0
        assert "done 0" in result.outcome(0).stdout
        assert result.outcome(1).exit_code != 0

    def test_a_spawned_node_is_timed_to_its_own_end(self):
        # nodes 1 and 2 exit at once, while node 0 runs into the deadline
        spec = LaunchSpec(program=ONLY_NODE_0_HANGS, no_nodes=3, fl_srv_id=0, base_port=7000,
                          per_node_timeout=1.5)
        result = launch_all(spec)
        assert [o.timed_out for o in result.per_node] == [True, False, False]
        assert result.outcome(0).wall_time >= 1.5
        assert result.outcome(1).wall_time < 0.5 and result.outcome(2).wall_time < 0.5

    def test_a_spawned_node_that_closes_its_pipes_is_still_ended_by_the_deadline(self):
        spec = LaunchSpec(program=CLOSES_ITS_PIPES_AND_SLEEPS, no_nodes=2, fl_srv_id=0,
                          base_port=7000, per_node_timeout=1.0)
        started = time.monotonic()
        result = launch_all(spec)
        elapsed = time.monotonic() - started
        assert [o.timed_out for o in result.per_node] == [True, True]
        assert [o.exit_code for o in result.per_node] == [-signal.SIGTERM] * 2
        assert not result.overall_success
        assert elapsed < 1.0 + launcher.TERMINATION_GRACE

    def test_hung_forked_node_is_terminated_within_grace(self):
        # node 1 crashes after phase I; its peers would wait 30 s for its
        # phase II replies, far past the 1 s deadline
        run = example_run(3, 3, base_port=alloc_base_port(3), recv_timeout=30.0,
                          fault_node=1, after_phase="p1")
        started = time.monotonic()
        result = launch_federation(run, per_node_timeout=1.0)
        elapsed = time.monotonic() - started
        assert [o.timed_out for o in result.per_node] == [True, False, True]
        assert [o.exit_code for o in result.per_node] == [-signal.SIGTERM, 1, -signal.SIGTERM]
        assert "error:" in result.outcome(1).stderr
        # its pipes reach EOF when it exits: a sibling holding one open would
        # keep it from the launcher until the deadline
        assert result.outcome(1).wall_time < 0.5
        assert not result.overall_success
        assert elapsed < 1.0 + launcher.TERMINATION_GRACE


# A sitecustomize that makes every process started with it on its path record,
# when its program ends, what it loaded and who its parent is. The zygote
# leaves with os._exit, so only the nodes it forks write a record.
PROBE_SITE = """
import atexit, json, os, sys

_at_fork = set()  # sys.modules in a forked child, right after the fork

def _record():
    with open(f"/proc/{os.getppid()}/status") as f:
        threads = int(next(ln.split()[1] for ln in f if ln.startswith("Threads:")))
    with open(os.path.join(os.environ["NODE_PROBE_DIR"], f"{os.getpid()}.json"), "w") as f:
        json.dump({"pid": os.getpid(), "ppid": os.getppid(), "parent_threads": threads,
                   "node_id": int(sys.argv[sys.argv.index("--node-id") + 1]),
                   "modules": sorted(sys.modules),
                   "imported_after_fork": sorted(set(sys.modules) - _at_fork)}, f)

os.register_at_fork(after_in_child=lambda: _at_fork.update(sys.modules))
atexit.register(_record)
"""


@pytest.mark.skipif(not launcher._CAN_FORK, reason="node programs are spawned on this platform")
class TestForkedNodes:
    @pytest.fixture
    def probe(self, tmp_path, monkeypatch):
        """Launches a Run with probed nodes; returns the launch's node records."""
        site, records = tmp_path / "site", tmp_path / "records"
        site.mkdir()
        records.mkdir()
        (site / "sitecustomize.py").write_text(PROBE_SITE)
        monkeypatch.setenv("PYTHONPATH", os.pathsep.join([str(site), os.environ["PYTHONPATH"]]))
        monkeypatch.setenv("NODE_PROBE_DIR", str(records))

        def launch(run):
            result = launch_federation(run)
            assert result.overall_success
            paths = sorted(records.iterdir())
            found = [json.loads(p.read_text()) for p in paths]
            for p in paths:
                p.unlink()
            # each node's outcome names the pid that wrote its record
            assert sorted((r["node_id"], r["pid"]) for r in found) == [
                (o.node_id, o.pid) for o in result.per_node]
            return found
        return launch

    @pytest.fixture
    def probed_launch(self, probe):
        """Records of the nodes of one launch of example 2."""
        return probe(example_run(2, 3, base_port=alloc_base_port(3)))

    def test_nodes_are_forked_by_a_one_thread_zygote(self, probed_launch):
        assert len(probed_launch) == 3
        (zygote,) = {record["ppid"] for record in probed_launch}
        assert zygote in zygote_family(os.getpid())
        assert all(record["parent_threads"] == 1 for record in probed_launch)

    def test_forked_node_loads_only_the_node_library(self, probed_launch):
        # the forked counterpart of test_node_process_loads_only_the_node_library
        for record in probed_launch:
            assert {"fltestbed.harness", "fltestbed.launcher", "subprocess"}.isdisjoint(
                record["modules"])
            assert "fltestbed.cli" in record["modules"]

    def test_forked_node_imports_nothing_after_the_fork(self, probe):
        # the zygote has built cli's parser, and a connect makes no name lookup
        for run in (example_run(2, 3, base_port=alloc_base_port(3)),
                    example_run(3, 4, seed=1, base_port=alloc_base_port(4))):
            records = probe(run)
            assert len(records) == run.no_nodes
            for record in records:
                assert record["imported_after_fork"] == []

    @pytest.mark.parametrize("flags", [
        ("--example", "2"),
        ("--example", "3", "--seed", "4", "--iters", "2"),
        ("--example", "2", "--iters", "0"),  # a bad run: one `error:` line, exit 1
        ("--example", "9"),  # argparse: usage on stderr, exit 2
        ("--help",),  # usage on stdout, exit 0
    ])
    def test_forked_node_gives_what_a_spawned_one_gives(self, flags, monkeypatch):
        # `-m fltestbed.__main__` runs the same node program in a fresh interpreter.
        # Without PYTHONUNBUFFERED, text the zygote left in a stdio buffer would
        # be written again by every node forked after it.
        for unbuffered in (True, False):
            if unbuffered:
                monkeypatch.setenv("PYTHONUNBUFFERED", "1")
            else:
                monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
            outcomes = []
            for module in ("fltestbed", "fltestbed.__main__"):
                spec = LaunchSpec((sys.executable, "-m", module, "node", *flags), no_nodes=3,
                                  fl_srv_id=0, base_port=alloc_base_port(3),
                                  per_node_timeout=30.0)
                outcomes.append([(o.exit_code, o.stdout, o.stderr, o.timed_out)
                                 for o in launch_all(spec).per_node])
            assert outcomes[0] == outcomes[1], f"PYTHONUNBUFFERED set: {unbuffered}"
            assert outcomes[0][0][1] or outcomes[0][0][2]

    def test_each_of_32_forked_nodes_writes_to_its_own_pipes(self, tmp_path, monkeypatch):
        # the launch's 96 fds travel in requests sent back to back, and every
        # node holds all of them between its fork and its first steps
        site = tmp_path / "site"
        site.mkdir()
        (site / "sitecustomize.py").write_text(
            "import atexit, sys\n"
            "atexit.register(lambda: print('exit', sys.argv[sys.argv.index('--node-id') + 1],"
            " file=sys.stderr))\n")
        monkeypatch.setenv("PYTHONPATH", os.pathsep.join([str(site), os.environ["PYTHONPATH"]]))
        result = launch_federation(example_run(2, 32, seed=1, base_port=alloc_base_port(32)))
        assert result.overall_success
        for o in result.per_node:
            assert o.stdout.startswith(f"RESULT {o.node_id} ") and o.stdout.count("\n") == 1
            assert o.stderr == f"exit {o.node_id}\n"

    def test_one_warm_zygote_follows_the_environment(self, monkeypatch):
        def launch():
            assert launch_federation(example_run(2, 3, base_port=alloc_base_port(3))).overall_success
            return zygote_family(os.getpid())

        first = launch()
        assert len(first) == 1  # the nodes have exited; the zygote stays warm
        assert launch() == first
        monkeypatch.setenv("FLTESTBED_PROBE", "1")
        second = launch()
        assert len(second) == 1 and second != first

    def test_no_zygote_or_node_outlives_its_launcher(self):
        def verify(*flags):
            return subprocess.Popen(
                [sys.executable, "-m", "fltestbed", "verify", "--mode", "proc",
                 "--base-port", str(alloc_base_port(3)), *flags],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)

        done = verify("--example", "2")
        assert done.communicate(timeout=60)[0]
        assert done.returncode == 0
        assert zygote_family(done.pid) == set()

        # its surviving nodes wait 30 s for the crashed node 1
        killed = verify("--example", "3", "--kill-node", "1", "--after-phase", "p1",
                        "--recv-timeout", "30")
        try:
            deadline = time.monotonic() + 30
            while len(zygote_family(killed.pid)) < 3:  # the zygote and nodes 0 and 2
                assert time.monotonic() < deadline and killed.poll() is None
                time.sleep(0.05)
        finally:
            killed.kill()
            killed.communicate()
        deadline = time.monotonic() + 10
        while zygote_family(killed.pid):
            assert time.monotonic() < deadline, zygote_family(killed.pid)
            time.sleep(0.05)


def test_every_node_reads_dev_null_not_the_launchers_stdin():
    # the launcher's stdin is a pipe that holds data and stays open
    program = (
        "import sys\n"
        "from fltestbed.launcher import LaunchSpec, launch_all\n"
        "read = (sys.executable, '-c', 'import sys; print(repr(sys.stdin.read()))')\n"
        "result = launch_all(LaunchSpec(read, no_nodes=2, fl_srv_id=0, base_port=7000,\n"
        "                               per_node_timeout=3.0))\n"
        "print([(o.stdout, o.timed_out) for o in result.per_node])\n")
    with subprocess.Popen([sys.executable, "-c", program], stdin=subprocess.PIPE,
                          stdout=subprocess.PIPE, text=True) as proc:
        proc.stdin.write("typed\n")
        proc.stdin.flush()
        out = proc.stdout.read()
    assert out == "[(\"''\\n\", False), (\"''\\n\", False)]\n"


def test_output_is_decoded_as_popen_text_mode_decodes_it():
    # what a forked node's pipes carry is decoded by the launcher itself
    data = b"RESULT 0 [1]\r\nnext\rlast\r\r\n\n" + "\u00e9\u00df".encode(
        locale.getpreferredencoding(False), "replace") + b"\r"
    write = "import sys; sys.stdout.buffer.write(bytes.fromhex(sys.argv[1]))"
    popen = subprocess.run([sys.executable, "-c", write, data.hex()], capture_output=True,
                           text=True, timeout=60)
    assert launcher._text(data) == popen.stdout
