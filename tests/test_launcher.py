import sys
import time

import pytest

from fltestbed.errors import ConfigError, LaunchError
from fltestbed.launcher import LaunchSpec, launch_all, node_argv

from conftest import alloc_base_port


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
