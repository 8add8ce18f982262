import json
import os
import socket
import sys

import pytest

from fltestbed import cli, launcher, zygote
from fltestbed.errors import TransportError
from fltestbed.examples import example_run
from fltestbed.harness import launch_federation
from fltestbed.launcher import LaunchSpec, launch_all, node_argv

from conftest import alloc_base_port, zygote_family

pytestmark = pytest.mark.skipif(not launcher._CAN_FORK,
                                reason="node programs are spawned on this platform")

FIRST = ["node", "--example", "2", "--no-nodes", "3", "--node-id", "0", "--base-port", "6000"]


@pytest.mark.parametrize("argv, node_id", [
    (["node", "--example", "2", "--no-nodes", "3", "--node-id", "2", "--base-port", "6000"], 2),
    (["node", "--example", "2", "--no-nodes", "3", "--node-id", "-1", "--base-port", "6000"], -1),
    (["node", "--example", "2", "--no-nodes", "3", "--node-id", "07", "--base-port", "6000"], 7),
    # anything else is prepared on its own
    (FIRST, None),
    (["node", "--example", "3", "--no-nodes", "3", "--node-id", "1", "--base-port", "6000"], None),
    (["node", "--example", "2", "--no-nodes", "3", "--node-id", "1", "--base-port", "6001"], None),
    (["node", "--example", "2", "--no-nodes", "3", "--node-id", "x", "--base-port", "6000"], None),
    (["node", "--example", "2", "--no-nodes", "3", "--node-id", "1.0", "--base-port", "6000"], None),
    (["node", "--example", "2", "--no-nodes", "3", "--node-id", "1"], None),
])
def test_only_a_changed_node_id_value_reuses_the_first_prepare(argv, node_id):
    assert zygote._node_id_only(argv, FIRST) == node_id


def test_a_later_node_id_flag_is_not_reused():
    # argparse takes the last value: a flag after the changed one would win
    first = FIRST + ["--node-id", "0"]
    argv = ["node", "--example", "2", "--no-nodes", "3", "--node-id", "1", "--base-port", "6000",
            "--node-id", "0"]
    assert zygote._node_id_only(argv, first) is None
    assert zygote._node_id_only(FIRST + ["--node-id", "1"], first) == 1
    # nor an abbreviated flag
    assert zygote._node_id_only(FIRST + ["--node", "1"], FIRST + ["--node", "0"]) is None


def test_a_reused_prepare_is_what_prepare_gives_with_its_own_listener():
    spec = LaunchSpec((sys.executable, "-m", "fltestbed", "node", "--example", "3", "--seed", "4"),
                      no_nodes=3, fl_srv_id=0, base_port=alloc_base_port(3))
    argvs = [node_argv(spec, i)[3:] for i in range(3)]
    first = zygote._prepare(argvs[0], None)
    prepared = [first] + [zygote._prepare(argv, (argvs[0], first)) for argv in argvs[1:]]
    try:
        for node_id, (argv, p) in enumerate(zip(argvs, prepared)):
            fresh = cli.prepare(argv)
            assert {**vars(p), "listener": None} == vars(fresh)
            assert p.run is first.run  # built once for the launch
            assert p.listener.getsockname() == ("127.0.0.1", spec.base_port + node_id)
    finally:
        for p in prepared:
            p.listener.close()


def test_a_port_that_cannot_be_bound_is_kept_for_the_node_to_raise():
    base = alloc_base_port(3)
    argv = node_argv(LaunchSpec((sys.executable, "-m", "fltestbed", "node", "--example", "2"),
                                no_nodes=3, fl_srv_id=0, base_port=base), 1)[3:]
    with socket.socket() as held:
        held.bind(("127.0.0.1", base + 1))
        prepared = zygote._prepare(argv, None)
    assert isinstance(prepared.listener, TransportError)
    assert str(prepared.listener).startswith(f"node 1 cannot bind port {base + 1}: ")


# A sitecustomize for the zygote: after each fork, the child records the
# ports that are listening on 127.0.0.1 at that moment.
LISTEN_PROBE_SITE = """
import json, os

def _record():
    with open("/proc/net/tcp") as f:
        next(f)
        rows = [line.split() for line in f]
    ports = sorted({int(r[1].split(":")[1], 16) for r in rows if r[3] == "0A"})
    with open(os.path.join(os.environ["LISTEN_PROBE_DIR"], f"{os.getpid()}.json"), "w") as f:
        json.dump(ports, f)

os.register_at_fork(after_in_child=_record)
"""


@pytest.mark.skipif(not os.path.exists("/proc/net/tcp"), reason="reads /proc/net/tcp")
def test_every_port_of_a_forked_launch_is_bound_when_its_first_node_starts(tmp_path, monkeypatch):
    site, records = tmp_path / "site", tmp_path / "records"
    site.mkdir()
    records.mkdir()
    (site / "sitecustomize.py").write_text(LISTEN_PROBE_SITE)
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join([str(site), os.environ["PYTHONPATH"]]))
    monkeypatch.setenv("LISTEN_PROBE_DIR", str(records))
    run = example_run(3, 8, seed=1, base_port=alloc_base_port(8))
    result = launch_federation(run)
    assert result.overall_success
    found = {int(p.stem): set(json.loads(p.read_text())) for p in records.iterdir()}
    assert sorted(found) == sorted(o.pid for o in result.per_node)
    first = result.per_node[0].pid  # the zygote forks in node order
    assert set(range(run.base_port, run.base_port + 8)) <= found[first]


def test_a_held_port_fails_its_forked_node_as_it_fails_a_spawned_one():
    # node 2 cannot bind; the server's broadcast to it is refused until the
    # connect timeout, and node 1 finishes
    base = alloc_base_port(3)
    outcomes = []
    with socket.socket() as held:
        held.bind(("127.0.0.1", base + 2))
        for module in ("fltestbed", "fltestbed.__main__"):  # forked, then spawned
            spec = LaunchSpec((sys.executable, "-m", module, "node", "--example", "2",
                               "--connect-timeout", "1"),
                              no_nodes=3, fl_srv_id=0, base_port=base, per_node_timeout=30.0)
            outcomes.append([(o.exit_code, o.stdout, o.stderr) for o in launch_all(spec).per_node])
    assert outcomes[0] == outcomes[1]
    code, stdout, stderr = outcomes[0][2]
    assert (code, stdout) == (1, "")
    assert stderr.startswith(f"error: node 2 cannot bind port {base + 2}: ")
    assert stderr.count("\n") == 1
    assert [o[0] for o in outcomes[0]] == [1, 0, 1]


@pytest.mark.parametrize("forked", [True, False])
def test_forked_outcomes_carry_cpu_time_and_peak_rss(forked):
    if forked:
        result = launch_federation(example_run(3, 3, base_port=alloc_base_port(3)))
    else:
        result = launch_all(LaunchSpec((sys.executable, "-c", "pass"), no_nodes=2, fl_srv_id=0,
                                       base_port=alloc_base_port(2)))
    assert result.overall_success
    for o in result.per_node:
        if forked:
            assert 0 < o.cpu_s < 5 and 1 < o.max_rss_mb < 1000
        else:
            assert o.cpu_s is None and o.max_rss_mb is None


# Makes the zygote's warm-up fail at its first listener, and says so in a file.
FAILING_WARM_UP_SITE = """
import os
from fltestbed import transport

_listen = transport.listen

def listen(node_id, port, backlog):
    if port == 0:
        open(os.environ["WARM_UP_FAILED"], "w").close()
        raise OSError("no warm-up")
    return _listen(node_id, port, backlog)

transport.listen = listen
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="reads /proc")
@pytest.mark.parametrize("warm_up_fails", [False, True])
def test_a_serving_zygote_has_one_thread_and_no_inet_socket(warm_up_fails, tmp_path,
                                                            monkeypatch):
    if warm_up_fails:
        site = tmp_path / "site"
        site.mkdir()
        (site / "sitecustomize.py").write_text(FAILING_WARM_UP_SITE)
        monkeypatch.setenv("PYTHONPATH", os.pathsep.join([str(site), os.environ["PYTHONPATH"]]))
        monkeypatch.setenv("WARM_UP_FAILED", str(tmp_path / "failed"))
    run = example_run(2, 3, base_port=alloc_base_port(3))
    result = launch_federation(run)
    assert result.overall_success
    assert [o.stdout for o in result.per_node] == [
        "RESULT 0 [1.75]\n", "RESULT 1 [1.5]\n", "RESULT 2 [2]\n"]
    assert (tmp_path / "failed").exists() == warm_up_fails
    (pid,) = zygote_family(os.getpid())  # its nodes have exited
    with open(f"/proc/{pid}/status") as f:
        assert "Threads:\t1\n" in f.read()
    sockets = {os.readlink(f"/proc/{pid}/fd/{fd}") for fd in os.listdir(f"/proc/{pid}/fd")}
    sockets = {link[len("socket:["):-1] for link in sockets if link.startswith("socket:[")}
    inet = set()
    for table in ("tcp", "tcp6", "udp", "udp6"):
        try:
            with open(f"/proc/{pid}/net/{table}") as f:
                next(f)
                inet |= {line.split()[9] for line in f}
        except FileNotFoundError:
            continue
    assert sockets and not sockets & inet  # the control socket is a Unix one
