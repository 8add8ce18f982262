import json
import os
import socket
import sys

import pytest

from fltestbed import cli, launcher, zygote
from fltestbed.examples import example_run
from fltestbed.harness import launch_federation
from fltestbed.launcher import LaunchSpec, launch_all, node_argv

from conftest import alloc_base_port, zygote_family

pytestmark = pytest.mark.skipif(not launcher._CAN_FORK,
                                reason="node programs are spawned on this platform")

def _requests(spec: LaunchSpec):
    """What the launcher sends the zygote for `spec`, with stand-ins for each node's two fds."""
    for node_id in range(spec.no_nodes):
        yield b"run", json.dumps(node_argv(spec, node_id)[3:]).encode("ascii"), [-1, -2]
    yield b"wait", b"30.0 2.0", []


def test_a_reused_prepare_is_what_prepare_gives_with_its_own_listener(monkeypatch):
    spec = LaunchSpec((sys.executable, "-m", "fltestbed", "node", "--example", "3", "--seed", "4"),
                      no_nodes=3, fl_srv_id=0, base_port=alloc_base_port(3))
    calls = []
    prepare = cli.prepare
    monkeypatch.setattr(cli, "prepare", lambda argv: calls.append(argv) or prepare(argv))
    batch, seconds, grace = zygote._launch(_requests(spec))
    monkeypatch.undo()
    try:
        assert calls == [node_argv(spec, 0)[3:]]  # once per launch
        assert (seconds, grace) == (30.0, 2.0)
        for node_id, (argv, p, own) in enumerate(batch):
            assert argv == node_argv(spec, node_id)[3:]
            assert {**vars(p), "listener": None} == vars(cli.prepare(argv))
            assert p.run is batch[0][1].run  # built once for the launch
            assert p.listener.getsockname() == ("127.0.0.1", spec.base_port + node_id)
            assert own == [-1, -2, p.listener.fileno()]
    finally:
        for _, p, _ in batch:
            p.listener.close()


def test_a_held_port_leaves_only_its_own_node_unprepared():
    spec = LaunchSpec((sys.executable, "-m", "fltestbed", "node", "--example", "2"),
                      no_nodes=3, fl_srv_id=0, base_port=alloc_base_port(3))
    with socket.socket() as held:
        held.bind(("127.0.0.1", spec.base_port + 1))
        batch, _, _ = zygote._launch(_requests(spec))
    try:
        assert batch[1][1:] == (None, [-1, -2])  # it runs all of cli.main after the fork
        for node_id in (0, 2):
            listener = batch[node_id][1].listener
            assert listener.getsockname() == ("127.0.0.1", spec.base_port + node_id)
            with socket.create_connection(listener.getsockname(), timeout=5):
                pass  # listening
    finally:
        for node_id in (0, 2):
            batch[node_id][1].listener.close()


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
