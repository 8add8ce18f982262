"""Forks node processes from one warm interpreter for fltestbed.launcher.

`python -m fltestbed.zygote LAUNCHER_PID CTRL_FD` imports the node library
once, cli's parser built with it, runs a node's TCP code a few times
(_warm_up) so that a forked node inherits it quickened, then serves the Unix
socket CTRL_FD. A launch is every node's `run <json argv>`, each sent with the
node's three fds, then `wait <seconds> <grace>`. On `run` the zygote only
prepares the node (_prepare), binding its listener, so every port of a
launch is bound before any node of it runs. On `wait` it forks every
prepared node back to back and replies with their pids; a child runs its
command (_run) and leaves by os._exit, so it imports, parses and frees
nothing of the launch. No node of a launch is alive while the zygote
prepares it, so neither side copies a page for the other's writes; after
the last fork the zygote closes every listener, which would accept for a
crashed node. At the deadline the children still running get SIGTERM, then
SIGKILL after the grace period; once all are reaped the second reply is
[exit codes as Popen.returncode gives them, timed-out indices, [CPU seconds,
peak RSS in MB] per node from os.wait4].
No other thread runs here, so a fork copies none, and only this process
reaps or signals the children, so no signal reaches a reused pid. At EOF it
kills and reaps its children and leaves by os._exit, skipping its atexit
handlers, which the children run.
"""

import _signal
import argparse
import atexit
import contextlib
import io
import json
import os
import select
import signal
import socket
import sys
import time

from . import cli
from .errors import FlError, TransportError
from .examples import example_run
from .transport import Phase, TcpTransport, listen
from .values import dumps

_ARGV0 = os.path.join(os.path.dirname(cli.__file__), "__main__.py")  # every node's sys.argv[0]
_WARM_RUNS = 6  # 12 transports: CPython 3.11 quickens a function after 8 calls


def _node_id_only(argv: list[str], first: list[str]) -> int | None:
    """argv's node id if its last --node-id value is all it changes from `first`, else None."""
    diff = [k for k, (a, b) in enumerate(zip(argv, first)) if a != b]
    if (len(argv) != len(first) or len(diff) != 1 or first[diff[0] - 1] != "--node-id"
            or any(a.startswith("--node") for a in first[diff[0] + 1:])
            or not argv[diff[0]].removeprefix("-").isdecimal()):
        return None
    return int(argv[diff[0]])


def _prepare(argv: list[str], first: tuple | None) -> argparse.Namespace | None:
    """cli.prepare(argv) with its output discarded (None if it raised or exited), or a copy of
    `first`'s (its argv, prepared) if argv changes only its --node-id; with a node's listener
    bound, or the error binding raised, for the node to raise."""
    node_id = None if first is None or first[1] is None else _node_id_only(argv, first[0])
    if node_id is not None:
        prepared = argparse.Namespace(**{**vars(first[1]), "node_id": node_id})
    else:
        saved = sys.stdout, sys.stderr
        sys.stdout = sys.stderr = io.StringIO()  # text left buffered here would reach every fork
        try:
            prepared = cli.prepare(argv)
        except (Exception, SystemExit):
            return None
        finally:
            sys.stdout, sys.stderr = saved
    if prepared.func is cli.cmd_node:
        try:
            cfg = prepared.run.config(prepared.node_id)
            prepared.listener = listen(cfg.node_id, cfg.base_port + cfg.node_id, cfg.no_nodes)
        except FlError as e:
            prepared.listener = e
    return prepared


def _warm_up() -> None:
    """Run a node's TCP path _WARM_RUNS times below its messages: two transports, on a
    port the OS picks and the next, each write a frame to the other, accept and close.
    Nothing passes the engine or is filed, so what a forked node counts of its run
    (as perfbench's tracer, inherited like any module state, does) is its own."""
    for _ in range(_WARM_RUNS):
        with listen(0, 0, 2) as first, contextlib.suppress(TransportError), \
                listen(1, first.getsockname()[1] + 1, 2) as second:  # that port may be taken
            run = example_run(3, 2, seed=0, base_port=first.getsockname()[1], connect_timeout=1.0)
            nodes = [TcpTransport(run.config(i), s) for i, s in enumerate((first, second))]
            for i, node in enumerate(nodes):
                node._deliver(1 - i, Phase.DEC_P1, 0, dumps(run.node_data(i)[0]).encode("ascii"))
            for node in nodes:
                node._pump(0)  # accepts the other's connection; its frame stays unread
                node.close()


def _run(argv: list[str], prepared: argparse.Namespace | None, own: list, shared: list):
    """A forked node: keep only its `own` fds of `shared`, the first three as 0-2, and run."""
    signal.set_wakeup_fd(-1)
    _signal.signal(_signal.SIGCHLD, _signal.SIG_DFL)  # signal.signal's enum conversions write
    for fd in shared:
        if fd not in own:  # a sibling's pipe end held here would delay its EOF
            os.close(fd)
    for target, fd in enumerate(own[:3]):
        os.dup2(fd, target)
        os.close(fd)
    sys.argv = [_ARGV0, *argv]
    code = cli.main(argv, prepared)  # an exception or exit leaves by the interpreter's own way out
    # That way out copies every page it touches; atexit and stdio are all a node needs.
    atexit._run_exitfuncs()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


def _serve(ctrl: socket.socket) -> None:
    """Serve launches until EOF, then leave by os._exit; a forked node leaves by _run."""
    wake_r, wake_w = os.pipe()
    os.set_blocking(wake_w, False)
    signal.set_wakeup_fd(wake_w)
    signal.signal(signal.SIGCHLD, lambda *_: None)
    live: dict[int, int] = {}  # pid -> index in this launch, until reaped
    # (argv, prepared, its 3 fds and its listener's) per node of this launch;
    # kept until its nodes are reaped, so freeing it copies no page a node shares
    batch, listeners = [], []
    codes, hung, usage, buf, fds, pid = [], [], [], b"", [], None
    waiting, deadline, grace, sig = False, 0.0, 0.0, None  # sig: the next one the deadline sends
    try:
        while True:
            timeout = max(0.0, deadline - time.monotonic()) if sig else None
            ready = select.select([ctrl, wake_r], [], [], timeout)[0]
            if wake_r in ready:
                os.read(wake_r, 4096)
                while live and (reaped := os.wait4(-1, os.WNOHANG))[0]:
                    node, ru = live.pop(reaped[0]), reaped[2]
                    codes[node] = os.waitstatus_to_exitcode(reaped[1])
                    usage[node] = [ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024]
            if ctrl in ready:
                data, got, _, _ = socket.recv_fds(ctrl, 65536, 3)
                if not data:
                    return  # leaves through finally
                fds += got  # a run line's fds come with its bytes, so they queue in line order
                *lines, buf = (buf + data).split(b"\n")
                for line in lines:
                    cmd, _, arg = line.partition(b" ")
                    if cmd == b"run":
                        argv = json.loads(arg)
                        prepared = _prepare(argv, batch[0][:2] if batch else None)
                        own, fds = fds[:3], fds[3:]
                        if isinstance(listener := getattr(prepared, "listener", None), socket.socket):
                            listeners.append(listener)
                            own.append(listener.fileno())
                        batch.append((argv, prepared, own))
                        continue
                    seconds, grace = map(float, arg.split())
                    shared = [ctrl.fileno(), wake_r, wake_w, *(fd for *_, own in batch for fd in own)]
                    for argv, prepared, own in batch:
                        pid = os.fork()
                        if pid == 0:
                            _run(argv, prepared, own, shared)
                        live[pid] = len(codes)
                        codes.append(None)
                        usage.append(None)
                    for *_, own in batch:
                        for fd in own[:3]:
                            os.close(fd)
                    for listener in listeners:  # left open, it would accept for a crashed node
                        listener.close()
                    ctrl.sendall(json.dumps(list(live)).encode("ascii") + b"\n")  # in fork order
                    waiting, deadline, sig = True, time.monotonic() + seconds, signal.SIGTERM
            if waiting and not live:
                ctrl.sendall(json.dumps([codes, hung, usage]).encode("ascii") + b"\n")
                codes, hung, usage, batch, listeners, waiting, sig = [], [], [], [], [], False, None
            elif sig and time.monotonic() >= deadline:
                for target in live:
                    os.kill(target, sig)
                if sig == signal.SIGTERM:  # SIGKILL follows after the grace period
                    hung, deadline, sig = sorted(live.values()), time.monotonic() + grace, signal.SIGKILL
                else:
                    sig = None
    finally:
        if pid != 0:  # the zygote, at EOF or on an error
            for target in live:
                os.kill(target, signal.SIGKILL)
            for target in live:
                os.waitpid(target, 0)
            os._exit(0)


if __name__ == "__main__":
    with contextlib.suppress(Exception):  # a zygote that cannot warm up serves cold
        _warm_up()
    _serve(socket.socket(fileno=int(sys.argv[2])))
