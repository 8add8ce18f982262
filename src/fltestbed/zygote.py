"""Forks node processes from one warm interpreter for fltestbed.launcher.

`python -m fltestbed.zygote LAUNCHER_PID CTRL_FD` imports the node library
once, cli's parser built with it, runs a node's TCP code a few times
(_warm_up) so that a forked node inherits it quickened, then serves the Unix
socket CTRL_FD, one launch at a time. A launch is every node's
`run <json argv>` in node order, each sent with the node's stdout and stderr
fds, then `wait <seconds> <grace>`. The argvs of a launch differ only in
--node-id, so the zygote prepares the first one with cli.prepare, once, and
gives each node a copy of it with its own node_id and its listener bound as
its `run` arrives: every port of a launch is bound before any node of it
runs. A node gets no copy (None) if its port cannot be bound or the first
prepare raised or exited; it runs all of cli.main after the fork, as a
spawned node does. On `wait` the zygote forks every node back to back and
replies with their pids; a child runs its command (_run) and leaves by
os._exit, so it parses and frees nothing of the launch, and its stdin is the
zygote's own /dev/null. No node of a launch is alive while the zygote
prepares it, so neither side copies a page for the other's writes; after
the last fork the zygote closes every listener, which would accept for a
crashed node. It then reaps the launch: at the deadline the children still
running get SIGTERM, then SIGKILL after the grace period; once all are
reaped the second reply is [exit codes as Popen.returncode gives them,
timed-out indices, [CPU seconds, peak RSS in MB] per node from os.wait4].
No other thread runs here, so a fork copies none, and only this process
reaps or signals the children, so no signal reaches a reused pid. At EOF,
also while it reaps, it kills and reaps its children and leaves by
os._exit, skipping its atexit handlers, which the children run.
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
from .errors import TransportError
from .examples import example_run
from .transport import Phase, TcpTransport, listen
from .values import dumps

_ARGV0 = os.path.join(os.path.dirname(cli.__file__), "__main__.py")  # every node's sys.argv[0]
_WARM_RUNS = 6  # 12 transports: CPython 3.11 quickens a function after 8 calls


def _prepare(argv: list[str]) -> argparse.Namespace | None:
    """cli.prepare(argv) with its output discarded; None if it raised or exited."""
    saved = sys.stdout, sys.stderr
    sys.stdout = sys.stderr = io.StringIO()  # text left buffered here would reach every fork
    try:
        return cli.prepare(argv)
    except (Exception, SystemExit):
        return None
    finally:
        sys.stdout, sys.stderr = saved


def _for_node(first: argparse.Namespace | None, node_id: int) -> argparse.Namespace | None:
    """A copy of the launch's prepared `first` for node `node_id`, with the node's listener
    bound; None if there is no `first` or the port cannot be bound."""
    if first is None:
        return None
    cfg = first.run.config(node_id)
    try:
        listener = listen(node_id, cfg.base_port + node_id, cfg.no_nodes)
    except TransportError:
        return None
    return argparse.Namespace(**{**vars(first), "node_id": node_id, "listener": listener})


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
    """A forked node: keep only its `own` fds of `shared`, the first two as 1 and 2, and run."""
    signal.set_wakeup_fd(-1)
    _signal.signal(_signal.SIGCHLD, _signal.SIG_DFL)  # signal.signal's enum conversions write
    for fd in shared:
        if fd not in own:  # a sibling's pipe end held here would delay its EOF
            os.close(fd)
    for target, fd in enumerate(own[:2], 1):
        os.dup2(fd, target)
        os.close(fd)
    sys.argv = [_ARGV0, *argv]
    code = cli.main(argv, prepared)  # an exception or exit leaves by the interpreter's own way out
    # That way out copies every page it touches; atexit and stdio are all a node needs.
    atexit._run_exitfuncs()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


def _requests(ctrl: socket.socket):
    """The launcher's requests as (command, argument, the fds sent with a `run`), until EOF."""
    buf, fds = b"", []
    while True:
        data, got, _, _ = socket.recv_fds(ctrl, 65536, 2)
        if not data:
            return
        fds += got  # a run line's fds come with its bytes, so they queue in line order
        *lines, buf = (buf + data).split(b"\n")
        for line in lines:
            cmd, _, arg = line.partition(b" ")
            own, fds = (fds[:2], fds[2:]) if cmd == b"run" else ([], fds)
            yield cmd, arg, own


def _launch(requests) -> tuple[list, float, float] | None:
    """The next launch of `requests`, read up to its `wait`: (argv, prepared, its 2 fds and its
    listener's) per node in node order, the seconds to its deadline and the grace period; None at
    EOF. Each node is prepared as its `run` arrives, from one cli.prepare per launch."""
    batch = []
    for cmd, arg, own in requests:
        if cmd != b"run":
            seconds, grace = map(float, arg.split())
            return batch, seconds, grace
        argv = json.loads(arg)
        if not batch:
            first = _prepare(argv)
        if prepared := _for_node(first, len(batch)):
            own.append(prepared.listener.fileno())
        batch.append((argv, prepared, own))
    return None


def _reap(live: dict, codes: list, usage: list, ctrl: socket.socket, wake_r: int,
          end: float | None = None) -> bool:
    """Reap the children of `live` (pid -> node) into `codes` and `usage` until none is left
    or `end` passes; True as soon as `ctrl` is readable, which before the reply is its EOF."""
    while live and (end is None or time.monotonic() < end):
        timeout = None if end is None else max(0.0, end - time.monotonic())
        ready = select.select([ctrl, wake_r], [], [], timeout)[0]
        if ctrl in ready:
            return True
        if wake_r in ready:
            os.read(wake_r, 4096)
            while live and (reaped := os.wait4(-1, os.WNOHANG))[0]:
                node, ru = live.pop(reaped[0]), reaped[2]
                codes[node] = os.waitstatus_to_exitcode(reaped[1])
                usage[node] = [ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024]
    return False


def _serve(ctrl: socket.socket) -> None:
    """Serve launches until EOF, then leave by os._exit; a forked node leaves by _run."""
    wake_r, wake_w = os.pipe()
    os.set_blocking(wake_w, False)
    signal.set_wakeup_fd(wake_w)
    signal.signal(signal.SIGCHLD, lambda *_: None)
    requests = _requests(ctrl)
    live: dict[int, int] = {}  # pid -> node of this launch, until reaped
    pid = None
    try:
        # a launch's batch is kept until its nodes are reaped, so freeing it copies no page a
        # node shares
        while launch := _launch(requests):
            batch, seconds, grace = launch
            shared = [ctrl.fileno(), wake_r, wake_w, *(fd for *_, own in batch for fd in own)]
            for node, (argv, prepared, own) in enumerate(batch):
                pid = os.fork()
                if pid == 0:
                    _run(argv, prepared, own, shared)
                live[pid] = node
            for _, prepared, own in batch:
                os.close(own[0])
                os.close(own[1])
                if prepared:  # left open, it would accept for a crashed node
                    prepared.listener.close()
            ctrl.sendall(json.dumps(list(live)).encode("ascii") + b"\n")  # in fork order
            codes, hung, usage = [None] * len(batch), [], [None] * len(batch)
            for sig, after in ((signal.SIGTERM, seconds), (signal.SIGKILL, grace)):
                if _reap(live, codes, usage, ctrl, wake_r, time.monotonic() + after):
                    return
                if sig == signal.SIGTERM:
                    hung = sorted(live.values())
                for target in live:
                    os.kill(target, sig)
            if _reap(live, codes, usage, ctrl, wake_r):  # the SIGKILLed ones
                return
            ctrl.sendall(json.dumps([codes, hung, usage]).encode("ascii") + b"\n")
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
