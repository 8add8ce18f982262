"""Runs one program as a set of independent node processes.

Every node gets the launch spec's fixed argument list plus its own identity
flags (--no-nodes, --node-id, --fl-srv-id, --base-port), reads /dev/null as
its stdin and writes to two pipes of its own. One loop serves every launch:
a selector drains all the pipes, a node's wall_time is the EOF of its last
pipe, and its output is decoded as Popen's text mode decodes it. Only how a
node starts and how it is ended differ. The node program
(`python -m fltestbed node ...`) is forked by a warm fltestbed.zygote, kept
while the interpreter, environment and working directory stay the same: the
launcher sends every node's request, with its two pipe ends, before it
reads a reply, and the zygote prepares the launch once, binds every node's
listener, forks them, ends them by the deadline and reports each node's
exit code, CPU time and peak RSS. Any other program, or any program where
os.fork or socket.send_fds is missing, is spawned afresh, and the launcher
ends it itself. Both enforce one shared deadline: survivors past it are
terminated (SIGTERM, then SIGKILL after a 2 s grace period), so a launch
always returns within per_node_timeout plus the grace window.
"""

from __future__ import annotations

import atexit
import json
import locale
import os
import selectors
import signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass

from .errors import ConfigError, LaunchError
from .transport import check_timeout

TERMINATION_GRACE = 2.0
_CAN_FORK = hasattr(os, "fork") and hasattr(socket, "send_fds")


@dataclass(frozen=True)
class LaunchSpec:
    program: tuple[str, ...]  # executable plus fixed arguments
    no_nodes: int
    fl_srv_id: int
    base_port: int
    per_node_timeout: float = 60.0

    def __post_init__(self):
        object.__setattr__(self, "program", tuple(self.program))
        if not self.program:
            raise ConfigError("program must name an executable")
        if self.no_nodes < 2:
            raise ConfigError(f"a federation needs at least 2 nodes, got {self.no_nodes}")
        if not (0 <= self.fl_srv_id < self.no_nodes):
            raise ConfigError(f"fl_srv_id {self.fl_srv_id} out of range [0, {self.no_nodes})")
        check_timeout("per_node_timeout", self.per_node_timeout)


@dataclass
class NodeOutcome:
    node_id: int
    exit_code: int | None
    stdout: str
    stderr: str
    wall_time: float
    timed_out: bool = False
    pid: int | None = None  # launch_all always sets it
    cpu_s: float | None = None  # user and system CPU time and peak RSS, from the
    max_rss_mb: float | None = None  # zygote's os.wait4: forked nodes only


@dataclass
class LaunchResult:
    per_node: list[NodeOutcome]
    overall_success: bool

    def outcome(self, node_id: int) -> NodeOutcome:
        return self.per_node[node_id]


def node_argv(spec: LaunchSpec, node_id: int) -> list[str]:
    """Full argument vector for one node process."""
    return list(spec.program) + [
        "--no-nodes", str(spec.no_nodes),
        "--node-id", str(node_id),
        "--fl-srv-id", str(spec.fl_srv_id),
        "--base-port", str(spec.base_port),
    ]


def launch_all(spec: LaunchSpec) -> LaunchResult:
    """Run the whole federation; returns per-node exit status and output.

    Timeouts are reported in the result (overall_success False), not raised;
    a node that cannot be started (say, a missing or non-executable program)
    raises LaunchError after the nodes already started are killed. Every
    node reads /dev/null and writes to two pipes of its own, which one
    reader drains; a node's wall_time is when its last pipe reached EOF,
    and its output is decoded as Popen's text mode decodes it.
    """
    started = time.monotonic()
    forked = _CAN_FORK and spec.program[:4] == (sys.executable, "-m", "fltestbed", "node")
    zygote = _Zygote.take() if forked else None
    output = [(bytearray(), bytearray()) for _ in range(spec.no_nodes)]
    ended = [0.0] * spec.no_nodes
    procs: list[subprocess.Popen] = []  # spawned nodes only
    sel = selectors.DefaultSelector()
    try:
        for node_id, (out, err) in enumerate(output):
            (r1, w1), (r2, w2) = os.pipe(), os.pipe()
            sel.register(r1, selectors.EVENT_READ, (node_id, out))
            sel.register(r2, selectors.EVENT_READ, (node_id, err))
            argv = node_argv(spec, node_id)
            try:
                if zygote:
                    line = b"run %s\n" % json.dumps(argv[3:]).encode("ascii")
                    socket.send_fds(zygote.sock, [line], [w1, w2])
                else:
                    procs.append(subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=w1,
                                                  stderr=w2))
            except OSError as e:
                raise LaunchError(f"failed to spawn node {node_id}: {e}") from e
            finally:
                os.close(w1)
                os.close(w2)
        deadline = started + spec.per_node_timeout
        # a spawned node's end: SIGTERM at the deadline, SIGKILL after the grace period
        steps, hung, poll = [signal.SIGTERM, signal.SIGKILL], [], 0.0005
        if zygote:  # it ends every node by the deadline plus the grace period
            left = max(0.0, deadline - time.monotonic())
            zygote.sock.sendall(b"wait %r %r\n" % (left, TERMINATION_GRACE))
            steps = []
        pids = zygote.reply() if zygote else [p.pid for p in procs]
        while sel.get_map() or (steps and any(p.poll() is None for p in procs)):
            timeout = max(0.0, deadline - time.monotonic()) if steps else None
            if not sel.get_map():  # a spawned node closed its pipes and runs on: poll its exit
                timeout, poll = min(timeout, poll), min(2 * poll, 0.05)
            for key, _ in sel.select(timeout):
                if chunk := os.read(key.fd, 65536):
                    key.data[1].extend(chunk)
                else:
                    sel.unregister(key.fd)
                    os.close(key.fd)
                    ended[key.data[0]] = time.monotonic() - started
            if steps and time.monotonic() >= deadline:
                sig, deadline = steps.pop(0), time.monotonic() + TERMINATION_GRACE
                running = [node_id for node_id, p in enumerate(procs) if p.poll() is None]
                for node_id in running:
                    procs[node_id].send_signal(sig)
                hung = running if sig == signal.SIGTERM else hung
        if zygote:
            codes, hung, usage = zygote.reply()
        else:
            codes, usage = [p.wait() for p in procs], [(None, None)] * spec.no_nodes
    except BaseException:
        if zygote:
            zygote.close()  # the zygote kills the nodes it forked
        for p in procs:
            p.kill()
            p.wait()
        raise
    finally:
        for key in list(sel.get_map().values()):
            os.close(key.fd)
        sel.close()
    if zygote:
        _Zygote.idle.append(zygote)
    per_node = [NodeOutcome(node_id, codes[node_id], _text(out), _text(err), ended[node_id],
                            node_id in hung, pids[node_id], *usage[node_id])
                for node_id, (out, err) in enumerate(output)]
    overall = not hung and all(o.exit_code == 0 for o in per_node)
    return LaunchResult(per_node=per_node, overall_success=overall)


def _text(data: bytes) -> str:
    """Locale encoding and universal newlines, as in Popen's text mode."""
    return data.decode(locale.getpreferredencoding(False)).replace("\r\n", "\n").replace("\r", "\n")


class _Zygote:
    """The launcher's end of one warm fltestbed.zygote; that module has the protocol."""

    idle: list[_Zygote] = []  # warm between launches: one, unless launches overlap

    def __init__(self, key: tuple):
        self.key = key
        self.sock, theirs = socket.socketpair()
        self.replies = self.sock.makefile("rb")
        with theirs:  # its argv names this process, so a process listing shows whose it is
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "fltestbed.zygote", str(os.getpid()), str(theirs.fileno())],
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                pass_fds=(theirs.fileno(),),
            )

    @classmethod
    def take(cls) -> _Zygote:
        """The warm zygote if it was started under this interpreter, environment and directory."""
        key = (sys.executable, dict(os.environ), os.getcwd(), os.getpid())
        try:
            zygote = cls.idle.pop()
        except IndexError:
            return cls(key)
        if zygote.key == key and zygote.proc.poll() is None:
            return zygote
        zygote.close()
        return cls(key)

    def reply(self):
        line = self.replies.readline()
        if not line:
            raise LaunchError(f"node zygote (pid {self.proc.pid}) exited during a launch")
        return json.loads(line)

    def close(self) -> None:
        self.replies.close()
        self.sock.close()  # at EOF the zygote kills its nodes and exits
        self.proc.wait()


@atexit.register
def _close_idle() -> None:
    while _Zygote.idle:
        _Zygote.idle.pop().close()
