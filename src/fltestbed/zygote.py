"""Forks node processes from one warm interpreter for fltestbed.launcher.

`python -m fltestbed.zygote LAUNCHER_PID CTRL_FD` imports the node library
once, cli's parser built with it, then serves the Unix socket CTRL_FD. A
launch is every node's `run <json argv>`, each sent with the node's three
fds, then `wait <seconds> <grace>`. On `run` the zygote only prepares the
node: cli.prepare parses argv and builds its run, with whatever that prints
discarded. On `wait` it forks every prepared node back to back and replies
with their pids; each child closes the other nodes' fds, makes its own its
fds 0-2 and runs the rest of cli.main on what was prepared, so a node
imports nothing and parses nothing after the fork. A node whose prepare
raised or exited runs all of cli.main on its argv instead, and so prints
what `python -m fltestbed` would. Preparing the whole launch before the
first fork means no node of it is alive while the zygote writes to its
pages, so neither side copies a page for the other's writes. At the
deadline the children still running get SIGTERM, then SIGKILL after the
grace period; once all are reaped the second reply is [exit codes as
Popen.returncode gives them, timed-out indices].
No other thread runs here, so a fork copies none, and only this process
reaps or signals the children, so no signal reaches a reused pid. At EOF
it kills and reaps its children and leaves by os._exit, skipping its
atexit handlers, which the children run.
"""

import argparse
import atexit
import io
import json
import os
import select
import signal
import socket
import sys
import time

from . import cli


def _prepare(argv: list[str]) -> argparse.Namespace | None:
    """cli.prepare(argv) with its output discarded, or None if it raised or exited."""
    saved = sys.stdout, sys.stderr
    sys.stdout = sys.stderr = io.StringIO()  # text left in a buffer here would reach every later fork
    try:
        return cli.prepare(argv)
    except (Exception, SystemExit):
        return None
    finally:
        sys.stdout, sys.stderr = saved


def _serve(ctrl: socket.socket) -> tuple[list[str], argparse.Namespace | None]:
    """Serve launches until EOF; returns only in a forked child, with its argv and what
    _prepare made of it."""
    wake_r, wake_w = os.pipe()
    os.set_blocking(wake_w, False)
    signal.set_wakeup_fd(wake_w)
    signal.signal(signal.SIGCHLD, lambda *_: None)
    live: dict[int, int] = {}  # pid -> index in this launch, until reaped
    # (argv, prepared, its 3 fds) per node of this launch; kept until its
    # nodes are reaped, so freeing it copies no page a node shares
    batch = []
    codes, hung, buf, fds, pid = [], [], b"", [], None
    waiting, deadline, grace, sig = False, 0.0, 0.0, None  # sig: the next one the deadline sends
    try:
        while True:
            timeout = max(0.0, deadline - time.monotonic()) if sig else None
            ready = select.select([ctrl, wake_r], [], [], timeout)[0]
            if wake_r in ready:
                os.read(wake_r, 4096)
                while live and (reaped := os.waitpid(-1, os.WNOHANG))[0]:
                    codes[live.pop(reaped[0])] = os.waitstatus_to_exitcode(reaped[1])
            if ctrl in ready:
                data, got, _, _ = socket.recv_fds(ctrl, 65536, 3)
                if not data:
                    return [], None  # leaves through finally
                fds += got  # a run line's fds come with its bytes, so they queue in line order
                *lines, buf = (buf + data).split(b"\n")
                for line in lines:
                    cmd, _, arg = line.partition(b" ")
                    if cmd == b"run":
                        argv = json.loads(arg)
                        batch.append((argv, _prepare(argv), fds[:3]))
                        del fds[:3]
                        continue
                    seconds, grace = map(float, arg.split())
                    for argv, prepared, own in batch:
                        pid = os.fork()
                        if pid == 0:
                            ctrl.close()
                            os.close(wake_r)
                            os.close(wake_w)
                            signal.set_wakeup_fd(-1)
                            signal.signal(signal.SIGCHLD, signal.SIG_DFL)
                            for _, _, other in batch:  # a sibling's pipe end held here would delay its EOF
                                if other is not own:
                                    for fd in other:
                                        os.close(fd)
                            for target, fd in enumerate(own):
                                os.dup2(fd, target)
                                os.close(fd)
                            return argv, prepared
                        live[pid] = len(codes)
                        codes.append(None)
                    for _, _, own in batch:
                        for fd in own:
                            os.close(fd)
                    ctrl.sendall(json.dumps(list(live)).encode("ascii") + b"\n")  # in fork order
                    waiting, deadline, sig = True, time.monotonic() + seconds, signal.SIGTERM
            if waiting and not live:
                ctrl.sendall(json.dumps([codes, hung]).encode("ascii") + b"\n")
                codes, hung, batch, waiting, sig = [], [], [], False, None
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
    argv, prepared = _serve(socket.socket(fileno=int(sys.argv[2])))
    sys.argv = [os.path.join(os.path.dirname(cli.__file__), "__main__.py"), *argv]
    code = cli.main(argv, prepared)  # an exception or exit leaves by the interpreter's own way out
    # That way out touches, and so copies, every page the child shares with
    # the zygote: it doubled a node's exit time. atexit handlers and stdio
    # are all of it that a node needs.
    atexit._run_exitfuncs()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)
