"""Forks node processes from one warm interpreter for fltestbed.launcher.

`python -m fltestbed.zygote LAUNCHER_PID CTRL_FD` imports the node library
once, cli's parser built with it, then serves the Unix socket CTRL_FD.
`run <json argv>`, sent with three fds, forks a child that makes them its
fds 0-2 and runs argv as `python -m fltestbed` would, on the inherited
parser and modules, so a node imports nothing after the fork; the reply
is its pid. `wait <seconds> <grace>` ends the launch: at the deadline the
children still running get SIGTERM, then SIGKILL after the grace period;
once all are reaped the reply is [exit codes as Popen.returncode gives
them, timed-out indices].
No other thread runs here, so a fork copies none, and only this process
reaps or signals the children, so no signal reaches a reused pid. At EOF
it kills and reaps its children and leaves by os._exit, skipping its
atexit handlers, which the children run.
"""

import atexit
import json
import os
import select
import signal
import socket
import sys
import time

from . import cli


def _serve(ctrl: socket.socket) -> list[str]:
    """Serve launches until EOF; returns only in a forked child, with its argv."""
    wake_r, wake_w = os.pipe()
    os.set_blocking(wake_w, False)
    signal.set_wakeup_fd(wake_w)
    signal.signal(signal.SIGCHLD, lambda *_: None)
    live: dict[int, int] = {}  # pid -> index in this launch, until reaped
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
                    return []  # leaves through finally
                fds += got
                *lines, buf = (buf + data).split(b"\n")
                for line in lines:
                    cmd, _, arg = line.partition(b" ")
                    if cmd == b"wait":
                        seconds, grace = map(float, arg.split())
                        waiting, deadline, sig = True, time.monotonic() + seconds, signal.SIGTERM
                        continue
                    pid = os.fork()
                    if pid == 0:
                        ctrl.close()
                        os.close(wake_r)
                        os.close(wake_w)
                        signal.set_wakeup_fd(-1)
                        signal.signal(signal.SIGCHLD, signal.SIG_DFL)
                        for target, fd in enumerate(fds[:3]):
                            os.dup2(fd, target)
                            os.close(fd)
                        return json.loads(arg)
                    for fd in fds[:3]:
                        os.close(fd)
                    del fds[:3]
                    live[pid] = len(codes)
                    codes.append(None)
                    ctrl.sendall(b"%d\n" % pid)
            if waiting and not live:
                ctrl.sendall(json.dumps([codes, hung]).encode("ascii") + b"\n")
                codes, hung, waiting, sig = [], [], False, None
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
    argv = _serve(socket.socket(fileno=int(sys.argv[2])))
    sys.argv = [os.path.join(os.path.dirname(cli.__file__), "__main__.py"), *argv]
    code = cli.main()  # an exception or exit leaves by the interpreter's own way out
    # That way out touches, and so copies, every page the child shares with
    # the zygote: it doubled a node's exit time. atexit handlers and stdio
    # are all of it that a node needs.
    atexit._run_exitfuncs()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)
