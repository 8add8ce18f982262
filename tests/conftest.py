import itertools
import os
import socket
import sys

import pytest

# Test this checkout's sources, also in the node processes the tests spawn,
# whatever else is installed.
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))

_next_slot = itertools.count()
# Ports handed out stay below Linux's default ephemeral range (32768-60999):
# the outbound sockets of a federation take ephemeral ports, and one that
# lands on a port a later node must bind makes that node fail to start.
_PORT_START, _PORT_END = 20000, 32768


def _range_free(base: int, count: int) -> bool:
    socks = []
    try:
        for port in range(base, base + count):
            s = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            s.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            s.bind(("127.0.0.1", port))
            socks.append(s)
        return True
    except OSError:
        return False
    finally:
        for s in socks:
            s.close()


def alloc_base_port(count: int = 16) -> int:
    """A base port whose following `count` ports are currently free.

    Each call hands out a fresh slot so parallel federations in one test
    session never collide; the pid offset keeps repeated sessions apart.
    """
    span = _PORT_END - _PORT_START - count
    start = (os.getpid() % 400) * 64
    for _ in range(2000):
        base = _PORT_START + (start + next(_next_slot) * 16) % span
        if _range_free(base, count):
            return base
    raise RuntimeError("no free port range found")


@pytest.fixture
def base_port() -> int:
    return alloc_base_port()


@pytest.fixture(autouse=True)
def no_engine_run_left_behind():
    """Fail a test that leaves an engine run registered or moves the test thread's CPUs."""
    from fltestbed import engine

    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    yield
    assert engine._run_threads == {}, "an engine run is still registered after the test"
    if cpus is not None:
        assert os.sched_getaffinity(0) == cpus, "the test thread's CPU set changed"
