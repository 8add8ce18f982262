"""Aggregating span tracer that wraps fltestbed's layers from outside the package.

Every wrapped call is one span. A span records its wall time
(`time.perf_counter`) and its busy time (`time.thread_time`, the CPU time
of the calling thread). Wall time alone would mislead: node threads share
the interpreter lock, so their wall-time spans overlap and sum to several
times the run's wall time.

Spans are aggregated in memory per thread, with no lock on the hot path,
and merged when the benchmark asks for a snapshot. Per metric name the
tracer keeps [calls, wall_s, busy_s, self_busy_s, bytes]. Self busy time
is the span's busy time minus the busy time of the spans it directly
encloses on the same thread. A call nested inside a span of the same
metric is not counted again: `decode_frame` calls `decode_body`, and
only the outer call is a decode.

Names are wrapped where callers look them up. `values.validate_value`
recurses through its own module global, so wrapping it in `values` would
trace every tree node; the tracer wraps the name `transport.validate_value`
instead, which is one call per envelope check.
"""

from __future__ import annotations

import atexit
import dataclasses
import functools
import json
import os
import threading
import types
import weakref
from time import perf_counter, thread_time

CALLS, WALL, BUSY, SELF, BYTES = range(5)

# Metric name prefix -> layer in the busy-time split. Callback spans are
# recorded under engine.* (the engine invokes them) but are user code.
LAYERS = ("values", "transport", "engine", "callbacks", "harness", "launcher")


def layer_of(name: str) -> str:
    if name.endswith("_cb"):
        return "callbacks"
    return name.split(".", 1)[0]


class _ThreadState:
    def __init__(self):
        self.agg: dict[str, list] = {}
        self.stack: list[list[float]] = []  # child-busy accumulator per open span
        self.active: set[str] = set()
        # distinct payloads per (src, phase, iter), for the encode useful ratio
        self.enc_key = None
        self.enc_refs: list = []


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._first_seen: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self.first_sends: list[float] = []
        self.node_exit_max: list[float] = []
        self.threads_max = threading.active_count()
        self.epoch = 0  # bumped by the benchmark between engine calls

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = _ThreadState()
            with self._lock:
                self._states.append(st)
        return st

    def wrap(self, name, fn, *, sized=False):
        state = self._state

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = state()
            if name in st.active:
                return fn(*args, **kwargs)
            st.active.add(name)
            children = [0.0]
            st.stack.append(children)
            w0 = perf_counter()
            c0 = thread_time()
            try:
                out = fn(*args, **kwargs)
            finally:
                busy = thread_time() - c0
                wall = perf_counter() - w0
                st.stack.pop()
                st.active.discard(name)
                if st.stack:
                    st.stack[-1][0] += busy
                rec = st.agg.get(name)
                if rec is None:
                    rec = st.agg[name] = [0, 0.0, 0.0, 0.0, 0]
                rec[CALLS] += 1
                rec[WALL] += wall
                rec[BUSY] += busy
                rec[SELF] += busy - children[0]
            if sized:
                rec[BYTES] += len(out)
            return out

        return traced

    def count(self, name: str) -> None:
        rec = self._state().agg.setdefault(name, [0, 0.0, 0.0, 0.0, 0])
        rec[CALLS] += 1

    def _wrap_encode(self, fn):
        """encode_frame, also counting distinct payloads per (src, phase, iter)."""
        traced = self.wrap("transport.encode_frame", fn, sized=True)

        @functools.wraps(fn)
        def encode(env):
            st = self._state()
            key = (self.epoch, env.src, env.phase, env.iter)
            if key != st.enc_key:
                st.enc_key = key
                st.enc_refs = []
            if not any(p is env.payload for p in st.enc_refs):
                st.enc_refs.append(env.payload)
                self.count("transport.encode.distinct")
            return traced(env)

        return encode

    def _wrap_send(self, fn):
        """send, also timing the first send to each peer (lazy connect)."""
        traced = self.wrap("transport.send", fn)

        @functools.wraps(fn)
        def send(transport, env):
            with self._lock:
                seen = self._first_seen.setdefault(transport, set())
                first = env.dst not in seen
                seen.add(env.dst)
            if not first:
                return traced(transport, env)
            t0 = perf_counter()
            try:
                return traced(transport, env)
            finally:
                dt = perf_counter() - t0
                with self._lock:
                    self.first_sends.append(dt)

        return send

    def _wrap_recv(self, fn):
        traced = self.wrap("transport.recv", fn)

        @functools.wraps(fn)
        def recv(*args, **kwargs):
            n = threading.active_count()
            if n > self.threads_max:
                self.threads_max = n
            return traced(*args, **kwargs)

        return recv

    def _wrap_launch(self, fn):
        """launch_all, also keeping the slowest node's exit time per launch."""
        traced = self.wrap("launcher.launch_all", fn)

        @functools.wraps(fn)
        def launch_all(spec):
            result = traced(spec)
            with self._lock:
                self.node_exit_max.append(max(o.wall_time for o in result.per_node))
            return result

        return launch_all

    def _proxy_module(self, module, name, metric):
        """Copy of a stdlib module whose `name` function is traced."""
        proxy = types.ModuleType(module.__name__)
        proxy.__dict__.update(module.__dict__)
        setattr(proxy, name, self.wrap(metric, getattr(module, name)))
        return proxy

    def install(self) -> None:
        """Wrap the package's layer boundaries."""
        from fltestbed import engine, examples, harness, launcher, transport, values

        w = self.wrap
        transport.dumps = w("values.dumps", transport.dumps, sized=True)
        transport.validate_value = w("values.validate", transport.validate_value)
        transport.encode_frame = self._wrap_encode(transport.encode_frame)
        transport.decode_body = w("transport.decode", transport.decode_body)
        transport.decode_frame = w("transport.decode", transport.decode_frame)
        # The wire decoder parses frame bodies with json.loads in place of
        # values.loads; both count as payload parsing.
        if hasattr(transport, "json"):
            transport.json = self._proxy_module(transport.json, "loads", "values.loads")
        if hasattr(transport, "loads"):
            transport.loads = w("values.loads", transport.loads)
        for cls in (transport.TcpTransport, transport.LoopbackTransport):
            cls.send = self._wrap_send(cls.send)
            cls.recv_matching = self._wrap_recv(cls.recv_matching)

        inst = engine.FlInstance
        inst.__init__ = w("engine.init", inst.__init__)
        inst.shutdown = w("engine.shutdown", inst.shutdown)
        inst.fl_centralized = w("engine.run", inst.fl_centralized)
        inst.fl_decentralized = w("engine.run", inst.fl_decentralized)

        harness.loads = w("values.loads", harness.loads)
        for mod in (harness, values):
            mod.approx_eq = w("harness.compare", mod.approx_eq)
        for mod in (harness, examples):
            mod.sim_centralized = w("harness.oracle", mod.sim_centralized)
            mod.sim_decentralized = w("harness.oracle", mod.sim_decentralized)
        launcher.launch_all = harness.launch_all = self._wrap_launch(launcher.launch_all)
        launcher.subprocess = self._proxy_module(launcher.subprocess, "Popen", "launcher.spawn")

    def wrap_callbacks(self, pair):
        return dataclasses.replace(
            pair,
            client=self.wrap("engine.client_cb", pair.client),
            server=self.wrap("engine.server_cb", pair.server),
        )

    def snapshot(self) -> dict:
        """Merged aggregates of every thread so far."""
        agg: dict[str, list] = {}
        with self._lock:
            states = list(self._states)
            first_sends = list(self.first_sends)
        for st in states:
            for name, rec in list(st.agg.items()):
                tot = agg.setdefault(name, [0, 0.0, 0.0, 0.0, 0])
                for i, v in enumerate(rec):
                    tot[i] += v
        return {"agg": agg, "first_sends": first_sends, "threads_max": self.threads_max}


def merge(into: dict, snap: dict) -> dict:
    for name, rec in snap["agg"].items():
        tot = into["agg"].setdefault(name, [0, 0.0, 0.0, 0.0, 0])
        for i, v in enumerate(rec):
            tot[i] += v
    into["first_sends"] += snap["first_sends"]
    into["threads_max"] = max(into["threads_max"], snap["threads_max"])
    return into


def diff(after: dict, before: dict) -> dict:
    agg = {}
    for name, rec in after["agg"].items():
        old = before["agg"].get(name, [0, 0.0, 0.0, 0.0, 0])
        agg[name] = [a - b for a, b in zip(rec, old)]
    return {
        "agg": agg,
        "first_sends": after["first_sends"][len(before["first_sends"]):],
        "threads_max": after["threads_max"],
    }


def empty() -> dict:
    return {"agg": {}, "first_sends": [], "threads_max": 0}


TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"


def install_in_child() -> None:
    """Trace a node process; the aggregates go to a file when it exits.

    Called from the benchmark's sitecustomize, which node processes load
    only when the benchmark puts it on their PYTHONPATH.
    """
    out_dir = os.environ[TRACE_DIR_ENV]
    from fltestbed import examples

    tracer = Tracer()
    tracer.install()
    for key, spec in list(examples.EXAMPLES.items()):
        examples.EXAMPLES[key] = dataclasses.replace(
            spec, callbacks=tracer.wrap_callbacks(spec.callbacks)
        )

    def dump():
        path = os.path.join(out_dir, f"{os.getpid()}.json")
        with open(path + ".tmp", "w", encoding="ascii") as f:
            json.dump(tracer.snapshot(), f)
        os.replace(path + ".tmp", path)

    atexit.register(dump)
