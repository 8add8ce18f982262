"""fltestbed benchmark: closed-loop federations, every result checked against the oracle.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The program under test is imported from `src/` of that checkout; node
processes get the same `src/` on their PYTHONPATH. One federation runs at
a time, driven from this process, and each operation starts when the
previous one has ended (a closed loop with one client). Inputs are made
from --seed. Every operation is checked node by node against the
sequential simulator (`sim_centralized` / `sim_decentralized`) with
`approx_eq` at the default 1e-9 relative / 1e-12 absolute tolerances. A
mismatch, a node exception or timeout, or `overall_match=False` is a
failed operation; nothing is retried or dropped, and any failure makes
the run exit 1.

Workloads (why each was chosen is in BENCHMARK.json):

  decent-flat-loopback  decentralized engine, LoopbackHub, 8 node threads,
                        10^4 seeded doubles per node, one round per engine
                        call; the benchmark's own vector-mean callbacks.
  cent-scalar-tcp       centralized engine, TcpTransport, 4 node threads,
                        one-element payloads, 200 rounds per engine call.
  verify-proc           harness.run_and_verify(example 3, "proc", 4 nodes)
                        repeated; one iteration, so one round per op.

An "op" is one round on the two in-process workloads and one
run_and_verify on verify-proc. With --trace 0 the run prints, by name and
unit:

  round_s.p50 / verify_s.p50    median op time (round_s on the in-process
                workloads, verify_s on verify-proc). Rounds are
                timestamped in the benchmark's own server callback: a
                round ends when the last node's server callback for it
                returns.
  round_s.tail / verify_s.tail  a fixed percentile per workload
                (Workload.tail_pct): p75 on decent-flat-loopback, whose 4
                to 9 rounds per run leave no percentile with ten samples
                beyond it; p90 on cent-scalar-tcp, where p95 and p99
                moved by 40% to 100% between runs with the share of rounds
                that a scheduling hiccup turns into 2 to 10 ms rounds; p75
                on verify-proc (~60 ops).
  payload_MBps  canonical payload bytes one op delivers to receivers
                (envelope headers excluded; counted on a simulator
                replay) / the median op time.
  failed_share  failed / attempted engine calls.

These absolute wall times stay out of the result line: on a shared
2-vCPU VM (Intel Xeon, Python 3.11.7) single-thread speed drifted by up
to 40% over ten-minute stretches, which put their run-to-run spread at
the largest bound a result line may carry. The result line holds:

  overhead_x    median op time / the fastest of repeated callbacks-only
                simulator replays of the same op on the same inputs. The
                replays are interleaved with the engine calls (a tenth of
                the measured time), so machine drift cancels. Not their
                median: replay times fall into two modes about 2x apart,
                and the median flips between them from run to run (IQR
                27% of the median over ten verify-proc runs).
  setup_s       median over several constructions of a federation up to
                readiness: hub or ports, FlInstance construction and node
                threads, plus the first round on TCP (connects are lazy).
                For verify-proc: launch_all of `import fltestbed` on 4
                nodes, the floor under each verify. Half of the
                constructions run before the measured window, half after.
  peak_rss_mb   peak resident memory of this process or of its largest
                node process, read after set-up and the first measured
                engine call. A fixed amount of work, because the receive
                buffers log every arrival for the life of a federation:
                read at the end, the figure would grow with throughput.

--trace 1 first measures the median op time untraced for a third of
--seconds, then installs the tracer (perfbench/tracer.py) and measures
for the rest. It prints per-layer metrics. Counts and times marked "per op" are
sums over all threads and node processes divided by the number of ops;
layer.<name>.self_busy_s shows which layer holds the most CPU time.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import shutil
import socket
import statistics
import sys
import threading
import traceback
from dataclasses import dataclass
from time import perf_counter

import tracer as tr

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TRACE_DIR = os.path.join(ROOT, ".perfbench", f"trace-{os.getpid()}")

RECV_TIMEOUT = 20.0
CONNECT_TIMEOUT = 10.0
OP_TIMEOUT = 90.0
REPLAY_SHARE = 0.1  # share of the window spent on interleaved callbacks-only replays
REPLAY_BATCH_S = 0.02  # short replays are batched to this length


@dataclass(frozen=True)
class Workload:
    name: str
    engine: str  # "centralized" or "decentralized"
    transport: str  # "loopback", "tcp" or "proc"
    nodes: int
    dim: int  # doubles per node
    iters: int  # rounds per engine call
    setup_reps: int
    tail_pct: float  # percentile printed as round_s.tail or verify_s.tail


WORKLOADS = {
    w.name: w
    for w in (
        Workload("decent-flat-loopback", "decentralized", "loopback", 8, 10_000, 1, 21, 75.0),
        Workload("cent-scalar-tcp", "centralized", "tcp", 4, 1, 200, 21, 90.0),
        Workload("verify-proc", "decentralized", "proc", 4, 1, 1, 5, 75.0),
    )
}


class BenchError(Exception):
    """The benchmark could not set up a measurement."""


def mean_client(local_data, private_data, msg):
    return [(a + b) / 2 for a, b in zip(local_data, msg)]


def mean_server(private_data, msgs):
    k = len(msgs)
    return [sum(col) / k for col in zip(*msgs)]


class PortRanges:
    """Fresh, bind-probed port ranges below Linux's ephemeral range.

    The probe binds without SO_REUSEADDR, so a port that still has
    TIME_WAIT connections from an earlier federation is skipped.
    """

    LOW, HIGH = 20000, 32000

    def __init__(self):
        self._next = self.LOW + (os.getpid() * 64) % (self.HIGH - self.LOW)

    def take(self, n: int) -> int:
        for _ in range(1000):
            if self._next + n > self.HIGH:
                self._next = self.LOW
            base, self._next = self._next, self._next + n
            if self._free(base, n):
                return base
        raise BenchError(f"no free range of {n} ports in {self.LOW}..{self.HIGH}")

    @staticmethod
    def _free(base: int, n: int) -> bool:
        socks = []
        try:
            for port in range(base, base + n):
                s = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
                socks.append(s)
                s.bind(("127.0.0.1", port))
            return True
        except OSError:
            return False
        finally:
            for s in socks:
                s.close()


def delivered(replay, pair) -> tuple[int, int]:
    """(canonical payload bytes, messages) one engine call delivers.

    Counted on a simulator replay: each client call of either simulator
    stands for one delivered broadcast (its msg) and one delivered reply
    (its result).
    """
    from fltestbed.values import dumps

    sizes: dict[int, tuple[object, int]] = {}  # keeps msgs alive, so ids stay unique
    total = calls = 0

    def client(local_data, private_data, msg):
        nonlocal total, calls
        out = pair.client(local_data, private_data, msg)
        if id(msg) not in sizes:
            sizes[id(msg)] = (msg, len(dumps(msg)))
        total += sizes[id(msg)][1] + len(dumps(out))
        calls += 1
        return out

    replay(type(pair)(client, pair.server))
    return total, 2 * calls


class Federation:
    """N node threads over one transport, each owning an FlInstance.

    The main thread releases all nodes into one engine call at a time and
    waits until every node has returned.
    """

    def __init__(self, wl: Workload, ldata, ports: PortRanges, wrap_pair):
        from fltestbed import CallbackPair, FlConfig, FlInstance, LoopbackHub

        n = wl.nodes
        self.wl = wl
        self.ldata = ldata
        self.iters = 1
        self.stop = False
        self.marks: list[list[float]] = [[] for _ in range(n)]
        self.results: list = [None] * n
        if wl.transport == "loopback":
            hub = LoopbackHub(n, recv_timeout=RECV_TIMEOUT)
            transports, base = [hub.transport(i) for i in range(n)], 6000
        else:
            transports, base = [None] * n, ports.take(n)
        self.insts = [
            FlInstance(
                FlConfig(no_nodes=n, node_id=i, fl_srv_id=0, base_port=base,
                         recv_timeout=RECV_TIMEOUT, connect_timeout=CONNECT_TIMEOUT),
                transport=transports[i],
            )
            for i in range(n)
        ]
        self.pairs = [wrap_pair(CallbackPair(mean_client, self._marking_server(i))) for i in range(n)]
        self._ready = threading.Barrier(n + 1)
        self._start = threading.Barrier(n + 1)
        self._done = threading.Barrier(n + 1)
        self._threads = [
            threading.Thread(target=self._node, args=(i,), name=f"node-{i}", daemon=True)
            for i in range(n)
        ]
        for t in self._threads:
            t.start()
        self._ready.wait(OP_TIMEOUT)

    def _marking_server(self, node_id: int):
        def server(private_data, msgs):
            out = mean_server(private_data, msgs)
            self.marks[node_id].append(perf_counter())
            return out

        return server

    def _node(self, i: int) -> None:
        inst = self.insts[i]
        run = inst.fl_centralized if self.wl.engine == "centralized" else inst.fl_decentralized
        try:
            self._ready.wait()
            while True:
                self._start.wait()
                if self.stop:
                    return
                try:
                    self.results[i] = run(self.pairs[i], self.ldata[i], None, no_iters=self.iters)
                except Exception as e:  # reported as a failed op
                    self.results[i] = e
                self._done.wait()
        except threading.BrokenBarrierError:
            return

    def run(self, iters: int):
        """One engine call on every node; returns (start, end, round times)."""
        self.iters = iters
        self.marks = [[] for _ in range(self.wl.nodes)]
        self.results = [None] * self.wl.nodes
        t0 = perf_counter()
        try:
            self._start.wait(OP_TIMEOUT)
            self._done.wait(OP_TIMEOUT)
        except threading.BrokenBarrierError:  # a node hung; its result stays None
            pass
        t1 = perf_counter()
        try:
            ends = [max(m[k] for m in self.marks if len(m) > k) for k in range(iters)]
        except ValueError:  # a node failed before its server callback
            ends = []
        return t0, t1, [b - a for a, b in zip([t0] + ends, ends)]

    def close(self) -> None:
        self.stop = True
        try:
            self._start.wait(5.0)
        except threading.BrokenBarrierError:
            pass
        for b in (self._ready, self._start, self._done):
            b.abort()
        for t in self._threads:
            t.join(5.0)
        from fltestbed import UsageError

        for inst in self.insts:
            try:
                inst.shutdown()
            except UsageError:  # a node hung in its engine call; the run has failed
                pass


class InprocBench:
    """decent-flat-loopback and cent-scalar-tcp: node threads in this process."""

    def __init__(self, wl: Workload, seed: int, ports: PortRanges):
        from fltestbed import CallbackPair, examples

        rng = random.Random(seed)
        self.wl = wl
        self.ports = ports
        # Values in [1, 2) print in 16 to 18 digits, so the bytes per op, and
        # with them payload_MBps, hardly depend on the seed.
        self.ldata = [[rng.uniform(1.0, 2.0) for _ in range(wl.dim)] for _ in range(wl.nodes)]
        self.pdata = [None] * wl.nodes
        self.examples = examples
        self.pair = CallbackPair(mean_client, mean_server)
        self.expected = {k: self.replay(self.pair, k) for k in {1, wl.iters}}
        self.call_bytes, self.call_msgs = delivered(self.replay, self.pair)
        self.rounds_per_call = wl.iters
        self.fed: Federation | None = None
        self.wrap_pair = lambda pair: pair

    def replay(self, pair, iters: int | None = None):
        iters = self.wl.iters if iters is None else iters
        if self.wl.engine == "centralized":
            return self.examples.sim_centralized(self.ldata, self.pdata, 0, pair, iters)
        return self.examples.sim_decentralized(self.ldata, self.pdata, pair, iters)

    def check(self, results, expected) -> bool:
        from fltestbed import values

        ok = True
        for i, (got, want) in enumerate(zip(results, expected)):
            if isinstance(got, BaseException):
                print(f"perfbench: node {i} raised {type(got).__name__}: {got}", file=sys.stderr)
                ok = False
            elif not values.approx_eq(got, want):
                print(f"perfbench: node {i} result differs from the oracle", file=sys.stderr)
                ok = False
        return ok

    def setup(self, reps: int) -> tuple[list[float], int, int]:
        """Build the federation `reps` times; keep the last one."""
        times, attempted, failed = [], 0, 0
        for _ in range(reps):
            if self.fed is not None:
                self.fed.close()
            t0 = perf_counter()
            self.fed = Federation(self.wl, self.ldata, self.ports, self.wrap_pair)
            if self.wl.transport == "tcp":
                self.fed.run(1)
            times.append(perf_counter() - t0)
            if self.wl.transport == "tcp":
                attempted += 1
                failed += not self.check(self.fed.results, self.expected[1])
                if failed:
                    break
        return times, attempted, failed

    def call(self):
        t0, t1, rounds = self.fed.run(self.wl.iters)
        ok = self.check(self.fed.results, self.expected[self.wl.iters])
        return ok, t1 - t0, rounds

    def close(self) -> None:
        if self.fed is not None:
            self.fed.close()
            self.fed = None


class ProcBench:
    """verify-proc: run_and_verify of example 3 with real node processes."""

    EXAMPLE = 3

    def __init__(self, wl: Workload, seed: int, ports: PortRanges):
        from fltestbed import examples, harness

        self.wl = wl
        self.seed = seed
        self.ports = ports
        self.harness = harness
        self.examples = examples
        spec = examples.get_example(self.EXAMPLE)
        self.ldata = examples.generate_ldata(spec, wl.nodes, seed)
        self.pdata = [None] * wl.nodes
        self.pair = spec.callbacks
        self.expected = self.replay(self.pair)
        self.call_bytes, self.call_msgs = delivered(self.replay, self.pair)
        self.rounds_per_call = 1
        self.child_env = {"PYTHONPATH": SRC}

    def replay(self, pair, iters: int = 1):
        return self.examples.sim_decentralized(self.ldata, self.pdata, pair, iters)

    def setup(self, reps: int) -> tuple[list[float], int, int]:
        return import_floor(self.wl.nodes, reps, self.ports), 0, 0

    def call(self):
        from fltestbed import values

        base = self.ports.take(self.wl.nodes)
        saved = dict(os.environ)
        os.environ.update(self.child_env)
        try:
            t0 = perf_counter()
            report = self.harness.run_and_verify(
                self.EXAMPLE, "proc", no_nodes=self.wl.nodes, no_iters=1, base_port=base,
                seed=self.seed, recv_timeout=RECV_TIMEOUT, connect_timeout=CONNECT_TIMEOUT,
                per_node_timeout=OP_TIMEOUT / 2,
            )
            dt = perf_counter() - t0
        finally:
            os.environ.clear()
            os.environ.update(saved)
        ok = report.overall_match
        for v in report.per_node:
            if v.diagnostic is not None or not values.approx_eq(v.distributed, self.expected[v.node_id]):
                print(f"perfbench: node {v.node_id} failed: {v.diagnostic or 'differs from the oracle'}",
                      file=sys.stderr)
                ok = False
        return ok, dt, [dt]

    def close(self) -> None:
        pass


def import_floor(nodes: int, reps: int, ports: PortRanges) -> list[float]:
    """Wall time of launch_all for `import fltestbed` on every node."""
    from fltestbed import launcher

    times = []
    for _ in range(reps):
        spec = launcher.LaunchSpec(
            program=(sys.executable, "-c", "import fltestbed"), no_nodes=nodes, fl_srv_id=0,
            base_port=ports.take(nodes), per_node_timeout=OP_TIMEOUT / 2,
        )
        t0 = perf_counter()
        result = launcher.launch_all(spec)
        times.append(perf_counter() - t0)
        if not result.overall_success:
            raise BenchError(f"import probe failed: {[o.stderr for o in result.per_node]}")
    return times


def replay_batch(bench) -> int:
    """How many callbacks-only replays of an engine call make one timed batch."""
    t0 = perf_counter()
    bench.replay(bench.pair)
    return max(1, round(REPLAY_BATCH_S / max(perf_counter() - t0, 1e-9)))


def replay_time(bench, batch: int) -> float:
    """Seconds for one callbacks-only replay of an engine call, timed in a batch."""
    t0 = perf_counter()
    for _ in range(batch):
        bench.replay(bench.pair)
    return (perf_counter() - t0) / batch


@dataclass
class Window:
    samples: list[float]
    call_walls: list[float]
    replays: list[float]
    attempted: int
    failed: int
    wall: float
    cpu: float
    rss_mb: float = 0.0  # peak RSS after set-up and the first engine call


def cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def measure(bench, seconds: float, on_call=None, replays=True) -> Window:
    """Closed loop of engine calls for `seconds`, with interleaved replays."""
    w = Window([], [], [], 0, 0, 0.0, 0.0)
    batch = replay_batch(bench) if replays else 0
    replay_s = 0.0
    c0 = cpu_seconds()
    start = perf_counter()
    while perf_counter() - start < seconds:
        ok, wall, samples = bench.call()
        w.attempted += 1
        if on_call is not None:
            on_call()
        if not ok:
            w.failed += 1
            break
        w.call_walls.append(wall)
        w.samples += samples
        if len(w.call_walls) == 1:
            w.rss_mb = peak_rss_mb()
        while replays and replay_s <= REPLAY_SHARE * (perf_counter() - start - replay_s):
            t0 = perf_counter()
            w.replays.append(replay_time(bench, batch))
            replay_s += perf_counter() - t0
    w.wall = perf_counter() - start
    w.cpu = cpu_seconds() - c0
    return w


def tail(samples: list[float], pct: float) -> tuple[float, str]:
    """Nearest-rank percentile, with the sample count in its note."""
    s = sorted(samples)
    idx = max(0, math.ceil(pct / 100 * len(s)) - 1)
    beyond = len(s) - idx - 1
    note = f"p{pct:g} of n={len(s)}, {beyond} samples beyond"
    if beyond < 10:
        note += " (fewer than 10: read it as a maximum)"
    return s[idx], note


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def provenance(wl: Workload, seed: int, seconds: int, trace: int) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": wl.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "engine": wl.engine,
        "transport": wl.transport,
        "nodes": wl.nodes,
        "dim": wl.dim,
        "rounds_per_engine_call": wl.iters,
        "load": "closed loop, one federation at a time, one op in flight; "
                "each op starts when the previous one has ended",
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def end_to_end(bench, wl: Workload, w: Window, setup_s: float) -> dict:
    """Metrics of the result line; prints the wall-time ones kept out of it."""
    p50 = statistics.median(w.samples)
    tail_v, tail_note = tail(w.samples, wl.tail_pct)
    op_bytes = bench.call_bytes / bench.rounds_per_call
    replay_min = min(w.replays) / bench.rounds_per_call
    own, other = ("verify_s", "round_s") if wl.transport == "proc" else ("round_s", "verify_s")
    print(f"# {own}.p50 = {p50:.6g} s (n={len(w.samples)})")
    print(f"# {own}.tail = {tail_v:.6g} s ({tail_note})")
    print(f"# {other}.p50, {other}.tail: n/a, "
          + ("no in-process rounds on verify-proc" if own == "verify_s"
             else "no run_and_verify ops on this workload"))
    print(f"# payload_MBps = {op_bytes / p50 / 1e6:.6g} MB/s ({op_bytes:g} B per op / {own}.p50)")
    return {
        "overhead_x": (p50 / replay_min, "x",
                       f"{own}.p50 / {replay_min:.4g} s, the fastest of {len(w.replays)} replays"),
        "setup_s": (setup_s, "s", f"median of {wl.setup_reps}"),
        "peak_rss_mb": (w.rss_mb, "MB", "after set-up and one engine call"),
    }


def per_layer(bench, wl: Workload, w: Window, snap: dict, floor: list[float], ref_p50: float) -> dict:
    """Per-layer metrics from merged tracer aggregates; see BENCHMARK.json for the list."""
    agg = snap["agg"]

    def rec(name):
        return agg.get(name, [0, 0.0, 0.0, 0.0, 0])

    ops = len(w.call_walls) * bench.rounds_per_call
    sends = rec("transport.send")[tr.CALLS]
    launches = max(rec("launcher.launch_all")[tr.CALLS], 1)
    m = {}

    def put(name, value, unit, note="per op"):
        m[name] = (value, unit, note)

    for name in ("values.dumps", "values.validate", "values.loads", "transport.encode_frame",
                 "transport.decode", "transport.send", "engine.client_cb", "engine.server_cb"):
        put(f"{name}.calls", rec(name)[tr.CALLS] / ops, "count")
        put(f"{name}.busy_s", rec(name)[tr.BUSY] / ops, "s")
    put("values.dumps.bytes", rec("values.dumps")[tr.BYTES] / ops, "B")
    put("values.validate.per_msg", rec("values.validate")[tr.CALLS] / max(sends, 1), "count",
        "per send")
    put("transport.encode.useful_ratio",
        rec("transport.encode.distinct")[tr.CALLS] / max(rec("transport.encode_frame")[tr.CALLS], 1),
        "ratio", "distinct payloads per (src, phase, iter) / encode_frame calls")
    put("transport.msgs", bench.call_msgs / bench.rounds_per_call, "count", "per op, by the protocol")
    put("transport.wire_bytes", rec("transport.encode_frame")[tr.BYTES] / ops, "B")
    put("transport.payload_bytes", bench.call_bytes / bench.rounds_per_call, "B",
        "per op, delivered, by the protocol")
    put("transport.send.wall_s", rec("transport.send")[tr.WALL] / ops, "s",
        "per op, summed over node threads")
    put("transport.recv.calls", rec("transport.recv")[tr.CALLS] / ops, "count")
    put("transport.recv.wait_s", rec("transport.recv")[tr.WALL] / ops, "s",
        "per op, summed over node threads")
    fs = snap["first_sends"]
    put("transport.first_send_s", statistics.mean(fs), "s", f"mean of {len(fs)} first sends to a peer")
    for name in ("engine.init", "engine.shutdown"):
        r = rec(name)
        put(f"{name}_s", r[tr.WALL] / r[tr.CALLS], "s", f"mean of {r[tr.CALLS]} calls")
    put("engine.run.wall_s", rec("engine.run")[tr.WALL] / (ops * wl.nodes), "s", "per op and node")
    put("engine.self_busy_s", rec("engine.run")[tr.SELF] / ops, "s")
    put("launcher.launch_all_s", rec("launcher.launch_all")[tr.WALL] / launches, "s",
        f"mean of {launches} launches")
    put("launcher.spawn_s", rec("launcher.spawn")[tr.WALL] / launches, "s", "per launch")
    put("launcher.node_exit_s.max", statistics.median(snap["node_exit_max"]), "s",
        "median over launches of the slowest node's exit")
    put("launcher.import_floor_s", statistics.median(floor), "s",
        f"median of {len(floor)} launches of `import fltestbed`")
    oracle = rec("harness.oracle")
    put("harness.oracle_s", oracle[tr.WALL] / oracle[tr.CALLS], "s",
        f"mean of {oracle[tr.CALLS]} simulator replays")
    put("harness.compare_s", rec("harness.compare")[tr.WALL] / len(w.call_walls), "s",
        "per checked engine call")
    for layer in tr.LAYERS:
        busy = sum(r[tr.SELF] for n, r in agg.items() if tr.layer_of(n) == layer)
        put(f"layer.{layer}.self_busy_s", busy / ops, "s")
    busiest = max(tr.LAYERS, key=lambda layer: m[f"layer.{layer}.self_busy_s"][0])
    print(f"# busiest layer: {busiest}, {m[f'layer.{busiest}.self_busy_s'][0]:.4g} s self busy per op")
    put("proc.cpu_util", w.cpu / w.wall, "ratio", "CPU s of this process and its children / wall s")
    put("proc.threads.max", snap["threads_max"], "count", "largest thread count of one process")
    put("trace.overhead_x", statistics.median(w.samples) / ref_p50, "x",
        "traced / untraced median op time")
    return m


def collect_children(total: dict) -> None:
    """Merge and remove the trace files node processes wrote at exit."""
    for fn in sorted(os.listdir(TRACE_DIR)):
        if fn.endswith(".json"):
            path = os.path.join(TRACE_DIR, fn)
            with open(path, encoding="ascii") as f:
                tr.merge(total, json.load(f))
            os.remove(path)


def traced_run(bench, wl: Workload, seconds: int):
    """Untraced reference for a third of the time, then the traced run.

    Returns (metrics or None on failure, attempted, failed).
    """
    _, attempted, failed = bench.setup(1)
    if not failed:
        ref = measure(bench, seconds / 3)
        attempted, failed = attempted + ref.attempted, failed + ref.failed
    bench.close()
    if failed:
        return None, attempted, failed

    tracer = tr.Tracer()
    tracer.install()
    children = tr.empty()
    if isinstance(bench, ProcBench):
        os.makedirs(TRACE_DIR, exist_ok=True)
        bench.child_env = {"PYTHONPATH": os.pathsep.join([os.path.join(HERE, "childsite"), SRC]),
                           tr.TRACE_DIR_ENV: TRACE_DIR}
    else:
        bench.wrap_pair = tracer.wrap_callbacks

    def on_call():
        tracer.epoch += 1
        if isinstance(bench, ProcBench):
            collect_children(children)

    before = tracer.snapshot()
    _, a, f = bench.setup(wl.setup_reps)
    attempted, failed = attempted + a, failed + f
    if failed:
        return None, attempted, failed
    s0 = tracer.snapshot()
    w = measure(bench, seconds - seconds / 3, on_call, replays=False)
    s1 = tracer.snapshot()
    attempted, failed = attempted + w.attempted, failed + w.failed
    bench.close()
    if failed:
        return None, attempted, failed
    floor = import_floor(wl.nodes, 3, bench.ports)
    replay_time(bench, 3)
    # Per-op spans come from the measured window; set-up, tear-down,
    # launcher and oracle spans from the whole traced phase.
    window = tr.merge(tr.diff(s1, s0), children)
    whole = tr.merge(tr.diff(tracer.snapshot(), before), children)
    for name in ("engine.init", "engine.shutdown", "launcher.launch_all", "launcher.spawn",
                 "harness.oracle"):
        window["agg"][name] = whole["agg"][name]
    window["first_sends"] = whole["first_sends"]
    window["threads_max"] = whole["threads_max"]
    window["node_exit_max"] = tracer.node_exit_max
    return per_layer(bench, wl, w, window, floor, statistics.median(ref.samples)), attempted, failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "fltestbed", "__init__.py")):
        print(f"perfbench: no fltestbed sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.environ["PYTHONPATH"] = SRC  # node processes import the checked-out sources
    wl = WORKLOADS[args.workload]
    print("# provenance " + json.dumps(provenance(wl, args.seed, args.seconds, args.trace)))

    ports = PortRanges()
    bench = (ProcBench if wl.transport == "proc" else InprocBench)(wl, args.seed, ports)
    try:
        if args.trace:
            metrics, attempted, failed = traced_run(bench, wl, args.seconds)
        else:
            # Half the set-ups run after the measured window, so that a burst
            # of load from elsewhere at start-up does not set setup_s alone.
            before, attempted, failed = bench.setup(wl.setup_reps - wl.setup_reps // 2)
            metrics = None
            if not failed:
                w = measure(bench, args.seconds)
                attempted, failed = attempted + w.attempted, failed + w.failed
            if not failed:
                bench.close()
                after, a, f = bench.setup(wl.setup_reps // 2)
                attempted, failed = attempted + a, failed + f
            if not failed:
                metrics = end_to_end(bench, wl, w, statistics.median(before + after))
    finally:
        bench.close()
        shutil.rmtree(TRACE_DIR, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(TRACE_DIR))
        except OSError:
            pass

    print(f"# failed_share = {failed / max(attempted, 1):g} ({failed}/{attempted} checked engine calls)")
    out = {}
    for name, (value, unit, note) in (metrics or {}).items():
        print(f"{name:32s} {value:.6g} {unit}  ({note})")
        out[name] = {"value": value, "unit": unit}
    print(json.dumps({"correct": failed == 0 and metrics is not None, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": out}))
    return 0 if failed == 0 and metrics is not None else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(1)
    except Exception:
        traceback.print_exc()
        sys.exit(1)
