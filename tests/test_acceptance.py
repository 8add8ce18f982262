"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines.
Every tolerance is pinned here; nothing defers to later calibration.
"""

import json
import os
import random
import subprocess
import sys
import time

import pytest

from fltestbed.engine import CENTRALIZED, DECENTRALIZED
from fltestbed.examples import seq_example1, seq_example2, sim_decentralized, get_example
from fltestbed.harness import (
    MODE_INPROC,
    MODE_PROC,
    fuzz_verify,
    run_and_verify,
)
from fltestbed.transport import Envelope, Phase, decode_frame, encode_frame
from fltestbed.values import approx_eq, dumps, loads

from conftest import alloc_base_port

REL_TOL = 1e-9
ABS_TOL = 1e-12


def _verdict(criterion: int, text: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS - {text}")


def run_cli(*args: str, timeout: float = 120.0) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "fltestbed", *args],
        capture_output=True, text=True, timeout=timeout,
    )


def _distributed_by_node(report_json: dict) -> dict[int, object]:
    return {v["nodeId"]: v["distributedResult"] for v in report_json["perNode"]}


def test_criterion_1_example1_reproduction():
    started = time.monotonic()
    res = run_cli("verify", "--example", "1", "--mode", "proc", "--nodes", "3",
                  "--base-port", str(alloc_base_port()))
    elapsed = time.monotonic() - started
    assert res.returncode == 0, res.stderr
    report = json.loads(res.stdout)
    assert report["overallMatch"] is True
    results = _distributed_by_node(report)
    oracle_server = seq_example1([68.0, 70.5, 69.5], 2)
    assert approx_eq(results[2], oracle_server, REL_TOL, ABS_TOL)
    assert approx_eq(results[2], 0.5, REL_TOL, ABS_TOL)
    assert approx_eq(results[0], 0.0, REL_TOL, ABS_TOL)
    assert approx_eq(results[1], 1.0, REL_TOL, ABS_TOL)
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    _verdict(1, f"example 1 proc run matches seq_example1 (server 0.5) in {elapsed:.2f}s")


def test_criterion_2_example2_reproduction():
    started = time.monotonic()
    res = run_cli("verify", "--example", "2", "--mode", "proc", "--nodes", "3",
                  "--base-port", str(alloc_base_port()))
    elapsed = time.monotonic() - started
    assert res.returncode == 0, res.stderr
    report = json.loads(res.stdout)
    assert report["overallMatch"] is True
    results = _distributed_by_node(report)
    oracle_server = seq_example2([[1], [2], [3]], 0)
    assert approx_eq(results[0], oracle_server, REL_TOL, ABS_TOL)
    assert approx_eq(results[0], [1.75], REL_TOL, ABS_TOL)
    assert approx_eq(results[1], [1.5], REL_TOL, ABS_TOL)
    assert approx_eq(results[2], [2.0], REL_TOL, ABS_TOL)
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    _verdict(2, f"example 2 proc run matches seq_example2 (server [1.75]) in {elapsed:.2f}s")


def test_criterion_3_example3_reproduction():
    started = time.monotonic()
    res = run_cli("verify", "--example", "3", "--mode", "proc", "--nodes", "3",
                  "--base-port", str(alloc_base_port()))
    elapsed = time.monotonic() - started
    assert res.returncode == 0, res.stderr
    report = json.loads(res.stdout)
    assert report["overallMatch"] is True
    results = _distributed_by_node(report)
    e3 = get_example(3)
    oracle = sim_decentralized([[1], [2], [3]], [None] * 3, e3.callbacks, 1)
    expected = [[1.75], [2.0], [2.25]]
    for node_id in range(3):
        assert approx_eq(results[node_id], oracle[node_id], REL_TOL, ABS_TOL)
        assert approx_eq(results[node_id], expected[node_id], REL_TOL, ABS_TOL)
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    _verdict(3, f"example 3 decentralized run yields [1.75],[2],[2.25] in {elapsed:.2f}s")


@pytest.fixture(scope="module")
def fuzz_summaries():
    started = time.monotonic()
    cent = fuzz_verify(CENTRALIZED, 100, seed=42)
    decent = fuzz_verify(DECENTRALIZED, 100, seed=42)
    return cent, decent, time.monotonic() - started


def test_criterion_4_engine_oracle_equivalence(fuzz_summaries):
    cent, decent, elapsed = fuzz_summaries
    assert cent.passed == 100 and cent.failed == 0, cent.failures
    assert decent.passed == 100 and decent.failed == 0, decent.failures
    assert elapsed < 30.0, f"took {elapsed:.2f}s"
    _verdict(4, f"fuzz cent+decent 100/100 each at default tolerances in {elapsed:.2f}s")


def test_criterion_5_mode_equivalence_and_determinism():
    for example_id in (1, 2, 3):
        port = alloc_base_port()
        inproc_reports = [run_and_verify(example_id, MODE_INPROC) for _ in range(5)]
        proc_reports = [
            run_and_verify(example_id, MODE_PROC, base_port=port) for _ in range(5)
        ]
        for reports in (inproc_reports, proc_reports):
            assert all(r.overall_match for r in reports)
            mappings = [r.to_mapping() for r in reports]
            for m in mappings:
                m.pop("wallTime")
            assert all(m == mappings[0] for m in mappings), f"example {example_id} drifted"
        for a, b in zip(inproc_reports[0].per_node, proc_reports[0].per_node):
            assert approx_eq(a.distributed, b.distributed, REL_TOL, ABS_TOL)
    _verdict(5, "inproc and proc agree per node; 5x repeated reports identical modulo wallTime")


def test_criterion_6_server_ordering_contract(fuzz_summaries):
    cent, decent, _ = fuzz_summaries
    assert cent.ordering_violations == 0
    assert decent.ordering_violations == 0
    _verdict(6, "server msgs observed sorted by ascending src in 100/100 trials, both engines")


def _process_cmdlines() -> list[str]:
    """Command line of every process: psutil if installed, else /proc."""
    try:
        import psutil
    except ImportError:
        psutil = None
    if psutil is not None:
        found = []
        for proc in psutil.process_iter(["cmdline"]):
            try:
                found.append(" ".join(proc.info["cmdline"] or []))
            except (psutil.NoSuchProcess, psutil.AccessDenied):
                continue
        return found
    if not os.path.isdir("/proc"):
        pytest.skip("needs psutil or /proc to list processes")
    found = []
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as f:
                raw = f.read()
        except OSError:  # exited meanwhile, or not ours to read
            continue
        found.append(" ".join(arg.decode(errors="replace") for arg in raw.split(b"\0") if arg))
    return found


def test_criterion_7_kill_node_failure_handling():
    port = alloc_base_port()
    recv_timeout = 3.0
    started = time.monotonic()
    res = run_cli("verify", "--example", "3", "--mode", "proc",
                  "--base-port", str(port),
                  "--kill-node", "1", "--after-phase", "p1",
                  "--recv-timeout", str(recv_timeout), "--connect-timeout", "3",
                  timeout=recv_timeout + 30.0)
    elapsed = time.monotonic() - started
    assert elapsed < recv_timeout + 5.0, f"took {elapsed:.2f}s"
    assert res.returncode == 1
    report = json.loads(res.stdout)
    assert report["overallMatch"] is False
    diagnostics = [v["diagnostic"] for v in report["perNode"] if v["nodeId"] != 1]
    assert all(d is not None and "1" in d for d in diagnostics)
    assert any("DEC_P2" in d for d in diagnostics), diagnostics
    marker = f"--base-port {port}"
    for cmdline in _process_cmdlines():
        assert marker not in cmdline, f"leftover process: {cmdline}"
    _verdict(7, f"killed node 1 detected (waiting phase DEC_P2) in {elapsed:.2f}s, no survivors")


GOLDEN_FRAME = b'\x00\x00\x009{"src":0,"dst":2,"phase":"CLI_DATA","iter":0,"payload":0}'


def test_criterion_8_wire_format_golden():
    env = Envelope(src=0, dst=2, phase=Phase.CLI_DATA, iter=0, payload=0.0)
    assert encode_frame(env) == GOLDEN_FRAME
    decoded = decode_frame(GOLDEN_FRAME)
    assert decoded == env
    assert encode_frame(decoded) == GOLDEN_FRAME
    _verdict(8, "stored frame decodes to the envelope and re-encodes byte-exactly")


def _random_tree(rng: random.Random, depth: int):
    if depth == 0 or rng.random() < 0.4:
        x = rng.uniform(-1e9, 1e9)
        return rng.choice([x, float(int(x)), x * 1e-12])
    return [_random_tree(rng, depth - 1) for _ in range(rng.randint(0, 8))]


def test_criterion_9_value_round_trip_1000():
    rng = random.Random(20240817)
    started = time.monotonic()
    for _ in range(1000):
        tree = _random_tree(rng, depth=4)
        text = dumps(tree)
        back = loads(text)
        assert back == tree
        assert dumps(back) == text
    elapsed = time.monotonic() - started
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    _verdict(9, f"1000 random payload trees round-tripped exactly in {elapsed:.2f}s")
