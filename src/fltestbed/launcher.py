"""Spawns one application program as a set of independent node processes.

Every node gets the launch spec's fixed argument list plus its own identity flags
(--no-nodes, --node-id, --fl-srv-id, --base-port). The launcher waits for
all nodes to exit, enforcing one shared deadline; survivors past the
deadline are terminated (SIGTERM, then SIGKILL after a 2 s grace period),
so a launch always returns within per_node_timeout plus the grace window.
"""

from __future__ import annotations

import subprocess
import time
from dataclasses import dataclass

from .errors import ConfigError, LaunchError

TERMINATION_GRACE = 2.0


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
        if self.per_node_timeout <= 0:
            raise ConfigError("per_node_timeout must be positive")


@dataclass
class NodeOutcome:
    node_id: int
    exit_code: int | None
    stdout: str
    stderr: str
    wall_time: float
    timed_out: bool = False


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
    a node that cannot be spawned (say, a missing or non-executable program)
    raises LaunchError after the nodes already started are killed.
    """
    procs: list[subprocess.Popen] = []
    started = time.monotonic()
    try:
        for node_id in range(spec.no_nodes):
            procs.append(
                subprocess.Popen(
                    node_argv(spec, node_id),
                    stdout=subprocess.PIPE,
                    stderr=subprocess.PIPE,
                    text=True,
                )
            )
    except OSError as e:
        for p in procs:
            p.kill()
        for p in procs:
            p.wait()
        raise LaunchError(f"failed to spawn node {len(procs)}: {e}") from e

    deadline = started + spec.per_node_timeout
    outputs: list[tuple[str, str] | None] = [None] * spec.no_nodes
    ended = [0.0] * spec.no_nodes
    for node_id, proc in enumerate(procs):
        try:
            outputs[node_id] = proc.communicate(timeout=max(0.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            # communicate() raises on an expired deadline even when the
            # process already exited; only a still-running node is hung
            if proc.poll() is None:
                continue
            outputs[node_id] = proc.communicate()
        ended[node_id] = time.monotonic() - started

    hung = [node_id for node_id, output in enumerate(outputs) if output is None]
    for node_id in hung:
        procs[node_id].terminate()
    grace = time.monotonic() + TERMINATION_GRACE
    for node_id in hung:
        try:
            procs[node_id].wait(timeout=max(0.0, grace - time.monotonic()))
        except subprocess.TimeoutExpired:
            procs[node_id].kill()
    for node_id in hung:
        outputs[node_id] = procs[node_id].communicate()
        ended[node_id] = time.monotonic() - started

    per_node = [
        NodeOutcome(node_id, proc.returncode, *outputs[node_id], wall_time=ended[node_id],
                    timed_out=node_id in hung)
        for node_id, proc in enumerate(procs)
    ]
    overall = not hung and all(o.exit_code == 0 for o in per_node)
    return LaunchResult(per_node=per_node, overall_success=overall)
