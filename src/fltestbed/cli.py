"""Command-line entry points.

    fltestbed node    one federation member; prints `RESULT <id> <data>`
    fltestbed launch  spawn a whole federation of node processes
    fltestbed verify  run an example and check it against its oracle
    fltestbed fuzz    randomized engine-vs-simulator trials

Exit codes: node exits 0 on success, 1 on protocol/config errors, 2 on a
receive timeout. verify exits 0 only when every node matched the oracle;
fuzz exits 0 only on a clean run.
"""

from __future__ import annotations

import argparse
import sys

from . import harness
from .engine import FAULT_POINTS, FlConfig, FlInstance
from .errors import FaultInjected, FlError, ProtocolTimeout
from .examples import CENTRALIZED, dataset_for, get_example
from .launcher import LaunchSpec, launch_all
from .values import dumps

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_TIMEOUT = 2


def _add_common_node_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--example", type=int, required=True, choices=(1, 2, 3))
    p.add_argument("--fl-srv-id", type=int, default=None,
                   help="server node id (default: the example's canonical one, "
                        "clamped to the last node in smaller federations)")
    p.add_argument("--base-port", type=int, default=6000)
    p.add_argument("--iters", type=int, default=1)
    p.add_argument("--seed", type=int, default=None,
                   help="generate node data from this seed instead of the canonical dataset")
    p.add_argument("--recv-timeout", type=float, default=None, metavar="SECS")
    p.add_argument("--connect-timeout", type=float, default=None, metavar="SECS")
    p.add_argument("--fault-node", type=int, default=None,
                   help="node id that crashes itself after --after-phase")
    p.add_argument("--after-phase", choices=FAULT_POINTS, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fltestbed",
        description="Testbed for callback-driven federated learning algorithms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    node = sub.add_parser("node", help="run one federation member (spawned by launch)")
    _add_common_node_flags(node)
    node.add_argument("--no-nodes", type=int, required=True)
    node.add_argument("--node-id", type=int, required=True)
    node.set_defaults(func=cmd_node)

    launch = sub.add_parser("launch", help="spawn a federation of node processes")
    _add_common_node_flags(launch)
    launch.add_argument("--nodes", type=int, default=3, dest="nodes")
    launch.add_argument("--timeout", type=float, default=60.0, metavar="SECS",
                        help="per-node wall-clock budget before survivors are terminated")
    launch.set_defaults(func=cmd_launch)

    verify = sub.add_parser("verify", help="run an example and compare against the oracle")
    verify.add_argument("--example", type=int, required=True, choices=(1, 2, 3))
    verify.add_argument("--mode", required=True, choices=(harness.MODE_INPROC, harness.MODE_PROC))
    verify.add_argument("--nodes", type=int, default=3)
    verify.add_argument("--iters", type=int, default=1)
    verify.add_argument("--base-port", type=int, default=6000)
    verify.add_argument("--seed", type=int, default=None)
    verify.add_argument("--report", default=None, metavar="PATH",
                        help="write the report here instead of stdout")
    verify.add_argument("--kill-node", type=int, default=None)
    verify.add_argument("--after-phase", choices=FAULT_POINTS, default=None)
    verify.add_argument("--recv-timeout", type=float, default=None, metavar="SECS")
    verify.add_argument("--connect-timeout", type=float, default=None, metavar="SECS")
    verify.set_defaults(func=cmd_verify)

    fuzz = sub.add_parser("fuzz", help="randomized engine-vs-simulator trials")
    fuzz.add_argument("--engine", required=True, choices=(harness.ENGINE_CENT, harness.ENGINE_DECENT))
    fuzz.add_argument("--trials", type=int, default=100)
    fuzz.add_argument("--seed", type=int, default=0)
    fuzz.set_defaults(func=cmd_fuzz)

    return parser


def _fl_srv_id(args, spec, no_nodes: int) -> int:
    """--fl-srv-id if given, else the default verify uses for this many nodes."""
    if args.fl_srv_id is not None:
        return args.fl_srv_id
    return harness.effective_fl_srv_id(spec, no_nodes)


def cmd_node(args) -> int:
    spec = get_example(args.example)
    fl_srv_id = _fl_srv_id(args, spec, args.no_nodes)
    ldata_arr = dataset_for(spec, args.no_nodes, args.seed)
    kwargs = {}
    if args.recv_timeout is not None:
        kwargs["recv_timeout"] = args.recv_timeout
    if args.connect_timeout is not None:
        kwargs["connect_timeout"] = args.connect_timeout
    cfg = FlConfig(
        no_nodes=args.no_nodes,
        node_id=args.node_id,
        fl_srv_id=fl_srv_id,
        base_port=args.base_port,
        no_iters=args.iters,
        **kwargs,
    )
    fault = args.after_phase if args.fault_node == args.node_id else None
    inst = FlInstance(cfg, fault_after_phase=fault)
    try:
        if spec.engine == CENTRALIZED:
            result = inst.fl_centralized(spec.callbacks, ldata_arr[args.node_id])
        else:
            result = inst.fl_decentralized(spec.callbacks, ldata_arr[args.node_id])
    finally:
        inst.shutdown()
    print(f"RESULT {args.node_id} {dumps(result)}")
    return EXIT_OK


def cmd_launch(args) -> int:
    spec = get_example(args.example)
    fl_srv_id = _fl_srv_id(args, spec, args.nodes)
    program = harness.node_program(
        args.example, args.iters, args.seed, args.recv_timeout, args.connect_timeout,
        args.fault_node, args.after_phase,
    )
    result = launch_all(
        LaunchSpec(
            program=tuple(program),
            no_nodes=args.nodes,
            fl_srv_id=fl_srv_id,
            base_port=args.base_port,
            per_node_timeout=args.timeout,
        )
    )
    for outcome in result.per_node:
        if outcome.stdout:
            sys.stdout.write(outcome.stdout)
        for line in outcome.stderr.splitlines():
            print(f"[node {outcome.node_id}] {line}", file=sys.stderr)
        if outcome.timed_out:
            print(f"[node {outcome.node_id}] terminated after timeout", file=sys.stderr)
    return EXIT_OK if result.overall_success else EXIT_ERROR


def cmd_verify(args) -> int:
    report = harness.run_and_verify(
        example_id=args.example,
        mode=args.mode,
        no_nodes=args.nodes,
        no_iters=args.iters,
        base_port=args.base_port,
        seed=args.seed,
        kill_node=args.kill_node,
        after_phase=args.after_phase,
        recv_timeout=args.recv_timeout,
        connect_timeout=args.connect_timeout,
    )
    text = report.to_text()
    if args.report:
        with open(args.report, "w", encoding="ascii") as f:
            f.write(text + "\n")
    else:
        print(text)
    return EXIT_OK if report.overall_match else EXIT_ERROR


def cmd_fuzz(args) -> int:
    summary = harness.fuzz_verify(args.engine, args.trials, args.seed)
    print(summary.to_text())
    return EXIT_OK if summary.ok else EXIT_ERROR


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ProtocolTimeout as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_TIMEOUT
    except FaultInjected as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR
    except FlError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
