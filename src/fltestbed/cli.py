"""Command-line entry points.

    fltestbed node    one federation member; prints `RESULT <id> <data>`
    fltestbed launch  spawn a whole federation of node processes
    fltestbed verify  run an example and check it against its oracle
    fltestbed fuzz    randomized engine-vs-simulator trials

node, launch and verify share their run flags, and each builds one
examples.Run from them with examples.example_run. Building it makes every
check a node would make, so a bad run (a half fault pair, a node count
without a dataset, ports out of range, a timeout that is not a positive
finite number, --iters 0) exits 1 with one `error:` line before any node
starts; so does a verify --report path that cannot be written. A node calls
run.run_node; launch and verify --mode proc spawn the nodes through
harness.launch_federation, and verify --mode inproc runs them on threads.
Only launch, verify and fuzz import harness, so a node process loads the
node library alone. main is prepare, which parses argv on the parser built
at import and builds a node's run, then the command itself; the zygote
prepares each node before it forks it, so a forked node inherits its parsed
argv, its run and its bound listener, and imports nothing after the fork.

Exit codes: node exits 0 on success, 1 on protocol/config errors, 2 on a
receive timeout. verify exits 0 only when every node matched the oracle;
fuzz exits 0 only on a clean run.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext

from .engine import CENTRALIZED, DECENTRALIZED, FAULT_POINTS
from .errors import ConfigError, FlError, ProtocolTimeout
from .examples import EXAMPLES, Run, example_run
from .values import dumps

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_TIMEOUT = 2


def _add_run_flags(p: argparse.ArgumentParser, fault_flag: str) -> None:
    """The flags of one run of an example, shared by node, launch and verify."""
    p.add_argument("--example", type=int, required=True, choices=tuple(EXAMPLES))
    p.add_argument("--base-port", type=int, default=6000)
    p.add_argument("--iters", type=int, default=1)
    p.add_argument("--seed", type=int, default=None,
                   help="generate node data from this seed instead of the canonical dataset")
    p.add_argument("--recv-timeout", type=float, default=None, metavar="SECS")
    p.add_argument("--connect-timeout", type=float, default=None, metavar="SECS")
    p.add_argument(fault_flag, type=int, default=None, dest="fault_node", metavar="NODE",
                   help="node id that crashes itself after --after-phase")
    p.add_argument("--after-phase", choices=FAULT_POINTS, default=None)


def _add_server_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--fl-srv-id", type=int, default=None,
                   help="server node id (default: the example's canonical one, "
                        "clamped to the last node in smaller federations)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fltestbed",
        description="Testbed for callback-driven federated learning algorithms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    node = sub.add_parser("node", help="run one federation member (spawned by launch)")
    _add_run_flags(node, "--fault-node")
    _add_server_flag(node)
    node.add_argument("--no-nodes", type=int, required=True)
    node.add_argument("--node-id", type=int, required=True)
    node.set_defaults(func=cmd_node)

    launch = sub.add_parser("launch", help="spawn a federation of node processes")
    _add_run_flags(launch, "--fault-node")
    _add_server_flag(launch)
    launch.add_argument("--nodes", type=int, default=3, dest="no_nodes", metavar="N")
    launch.add_argument("--timeout", type=float, default=60.0, metavar="SECS",
                        help="per-node wall-clock budget before survivors are terminated")
    launch.set_defaults(func=cmd_launch)

    verify = sub.add_parser("verify", help="run an example and compare against the oracle")
    _add_run_flags(verify, "--kill-node")
    verify.add_argument("--mode", required=True, choices=("inproc", "proc"))
    verify.add_argument("--nodes", type=int, default=3, dest="no_nodes", metavar="N")
    verify.add_argument("--report", default=None, metavar="PATH",
                        help="write the report here instead of stdout")
    # verify always runs on the example's canonical server
    verify.set_defaults(func=cmd_verify, fl_srv_id=None)

    fuzz = sub.add_parser("fuzz", help="randomized engine-vs-simulator trials")
    fuzz.add_argument("--engine", required=True, choices=(CENTRALIZED, DECENTRALIZED))
    fuzz.add_argument("--trials", type=int, default=100)
    fuzz.add_argument("--seed", type=int, default=0)
    fuzz.set_defaults(func=cmd_fuzz)

    return parser


def _example_run(args) -> Run:
    """The run the shared run flags describe, checked before any node starts."""
    return example_run(args.example, args.no_nodes, args.iters, args.base_port, args.fl_srv_id,
                       args.seed, args.recv_timeout, args.connect_timeout, args.fault_node,
                       args.after_phase)


def cmd_node(args) -> int:
    if isinstance(args.listener, FlError):  # the zygote could not bind this node's port
        raise args.listener
    result = args.run.run_node(args.node_id, listener=args.listener)
    print(f"RESULT {args.node_id} {dumps(result)}")
    return EXIT_OK


def cmd_launch(args) -> int:
    from . import harness

    result = harness.launch_federation(_example_run(args), args.timeout)
    for outcome in result.per_node:
        if outcome.stdout:
            sys.stdout.write(outcome.stdout)
        for line in outcome.stderr.splitlines():
            print(f"[node {outcome.node_id}] {line}", file=sys.stderr)
        if outcome.timed_out:
            print(f"[node {outcome.node_id}] terminated after timeout", file=sys.stderr)
    return EXIT_OK if result.overall_success else EXIT_ERROR


def cmd_verify(args) -> int:
    from . import harness

    run = _example_run(args)
    try:
        out = open(args.report, "w", encoding="ascii") if args.report else nullcontext(sys.stdout)
    except OSError as e:
        raise ConfigError(f"cannot write the report to {args.report}: {e.strerror}") from None
    with out as f:
        report = harness.verify_run(run, args.mode)
        print(report.to_text(), file=f)
    return EXIT_OK if report.overall_match else EXIT_ERROR


def cmd_fuzz(args) -> int:
    from . import harness

    summary = harness.fuzz_verify(args.engine, args.trials, args.seed)
    print(summary.to_text())
    return EXIT_OK if summary.ok else EXIT_ERROR


_PARSER = build_parser()


def prepare(argv: list[str] | None = None) -> argparse.Namespace:
    """main's first step: parse argv and, for `node`, build the run it runs.

    It raises or exits as main would on a bad run, a usage error or --help.
    """
    args = _PARSER.parse_args(argv)
    if args.func is cmd_node:
        args.run, args.listener = _example_run(args), None  # the node binds its own port
    return args


def main(argv: list[str] | None = None, prepared: argparse.Namespace | None = None) -> int:
    """Run argv as `fltestbed` does: prepare it, unless `prepared` is what
    prepare(argv) returned already, then run its command."""
    try:
        args = prepare(argv) if prepared is None else prepared
        return args.func(args)
    except ProtocolTimeout as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_TIMEOUT
    except FlError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
