"""fltestbed: a small multi-process testbed for federated learning algorithms.

Write a client callback and a server callback, start the same program as N
independent node processes, and let the generic centralized or decentralized
engine move the data. Sequential simulators double as correctness oracles
for every distributed run.
"""

from .engine import CallbackPair, FlConfig, FlInstance, run_node
from .errors import (
    CallbackError,
    ConfigError,
    FaultInjected,
    FlError,
    LaunchError,
    ParseError,
    ProtocolTimeout,
    SerializationError,
    TransportError,
    UsageError,
)
from .examples import (
    EXAMPLES,
    ExampleSpec,
    get_example,
    seq_example1,
    seq_example2,
    sim_centralized,
    sim_decentralized,
)
from .harness import FuzzSummary, RunReport, fuzz_verify, run_and_verify
from .launcher import LaunchResult, LaunchSpec, launch_all
from .transport import Envelope, LoopbackHub, Phase, TcpTransport, TransportConfig
from .values import DEFAULT_ABS_TOL, DEFAULT_REL_TOL, Value, approx_eq, dumps, loads

__version__ = "0.1.0"

__all__ = [
    "CallbackPair",
    "CallbackError",
    "ConfigError",
    "DEFAULT_ABS_TOL",
    "DEFAULT_REL_TOL",
    "Envelope",
    "EXAMPLES",
    "ExampleSpec",
    "FaultInjected",
    "FlConfig",
    "FlError",
    "FlInstance",
    "FuzzSummary",
    "LaunchError",
    "LaunchResult",
    "LaunchSpec",
    "LoopbackHub",
    "ParseError",
    "Phase",
    "ProtocolTimeout",
    "RunReport",
    "SerializationError",
    "TcpTransport",
    "TransportConfig",
    "TransportError",
    "UsageError",
    "Value",
    "approx_eq",
    "dumps",
    "fuzz_verify",
    "get_example",
    "launch_all",
    "loads",
    "run_and_verify",
    "run_node",
    "seq_example1",
    "seq_example2",
    "sim_centralized",
    "sim_decentralized",
]
