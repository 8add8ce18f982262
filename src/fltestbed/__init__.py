"""fltestbed: a small multi-process testbed for federated learning algorithms.

Write a client callback and a server callback, start the same program as N
independent node processes, and let the generic centralized or decentralized
engine move the data. Sequential simulators double as correctness oracles
for every distributed run.

The package root is the node library (engine, errors, examples, transport,
values), which is all a node process loads. The tooling that spawns and
checks federations is imported as fltestbed.harness and fltestbed.launcher.
"""

from .engine import CallbackPair, FlConfig, FlInstance
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
    get_example,
    seq_example1,
    seq_example2,
    sim_centralized,
    sim_decentralized,
)
from .transport import Envelope, LoopbackHub, Phase, TcpTransport
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
    "FaultInjected",
    "FlConfig",
    "FlError",
    "FlInstance",
    "LaunchError",
    "LoopbackHub",
    "ParseError",
    "Phase",
    "ProtocolTimeout",
    "SerializationError",
    "TcpTransport",
    "TransportError",
    "UsageError",
    "Value",
    "approx_eq",
    "dumps",
    "get_example",
    "loads",
    "seq_example1",
    "seq_example2",
    "sim_centralized",
    "sim_decentralized",
]
