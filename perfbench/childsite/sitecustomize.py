"""Traces a node process of a verify-proc run.

The benchmark puts this directory on the PYTHONPATH of node processes only
when it traces them, and names the directory for their results in
PERFBENCH_TRACE_DIR.
"""

import os
import sys

if os.environ.get("PERFBENCH_TRACE_DIR"):
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    import tracer

    tracer.install_in_child()
