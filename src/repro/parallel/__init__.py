"""Weekly sweep execution and the fork primitive.

The monitored-FQDN list is the pipeline's unit of scale (Section 3.2
monitors millions of names weekly).  Each weekly sweep samples that
list as one inline shard and records the results in input order, so a
sweep of a fault-free world is byte-identical to a plain serial loop.
The fork primitive (:mod:`repro.parallel.supervisor`) serves the
analysis pool.
"""

from repro.parallel.executor import (
    ProcessExecutor,
    SerialExecutor,
    SweepExecutor,
    SweepReport,
)
from repro.parallel.shard import ShardResult, fast_path_eligible
from repro.parallel.supervisor import WorkerFailure

__all__ = [
    "ProcessExecutor",
    "SerialExecutor",
    "SweepExecutor",
    "SweepReport",
    "ShardResult",
    "WorkerFailure",
    "fast_path_eligible",
]
