"""Weekly sweep execution.

The monitored-FQDN list is the pipeline's unit of scale (Section 3.2
monitors millions of names weekly).  Each weekly sweep samples that
list as one inline shard and records each name as it samples it, in
input order, so a sweep of a fault-free world is byte-identical to a
plain serial loop.  Nothing in the program forks.
"""

from repro.parallel.executor import ProcessExecutor, SerialExecutor
from repro.parallel.shard import fast_path_eligible

__all__ = [
    "ProcessExecutor",
    "SerialExecutor",
    "fast_path_eligible",
]
