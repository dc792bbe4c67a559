"""Process and per-thread resource readings taken from outside the program.

CPU time is read per thread from ``/proc/self/task/<tid>/stat`` and named
after the Python thread that owns the native id; threads Python does not know
(the BLAS pool) are grouped as ``native``.  Threads are grouped by role (all
replica workers together, all executor threads together), so the metric
names stay the same from run to run.
"""

from __future__ import annotations

import os
import resource
import threading
import time
from typing import Dict

_TICKS = os.sysconf("SC_CLK_TCK")

#: Thread-name prefix -> role.  The first match wins; unmatched Python
#: threads count as ``other``.
ROLES = (
    ("MainThread", "caller"),
    ("remote-client-", "client_loop"),
    ("gateway-", "gateway_loop"),
    ("asyncio_", "executor"),
    ("cluster-dispatcher", "dispatcher"),
    ("serve-worker-", "replica_workers"),
)
THREAD_ROLES = tuple(role for _, role in ROLES) + ("native", "other")


def role_of(name: str) -> str:
    for prefix, role in ROLES:
        if name.startswith(prefix):
            return role
    return "other"


def _thread_cpu_seconds(tid: int) -> float:
    try:
        with open(f"/proc/self/task/{tid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except OSError:  # the thread ended between listing and reading
        return 0.0
    # utime and stime are fields 14 and 15 of stat; after the ")" they sit
    # at offsets 11 and 12.
    return (int(fields[11]) + int(fields[12])) / _TICKS


def thread_cpu() -> Dict[str, float]:
    """CPU seconds so far, summed per thread role."""
    names = {thread.native_id: thread.name for thread in threading.enumerate()}
    totals = {role: 0.0 for role in THREAD_ROLES}
    for entry in os.listdir("/proc/self/task"):
        tid = int(entry)
        name = names.get(tid)
        role = "native" if name is None else role_of(name)
        totals[role] += _thread_cpu_seconds(tid)
    return totals


def process_cpu() -> float:
    """CPU seconds of every thread, plus any child process that was waited for."""
    times = os.times()
    return time.process_time() + times.children_user + times.children_system


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
