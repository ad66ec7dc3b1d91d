"""Stopping and waiting for every process a benchmark process started.

A spawn-context pool starts multiprocessing's resource tracker next to
its workers.  Closing the pool joins the workers but not the tracker: it
runs until its parent exits and then ends with nobody waiting for it.
:func:`adopt_orphans` makes this process the reaper of its descendants
(Linux ``PR_SET_CHILD_SUBREAPER``), so what a killed set-up probe leaves
behind comes back here; :func:`stop_children` stops the tracker, waits
for every child, and kills any that outlives the grace period.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import signal
import time
from multiprocessing import resource_tracker

PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> None:
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        errno = ctypes.get_errno()
        raise OSError(errno, os.strerror(errno), "PR_SET_CHILD_SUBREAPER")


def child_pids() -> list[int]:
    """Processes, running or exited, whose parent is this one."""
    me = os.getpid()
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as fh:
                stat = fh.read()
        except OSError:  # ended meanwhile
            continue
        # the command name may hold spaces or parentheses; the fields
        # after its closing parenthesis are state, then parent pid
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            pids.append(int(entry))
    return pids


def stop_children(grace: float = 5.0) -> None:
    """Stop the resource tracker, then wait for every child; after
    ``grace`` seconds the ones still alive are killed and waited for."""
    resource_tracker._resource_tracker._stop()
    deadline = time.monotonic() + grace
    while pids := child_pids():
        late = time.monotonic() >= deadline
        for pid in pids:
            if late:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
            with contextlib.suppress(ChildProcessError):
                os.waitpid(pid, 0 if late else os.WNOHANG)
        if not late:
            time.sleep(0.01)
