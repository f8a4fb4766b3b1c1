"""Process and resource hygiene: nothing outlives a run.

Three guards, all owned by the one foreground benchmark process:

- :func:`guarded` — a per-run watchdog (``SIGALRM``) plus ``SIGTERM`` /
  ``SIGINT`` handlers that raise in the main thread, so every
  ``finally`` between the signal and the exit still runs; if unwinding
  itself hangs, a second alarm kills the children, removes the scratch
  directories and exits hard.
- :class:`Scratch` — the only directory a run writes to, inside the
  benchmark's own tree (a checkout may be the only writable place), and
  removed on exit.
- :func:`survivors` — what a finished run must not leave: child
  processes (``multiprocessing`` or otherwise, zombies included),
  ``sts3-*`` threads and scratch directories.  Shard workers are
  *forked*, so they carry the runner's command line; only the parent
  pid in ``/proc`` tells them apart.

The set runner starts each workload in a child of its own session and
ends it with :func:`end_session`, which also covers what that child
forked and the scratch directory it could not remove itself.
"""

from __future__ import annotations

import multiprocessing
import os
import secrets
import shutil
import signal
import subprocess
import tempfile
import threading
import time
from contextlib import contextmanager
from pathlib import Path

__all__ = [
    "EXIT_ABORTED",
    "RunAborted",
    "SET_GRACE_S",
    "Scratch",
    "WORK_ROOT",
    "child_pids",
    "end_session",
    "guarded",
    "kill_children",
    "remove_scratch",
    "session_pids",
    "survivors",
]

#: every scratch directory lives here (git-ignored).
WORK_ROOT = Path(__file__).resolve().parents[1] / ".work"

#: seconds a run gets to unwind after the watchdog or a signal fired.
UNWIND_GRACE_S = 15.0
#: seconds :func:`end_session` waits for a child to unwind by itself; the
#: set runner's own grace is longer still.
SESSION_GRACE_S = UNWIND_GRACE_S + 5.0
SET_GRACE_S = SESSION_GRACE_S + 10.0
#: exit status of a run that was aborted (as ``timeout(1)`` reports it).
EXIT_ABORTED = 124


class RunAborted(BaseException):
    """Watchdog expiry or a termination signal.

    A ``BaseException`` so the program's ``except Exception`` boundaries
    (RPC retries, server request handlers) cannot swallow it.
    """


def _proc_stat() -> dict[int, tuple[int, int]]:
    """``{pid: (parent pid, session id)}`` of every process (Linux ``/proc``)."""
    table = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:
            continue  # exited while we were listing
        # "pid (comm) state ppid pgrp session ..." — comm may hold spaces
        # and parentheses
        fields = stat[stat.rfind(")") + 2:].split()
        table[int(entry)] = (int(fields[1]), int(fields[3]))
    return table


def child_pids() -> list[int]:
    """Pids whose parent is this process, zombies included."""
    me = os.getpid()
    return [pid for pid, (parent, _) in _proc_stat().items() if parent == me]


def session_pids(session: int) -> list[int]:
    """Pids of the session ``session``: a workload's child and all it forked."""
    return [pid for pid, (_, sid) in _proc_stat().items() if sid == session]


def _kill(pids: list[int]) -> None:
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


def kill_children() -> list[int]:
    """SIGKILL and reap every child of this process; returns their pids.

    A child that leads a session of its own (a workload's process under
    the set runner) takes the rest of its session with it.
    """
    pids = child_pids()
    _kill([member for pid in pids for member in session_pids(pid)])
    _kill(pids)
    for pid in pids:
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass  # multiprocessing or subprocess reaped it first
    return pids


def remove_scratch(pid: int) -> list[str]:
    """Remove the scratch directories the process ``pid`` made; returns them."""
    removed = []
    if WORK_ROOT.exists():
        for path in sorted(WORK_ROOT.glob(f"run-{pid}-*")):
            shutil.rmtree(path, ignore_errors=True)
            removed.append(str(path))
    try:
        WORK_ROOT.rmdir()  # only when no other run shares it
    except OSError:
        pass
    return removed


def end_session(child: subprocess.Popen) -> list[str]:
    """End a child that leads its own session, and all that session holds.

    A child still running is asked to stop (``SIGTERM``: it unwinds,
    closes what it opened and removes its scratch directory) and given
    :data:`SESSION_GRACE_S`; then whatever is left of its session is
    killed, the child reaped and its scratch directory removed.
    Returns what had to be killed or removed for it, one line each;
    nothing when the child had ended cleanly by itself.
    """
    cleaned = []
    if child.poll() is None:
        child.terminate()
        try:
            child.wait(timeout=SESSION_GRACE_S)
        except subprocess.TimeoutExpired:
            pass
    child.poll()  # reaps it if it has ended, so it is not counted below
    left = session_pids(child.pid)
    if left:
        _kill(left)
        cleaned += [f"killed pid {pid} of the session of child {child.pid}" for pid in left]
    child.wait()
    cleaned += [f"removed scratch directory {path}" for path in remove_scratch(child.pid)]
    return cleaned


def survivors() -> list[str]:
    """Human-readable descriptions of everything a run left behind."""
    found = []
    for proc in multiprocessing.active_children():  # also reaps the finished
        found.append(f"multiprocessing child {proc.name} (pid {proc.pid})")
    for pid in child_pids():
        found.append(f"child process pid {pid}")
    for thread in threading.enumerate():
        if thread.name.startswith("sts3-") and thread.is_alive():
            found.append(f"thread {thread.name}")
    if WORK_ROOT.exists():
        for path in sorted(WORK_ROOT.iterdir()):
            if path.name.startswith(f"run-{os.getpid()}-"):
                found.append(f"scratch directory {path}")
    return found


class Scratch:
    """A run's private directory under :data:`WORK_ROOT`, removed on exit.

    While open, ``tempfile`` defaults here too, so nothing the program
    creates on its own lands outside the benchmark's tree.
    """

    def __init__(self):
        self.path: Path | None = None
        self._saved_tempdir = None

    def __enter__(self) -> Path:
        WORK_ROOT.mkdir(parents=True, exist_ok=True)
        self.path = WORK_ROOT / f"run-{os.getpid()}-{secrets.token_hex(4)}"
        self.path.mkdir()
        self._saved_tempdir = tempfile.tempdir
        tempfile.tempdir = str(self.path)
        return self.path

    def __exit__(self, *exc) -> None:
        tempfile.tempdir = self._saved_tempdir
        remove_scratch(os.getpid())


@contextmanager
def guarded(timeout_s: float | None, grace_s: float = UNWIND_GRACE_S):
    """Abort the enclosed run after ``timeout_s`` or on SIGTERM/SIGINT.

    The first signal raises :class:`RunAborted` in the main thread and
    later ones are ignored, so the unwinding is not itself interrupted;
    if the run has not unwound ``grace_s`` later, the children are
    killed, their and this process's scratch directories removed, and
    the process exits with status 124.  ``timeout_s`` of ``None`` sets
    no watchdog (the set runner, whose children each have their own).
    """
    def hard_exit(signum, frame):
        for pid in kill_children() + [os.getpid()]:
            remove_scratch(pid)
        os._exit(EXIT_ABORTED)

    def abort(signum, frame):
        signal.signal(signal.SIGALRM, hard_exit)
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.setitimer(signal.ITIMER_REAL, grace_s)
        reason = "watchdog" if signum == signal.SIGALRM else signal.Signals(signum).name
        raise RunAborted(f"run aborted by {reason} after {time.monotonic() - started:.1f}s")

    started = time.monotonic()
    watched = (signal.SIGALRM, signal.SIGTERM, signal.SIGINT)
    saved = {sig: signal.signal(sig, abort) for sig in watched}
    signal.setitimer(signal.ITIMER_REAL, timeout_s or 0)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        for sig, handler in saved.items():
            signal.signal(sig, handler)
