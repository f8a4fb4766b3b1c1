"""Nothing outlives a run: the guards that make it so."""

import os
import signal
import subprocess
import sys
import tempfile
import threading
import time

import pytest

from harness import hygiene


def test_a_forgotten_child_is_found_killed_and_reaped():
    child = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
    try:
        assert child.pid in hygiene.child_pids()
        assert any(str(child.pid) in what for what in hygiene.survivors())
        assert child.pid in hygiene.kill_children()
        assert child.pid not in hygiene.child_pids()
    finally:
        child.kill()
        child.wait()


def test_a_zombie_counts_as_left_behind():
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline and child.pid not in hygiene.child_pids():
        time.sleep(0.01)
    time.sleep(0.2)  # exited, not yet waited for
    assert child.pid in hygiene.child_pids()
    hygiene.kill_children()
    assert child.pid not in hygiene.child_pids()
    child.wait()


def test_program_threads_are_named():
    release = threading.Event()
    thread = threading.Thread(target=release.wait, name="sts3-maintenance")
    thread.start()
    try:
        assert "thread sts3-maintenance" in hygiene.survivors()
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert "thread sts3-maintenance" not in hygiene.survivors()


def test_scratch_is_inside_the_benchmark_and_gone_afterwards():
    with hygiene.Scratch() as path:
        assert path.is_dir() and hygiene.WORK_ROOT in path.parents
        assert tempfile.gettempdir() == str(path)
        (path / "left.bin").write_bytes(b"x")
        assert any("scratch directory" in what for what in hygiene.survivors())
    assert not path.exists()
    assert not any("scratch directory" in what for what in hygiene.survivors())


def test_watchdog_raises_in_the_main_thread_and_restores_handlers():
    before = {sig: signal.getsignal(sig) for sig in (signal.SIGALRM, signal.SIGTERM, signal.SIGINT)}
    with pytest.raises(hygiene.RunAborted, match="watchdog"):
        with hygiene.guarded(0.05):
            time.sleep(5)
    assert signal.getitimer(signal.ITIMER_REAL)[0] == 0  # grace alarm cancelled too
    assert {sig: signal.getsignal(sig) for sig in before} == before


def test_sigterm_aborts_the_run():
    with pytest.raises(hygiene.RunAborted, match="SIGTERM"):
        with hygiene.guarded(30):
            os.kill(os.getpid(), signal.SIGTERM)
            time.sleep(5)
    assert signal.getitimer(signal.ITIMER_REAL)[0] == 0


def test_later_signals_do_not_interrupt_the_unwinding():
    unwound = False
    with pytest.raises(hygiene.RunAborted, match="SIGTERM"):
        with hygiene.guarded(None):
            assert signal.getitimer(signal.ITIMER_REAL)[0] == 0  # no watchdog asked for
            try:
                os.kill(os.getpid(), signal.SIGTERM)
                time.sleep(5)
            finally:
                os.kill(os.getpid(), signal.SIGTERM)
                os.kill(os.getpid(), signal.SIGINT)
                unwound = True
    assert unwound


STUBBORN = """
import os, signal, sys, time
signal.signal(signal.SIGTERM, signal.SIG_IGN)
os.mkdir(sys.argv[1] + f"/run-{os.getpid()}-stubborn")
if os.fork() == 0:
    time.sleep(60)
    os._exit(0)
print("up", flush=True)
time.sleep(60)
"""


def test_a_session_that_will_not_end_is_killed_and_its_scratch_removed(monkeypatch):
    monkeypatch.setattr(hygiene, "SESSION_GRACE_S", 0.3)
    hygiene.WORK_ROOT.mkdir(exist_ok=True)
    child = subprocess.Popen(
        [sys.executable, "-c", STUBBORN, str(hygiene.WORK_ROOT)],
        start_new_session=True, stdout=subprocess.PIPE,
    )
    try:
        assert child.stdout.readline() == b"up\n"
        scratch = hygiene.WORK_ROOT / f"run-{child.pid}-stubborn"
        members = hygiene.session_pids(child.pid)
        assert len(members) == 2 and scratch.is_dir()
        cleaned = hygiene.end_session(child)
    finally:
        child.kill()
        child.stdout.close()
    assert child.returncode == -signal.SIGKILL and not scratch.exists()
    deadline = time.monotonic() + 10  # the orphan is dead; init reaps it in its own time
    while hygiene.session_pids(child.pid) and time.monotonic() < deadline:
        time.sleep(0.01)
    assert hygiene.session_pids(child.pid) == []
    assert sorted(cleaned) == sorted(
        [f"killed pid {pid} of the session of child {child.pid}" for pid in members]
        + [f"removed scratch directory {scratch}"]
    )


def test_a_session_that_ended_by_itself_needs_no_cleaning():
    child = subprocess.Popen([sys.executable, "-c", "pass"], start_new_session=True)
    child.wait(timeout=30)
    assert hygiene.end_session(child) == []


HANGS_WHILE_UNWINDING = """
import subprocess, sys, time
sys.path.insert(0, sys.argv[1])
from harness import hygiene
with hygiene.guarded(0.2, grace_s=0.3), hygiene.Scratch() as scratch:
    child = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
    print(child.pid, scratch, flush=True)
    try:
        time.sleep(60)
    finally:
        time.sleep(60)  # an unwinding that never ends
"""


def test_an_unwinding_that_hangs_ends_hard_with_nothing_left():
    bench_root = str(hygiene.WORK_ROOT.parent)
    proc = subprocess.run(
        [sys.executable, "-c", HANGS_WHILE_UNWINDING, bench_root],
        capture_output=True, text=True, timeout=30,
    )
    assert proc.returncode == hygiene.EXIT_ABORTED, proc.stderr[-2000:]
    child_pid, scratch = proc.stdout.split()
    assert not os.path.exists(scratch)
    assert not os.path.exists(f"/proc/{child_pid}")
