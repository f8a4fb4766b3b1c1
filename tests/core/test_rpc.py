"""Pipe RPC failure modes, over a real ``multiprocessing.Pipe``.

The supervisor's contract with :mod:`repro.core.rpc`: every way a
conversation can go wrong surfaces as an :class:`RpcError` subclass
(the supervisor catches nothing else), and a reply is only ever paired
with the request that caused it.
"""

import multiprocessing as mp

import numpy as np
import pytest

from repro.core.rpc import (
    RpcError,
    RpcTimeout,
    WorkerDied,
    call,
    recv_frame,
    send_frame,
)
from repro.serve.protocol import ProtocolError, pack_message


@pytest.fixture
def pipe():
    ours, theirs = mp.Pipe(duplex=True)
    yield ours, theirs
    ours.close()
    theirs.close()


def test_call_returns_the_reply_that_echoes_its_req(pipe):
    ours, theirs = pipe
    blob = np.arange(4, dtype=np.float64)
    send_frame(theirs, {"op": "pong", "req": 7}, [blob])  # reply waits in the pipe
    reply, arrays = call(ours, {"op": "ping"}, req=7, timeout=1.0)
    assert reply["op"] == "pong"
    assert arrays[0].tobytes() == blob.tobytes()
    request, _ = recv_frame(theirs, 1.0)
    assert request["op"] == "ping" and request["req"] == 7


def test_silent_peer_is_a_timeout(pipe):
    ours, _ = pipe
    with pytest.raises(RpcTimeout):
        call(ours, {"op": "ping"}, req=1, timeout=0.05)


def test_closed_peer_is_worker_died(pipe):
    ours, theirs = pipe
    theirs.close()
    with pytest.raises(WorkerDied):
        call(ours, {"op": "ping"}, req=1, timeout=1.0)


@pytest.mark.parametrize(
    "payload",
    [
        b"",
        b"\x00\x01",
        b"not a frame at all",
        pack_message({"op": "pong", "req": 1}, [np.zeros(8)])[:-5],
    ],
    ids=["empty", "short", "garbage", "truncated"],
)
def test_undecodable_bytes_are_an_rpc_error(pipe, payload):
    ours, theirs = pipe
    theirs.send_bytes(payload)
    with pytest.raises(RpcError) as raised:
        call(ours, {"op": "ping"}, req=1, timeout=1.0)
    assert isinstance(raised.value, WorkerDied)
    assert not isinstance(raised.value, ProtocolError)


def test_stale_reply_is_discarded_not_returned(pipe):
    ours, theirs = pipe
    # the reply to a request that timed out arrives late, ahead of the
    # reply to the next request
    send_frame(theirs, {"op": "result", "answer": "old", "req": 3})
    send_frame(theirs, {"op": "result", "answer": "new", "req": 4})
    reply, _ = call(ours, {"op": "query"}, req=4, timeout=1.0)
    assert reply["answer"] == "new"
    assert not ours.poll(0)  # and nothing is left behind


def test_stale_reply_alone_still_times_out(pipe):
    ours, theirs = pipe
    send_frame(theirs, {"op": "result", "req": 3})
    with pytest.raises(RpcTimeout):
        call(ours, {"op": "query"}, req=4, timeout=0.05)


@pytest.mark.parametrize("echoed", [None, "4", 9], ids=["absent", "string", "future"])
def test_reply_that_cannot_be_paired_is_worker_died(pipe, echoed):
    ours, theirs = pipe
    header = {"op": "result"} if echoed is None else {"op": "result", "req": echoed}
    send_frame(theirs, header)
    with pytest.raises(WorkerDied):
        call(ours, {"op": "query"}, req=4, timeout=1.0)
