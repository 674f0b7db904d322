"""``solver.simulate`` in a forked child that streams its records back.

``reconstruct`` feeds every record of its simulation to the pose pass, and
the two halves cost about the same.  :func:`simulate` runs them at once:
the simulation in a child forked from this process, the record consumer
here.  The child writes each record's time and (N+1, 12) physical values
to a pipe as it records them, and at the end its pickled ``Trajectory``,
or the exception it raised.  The arithmetic is that of the in-process
call, so every bit is the same.

The pipe is raised to ``PIPE_BYTES`` = 1 MiB where the kernel allows it
(``/proc/sys/fs/pipe-max-size``), about 40 records at N = 256.  The
default 64 KiB holds two, so the child stops whenever the pass works on a
block: on a 2-core VM the benchmark's ``reconstruct-helical`` took
1.31-1.38 s with it, against 0.86-0.87 s with 1 MiB.
"""

from __future__ import annotations

import contextlib
import fcntl
import os
import pickle
import struct

import numpy as np

from . import solver
from .errors import BeamstabError
from .model import StateField

PIPE_BYTES = 1 << 20

# the child's messages: a record, followed by its (N+1, 12) values, then
# the result, followed by that many bytes of a pickled tuple
# (trajectory, exception, the exception's traceback as text)
_RECORD = struct.Struct("=cd")  # b"r", the record's time
_RESULT = struct.Struct("=cq")  # b"e", the pickle's byte length


class ChildTraceback(Exception):
    """Where the simulation raised, in its own process: the cause of what is raised here."""


def simulate(config, matrices, reference, y0, *, on_record, **kwargs) -> solver.Trajectory:
    """``solver.simulate(config, matrices, reference, y0, on_record=on_record, **kwargs)``.

    The simulation runs in a forked child; ``on_record`` runs in this
    process, on each record as it arrives.  Returns the child's trajectory
    or raises the child's exception.  An exception raised by ``on_record``
    propagates at once.  Raises :class:`BeamstabError` when the child ends
    without a result.  The child has ended when this returns or raises.
    """
    read_fd, write_fd = os.pipe()
    with contextlib.suppress(OSError):  # a lower pipe-max-size: the same results, less overlap
        fcntl.fcntl(write_fd, fcntl.F_SETPIPE_SZ, PIPE_BYTES)
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        os.close(read_fd)
        _child(write_fd, (config, matrices, reference, y0), kwargs)
    os.close(write_fd)
    try:
        # closed before the wait: a child blocked on a full pipe then fails its write
        with open(read_fd, "rb") as pipe:
            result = _receive(pipe, y0.grid, on_record)
    finally:
        _, status = os.waitpid(pid, 0)
    if result is None:
        raise BeamstabError(
            "the simulation's process ended without a result "
            f"(exit status {os.waitstatus_to_exitcode(status)})"
        )
    trajectory, error, text = result
    if error is not None:
        raise error from ChildTraceback(text)
    return trajectory


def _child(write_fd: int, args: tuple, kwargs: dict):
    """Run the simulation, send its records and result to ``write_fd``, and exit."""
    status = 1
    try:
        with open(write_fd, "wb") as pipe:
            def send(record: StateField) -> None:
                pipe.write(_RECORD.pack(b"r", record.time))
                pipe.write(np.ascontiguousarray(record.values))

            try:
                result = (solver.simulate(*args, on_record=send, **kwargs), None, "")
            except Exception as exc:  # raised again in the parent
                import traceback  # only here: at the top it added to the command's peak memory

                result = (None, exc, traceback.format_exc())
            payload = pickle.dumps(result, pickle.HIGHEST_PROTOCOL)
            pipe.write(_RESULT.pack(b"e", len(payload)))
            pipe.write(payload)
        status = 0
    finally:
        os._exit(status)  # no atexit handlers, no flush of the parent's buffers


def _receive(pipe, grid: np.ndarray, on_record):
    """Hand each record to ``on_record``; the child's result, or None if it ended without one."""
    while len(head := pipe.read(_RECORD.size)) == _RECORD.size:
        if head[:1] == b"e":
            size = _RESULT.unpack(head)[1]
            payload = pipe.read(size)
            return pickle.loads(payload) if len(payload) == size else None
        values = np.empty((len(grid), 12))  # a new array: a consumer may keep the state
        if pipe.readinto(values) != values.nbytes:
            return None
        on_record(StateField(grid, "physical", values, _RECORD.unpack(head)[1]))
    return None
