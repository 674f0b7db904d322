"""Library calls in a forked child that streams its results back.

Two commands use two cores through one helper, :func:`_child`: it forks,
runs a function in the child on the write end of a pipe, and on this
process's way out closes the read end and waits for the child.

* ``reconstruct`` (:func:`simulate`) feeds every record of its simulation
  to the pose pass, and the two halves cost about the same.  The child
  simulates and writes each record's time and (N+1, 12) physical values
  to the pipe as it records them, then its pickled ``Trajectory``; this
  process runs the pass on the records as they arrive.
* ``certify`` (:func:`certify`), on a grid of at least two
  ``table.ROW_BLOCK`` blocks of nodes, splits them at ``mid``, the
  largest multiple of ``ROW_BLOCK`` at most half the nodes.  The child
  eigensolves the interior margins of the nodes from ``mid`` on, sends
  them, then formats its rows of the report's margin table and sends them
  ``ROW_BLOCK`` rows at a time.  This process meanwhile eigensolves the
  nodes before ``mid``, verifies the certificate from all the margins,
  and formats its own rows; the child's rows follow them in the report.

Either child sends the exception it raised, pickled, in place of its
result, and it is raised here.  The arithmetic is that of the in-process
calls, so every bit is the same.

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

from . import certificate, solver
from .errors import BeamstabError
from .model import StateField
from .table import ROW_BLOCK, csv_chunks, csv_rows

PIPE_BYTES = 1 << 20

# the child's messages, each behind a 9-byte head: a record (b"r", its
# time) followed by its (N+1, 12) values; bytes (b"b", their length)
# followed by them; and last the result (b"e", the pickle's byte length)
# followed by a pickled tuple (value, exception, the exception's traceback
# as text)
_RECORD = struct.Struct("=cd")
_SIZED = struct.Struct("=cq")


class ChildTraceback(Exception):
    """Where the child raised, in its own process: the cause of what is raised here."""


class _Ended(Exception):
    """The child's pipe ended in the middle of, or in place of, a message."""


def simulate(config, matrices, reference, y0, *, on_record, **kwargs) -> solver.Trajectory:
    """``solver.simulate(config, matrices, reference, y0, on_record=on_record, **kwargs)``.

    The simulation runs in a forked child; ``on_record`` runs in this
    process, on each record as it arrives.  Returns the child's trajectory
    or raises the child's exception.  An exception raised by ``on_record``
    propagates at once.  Raises :class:`BeamstabError` when the child ends
    without a result.  The child has ended when this returns or raises.
    """
    def work(pipe):
        def send(record: StateField) -> None:
            pipe.write(_RECORD.pack(b"r", record.time))
            pipe.write(np.ascontiguousarray(record.values))

        return solver.simulate(config, matrices, reference, y0, on_record=send, **kwargs)

    grid = y0.grid
    with _child(work, "the simulation's process") as pipe:
        while (head := _read(pipe, _RECORD.size))[:1] == b"r":
            values = np.empty((len(grid), 12))  # a new array: a consumer may keep the state
            if pipe.readinto(values) != values.nbytes:
                raise _Ended
            on_record(StateField(grid, "physical", values, _RECORD.unpack(head)[1]))
        return _result(pipe, head)


def certify(matrices, reference, m, phi0, phiL):
    """``certificate.build_certificate(matrices, reference, m, phi0, phiL)`` and its margin table.

    Returns (certificate, table).  The certificate has every bit of the
    in-process one; its nodes from ``mid`` on are eigensolved in a forked
    child.  ``table`` yields the chunks of the report's margin table, as
    :func:`certificate.certificate_csv_chunks` does: the header line and
    this process's rows, then the child's rows as they arrive.  The child
    has ended when ``table`` is exhausted or closed, or when this raises:
    the exception the child raised, or :class:`BeamstabError` when it ends
    without its margins.
    """
    cert = certificate._unverified(matrices, reference, m, phi0, phiL)
    block = certificate.theta_matrix(matrices, cert.curvature)[6:, :6]
    mid = ROW_BLOCK * (len(cert.grid) // (2 * ROW_BLOCK))
    back = slice(mid, None)

    def work(pipe):
        margins = certificate._largest_of_halves(
            cert, matrices, block, *certificate._INTERIOR, nodes=back
        )
        _send(pipe, b"b", margins.tobytes())
        columns = [cert.grid[back], cert.w_minus[back], cert.w_plus[back], margins,
                   *certificate._slacks(cert, back)]
        for chunk in csv_rows(certificate._row_blocks(columns)):
            _send(pipe, b"b", chunk.encode())

    table = _verified_table(work, cert, matrices, block, mid)
    return next(table), table


def _verified_table(work, cert, matrices, block, mid: int):
    """Generator: ``cert`` verified, then its margin table's chunks, with ``work`` in a child."""
    front = slice(0, mid)
    with _child(work, "the certificate's process") as pipe:
        margins = certificate._largest_of_halves(
            cert, matrices, block, *certificate._INTERIOR, nodes=front
        )
        back = np.frombuffer(_message(pipe), dtype=float)
        cert = certificate._verified(cert, matrices, block, np.concatenate([margins, back]))
        yield cert
        columns = certificate._table_columns(cert, front)
        yield from csv_chunks(certificate._TABLE_HEADER, certificate._row_blocks(columns))
        while (chunk := _message(pipe)) is not None:
            yield chunk.decode()


@contextlib.contextmanager
def _child(work, name: str):
    """Fork a child that runs ``work(pipe)`` on the write end of a pipe; yield the read end.

    The child sends what ``work`` returns, or the exception it raised, as
    its result, and exits.  Leaving the block closes the read end, so a
    child blocked on a full pipe fails its write, and waits for the child:
    the child has ended when the block has.  A message cut short
    (:class:`_Ended`) leaves the block as a :class:`BeamstabError` naming
    ``name`` and the child's exit status.
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
        _run(write_fd, work)
    os.close(write_fd)
    ended = False
    try:
        # closed before the wait: a child blocked on a full pipe then fails its write
        with open(read_fd, "rb") as pipe:
            yield pipe
    except _Ended:
        ended = True
    finally:
        _, status = os.waitpid(pid, 0)
    if ended:
        raise BeamstabError(
            f"{name} ended without a result "
            f"(exit status {os.waitstatus_to_exitcode(status)})"
        )


def _run(write_fd: int, work):
    """Run ``work`` on ``write_fd``, send its result, and exit."""
    status = 1
    try:
        with open(write_fd, "wb") as pipe:
            try:
                result = (work(pipe), None, "")
            except Exception as exc:  # raised again in the parent
                import traceback  # only here: at the top it added to the command's peak memory

                result = (None, exc, traceback.format_exc())
            _send(pipe, b"e", pickle.dumps(result, pickle.HIGHEST_PROTOCOL))
        status = 0
    finally:
        os._exit(status)  # no atexit handlers, no flush of the parent's buffers


def _send(pipe, kind: bytes, data: bytes) -> None:
    pipe.write(_SIZED.pack(kind, len(data)))
    pipe.write(data)


def _read(pipe, size: int) -> bytes:
    """``size`` bytes of the pipe; raises :class:`_Ended` if it ends first."""
    data = pipe.read(size)
    if len(data) != size:
        raise _Ended
    return data


def _message(pipe) -> bytes | None:
    """The bytes of the child's next message, or None at its result (whose exception is raised)."""
    head = _read(pipe, _SIZED.size)
    if head[:1] == b"e":
        return _result(pipe, head)
    return _read(pipe, _SIZED.unpack(head)[1])


def _result(pipe, head: bytes):
    """The value of the child's result, behind ``head``; raises the child's exception."""
    value, error, text = pickle.loads(_read(pipe, _SIZED.unpack(head)[1]))
    if error is not None:
        raise error from ChildTraceback(text)
    return value
