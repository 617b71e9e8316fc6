"""Independent parts of a loop in two processes, with the serial loop as the
only definition of the result.

``optimizer._ascend_all`` (the starts of ``optimize``) and ``cli.cmd_verify``
(the random chunks of ``verify``) call ``split``: a forked child computes one
share of the parts and sends its result through a pipe as bytes, while the
caller computes the other share and reads them.  ``split`` returns the
caller's result, or else runs the caller's serial loop, which then decides
every result and every error: when the fork would not pay or the host does
not allow it (``_two_processes``), the pipe or the fork cannot be had, the
caller raised an ``Exception`` or the child exited with a status other
than 0.

Each caller estimates the time of its serial loop from its size, and a
loop below ``_MIN_SERIAL_SECONDS`` stays in one process.  On a 2-vCPU host
a bare fork, pipe and reap of the package-loaded interpreter takes ~2.5 ms,
but a split took 4-10 ms more than half the serial time (copy-on-write
faults in both processes, halves of unequal work), so it gains only on
loops of about 20 ms or more: from ~20000 interval-iterations of
``optimize`` starts and ~2200 ``verify`` sequences on.
"""

from __future__ import annotations

import os
import threading

# The least estimated serial time at which split forks.
_MIN_SERIAL_SECONDS = 0.02


def _two_processes(n_parts: int, seconds: float) -> bool:
    """Whether ``split`` forks: there are two parts or more, the serial
    loop is estimated at ``_MIN_SERIAL_SECONDS`` or more, the platform has
    ``os.fork`` and ``os.sched_getaffinity``, the affinity mask holds two
    CPUs or more, and no other thread is alive (a fork copies only the
    calling thread)."""
    return (n_parts > 1 and seconds >= _MIN_SERIAL_SECONDS
            and hasattr(os, "fork")
            and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2
            and threading.active_count() == 1)


def _start(child):
    """(pid, read end) of a forked child that sends ``child()``'s bytes
    down a pipe, or None where the pipe or the fork cannot be had."""
    try:
        read_fd, write_fd = os.pipe()
    except OSError:  # no descriptors to be had
        return None
    try:
        pid = os.fork()
    except OSError:  # no process to be had
        os.close(read_fd)
        os.close(write_fd)
        return None
    if pid == 0:  # the child: it never returns into the caller
        status = 1
        try:
            os.close(read_fd)
            with open(write_fd, "wb") as pipe:
                pipe.write(child())
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, read_fd


def split(n_parts: int, seconds: float, child, here, serial):
    """``here(pipe)`` while ``child()`` runs in a fork, or else ``serial()``.

    ``seconds`` is the caller's estimate of its serial loop's time.
    ``child`` takes no arguments and returns the bytes to send; any
    exception in it, or a pipe closed before they are sent, makes the
    child's exit status 1.  The child leaves only through ``os._exit``, so
    it runs no cleanup of the caller's and flushes none of its buffers.
    ``here`` gets the read end of the pipe as a binary file and reads it to
    its end.  The child is reaped before ``serial`` runs or this returns,
    killed first if ``here`` raised; a ``BaseException`` that is not an
    ``Exception``, such as ``KeyboardInterrupt``, propagates after that.
    """
    started = _start(child) if _two_processes(n_parts, seconds) else None
    if started is not None:
        pid, read_fd = started
        try:
            with open(read_fd, "rb") as pipe:
                result = here(pipe)
        except BaseException as error:
            import signal  # only on this path: a healthy run never needs it

            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            if not isinstance(error, Exception):
                raise
        else:
            if not os.waitpid(pid, 0)[1]:
                return result
    return serial()  # outside any handler: it raises again what `here` did
