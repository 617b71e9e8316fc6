"""Independent parts of a loop in two processes, with the serial loop as the
only definition of the result.

``optimizer._ascend_all`` (the starts of ``optimize``) and ``cli.cmd_verify``
(the random chunks of ``verify``) call ``split``: a forked child computes one
share of the parts and sends its result through a pipe as bytes, while the
caller computes the other share and reads them.  ``split`` returns the
caller's result, or ``NOT_SPLIT`` when the host does not allow the fork
(``_two_processes``), the pipe or the fork cannot be had, the caller raised
an ``Exception`` or the child exited with a status other than 0.  On
``NOT_SPLIT`` the caller runs its unchanged serial loop, which then decides
every result and every error.
"""

from __future__ import annotations

import os
import threading

NOT_SPLIT = object()


def _two_processes(n_parts: int) -> bool:
    """Whether ``split`` forks: there are two parts or more, the platform
    has ``os.fork`` and ``os.sched_getaffinity``, the affinity mask holds
    two CPUs or more, and no other thread is alive (a fork copies only the
    calling thread)."""
    return (n_parts > 1 and hasattr(os, "fork")
            and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2
            and threading.active_count() == 1)


def split(n_parts: int, child, here):
    """``here(pipe)`` in this process while ``child()`` runs in a fork.

    ``child`` takes no arguments and returns the bytes to send; any
    exception in it, or a pipe closed before they are sent, makes the
    child's exit status 1.  The child leaves only through ``os._exit``, so
    it runs no cleanup of the caller's and flushes none of its buffers.
    ``here`` gets the read end of the pipe as a binary file and reads it to
    its end.  The child is reaped before this returns, killed first if
    ``here`` raised; a ``BaseException`` that is not an ``Exception``, such
    as ``KeyboardInterrupt``, propagates after that.
    """
    if not _two_processes(n_parts):
        return NOT_SPLIT
    try:
        read_fd, write_fd = os.pipe()
    except OSError:  # no descriptors to be had: every part stays here
        return NOT_SPLIT
    try:
        pid = os.fork()
    except OSError:  # no process to be had
        os.close(read_fd)
        os.close(write_fd)
        return NOT_SPLIT
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
    try:
        with open(read_fd, "rb") as pipe:
            result = here(pipe)
    except BaseException as error:
        import signal  # only on this path: a healthy run never needs it

        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        if isinstance(error, Exception):  # the serial loop raises it again
            return NOT_SPLIT
        raise
    return NOT_SPLIT if os.waitpid(pid, 0)[1] else result
