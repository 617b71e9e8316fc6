"""``_fork.split``: the serial loop runs once on every path that does not
return the split's result, and never after a healthy split."""

import errno
import os
from unittest import mock

import pytest

from lambda_control import _fork
from oracles import assert_no_child, fork_paths


def _split(child=lambda: b"sent", here=lambda pipe: pipe.read()):
    """split with a serial loop that counts its calls: (result, calls)."""
    calls = []

    def serial():
        calls.append(None)
        return "serial"

    return _fork.split(2, 1.0, child, here, serial), len(calls)


def _raise(error):
    raise error


class TestSplit:
    def test_healthy_split_never_runs_the_serial_loop(self):
        with fork_paths()["forked"], \
                mock.patch.object(os, "fork", wraps=os.fork) as fork:
            assert _split() == (b"sent", 0)
        assert fork.call_count == 1
        assert_no_child()

    def test_no_split(self):
        with fork_paths()["serial"], \
                mock.patch.object(os, "fork", wraps=os.fork) as fork:
            assert _split() == ("serial", 1)
        assert not fork.called

    @pytest.mark.parametrize("call", ["pipe", "fork"])
    def test_no_pipe_or_no_fork(self, call):
        # No descriptors or no process to be had: the serial loop runs,
        # not an OSError, and no descriptor is left open.
        error = OSError(errno.EAGAIN, "Resource temporarily unavailable")
        before = sorted(os.listdir("/proc/self/fd"))
        with fork_paths()["forked"], \
                mock.patch.object(os, call, side_effect=error):
            assert _split() == ("serial", 1)
        assert sorted(os.listdir("/proc/self/fd")) == before
        assert_no_child()

    def test_here_raised(self):
        def here(pipe):
            raise ValueError("here failed")

        with fork_paths()["forked"]:
            assert _split(here=here) == ("serial", 1)
        assert_no_child()

    @pytest.mark.parametrize("child", [
        lambda: _raise(ValueError("child failed")),
        lambda: os._exit(3),
    ], ids=["raised", "exit_status_3"])
    def test_child_exited_non_zero(self, child):
        with fork_paths()["forked"]:
            assert _split(child=child) == ("serial", 1)
        assert_no_child()

    def test_serial_loop_raises_outside_the_handler(self):
        # What the serial loop raises does not chain to what `here` raised.
        def here(pipe):
            raise ValueError("here failed")

        def serial():
            raise ValueError("serial failed")

        with fork_paths()["forked"]:
            with pytest.raises(ValueError, match="^serial failed$") as info:
                _fork.split(2, 1.0, lambda: b"", here, serial)
        assert info.value.__context__ is None
        assert_no_child()
