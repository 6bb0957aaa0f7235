"""The process pool that runs the parts of every command that takes ``--threads``.

``worker_count`` caps ``--threads``, and ``fork_map`` runs the parts under
the worker contract in its docstring.  Nothing here reads a file: the
callers cut the parts (``io.map_sample_ranges``, ``synth.synth_experiment``).
"""

from __future__ import annotations

import os
import warnings
from contextlib import suppress
from typing import BinaryIO, Callable, Sequence, TypeVar

from .errors import TrajfuseError

__all__ = ["usable_cpus", "worker_count", "fork_map"]


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the platform has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def worker_count(threads: int, items: int) -> int:
    """``threads`` capped by the usable CPUs and by ``items``, and at least 1; 1 without ``os.fork``.

    The cap is what keeps a huge ``threads`` from starting as many processes.
    """
    if not hasattr(os, "fork"):
        return 1
    return max(1, min(threads, usable_cpus(), items))


_Part = TypeVar("_Part")
_Result = TypeVar("_Result")


def fork_map(run: Callable[[_Part], _Result], parts: Sequence[_Part],
             label: Callable[[_Part], str]) -> list[_Result]:
    """``[run(part) for part in parts]``: one part here, or every part in a forked child.

    This is the worker contract of every command that takes ``--threads``.
    One part runs in this process, its warnings shown as they arise.  Of
    two or more, part i runs in a child on the i-th usable CPU (modulo
    their count): left to itself, the scheduler can keep a just-forked
    child on its parent's CPU for the whole of a short part.  This
    process only collects.  The results come back pickled, in part
    order, so ``run``'s results must pickle.  The lowest part's error is
    re-raised, as a serial run would raise it; a child that ends without
    a result (a signal, out of memory) is a TrajfuseError that names it
    by ``label(part)``.  Once an error cuts the run short, every child
    left is killed and reaped.  A child keeps its side effects, but the
    warnings it would show come back with its result, and only once
    every part has succeeded are they shown here, in part order, as a
    serial run shows them; a run that fails shows none of them.  A lock
    another thread holds at the fork stays held in the child, so fork
    from a process that runs one thread.
    """
    if len(parts) == 1:
        return [run(parts[0])]
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
    pending = []  # (part, pid, pipe) of each child not yet reaped, in part order
    try:
        for i, part in enumerate(parts):
            pending.append((part, *_fork(run, part, cpus[i % len(cpus)] if cpus else None)))
        done = [_collect(pending, label) for _ in parts]
    finally:
        if pending:  # an error cut the run short: these results are no longer wanted
            import signal

            for _, pid, pipe in pending:
                pipe.close()
                with suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    for _, shown in done:
        for message, category, filename, lineno in shown:
            warnings.warn_explicit(message, category, filename, lineno)
    return [value for value, _ in done]


def _fork(run: Callable[[_Part], object], part: _Part, cpu: int | None) -> tuple[int, BinaryIO]:
    """Run ``run(part)`` on ``cpu`` in a forked child; return its pid and the read end of its pipe.

    The child pipes back ``(None, result, warnings)``, the warnings it
    would have shown as (message, category, filename, lineno), or
    ``(error, None, [])`` if ``run`` raised, pickled, and exits 0 only
    once all of it is written.  Without a ``cpu``, or refused it, the
    child runs where the scheduler puts it.
    It leaves through ``os._exit``, so it never returns into the caller
    or runs its atexit handlers or flushes its inherited buffers.
    """
    import pickle

    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid:
        os.close(write_fd)
        return pid, open(read_fd, "rb")
    status = 1
    try:
        os.close(read_fd)
        if cpu is not None:
            with suppress(OSError):
                os.sched_setaffinity(0, {cpu})
        try:
            with warnings.catch_warnings(record=True) as caught:
                result = run(part)
            shown = [(str(w.message), w.category, w.filename, w.lineno) for w in caught]
            payload = pickle.dumps((None, result, shown), pickle.HIGHEST_PROTOCOL)
        except BaseException as e:
            payload = pickle.dumps((e, None, []), pickle.HIGHEST_PROTOCOL)
        with open(write_fd, "wb") as pipe:
            pipe.write(payload)
        status = 0
    finally:
        os._exit(status)


def _collect(pending: list, label: Callable[[_Part], str]) -> tuple[object, list]:
    """The result of the first pending child and the warnings it recorded, or its error re-raised.

    Reads the child's pipe as it streams in, reaps the child, and only
    then drops it from ``pending`` and re-raises; a child that ends
    without a result is a TrajfuseError naming ``label(part)``.  Should
    the reading fail, the child stays in ``pending`` for the caller to
    kill and reap.
    """
    import pickle
    import signal

    part, pid, pipe = pending[0]
    with pipe:
        try:
            sent = pickle.load(pipe)
        except (EOFError, pickle.UnpicklingError):  # the child's exit status says why
            sent = None
    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    del pending[0]
    if code != 0 or sent is None:
        how = f"exited with status {code}"
        if code < 0:
            try:
                how = f"was killed by {signal.Signals(-code).name}"
            except ValueError:  # a real-time signal, which the enum does not name
                how = f"was killed by signal {-code}"
        raise TrajfuseError(f"{label(part)} {how} without a result")
    error, value, shown = sent
    if error is not None:
        raise error
    return value, shown
