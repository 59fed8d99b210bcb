"""Forked worker processes that walk a command's output with it.

analyze formats nearly all of its report's floats on the pool, in jobs of
even cost; no other command forks.  A walk is a callable of no arguments
that returns parts as files.doc_parts yields them: strings, and jobs
(task, args).  Importing this module starts nothing; a Pool of W processes
forks W - 1 workers with os.fork, not multiprocessing.  The parent is the
last of the W and runs its own share of the jobs.  A worker exits once its
share of the answers is written, and the parent reaps it.
"""

from __future__ import annotations

import os
import pickle
import signal
import sys
from contextlib import suppress
from itertools import cycle, islice


def _widen(end) -> None:
    """Let the pipe of end take 1 MiB where Linux allows it (the default
    limit of an unprivileged process): a worker then writes a rendered block
    at once and goes on to its next job, where a 64 KiB pipe would keep it
    waiting until the parent had read the block nearly whole."""
    with suppress(ImportError, AttributeError, OSError):
        import fcntl
        fcntl.fcntl(end, fcntl.F_SETPIPE_SZ, 1 << 20)


def _fork(walk, w: int, workers: int, results, parent_ends) -> int:
    """The pid of forked worker w, w < workers - 1, of a Pool of workers
    processes.  It closes parent_ends, the parent's ends of the pipes, so
    that the parent's close is an end; it answers each job k of walk() with
    k % workers == w by (args, task(*args), None), or (args, None, the
    exception it raised) and no more, pickled to the pipe file results; and
    once its share is written it exits with os._exit: 0, or 1 when that
    raised.  So it runs no exit handler, flushes no buffer it inherited and
    never returns into its parent's code.  The standard streams are flushed
    before the fork, so that no child keeps a copy of their buffers.  The
    child ignores Ctrl-C, which reaches the whole process group, so that the
    parent alone reports it; SIGINT stays blocked across the fork, so that
    one arriving then reaches the parent, and the child only once it
    ignores it."""
    for stream in (sys.stdout, sys.stderr):
        with suppress(AttributeError, ValueError):  # None, or closed
            stream.flush()
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
    try:
        pid = os.fork()
        if not pid:
            signal.signal(signal.SIGINT, signal.SIG_IGN)
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
    if pid:
        return pid
    code = 1
    try:
        for end in parent_ends:
            end.close()
        jobs = (part for part in walk() if not isinstance(part, str))
        # a closed pipe ends the worker, and so does a walk that raises, as
        # the parent's own walk of the same parts raises
        with suppress(Exception), results:
            for task, args in islice(jobs, w, None, workers):
                try:
                    answer = args, task(*args), None
                except Exception as e:
                    answer = args, None, e
                results.write(pickle.dumps(answer, pickle.HIGHEST_PROTOCOL))
                results.flush()
                if answer[2] is not None:
                    break
        code = 0
    finally:
        os._exit(code)


class Pool:
    """W = workers processes that walk the walk, a callable that returns
    parts: W - 1 forked workers (_fork), which ignore Ctrl-C, and this
    process, the last of them.  Each worker calls walk at once, runs its
    job k when k mod W is its index w < W - 1, and pickles the answer with
    the job's args to a pipe of its own, of 1 MiB: a worker runs at most
    that pipe and one job ahead.  The parent walks the same walk, once,
    runs job k itself when k mod W = W - 1 and reads every other answer
    from worker k mod W; it sends no worker anything, and no task or array
    is pickled.  With W = 1 nothing is forked and the parent runs every
    job.  A job must not depend on anything that changes after the fork:
    the parent raises ChildProcessError when an answer's args differ from
    those of its own job k.  A worker exits once it has written its share,
    or its first exception.  close, or the end of a with block, closes the
    pipes, which ends a worker that is still writing, and reaps the
    workers (os.waitpid)."""

    def __init__(self, walk, workers: int):
        self._walk, self._ends, self._pids = walk, [], []
        try:
            for w in range(workers - 1):
                result_r, result_w = map(open, os.pipe(), ("rb", "wb"))
                _widen(result_w)
                self._ends.append(result_r)
                with result_w:
                    self._pids.append(_fork(walk, w, workers, result_w, self._ends))
        except BaseException:
            self.close()
            raise

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """End the workers: close the parent's ends of the pipes, so that a
        worker still writing ends, then reap them.  A close that an
        exception interrupts leaves the workers it has not reaped to the
        next close."""
        for end in self._ends:
            end.close()
        self._ends = []
        while self._pids:
            with suppress(ChildProcessError):  # reaped already
                os.waitpid(self._pids[-1], 0)
            self._pids.pop()

    def walk(self):
        """Yield the parts of the walk: a string as it is, and for a job
        (task, args) task(*args), run here in this process's turns.  An
        exception the task raised, here or in a worker, is raised here, in
        its turn.  A walk that does not run to its end closes the pool."""
        try:
            last = len(self._ends)  # this process's turn, W - 1
            turns = cycle(range(last + 1))
            for part in self._walk():
                if isinstance(part, str):
                    yield part
                    continue
                w = next(turns)
                if w == last:
                    yield part[0](*part[1])
                    continue
                try:
                    args, value, error = pickle.load(self._ends[w])
                except (EOFError, pickle.UnpicklingError):
                    raise ChildProcessError(f"worker {w} ended without an answer") from None
                if args != part[1]:
                    raise ChildProcessError(f"worker {w} ran a job of args {args!r}, "
                                            f"not {part[1]!r}")
                if error is not None:
                    raise error
                yield value
        except BaseException:  # GeneratorExit included
            self.close()
            raise
