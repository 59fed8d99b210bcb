"""Forked worker processes that walk a command's output with it.

analyze formats nearly all of its report's floats in them, and verify
runs its properties in them.  A walk is a callable of no arguments that
returns parts as files.doc_parts yields them: strings, and jobs (task, args).
Importing this module starts nothing; only a Pool of two or more workers
imports multiprocessing and forks.
"""

from __future__ import annotations

import os
import pickle
from contextlib import suppress
from itertools import cycle, islice

from .files import run_parts


def _widen(end) -> None:
    """Let the pipe of end hold 1 MiB where Linux allows it (the default
    limit of an unprivileged process): a worker then writes a rendered block
    at once and goes on to its next job, where a 64 KiB pipe would hold it
    until the parent had read the block nearly whole."""
    with suppress(ImportError, AttributeError, OSError):
        import fcntl
        fcntl.fcntl(end, fcntl.F_SETPIPE_SZ, 1 << 20)


def _serve(walk, w: int, workers: int, results, hold, parent_ends) -> None:
    """Worker w of Pool: answer each job k of walk() with k % workers == w by
    (args, task(*args), None), or (args, None, the exception it raised) and
    no more, pickled to the pipe file results; then wait for the parent to
    close hold.  parent_ends, the parent's ends of the pipes, are closed
    here, so that the parent's close is an end."""
    import signal

    # a Ctrl-C reaches the whole process group; the parent alone reports it
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    for end in parent_ends:
        end.close()
    jobs = (part for part in walk() if not isinstance(part, str))
    # a closed pipe ends the worker, and so does a walk that raises, as the
    # parent's own walk of the same parts raises
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
    hold.read(1)


class Pool:
    """Worker processes that walk the walk, a callable that returns parts.

    With workers < 2 there are none, and walk runs every job here.  Else W =
    workers processes are forked through multiprocessing's fork context,
    which flushes the standard streams first; they ignore Ctrl-C.  Each
    calls walk at once, runs its job k when k mod W is its index, and
    pickles the answer with the job's args to a pipe of its own, of 1 MiB:
    a worker runs at most that pipe and one job ahead.  So the parent is
    free to do other work before it walks the same walk, once, and reads
    job k's answer from worker k mod W; it sends no worker anything, and no
    task or array is pickled.  A job must not depend on anything that
    changes after the fork: the parent raises ChildProcessError when an
    answer's args differ from those of its own job k.  The strings may
    differ.  close, or the end of a with block, ends and joins the workers."""

    def __init__(self, walk, workers: int):
        self._walk, self._ends, self._procs = walk, [], []
        if workers < 2:
            return
        import multiprocessing
        context = multiprocessing.get_context("fork")
        hold, hold_w = map(open, os.pipe(), ("rb", "wb"))
        # the result ends of the workers, in order, then the end of hold
        self._ends.append(hold_w)
        try:
            with hold:
                for w in range(workers):
                    result_r, result_w = map(open, os.pipe(), ("rb", "wb"))
                    _widen(result_w)
                    self._ends.insert(w, result_r)
                    with result_w:
                        proc = context.Process(target=_serve, daemon=True, args=(
                            walk, w, workers, result_w, hold, self._ends))
                        proc.start()
                    self._procs.append(proc)
        except BaseException:
            self.close()
            raise

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """End the workers: close the parent's ends of the pipes, then join them."""
        for end in self._ends:
            end.close()
        for proc in self._procs:
            proc.join()
        self._ends, self._procs = [], []

    def walk(self):
        """Yield the parts of the walk: a string as it is, and for a job
        (task, args) task(*args).  An exception the task raised in a worker
        is raised here, in its turn.  A walk that does not run to its end
        closes the pool."""
        try:
            parts = self._walk()
            if not self._procs:
                yield from run_parts(parts)
                return
            turns = cycle(range(len(self._procs)))
            for part in parts:
                if isinstance(part, str):
                    yield part
                    continue
                w = next(turns)
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
