"""Forked worker processes that run jobs and return their results in order.

analyze formats nearly all of its floats in them.  A job is (task, args):
the task is a function the workers inherited when they were forked, so
the O(n^2) arrays it refers to are never pickled, and args are small
picklable values, such as a range of rows.  Pool.imap takes a stream of
strings and jobs, the parts of files.doc_parts, and yields each string
as it is and each job's result in its place.

Importing this module starts nothing; only a Pool of two or more workers
imports multiprocessing and forks.
"""

from __future__ import annotations

import os
import pickle
from collections import deque
from contextlib import suppress

from .files import run_parts


def _send(end, obj) -> None:
    """Write obj to the pipe file end as a length-prefixed pickle."""
    data = pickle.dumps(obj, pickle.HIGHEST_PROTOCOL)
    end.write(len(data).to_bytes(8, "little"))
    end.write(data)
    end.flush()


def _receive(end, buffer: bytearray):
    """The next object that _send wrote to end, read through buffer, which
    grows to the longest message.  EOFError once the writer has closed its
    end, or if it closed it within a message.  No byte past the message is
    read, so that a poll of end sees the next one."""
    _fill(end, buffer, 8)
    size = int.from_bytes(buffer[:8], "little")
    _fill(end, buffer, size)
    with memoryview(buffer) as view:
        return pickle.loads(view[:size])


def _fill(end, buffer: bytearray, size: int) -> None:
    """Read size bytes from end into the start of buffer, grown to hold them."""
    if size > len(buffer):
        buffer.extend(bytes(size - len(buffer)))
    with memoryview(buffer) as view:
        got = 0
        while got < size:
            count = end.readinto(view[got:size])
            if not count:
                raise EOFError("the pipe closed")
            got += count


def _widen(end) -> None:
    """Let the pipe of end hold 1 MiB where Linux allows it (the default
    limit of an unprivileged process): a worker then writes a rendered block
    at once and goes on to its next job, where a 64 KiB pipe would hold it
    until the parent had read the block nearly whole."""
    with suppress(ImportError, AttributeError, OSError):
        import fcntl
        fcntl.fcntl(end, fcntl.F_SETPIPE_SZ, 1 << 20)


def _serve(tasks, items, results, parent_ends) -> None:
    """A forked worker of Pool: answer each (k, args) that the pipe file
    items brings with (tasks[k](*args), None), or (None, the exception it
    raised), written to results, until the parent closes its ends.
    parent_ends are the parent's ends of the pipes, which the fork copied:
    closed here, so that the parent's close is an end."""
    import signal

    # a Ctrl-C reaches the whole process group; the parent alone reports it
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    for end in parent_ends:
        end.close()
    buffer = bytearray()
    try:
        while True:
            k, args = _receive(items, buffer)
            try:
                answer = tasks[k](*args), None
            except Exception as e:
                answer = None, e
            _send(results, answer)
    except (EOFError, BrokenPipeError):  # the parent closed its ends, done or not
        pass


class Pool:
    """Worker processes and the tasks they may run.

    With workers < 2 there are none, and imap runs every job here.  Else
    that many processes are forked at once, through multiprocessing's fork
    context.  They inherit tasks and all they refer to, so only the
    arguments and the results are pickled: each worker reads (task index,
    arguments) from a pipe of its own and writes the results to another
    (widened to 1 MiB), as length-prefixed pickles.  The arguments must
    stay small, such as a range of rows: the few pending fit in a pipe, so
    the parent never waits to write one, and waits only for answers, which
    it reads as they come, so no worker waits on it for long.
    multiprocessing flushes the standard streams before it forks, so no
    worker holds output of the parent's to write again.  close, or the end
    of a with block, closes the parent's ends of the pipes and waits for
    every worker to exit; workers ignore Ctrl-C.
    """

    def __init__(self, tasks, workers: int):
        self._tasks, self._ends, self._procs = list(tasks), [], []
        if workers < 2:
            return
        import multiprocessing
        import select
        context = multiprocessing.get_context("fork")
        self._poll, self._worker_of, self._buffer = select.poll(), {}, bytearray()
        try:
            for w in range(workers):
                item_r, item_w = map(open, os.pipe(), ("rb", "wb"))
                # unbuffered: no answer waits in a buffer where a poll cannot see it
                result_r, result_w = map(open, os.pipe(), ("rb", "wb"), (0, -1))
                _widen(result_w)
                self._ends.append((item_w, result_r))
                self._poll.register(result_r, select.POLLIN)
                self._worker_of[result_r.fileno()] = w
                with item_r, result_w:
                    proc = context.Process(target=_serve, daemon=True, args=(
                        self._tasks, item_r, result_w, [e for ends in self._ends for e in ends]))
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
        """End the workers: close the parent's ends of the pipes, the result
        ends first, so that no worker waits to write, then join them."""
        for end in [result_r for _, result_r in self._ends] + [item_w for item_w, _ in self._ends]:
            with suppress(OSError):  # a worker gone with an item unread
                end.close()
        for proc in self._procs:
            proc.join()
        self._ends, self._procs = [], []

    def imap(self, parts):
        """Yield the parts of parts in order (see files.doc_parts): a string
        as it is, and for a job (task, args) the result task(*args).

        task must be one of the pool's tasks.  Each job goes to the worker
        with the fewest jobs pending, and at most two jobs per worker are
        pending in all, answered or not: answers are read as they come and
        held until their turn.  An exception the task raises in a worker is
        raised here, in its turn.  A walk that does not run to its end,
        because it raised or was closed, closes the pool, and later walks
        run in this process."""
        if not self._procs:
            yield from run_parts(parts)
            return
        parts, queues = iter(parts), [deque() for _ in self._procs]
        held, taken, done, pending = {}, 0, 0, 0
        try:
            while True:
                while pending < 2 * len(queues) and (part := next(parts, None)) is not None:
                    if isinstance(part, str):
                        held[taken] = part, None, False
                    else:
                        task, args = part
                        w = min(range(len(queues)), key=lambda w: len(queues[w]))
                        _send(self._ends[w][0], (self._tasks.index(task), args))
                        queues[w].append(taken)
                        pending += 1
                    taken += 1
                if done == taken:
                    return
                while done not in held:
                    for fd, _ in self._poll.poll():
                        w = self._worker_of[fd]
                        held[queues[w].popleft()] = *self._answer(w), True
                value, error, job = held.pop(done)
                done, pending = done + 1, pending - job
                if error is not None:
                    raise error
                yield value
        except BaseException:  # GeneratorExit included
            self.close()
            raise

    def _answer(self, w: int):
        try:
            return _receive(self._ends[w][1], self._buffer)
        except EOFError:
            raise ChildProcessError(f"worker {w} ended without an answer") from None
