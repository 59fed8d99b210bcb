"""python -m qpc, and the qpc command: the command line of qpc.cli.

A Ctrl-C while qpc.cli and numpy are imported prints the one line that
cli.main prints for it later, and exits 130, where Python would print a
traceback.  One before the interpreter reaches this module (while it
starts, or while runpy finds the package) is out of reach.  A process
that starts with Ctrl-C ignored, as a shell starts a background job,
keeps ignoring it.

The cyclic collector is off while qpc.cli and numpy are imported, and
what they made is then frozen (gc.freeze), once more with all that the
command made when it returns: no collection, during the import, the
command or the interpreter's exit, walks the tens of thousands of
objects of the import again.  cli.main itself leaves the collector
alone, since a long-lived process may call it many times.
"""

import gc
import os
import signal


def _interrupted(signum, frame) -> None:
    os.write(2, b"error: interrupted\n")
    os._exit(130)  # cli.EXIT_INTERRUPTED, which is not imported yet


def run() -> int:
    """The exit code of cli.main, run on the process's arguments."""
    ignored = signal.getsignal(signal.SIGINT) is signal.SIG_IGN
    if not ignored:
        signal.signal(signal.SIGINT, _interrupted)
    gc.disable()
    from . import cli

    gc.freeze()
    gc.enable()
    if not ignored:
        signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        return cli.main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    raise SystemExit(run())
