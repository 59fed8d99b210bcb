"""python -m qpc, and the qpc command: the command line of qpc.cli.

A Ctrl-C while qpc.cli and numpy are imported prints the one line that
cli.main prints for it later, and exits 130, where Python would print a
traceback.  One before the interpreter reaches this module (while it
starts, or while runpy finds the package) is out of reach.
"""

import os
import signal


def _interrupted(signum, frame) -> None:
    os.write(2, b"error: interrupted\n")
    os._exit(130)  # cli.EXIT_INTERRUPTED, which is not imported yet


def run() -> int:
    """The exit code of cli.main, run on the process's arguments."""
    signal.signal(signal.SIGINT, _interrupted)
    from . import cli

    signal.signal(signal.SIGINT, signal.default_int_handler)
    return cli.main()


if __name__ == "__main__":
    raise SystemExit(run())
