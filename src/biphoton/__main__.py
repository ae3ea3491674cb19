"""``python -m biphoton`` and the ``biphoton`` script: ``cli.main`` run as a process.

An interrupt prints one line, ``error: interrupted``, and the process then
ends by SIGINT, as an interrupt nothing catches would end it (130 in a
shell).  From the first interrupt on, SIGINT is ignored, so a second one
cannot cut the clean-up short (the file beside ``--out`` is still
removed) or print a traceback.  ``cli.main`` called in-process still
raises ``KeyboardInterrupt``.
"""

import signal
import sys

from .cli import main


def _interrupted(signum, frame):
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    raise KeyboardInterrupt


def _main() -> int:
    # a process started with SIGINT ignored keeps ignoring it
    if signal.getsignal(signal.SIGINT) is signal.default_int_handler:
        signal.signal(signal.SIGINT, _interrupted)
    try:
        return main()
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr, flush=True)
        signal.signal(signal.SIGINT, signal.SIG_DFL)
        signal.raise_signal(signal.SIGINT)
        raise  # only where SIGINT does not end the process


if __name__ == "__main__":
    sys.exit(_main())
