"""``python -m biphoton`` and the ``biphoton`` script: ``cli.main`` run as a process.

An interrupt prints one line, ``error: interrupted``, and the process then
ends by SIGINT, as an interrupt nothing catches would end it (130 in a
shell).  ``cli.main`` called in-process still raises ``KeyboardInterrupt``.
"""

import signal
import sys

from .cli import main


def _main() -> int:
    try:
        return main()
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr, flush=True)
        signal.signal(signal.SIGINT, signal.SIG_DFL)
        signal.raise_signal(signal.SIGINT)
        raise  # only where SIGINT does not end the process


if __name__ == "__main__":
    sys.exit(_main())
