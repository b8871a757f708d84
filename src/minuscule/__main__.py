"""``python -m minuscule``: run the CLI and end the process without the
interpreter's teardown.

When ``main`` returns, the report is written and every file the CLI
opened is closed, and the CLI registers no ``atexit`` handler, so only
the standard streams need flushing.  A flush that raises (a closed pipe)
falls back to the normal exit, which reports it as before.
"""

import os
import sys

from .cli import main

if __name__ == "__main__":
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except (OSError, ValueError):
        sys.exit(code)
    os._exit(code)
