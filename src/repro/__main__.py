"""``python -m repro``: the same command line as the ``repro`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
