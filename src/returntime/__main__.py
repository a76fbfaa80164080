"""``python -m returntime``: the same command line as the ``returntime`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
