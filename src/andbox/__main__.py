"""`python -m andbox <command> [args]`: the same entry point as the
`andbox` console script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
