"""``python -m torsionlab``: the same command line as the ``torsionlab``
console script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
