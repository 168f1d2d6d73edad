"""``python -m rodwave ...``: the command-line front end, as ``rodwave ...``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
