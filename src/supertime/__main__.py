"""``python -m supertime``: the command line of :mod:`supertime.cli`."""

import sys

from .cli import main

sys.exit(main())
