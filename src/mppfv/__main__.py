"""``python -m mppfv``: the command-line interface of :mod:`mppfv.harness`."""

import sys

from .harness import main

sys.exit(main())
