"""``python -m pimlite``: the ``pimlite`` command line, :func:`harness.main`."""

import sys

from .harness import main

sys.exit(main())
