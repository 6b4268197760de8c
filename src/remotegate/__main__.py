"""``python -m remotegate``: the ``remotegate`` command without installing it."""

import sys

from .cli import main

sys.exit(main())
