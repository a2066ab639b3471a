"""``python -m nislie``: the nislie command without an installed script."""

import sys

from .cli import main

sys.exit(main())
