"""``python -m fcodt``: the command-line interface without an installed
``fcodt`` script."""

import sys

from .cli import main

sys.exit(main())
