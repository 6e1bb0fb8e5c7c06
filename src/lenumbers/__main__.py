"""python -m lenumbers: the command line of lenumbers.cli."""

import sys

from .cli import main

sys.exit(main())
