"""End-to-end container benchmark (see README.md in this directory).

Importing the package puts ``src/`` on ``sys.path`` so the harness runs
from a bare checkout without an installed ``repro`` distribution.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")

if SRC not in sys.path:
    sys.path.insert(0, SRC)
