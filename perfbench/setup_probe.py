"""Set-up a user pays before any search work: import the package, load the
config and build the hardware backend, in a fresh interpreter.

    python3 perfbench/setup_probe.py CONFIG.yaml

The caller times the whole process.
"""

import sys

from nestevo.cli import build_backend
from nestevo.config import load_config

if __name__ == "__main__":
    build_backend(load_config(sys.argv[1]))
