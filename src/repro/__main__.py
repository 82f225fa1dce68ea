"""``python -m repro`` entry point."""

import sys

from repro.cli import main

# The guard matters beyond direct execution: multiprocessing re-imports
# the parent's main module in every parallel rank (as ``__mp_main__``),
# and an unguarded exit would re-run the CLI recursively instead of
# starting the worker.
if __name__ == "__main__":
    sys.exit(main())
