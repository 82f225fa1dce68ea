"""Self-tests of the benchmark; run by path: ``pytest perfbench/tests``.

Not part of the tier-1 suite (``testpaths`` names ``tests`` only): they test
the measuring instrument, not the program.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
for path in (os.path.join(ROOT, "src"), ROOT):
    if path not in sys.path:
        sys.path.insert(0, path)
