"""Self-tests of the system benchmark; run them by path:

    PYTHONPATH=src python -m pytest benchmarks/system/tests
"""

import sys
from pathlib import Path

SYSTEM = Path(__file__).resolve().parent.parent
if str(SYSTEM) not in sys.path:
    sys.path.insert(0, str(SYSTEM))

from common import add_src_to_path  # noqa: E402 - needs the path above

add_src_to_path()
