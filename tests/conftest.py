import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
sys.path.insert(0, str(TESTS))
# The benchmark's pinned class stream (`stream`) and correctness gates (`gates`).
sys.path.insert(0, str(TESTS.parent / "perfbench"))
