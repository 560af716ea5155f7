"""Cost gates: counts of the work one `verify-all` does, which host load does not move.

The count is the one `tools/bench_record.py` records for each side of a
BENCH file (its `call_counts`, running COUNT_CALLS): the Python calls of the
first in-process `verify-all` in a fresh interpreter, PYTHONHASHSEED=1.
"""

import runpy
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# calls into fractions.py: 8,084 while the discriminant data was held as Fractions
FRACTIONS_CALLS = 2_500


def test_verify_all_stays_within_its_fractions_budget():
    tool = runpy.run_path(str(ROOT / "tools" / "bench_record.py"))
    counts = tool["call_counts"](ROOT)
    assert counts["fractions_calls"] <= FRACTIONS_CALLS, counts
