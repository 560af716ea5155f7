"""Cost gates: counts of the work one `verify-all` does, which host load does not move.

The counts are the ones `tools/bench_record.py` records for each side of a
BENCH file (its `call_counts`, running COUNT_CALLS): the Python calls of the
first in-process `verify-all` in a fresh interpreter, PYTHONHASHSEED=1.
"""

import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# calls into fractions.py: 8,084 while the discriminant data was held as
# Fractions, 1,635 while the module kept its Fraction generator values; 1,397 now
FRACTIONS_CALLS = 1_400
# Fourier transforms of the Weil layer: 59 while rho(-g) and each rho(S) rho(h)
# had a transform of their own; 8 build rho, 7 certify it, 2 check the
# projector and 15 the sign vectors
FOURIER_CALLS = 32
# CycQ arithmetic (the methods of the tracer's exact.cycq_op leaf): 2,277 while
# dimension_report powered padded operators over Q(zeta_12); 1,612 now
CYCQ_CALLS = 1_650


@pytest.fixture(scope="module")
def counts():
    tool = runpy.run_path(str(ROOT / "tools" / "bench_record.py"))
    return tool["call_counts"](ROOT)


def test_verify_all_stays_within_its_fractions_budget(counts):
    assert counts["fractions_calls"] <= FRACTIONS_CALLS, counts


def test_verify_all_stays_within_its_fourier_budget(counts):
    assert counts["fourier_calls"] <= FOURIER_CALLS, counts


def test_verify_all_stays_within_its_cycq_budget(counts):
    assert counts["cycq_calls"] <= CYCQ_CALLS, counts
