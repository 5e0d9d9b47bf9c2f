"""The verify sweeps that sit nearest the 1e-9 gate.

A scan of the reports verify.report("all", m, m + 2, 1, seed * 100000 + j,
1e-9) for every sweep j < 500 at m = 1..3 and seeds 0-20 and 42 found no
failure; the largest max_error values all came at m = 3.  These
sweeps are pinned so that a change which moves them over the gate shows
here rather than as a failed benchmark run.
"""

import pytest

from doublejets import verify

TOL = 1e-9


# (seed, sweep j): max_error and the property that reaches it
@pytest.mark.parametrize("seed,sweep", [
    (6, 460),   # 9.60e-10, vertical-quotient-alt
    (20, 199),  # 6.70e-10, vertical-quotient-invariance
    (14, 401),  # 5.67e-10, decompose-representative-independence
    (17, 406),  # 4.35e-10, decompose-representative-independence
])
def test_verify_sweeps_nearest_the_gate(seed, sweep):
    report = verify.report("all", 3, 5, 1, seed * 100000 + sweep, TOL)
    assert report["failures"] == 0
    assert report["max_error"] <= TOL
