"""Every law the oracle replays holds at every size it offers."""

import hashlib

from pretop.construct import make_extension, o_set, strict_extension
from pretop.finite import FinitePretop
from pretop.oracle import run_suites


def test_every_suite_passes_at_four_points():
    summary = run_suites("all", max_points=4)
    assert summary.all_pass, [s for s in summary.suites if s.failures]
    assert (
        hashlib.sha256(summary.to_json().encode()).hexdigest()
        == "e3441a76e64205265b6a33ba252d56b92fa4aead712b71ab4518b334fa7816f7"
    )


def test_strict_extension_law_takes_adherence_in_the_extension():
    # point 1 lies outside the base {2 4}; its trace {2 4} meets U = {4}
    # without lying in it, so it adheres to U in Y+ but not in the base
    sp = FinitePretop(("1", "2", "3", "4"), (15, 6, 12, 13))
    e = make_extension(sp, 0b1010)
    yplus = strict_extension(e)
    u = 0b1000
    assert yplus.adh(0b0100 | u) == o_set(e, u) | yplus.adh(u) == 0b1101
