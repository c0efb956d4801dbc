"""Every law the oracle replays holds at every size it offers, and the
runner streams each plan in chunks and folds them in index order."""

import dataclasses
import hashlib
import inspect

import pytest

from pretop import finite, maps, oracle

from pretop.construct import make_extension, o_set, strict_extension
from pretop.finite import FinitePretop
from pretop.oracle import run_suites


def test_every_suite_passes_at_four_points():
    # the digest pins every plan draw and every verdict of the battery
    summary = run_suites("all", max_points=4, seed=0)
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


@pytest.mark.parametrize(
    ("suite", "routes", "method"),
    [("continuity-5way", "_CONTINUITY_ROUTES", "limit"), ("perfect-3way", "_PERFECT_ROUTES", "definition")],
)
def test_a_map_suite_catches_one_route_that_always_passes(monkeypatch, suite, routes, method):
    # the map suites read only the decision cores; both verdicts occur in
    # them, so a core that never fails must show up as disagreements
    table = getattr(maps, routes)
    monkeypatch.setitem(table, method, (lambda f: None, table[method][1]))
    (got,) = run_suites(suite, max_points=3).suites
    assert got.failures > 0 and method in got.counterexample


def test_continuity_catches_an_inherence_operator_that_calls_every_set_open(monkeypatch):
    # the inh route decides through the source's own inherence operator, so
    # a wrong operator, here inh A = A, must show up as disagreements in
    # which that route alone passes
    monkeypatch.setattr(FinitePretop, "inh", lambda self, a: a & self.full)
    (got,) = run_suites("continuity-5way", max_points=3).suites
    assert (got.checked, got.failures) == (110657, 65144)
    alone = "{'limit': False, 'adh-filter': False, 'adh-set': False, 'inh': True, 'vicinity': False}"
    assert got.counterexample.startswith(f"routes disagree {alone} on ")


def test_compact_at_catches_a_vicinity_sweep_that_returns_its_set(monkeypatch):
    # the filter route reads the vicinity sweep and the cover route joins
    # its least choice cover member by member, so a wrong sweep, here the
    # set itself, must show up as disagreements
    monkeypatch.setattr(finite, "vicinity_sweep", lambda space, a: a & space.full)
    (got,) = run_suites("compact-at-2way", max_points=3).suites
    assert (got.checked, got.failures) == (3173, 1064)
    assert got.counterexample.startswith("filter=False cover=True on ")


def test_theta_quotient_catches_a_small_image_operator_that_is_always_empty(monkeypatch):
    # the strong-irreducibility route asks the small-image operator for a
    # fiber inside each overlap, and the definition scan reads the fibers
    # themselves, so a wrong operator must show up as disagreements
    monkeypatch.setattr(maps, "f_sharp", lambda f, a: 0)
    (got,) = run_suites("theta-quotient", max_points=3).suites
    assert (got.checked, got.failures) == (329, 128)
    assert got.counterexample == "strong irreducibility mismatch on vic=(1,) labels=(0,)"


def test_density_read_from_the_vicinities_is_full_adherence():
    # the extension plans test density as every least vicinity meeting the
    # base; on every space they sample it must pick the bases it picked
    # by adherence, so they draw the same instances
    for n in range(1, 5):
        for sp in finite.enumerate_pretops(n):
            for base in range(1, sp.full + 1):
                assert oracle._dense(sp, base) == (sp.adh(base) == sp.full), (sp.vicinity, base)


# -- streaming runner ------------------------------------------------------------------


def test_every_plan_is_a_generator_function():
    assert all(inspect.isgeneratorfunction(s.plan) for s in oracle.SUITES.values())


BAD = (600, 1900, 1901)  # chunks 1 and 3 of compact-at-2way at three points


@pytest.mark.parametrize("workers", [1, 2])
def test_fold_keeps_the_least_failing_index(monkeypatch, workers):
    name = "compact-at-2way"
    suite = oracle.SUITES[name]

    def plan(n, rng):
        return enumerate(suite.plan(n, rng))  # not a generator: any iterable runs

    def check(inst):
        i, _ = inst
        return f"bad at {i}" if i in BAD else None

    monkeypatch.setitem(oracle.SUITES, name, dataclasses.replace(suite, plan=plan, check=check))
    (got,) = run_suites(name, max_points=3, workers=workers).suites
    assert (got.checked, got.failures, got.counterexample) == (3173, 3, "bad at 600")


def test_serial_plan_runs_at_most_one_chunk_ahead(monkeypatch):
    name = "interval-laws"
    total = 3 * oracle._CHUNK + 100
    drawn = [0]
    ahead = []

    def plan(n, rng):
        for i in range(total):
            drawn[0] += 1
            yield i

    def check(i):
        ahead.append(drawn[0] - i)
        return None

    suite = dataclasses.replace(oracle.SUITES[name], plan=plan, check=check)
    monkeypatch.setitem(oracle.SUITES, name, suite)
    (got,) = run_suites(name).suites
    assert got.checked == len(ahead) == total
    assert max(ahead) == oracle._CHUNK
