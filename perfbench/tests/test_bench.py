"""Tests of the benchmark itself (not of the program it measures).

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import common  # noqa: E402
import generate  # noqa: E402
import layers  # noqa: E402
import queries  # noqa: E402
import reference as ref  # noqa: E402
import workloads  # noqa: E402

# -- percentile rule -----------------------------------------------------------


def test_p90_needs_ten_samples_beyond_it():
    samples = list(range(1, 101))
    # Harrell-Davis on 1..100: the Beta(90.9, 10.1) mean, 0.9, of 100 slots.
    assert common.percentile(samples, 90) == pytest.approx(90.5, abs=1e-6)
    with pytest.raises(ValueError):
        common.percentile(samples[:99], 90)


def test_p50_of_symmetric_samples_is_their_centre():
    assert common.percentile([5, 1, 3, 2, 4] * 5, 50) == pytest.approx(3)
    with pytest.raises(ValueError):
        common.percentile([1.0] * 19, 50)


def test_percentile_ignores_slots_far_from_the_rank():
    samples = [float(i) for i in range(2000)]
    far = samples[:]
    far[0] = -1e9  # far below p90: its Beta weight is nil
    assert common.percentile(far, 90) == pytest.approx(common.percentile(samples, 90))


def test_passes_stop_before_overrunning():
    def one_pass():
        time.sleep(0.1)
        return 1

    assert workloads._passes(0, one_pass) == [1]
    # A third 0.1 s pass would end past 0.25 s.
    assert workloads._passes(0.25, one_pass) == [1, 1]


def test_times_are_scaled_by_the_host_factor():
    slow = [2 * common.PROBE_NOMINAL_S] * 3
    assert common.host_factor(slow) == pytest.approx(2)
    notes = []
    m = workloads._scaled((0.4, 0.3), 10.0, 200.0, 400.0, 21.0, slow, notes)
    assert m["setup_s"]["value"] == 0.3  # scaled start by start already
    assert m["ops_per_s"]["value"] == pytest.approx(20.0)
    assert m["query_p50_ms"]["value"] == pytest.approx(100.0)
    assert m["query_p90_ms"]["value"] == pytest.approx(200.0)
    assert m["peak_rss_mb"]["value"] == 21.0
    assert "unscaled: setup_s 0.4," in notes[0]


def test_median_even_and_odd():
    assert common.median([3, 1, 2]) == 2
    assert common.median([4, 1, 2, 3]) == 2.5


# -- generator -------------------------------------------------------------------


def test_generator_is_deterministic_per_seed():
    a = generate.build(7, "m")
    b = generate.build(7, "m")
    c = generate.build(8, "m")
    assert a == b
    assert a[0] != c[0]


def test_corpus_queries_are_deterministic_per_seed():
    assert queries.corpus_queries(3) == queries.corpus_queries(3)
    assert queries.corpus_queries(3) != queries.corpus_queries(4)


@pytest.mark.parametrize("seed", range(5))
def test_generated_spaces_have_the_built_in_properties(seed):
    import random

    rng = random.Random(seed)
    t = generate.preorder_space(generate.POINTS, rng)
    assert ref.topological_witness(t) is None
    assert ref.hausdorff_witness(t) is not None
    c = generate.chain(t.n)
    mono = generate.monotone_map(t, c)
    for m in ref.CONTINUITY_METHODS:
        assert ref.continuity_witness(mono, m) is None
    base = generate.dense_base(t, rng)
    assert ref.is_dense(t, base)


def test_cli_has_enough_queries_for_p90():
    _, qs = workloads.cli_inputs(0)
    assert len(qs) - 90 * len(qs) // 100 >= common.TAIL_SAMPLES
    assert len({q.qid for q in qs}) == len(qs)
    assert [q.qid for q in qs if q.known_defect] == ["compact:Z24"]


# -- expected-answer comparator --------------------------------------------------

Q = queries.Query("q", ("check", "hausdorff"), 1, 'false\nwitness: ["1", "2"]\n')


def test_comparator_accepts_exact_answer():
    assert queries.judge(Q, 1, 'false\nwitness: ["1", "2"]\n', "", False) is None


@pytest.mark.parametrize(
    "code, out, err, timed_out, why",
    [
        (0, 'false\nwitness: ["1", "2"]\n', "", False, "exit 0, expected 1"),
        (1, 'false\nwitness: ["2", "1"]\n', "", False, "stdout differs"),
        (1, "", "Traceback (most recent call last):\n", False, "traceback"),
        (1, "", "Traceback (most recent call last):\nMemoryError\n", False, "out of memory"),
        (None, "", "", True, "timeout"),
    ],
)
def test_comparator_counts_each_failure(code, out, err, timed_out, why):
    assert queries.judge(Q, code, out, err, timed_out) == why


def test_reference_matches_corpus_comments():
    # corpus/finite.pt: Q3's adherence is not idempotent; P3 is topological;
    # D2 is the only Hausdorff space of its size.
    assert ref.topological_witness(queries.Q3) == ("3",)
    assert ref.topological_witness(queries.P3) is None
    assert ref.hausdorff_witness(queries.D2) is None
    # corpus/extensions.pt: base {1 2} is dense in Y.
    assert ref.is_dense(queries.Y, 0b011)


# -- the benchmark's declared metrics -----------------------------------------------


def test_benchmark_json_lists_every_layer_metric():
    with open(os.path.join(common.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [m["name"] for m in bench["per_layer"]] == layers.PER_LAYER
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == {
        n: layers.unit(n) for n in layers.PER_LAYER
    }
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == layers.END_TO_END
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
