"""Command line exit codes and error reports, through ``run_command``."""

import importlib
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from pretop import cli
from pretop.cli import FINITE_CHECKS, MAP_CHECKS, SYMBOLIC_CHECKS, run_command
from pretop.maps import CONTINUITY_METHODS, PERFECT_METHODS

ROOT = Path(__file__).resolve().parent.parent
FINITE = str(ROOT / "corpus" / "finite.pt")
URYSOHN = str(ROOT / "corpus" / "urysohn.pt")
SRC = ROOT / "src"


def run(capsys, *argv):
    code = run_command(list(argv))
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    return code, out, err


def test_check_without_file_is_a_missing_flag(capsys):
    code, out, err = run(capsys, "check", "hausdorff", "--space", "Q3")
    assert code == 3
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_finite_cl_theta_rejects_zero_iterations(capsys):
    argv = ("compute", "cl-theta", "-f", FINITE, "--space", "Q3", "--set", "{1}")
    code, out, err = run(capsys, *argv, "--iterations", "0")
    assert code == 3
    assert out == ""
    assert err == "error: iterations must be at least 1\n"
    code, out, _ = run(capsys, *argv, "--iterations", "1")
    assert code == 0 and out == "{1 2}\n"


@pytest.mark.parametrize("what", ["adh", "inh"])
@pytest.mark.parametrize(
    "argv",
    [
        ("compute", "{what}", "-f", FINITE, "--space", "Q3", "--set", "{{1}}"),
        ("compute", "{what}", "--space", "discrete_ray(2)", "--set", "ray(R2; 1..3)"),
        ("builtin", "discrete_ray(2)", "--compute", "{what}", "--set", "ray(R2; 1..3)"),
        ("builtin", "urysohn", "--compute", "{what}", "--set", "grid(G; cols=1..)"),
    ],
    ids=["finite", "symbolic", "builtin-ray", "builtin-grid"],
)
def test_iterations_apply_to_cl_theta_only(capsys, what, argv):
    argv = [a.format(what=what) for a in argv]
    for n in ("-1", "0", "2"):
        assert run(capsys, *argv, "--iterations", n) == (
            3,
            "",
            "error: --iterations applies to cl-theta only\n",
        )
    code, out, _ = run(capsys, *argv, "--iterations", "1")
    assert code == 0 and (code, out, "") == run(capsys, *argv)


@pytest.mark.parametrize("opening, closing", [("~", ""), ("(", ")")])
def test_deep_set_expression_is_a_parse_error(capsys, opening, closing):
    expr = opening * 3000 + "{1}" + closing * 3000
    code, out, err = run(capsys, "compute", "adh", "-f", FINITE, "--space", "Q3", "--set", expr)
    assert code == 2
    assert out == ""
    assert err.startswith("parse error:") and "nested deeper" in err


def test_moderate_nesting_still_parses(capsys):
    expr = "~" * 50 + "(" * 40 + "{1}" + ")" * 40
    code, out, _ = run(capsys, "compute", "adh", "-f", FINITE, "--space", "Q3", "--set", expr)
    assert code == 0 and out == "{1}\n"


# -- one path per operation ---------------------------------------------------

BUILTIN_SETS = {
    "urysohn": "grid(G; cols=1..)",
    "half_grid": "grid(G; cols=1..)",
    "discrete_ray(2)": "ray(R2; 1..3)",
}


@pytest.mark.parametrize("key", sorted(BUILTIN_SETS))
@pytest.mark.parametrize("what", ["adh", "inh", "cl-theta"])
def test_builtin_compute_is_compute_on_a_builtin_key(capsys, key, what):
    s = BUILTIN_SETS[key]
    via_builtin = run(capsys, "builtin", key, "--compute", what, "--set", s)
    via_compute = run(capsys, "compute", what, "--space", key, "--set", s)
    assert via_builtin[0] == 0
    assert via_builtin[:2] == via_compute[:2]


# every method of the symbolic table; theta keeps its place after no method
SYMBOLIC_METHODS = sorted({m for methods, _ in SYMBOLIC_CHECKS.values() for m in methods}, reverse=True)


@pytest.mark.parametrize("key", sorted(BUILTIN_SETS))
@pytest.mark.parametrize("prop", sorted(SYMBOLIC_CHECKS))
@pytest.mark.parametrize("method", [()] + [("--method", m) for m in SYMBOLIC_METHODS])
def test_builtin_check_is_check_on_a_builtin_key(capsys, key, prop, method):
    via_builtin = run(capsys, "builtin", key, "--check", prop, *method)
    via_check = run(capsys, "check", prop, "--space", key, *method)
    takes = not method or method[1] in SYMBOLIC_CHECKS[prop][0]
    assert via_builtin[0] in ((0, 1) if takes else (3,))
    assert via_builtin == via_check


# The paper's H-closed but not compact space is urysohn (corpus/urysohn.pt's
# U); a discrete ray is Hausdorff and not quasi-PHC; a finite space is
# compact, so quasi-PHC, and H-closed exactly when it is Hausdorff.
@pytest.mark.parametrize(
    "space, prop, out",
    [
        (("--space", "urysohn"), "quasi-phc", "true\n"),
        (("--space", "urysohn"), "h-closed", "true\n"),
        (("--space", "urysohn"), "compact", 'false\nwitness: "G(+,0)"\n'),
        (("-f", URYSOHN, "--space", "U"), "quasi-phc", "true\n"),
        (("-f", URYSOHN, "--space", "U"), "h-closed", "true\n"),
        (("-f", URYSOHN, "--space", "U"), "compact", 'false\nwitness: "G(+,0)"\n'),
        (("--space", "half_grid"), "quasi-phc", "true\n"),
        (("--space", "half_grid"), "h-closed", "true\n"),
        (("--space", "discrete_ray(2)"), "quasi-phc", 'false\nwitness: "R1(+)"\n'),
        (("--space", "discrete_ray(2)"), "h-closed", 'false\nwitness: ["quasi-phc", "R1(+)"]\n'),
        (("-f", FINITE, "--space", "Q3"), "quasi-phc", "true\n"),
        (("-f", FINITE, "--space", "Q3"), "h-closed", 'false\nwitness: ["hausdorff", ["1", "2"]]\n'),
        (("-f", FINITE, "--space", "D2"), "h-closed", "true\n"),
    ],
)
def test_quasi_phc_and_h_closed_on_both_engines(capsys, space, prop, out):
    assert run(capsys, "check", prop, *space) == (0 if out == "true\n" else 1, out, "")


@pytest.mark.parametrize("key", sorted(BUILTIN_SETS))
def test_compact_by_theta_is_quasi_phc(capsys, key):
    by_theta = run(capsys, "check", "compact", "--space", key, "--method", "theta")
    assert by_theta[:2] == run(capsys, "check", "quasi-phc", "--space", key)[:2]


# the functions the three tables decide with, as pretop.cli names them
DECIDERS = (
    "is_hausdorff",
    "is_topological",
    "is_cover_compact",
    "is_quasi_phc",
    "is_continuous",
    "is_perfect",
    "sym_hausdorff",
    "sym_is_compact",
    "sym_regularize",
)


def _table_queries():
    """One ``check`` argv per row and method of the three tables."""
    for table, target in (
        (FINITE_CHECKS, ("-f", FINITE, "--space", "Q3")),
        (SYMBOLIC_CHECKS, ("--space", "discrete_ray(2)")),
        (MAP_CHECKS, ("-f", FINITE, "--map", "fold")),
    ):
        for prop, (methods, _) in table.items():
            for m in methods or (None,):
                yield ("check", prop, *target) + (("--method", m) if m else ())


def test_every_decision_goes_through_the_cli_module_attribute(capsys, monkeypatch):
    # perfbench/tracer.py wraps a layer by replacing the module attributes
    # that hold it; a table holding a function object would skip the wrapper
    wrapped, direct = [], []
    codes = {inspect.unwrap(getattr(cli, name)).__code__: name for name in DECIDERS}
    # a cache hit runs no frame to see, so each query starts with empty caches
    caches = [getattr(cli, name) for name in DECIDERS if hasattr(getattr(cli, name), "cache_clear")]
    for name in DECIDERS:
        fn = getattr(cli, name)

        def counting(*args, _fn=fn, _name=name, **kwargs):
            wrapped.append(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(cli, name, counting)

    def profile(frame, event, arg):
        # a decider entered straight from pretop/cli.py bypassed its wrapper
        if event == "call" and frame.f_code in codes and frame.f_back.f_code.co_filename == cli.__file__:
            direct.append(codes[frame.f_code])

    for argv in _table_queries():
        wrapped.clear()
        for cache in caches:
            cache.cache_clear()
        sys.setprofile(profile)
        try:
            code, _, err = run(capsys, *argv)
        finally:
            sys.setprofile(None)
        assert code in (0, 1), (argv, err)
        assert wrapped and direct == [], argv


def test_the_readme_method_table_follows_the_cli_tables():
    # README's `check --method` table: one row per property and kind of
    # target, its methods in the table's order, default first
    lines = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    start = lines.index("| property | target | methods |")
    rows = {}
    for line in lines[start + 2 :]:
        if not line.startswith("|"):
            break
        prop, target, methods = (c.strip() for c in line.strip("|").split("|"))
        rows[target, prop.strip("`")] = tuple(re.findall(r"`([^`]+)`", methods))
    tables = {"finite": FINITE_CHECKS, "symbolic": SYMBOLIC_CHECKS, "map": MAP_CHECKS}
    assert rows == {(t, prop): methods for t, table in tables.items() for prop, (methods, _) in table.items()}


@pytest.mark.parametrize(
    "argv, message",
    [
        (("builtin", "urysohn"), "error: one of --compute or --check is required\n"),
        (("builtin", "urysohn", "--compute", "adh"), "error: --set is required with --compute\n"),
    ],
)
def test_builtin_missing_flags(capsys, argv, message):
    assert run(capsys, *argv) == (3, "", message)


def test_validate_without_file_is_a_missing_flag(capsys):
    assert run(capsys, "validate") == (3, "", "error: -f/--file is required\n")


@pytest.mark.parametrize(
    "argv, command",
    [
        (("compute", "adh", "-f", FINITE, "--space", "Q3", "--set", "{1}"), "compute adh"),
        (("builtin", "urysohn", "--check", "compact"), "builtin"),
    ],
)
def test_json_report_shape(capsys, argv, command):
    code, out, _ = run(capsys, *argv, "--json")
    doc = json.loads(out)
    assert set(doc) == {"result", "witness", "elapsed_ms", "provenance"}
    assert doc["provenance"]["command"] == command
    assert code == (0 if doc["result"] is not False else 1)


# -- long operator chains -----------------------------------------------------


def _chain(term, n):
    return "|".join([term] * n)


@pytest.mark.parametrize(
    "argv",
    [
        ("compute", "adh", "-f", FINITE, "--space", "Q3", "--set", _chain("{1}", 3000)),
        ("compute", "adh", "--space", "urysohn", "--set", _chain("atom(pinf)", 3000)),
    ],
    ids=["finite", "symbolic"],
)
def test_long_chain_is_a_parse_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("parse error:") and "nested deeper" in err
    assert err.count("\n") == 1


def test_long_chain_in_a_model_file_is_a_parse_error(capsys, tmp_path):
    model = tmp_path / "long.pt"
    model.write_text(f"space S {{ points: 1; vicinity 1: {{1}}; }}\nset LONG = {_chain('{1}', 3000)}\n")
    code, out, err = run(capsys, "validate", "-f", str(model))
    assert code == 2 and out == ""
    assert err.startswith("parse error:") and "nested deeper" in err


def test_hundred_term_chain_still_evaluates(capsys):
    argv = ("compute", "adh", "-f", FINITE, "--space", "Q3", "--set", _chain("{1}", 100))
    assert run(capsys, *argv) == (0, "{1}\n", "")


# -- set references -----------------------------------------------------------

_Q3 = "space Q3 { points: 1 2 3; vicinity 1: {1 2}; vicinity 2: {2 3}; vicinity 3: {3}; }\n"


def _model(tmp_path, sets):
    path = tmp_path / "sets.pt"
    path.write_text(_Q3 + "".join(f"set {name} = {expr}\n" for name, expr in sets))
    return str(path)


def test_long_reference_chain_resolves(capsys, tmp_path):
    sets = [("A0", "{1}")] + [(f"A{i}", f"A{i - 1}") for i in range(1, 1500)]
    model = _model(tmp_path, sets)
    assert run(capsys, "validate", "-f", model) == (0, "ok: 1501 declarations\n", "")
    argv = ("compute", "adh", "-f", model, "--space", "Q3", "--set", "A1499")
    assert run(capsys, *argv) == (0, "{1}\n", "")


def test_doubling_references_resolve_once_each(capsys, tmp_path):
    sets = [("B0", "{2}")] + [(f"B{i}", f"B{i - 1} | B{i - 1}") for i in range(1, 40)]
    model = _model(tmp_path, sets)
    assert run(capsys, "validate", "-f", model) == (0, "ok: 41 declarations\n", "")
    argv = ("compute", "adh", "-f", model, "--space", "Q3", "--set", "B39")
    assert run(capsys, *argv) == (0, "{1 2}\n", "")


@pytest.mark.parametrize(
    "sets, message",
    [
        ([("A", "B"), ("B", "C"), ("C", "B")], "circular set definition through 'B'"),
        ([("A", "A")], "circular set definition through 'A'"),
        ([("A", "B"), ("B", "C | D"), ("C", "{1}")], "set 'A' refers to unknown set 'D'"),
    ],
)
def test_bad_references_are_resolution_errors(capsys, tmp_path, sets, message):
    assert run(capsys, "validate", "-f", _model(tmp_path, sets)) == (3, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "opens, message",
    [
        ("{a} {a b}", "missing empty set or whole set"),
        ("{} {a} {b} {a b c}", "family not closed under union/intersection"),
    ],
    ids=("no-empty-set", "not-closed"),
)
def test_bad_topology_blocks_exit_3(capsys, tmp_path, opens, message):
    path = tmp_path / "topology.pt"
    path.write_text(f"# a comment\ntopology T {{\n  points: a b c;\n  opens: {opens};\n}}\n")
    assert run(capsys, "validate", "-f", str(path)) == (3, "", f"error: line 2: {message}\n")


@pytest.mark.parametrize(
    "count, code, message",
    [
        (0, 3, "error: line 2: discrete_ray needs at least one strand, got 0\n"),
        (513, 4, "limit: line 2: discrete_ray supports at most 512 strands, got 513\n"),
    ],
)
def test_a_ray_count_out_of_range_names_its_line(capsys, tmp_path, count, code, message):
    path = tmp_path / "rays.pt"
    path.write_text(f"# a comment\nbuiltin R = discrete_ray({count})\n")
    assert run(capsys, "validate", "-f", str(path)) == (code, "", message)


def test_a_huge_ray_count_exits_4_without_echoing_it(capsys):
    huge = ("builtin", "discrete_ray(" + "9" * 5000 + ")", "--check", "hausdorff")
    message = "limit: discrete_ray supports at most 512 strands, got a 5000-digit count\n"
    assert run(capsys, *huge) == (4, "", message)
    padded = ("builtin", "discrete_ray(" + "0" * 5000 + "3)", "--check", "hausdorff")
    assert run(capsys, *padded) == (0, "true\n", "")


def test_topology_block_reads_as_its_least_opens(capsys):
    # S2 has opens {} {a} {a b}: the least open at a is {a}, at b all of S2
    argv = ("compute", "adh", "-f", FINITE, "--space", "S2", "--set", "{a}")
    assert run(capsys, *argv) == (0, "{a b}\n", "")
    argv = ("check", "topological", "-f", FINITE, "--space", "S2")
    assert run(capsys, *argv) == (0, "true\n", "")


# -- least-choice routes, fixed points and methods ------------------------------


def test_compact_on_a_24_cycle_answers_true(capsys, tmp_path):
    # 2^24 choice covers: decided by the least one alone
    n = 24
    kernels = "".join(f"vicinity z{i}: {{z{i} z{i % n + 1}}}; " for i in range(1, n + 1))
    points = " ".join(f"z{i}" for i in range(1, n + 1))
    model = tmp_path / "cycle.pt"
    model.write_text(f"space Z24 {{ points: {points}; {kernels}}}\n")
    assert run(capsys, "check", "compact", "-f", str(model), "--space", "Z24") == (0, "true\n", "")


@pytest.mark.parametrize(
    "argv, out",
    [
        (("-f", FINITE, "--space", "Q3", "--set", "{1}"), "{1 2 3}\n"),
        (("--space", "urysohn", "--set", "grid(G; cols=1..)"), "atom(pinf) | atom(minf) | grid(G; cols=0..)\n"),
    ],
    ids=["finite", "symbolic"],
)
def test_cl_theta_stops_at_its_fixed_point(capsys, argv, out):
    assert run(capsys, "compute", "cl-theta", *argv, "--iterations", "100000000") == (0, out, "")


@pytest.mark.parametrize(
    "argv",
    [
        ("check", "compact", "--space", "urysohn", "--method", "bogus"),
        ("check", "hausdorff", "--space", "half_grid", "--method", "cover"),
        ("check", "hausdorff", "-f", FINITE, "--space", "Q3", "--method", "bogus"),
        ("check", "topological", "-f", FINITE, "--space", "Q3", "--method", "theta"),
        ("check", "compact", "-f", FINITE, "--space", "Q3", "--method", "theta"),
        ("check", "quasi-phc", "-f", FINITE, "--space", "Q3", "--method", "bogus"),
    ],
)
def test_a_method_the_property_does_not_take_is_rejected(capsys, argv):
    assert run(capsys, *argv) == (3, "", f"error: unknown method {argv[-1]!r}\n")


@pytest.mark.parametrize("method", ["plain", "theta"])
def test_symbolic_checks_take_plain_and_theta(capsys, method):
    code, out, _ = run(capsys, "check", "compact", "--space", "urysohn", "--method", method)
    assert (code, out) == ((1, 'false\nwitness: "G(+,0)"\n') if method == "plain" else (0, "true\n"))


def test_the_cli_benchmark_queries_get_their_answers(capsys, monkeypatch, tmp_path):
    # the cli workload of perfbench/ judges these answers only in its timed
    # runs; here they replay in-process, with the corpus paths relative to
    # the checkout root and the generated models under tmp_path
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.chdir(ROOT)
    generate, queries = importlib.import_module("generate"), importlib.import_module("queries")
    wrong = []
    for seed in (0, 1):
        files, large = generate.build(seed, str(tmp_path / str(seed)))
        generate.write(files, str(ROOT))
        for q in queries.corpus_queries(seed) + large:
            code = run_command(list(q.argv))
            out, err = capsys.readouterr()
            why = queries.judge(q, code, out, err, False)
            if why is not None:
                wrong.append((seed, q.qid, why))
    assert wrong == []


def test_cli_import_leaves_the_oracle_unloaded():
    # perfbench/tracer.py wraps functions in these modules after importing
    # pretop.cli alone, so they must stay loaded by it
    traced = [
        "pretop.finite",
        "pretop.maps",
        "pretop.regularize",
        "pretop.construct",
        "pretop.model",
        "pretop.intervals",
        "pretop.defsets",
        "pretop.symbolic.space",
        "pretop.symbolic.analysis",
        "pretop.symbolic.maps",
        "pretop.symbolic.solve",
    ]
    code = (
        "import sys, json, pretop.cli\n"
        f"print(json.dumps([m for m in {traced + ['pretop.oracle', 'concurrent.futures']!r}"
        " if m in sys.modules]))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert json.loads(done.stdout) == traced


# -- kernel-scan routes on a larger space and oracle arguments ------------------


def _chain_space(name, n):
    points = " ".join(f"{name}{i}" for i in range(1, n + 1))
    vic = "".join(f"vicinity {name}{i}: {{{name}{i} {name}{min(i + 1, n)}}}; " for i in range(1, n + 1))
    return f"space {name.upper()}{n} {{ points: {points}; {vic}}}\n"


@pytest.fixture
def chain_model(tmp_path):
    # 2^20 kernels and subsets: the routes decide by singletons and least vicinities
    ident = "".join(f"c{i} -> c{i}; " for i in range(1, 21))
    halve = "".join(f"c{i} -> d{(i + 1) // 2}; " for i in range(1, 21))
    model = tmp_path / "chain.pt"
    model.write_text(
        _chain_space("c", 20)
        + _chain_space("d", 10)
        + f"map ident: C20 -> C20 {{ {ident}}}\nmap halve: C20 -> D10 {{ {halve}}}\n"
    )
    return str(model)


@pytest.mark.parametrize(
    "prop, fmap, method",
    [("continuous", fmap, m) for fmap in ("ident", "halve") for m in CONTINUITY_METHODS]
    + [("perfect", "ident", m) for m in PERFECT_METHODS],
)
def test_map_checks_on_a_20_point_chain(capsys, chain_model, prop, fmap, method):
    argv = ("check", prop, "-f", chain_model, "--map", fmap, "--method", method)
    assert run(capsys, *argv) == (0, "true\n", "")


@pytest.mark.parametrize(
    "fmap, points",
    [("fold", ("1", "2")), ("collapse", ("a", "b"))],
    ids=["fold", "collapse"],
)
def test_quotient_of_q3(capsys, fmap, points):
    # both maps have fibers {1 2} and {3}, which sweep to all of Q3 and to {3}
    x, y = points
    out = f"space Q3_quotient {{\n  points: {x} {y};\n  vicinity {x}: {{{x} {y}}};\n  vicinity {y}: {{{y}}};\n}}\n"
    argv = ("construct", "quotient", "-f", FINITE, "--space", "Q3", "--map", fmap)
    assert run(capsys, *argv) == (0, out, "")


def test_quotient_of_a_20_point_chain(capsys, chain_model):
    # every fiber {c(2i-1) c(2i)} sweeps to a set holding no other fiber,
    # so the quotient is discrete
    points = [f"d{i}" for i in range(1, 11)]
    block = "".join(f"  vicinity {p}: {{{p}}};\n" for p in points)
    out = f"space C20_quotient {{\n  points: {' '.join(points)};\n{block}}}\n"
    argv = ("construct", "quotient", "-f", chain_model, "--space", "C20", "--map", "halve")
    assert run(capsys, *argv) == (0, out, "")


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--workers", "0"), "workers must be at least 1, got 0"),
        (("--workers", "-1"), "workers must be at least 1, got -1"),
        (("--suites", ","), "no suite given"),
    ],
)
def test_oracle_rejects_empty_runs(capsys, argv, message):
    assert run(capsys, "oracle", *argv) == (3, "", f"error: {message}\n")


# -- the pretop process: flush, then exit without teardown ----------------------


def _process(*argv, buffered=False, **kwargs):
    """``python -m pretop.cli argv`` in a fresh process, as ``pretop`` runs."""
    # an empty PYTHONUNBUFFERED leaves stdout block-buffered on a pipe
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONUNBUFFERED": "" if buffered else "1"}
    return subprocess.run([sys.executable, "-m", "pretop.cli", *argv], env=env, cwd=ROOT, **kwargs)


@pytest.mark.parametrize("buffered", [False, True], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize(
    "argv",
    [
        ("check", "hausdorff", "-f", FINITE, "--space", "Q3"),
        ("compute", "adh", "-f", FINITE, "--space", "Q3", "--set", "{1}", "--json"),
        ("check", "compact", "--space", "urysohn"),
        ("check", "compact", "--space", "urysohn", "--method", "bogus"),
        ("builtin", "discrete_ray(513)", "--check", "hausdorff"),
    ],
    ids=["witness", "json", "symbolic", "exit-3", "exit-4"],
)
def test_the_process_reports_what_run_command_reports(capsys, argv, buffered):
    # output left in a buffer would be lost by an exit without teardown
    done = _process(*argv, buffered=buffered, capture_output=True, text=True)
    got, want = (done.returncode, done.stdout, done.stderr), run(capsys, *argv)
    if "--json" in argv:
        got, want = [(c, {**json.loads(o), "elapsed_ms": None}, e) for c, o, e in (got, want)]
    assert got == want


@pytest.mark.parametrize("buffered", [False, True], ids=["in-print", "in-flush"])
@pytest.mark.parametrize(
    "argv",
    [
        ("check", "hausdorff", "--space", "Q3", "-f", FINITE),
        ("validate", "-f", FINITE),
        ("oracle", "--max-points", "1", "--json"),
    ],
    ids=["check", "validate", "oracle"],
)
def test_a_closed_output_pipe_is_an_io_error(argv, buffered):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = _process(*argv, buffered=buffered, stdout=write_end, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (3, "error: [Errno 32] Broken pipe\n")


def test_a_closed_stdout_loses_the_report_silently():
    done = _process("validate", "-f", FINITE, preexec_fn=lambda: os.close(1), stderr=subprocess.PIPE, text=True)
    assert (done.returncode, done.stderr) == (0, "")
