"""Command line exit codes and error reports, through ``run_command``."""

from pathlib import Path

import pytest

from pretop.cli import run_command

FINITE = str(Path(__file__).resolve().parent.parent / "corpus" / "finite.pt")


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
