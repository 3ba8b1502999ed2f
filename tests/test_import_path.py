"""The exact path loads no numpy: importing the CLI and running the exact
commands leave it out of sys.modules; the numeric oracles import it on
first use.  Each case runs in a fresh interpreter."""

import json
import subprocess
import sys

import pytest

# every module perfbench/tracing.py rebinds, loaded by importing the CLI
TRACED = ("cli", "specfile", "report", "algebra", "enveloping", "diffcalc",
          "connections", "clifford", "expressions", "reps", "minilang")


def run_python(code: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=False)


def run_main(argv: list) -> dict:
    """Run cli.main(argv) in a fresh interpreter; its exit code and whether
    numpy was imported."""
    code = (
        "import io, json, sys, contextlib\n"
        "from ncspacetime import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    rc = cli.main({argv!r})\n"
        "print(json.dumps({'rc': rc, 'numpy': 'numpy' in sys.modules}))\n")
    out = run_python(code)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


def test_import_cli_loads_no_numpy():
    out = run_python(
        "import json, sys\n"
        "import ncspacetime.cli\n"
        "print(json.dumps({'numpy': 'numpy' in sys.modules, 'modules': "
        "sorted(m for m in sys.modules if m.startswith('ncspacetime.'))}))")
    assert out.returncode == 0, out.stderr
    got = json.loads(out.stdout)
    assert got["numpy"] is False
    assert set(f"ncspacetime.{m}" for m in TRACED) <= set(got["modules"])


@pytest.mark.parametrize("argv", [
    ["commute", "p0", "x0"],
    ["diff", "x0"],
    ["curvature", "--zero"],
    ["clifford"],
    ["rep", "5d"],
], ids=" ".join)
def test_exact_commands_load_no_numpy(argv):
    assert run_main(argv) == {"rc": 0, "numpy": False}


@pytest.mark.parametrize("argv", [["verify"], ["rep", "so32"]],
                         ids=" ".join)
def test_numeric_commands_import_numpy(argv):
    """verify runs matrix oracles.  rep so32 decides its brackets exactly,
    but its finite-boost checks evaluate Expr trees, whose sin/cos nodes
    call numpy."""
    assert run_main(argv) == {"rc": 0, "numpy": True}
