"""What each CLI command loads, checked in fresh processes.

The exact commands and --help must start without numpy, --help also
without dataclasses and platform, the exact `verify` commands without
dataclasses and inspect, `verify alt-orthonormal` without the invariant
layer, a one-worker Monte Carlo command without concurrent.futures, `eval`,
`verify haar` and `verify ginibre` without the exact layer or fractions,
and `import hciz` with nothing but the package and its error types.  Two commands whose setup
once grew quadratically with a size argument, and one whose cost once
followed an argument that changes nothing, must finish within seconds, and
so must two that the power-sum class limit refuses.
"""

import json
import os
import platform
import subprocess
import sys

import numpy as np
import pytest

import hciz

SRC = os.path.dirname(os.path.dirname(os.path.abspath(hciz.__file__)))

# runs the CLI's main on argv, then prints its exit code and the loaded modules
PROBE = """
import json, sys
from hciz.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""


def _env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _python(*args, timeout=120):
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=_env(), timeout=timeout)


def probe(argv):
    """(exit code, loaded module names, the command's stdout) of a fresh CLI run."""
    proc = _python("-c", PROBE, *argv)
    assert proc.returncode == 0, proc.stderr
    *out, last = proc.stdout.splitlines()
    got = json.loads(last)
    return got["code"], set(got["modules"]), "\n".join(out)


def test_import_hciz_loads_only_the_error_types():
    proc = _python("-c", "import json, sys, hciz; print(json.dumps(sorted(sys.modules)))")
    mods = set(json.loads(proc.stdout))
    assert "numpy" not in mods
    assert {m for m in mods if m.startswith("hciz")} == {"hciz", "hciz.errors"}


EXACT_COMMANDS = [
    ["--help"],
    *(["verify", suite, "--n", "2"]
      for suite in ("alt-orthonormal", "inv-orthonormal", "unitarity", "diffop", "fourier",
                    "reproducing")),
    ["fourier", "--f", "t1^2", "--n", "2"],
    ["schur", "--lambda", "2,1", "--n", "2", "--exact", "--power-sums"],
]


@pytest.mark.parametrize("argv", EXACT_COMMANDS, ids=" ".join)
def test_exact_commands_never_load_numpy(argv):
    code, mods, _ = probe(argv + ([] if argv == ["--help"] else ["--quiet"]))
    assert code == 0
    assert "numpy" not in mods


def test_help_loads_neither_dataclasses_nor_platform():
    code, mods, _ = probe(["--help"])
    assert code == 0
    assert not {"dataclasses", "platform"} & mods


def test_exact_verify_commands_load_neither_dataclasses_nor_inspect():
    # all five in one process: whatever any of them imports stays in sys.modules
    script = (
        "import json, sys\n"
        "from hciz.cli import main\n"
        "for suite in sys.argv[1:]:\n"
        "    assert main(['verify', suite, '--n', '2', '--quiet']) == 0\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    proc = _python("-c", script, *(argv[1] for argv in EXACT_COMMANDS if argv[0] == "verify"))
    assert proc.returncode == 0, proc.stderr
    mods = set(json.loads(proc.stdout.splitlines()[-1]))
    assert "hciz.suites" in mods
    assert not {"dataclasses", "inspect"} & mods


def test_alt_orthonormal_loads_no_invariant():
    # its basis and Gram come from symfn and exactpoly alone
    code, mods, _ = probe(["verify", "alt-orthonormal", "--n", "2", "--quiet"])
    assert code == 0
    assert "hciz.symfn" in mods
    assert "hciz.invariant" not in mods


def test_eval_loads_no_exact_layer():
    code, mods, _ = probe(["eval", "--n", "3", "--a", "r", "--b", "r", "--methods",
                           "det,mc,series", "--samples", "2000", "--quiet"])
    assert code == 0
    assert not {"hciz.symfn", "hciz.exactpoly", "hciz.scalars", "hciz.invariant",
                "hciz.suites", "fractions"} & mods


@pytest.mark.parametrize("suite", ["haar", "ginibre"])
def test_statistical_verify_loads_no_exact_layer(suite):
    code, mods, _ = probe(["verify", suite, "--n", "2", "--samples", "2000", "--quiet"])
    assert code == 0
    assert "hciz.suites" in mods
    assert not {"hciz.symfn", "hciz.exactpoly", "hciz.scalars", "hciz.invariant",
                "fractions"} & mods


def test_one_worker_eval_loads_no_thread_pool():
    code, mods, _ = probe(["eval", "--n", "2", "--a", "r", "--b", "r", "--methods",
                           "det,mc,series", "--samples", "2000", "--threads", "1", "--quiet"])
    assert code == 0
    assert "numpy" in mods
    assert "concurrent.futures" not in mods


@pytest.mark.parametrize(
    "argv, loads_numpy",
    [(["verify", "unitarity", "--n", "2"], False),
     (["eval", "--n", "2", "--a", "0.3,-0.6", "--b", "0.9,0.1", "--samples", "2000"], True)],
    ids=["verify-unitarity", "eval"],
)
def test_report_names_the_installed_numpy(argv, loads_numpy):
    code, mods, out = probe(argv + ["--output", "-"])
    assert code == 0
    assert ("numpy" in mods) == loads_numpy
    versions = json.loads(out)["versions"]
    assert versions["numpy"] == np.__version__
    assert versions["python"] == platform.python_version()


@pytest.mark.parametrize(
    "argv",
    [["eval", "--n", "2", "--a", "1e200,2", "--b", "1,3", "--methods", "det"],
     ["schur", "--lambda", "2", "--eigs", "1e200,1"]],
    ids=["eval-det", "schur"],
)
def test_overflow_leaves_one_json_line_on_stderr(argv):
    proc = _python("-m", "hciz.cli", *argv)
    assert proc.returncode == 2
    assert "RuntimeWarning" not in proc.stderr
    (line,) = proc.stderr.splitlines()
    assert json.loads(line)["error"]["type"] == "NonFiniteValueError"


# computing the h-values costs n*kmax steps; when it cost kmax^2, the eval
# took about 14 s already at --max-weight 10000 and the schur command 27 s
def test_series_max_weight_does_not_set_the_cost():
    proc = _python("-m", "hciz.cli", "eval", "--n", "2", "--a", "1,2", "--b", "1,2",
                   "--methods", "series", "--max-weight", "100000", "--output", "-",
                   timeout=10)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["results"]["series"]["max_weight_used"] < 100


# no lambda above f's weighted degree has a coefficient; when every lambda up to
# --max-weight was looked up, --max-weight 1000 took 21 s
def test_fourier_max_weight_does_not_set_the_cost():
    def coefficients(*argv):
        proc = _python("-m", "hciz.cli", "fourier", "--f", "t1", "--n", "2", *argv,
                       "--output", "-", timeout=10)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)["results"]["coefficients"]

    assert coefficients("--max-weight", "100000") == coefficients() == {"1": "1"}


def test_schur_of_a_long_row_is_fast():
    # at a point of modulus 1 the value neither overflows nor underflows: s = 1^20000
    proc = _python("-m", "hciz.cli", "schur", "--lambda", "20000", "--eigs", "1",
                   "--output", "-", timeout=10)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["results"]["value"] == {"re": 1.0, "im": 0.0}


# the power-sum expansion of s_lambda visits every class of weight |lambda|:
# without a limit, --lambda 45 took 5 s and --lambda 100 would visit p(100),
# about 1.9e8 classes; fourier expands each s_lambda it needs the same way
@pytest.mark.parametrize(
    "argv",
    [["schur", "--lambda", "100", "--power-sums"], ["fourier", "--f", "t100", "--n", "2"]],
    ids=["schur", "fourier"],
)
def test_power_sum_class_limit_exits_64_quickly(argv):
    proc = _python("-m", "hciz.cli", *argv, timeout=10)
    assert proc.returncode == 64
    assert "in power sums is a sum over the p(100) classes of weight 100" in proc.stderr
