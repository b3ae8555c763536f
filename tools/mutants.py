"""Mutation catalogue: every mutant must be killed by a test that is not a golden pin (dev tool).

Each mutant is one exact text substitution in a file under ``src/finslerab``,
together with the tests that should kill it.  For each mutant the tool copies
``src``, ``tests``, ``README.md`` and ``pyproject.toml`` to a temporary
directory, applies the substitution there (never in this tree) and runs
pytest with ``-x`` on the mutant's tests alone.  A failing test kills the
mutant and is named; a mutant whose tests all pass survived.

The catalogue cannot rot silently.  The tool fails before it runs anything
when a mutant's anchor text is not found exactly once, or when a mutant
lists a golden pin (``PINS``): a test that holds output bits fixed fails on
almost any change, so a kill by it shows nothing about the checks.  It
fails too when the listed tests do not all pass on an unmutated copy, or
when pytest ends in anything but pass or fail (a test id that does not
exist, say).

Exit status: 0 when every mutant is killed, 1 when one survived or the
catalogue is broken.

Run:  python tools/mutants.py
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "README.md", "pyproject.toml")
JOBS = 2  # mutants run at once

# Tests that hold output bits fixed: they fail on almost any change.
PINS = frozenset({"tests/test_classify.py::test_check_random_stream_is_pinned"})


class Mutant(NamedTuple):
    name: str
    path: str  # under src/finslerab
    old: str
    new: str
    tests: tuple  # pytest node ids, none of them a pin


_CLASSIFY, _RIEMANN, _FINSLER, _SCURV = "classify.py", "riemann.py", "finsler.py", "scurvature.py"
_DRIFT = "tests/test_scurvature.py::test_log_volume_drift_matches_a_difference_of_f"
_REVERSAL = "tests/test_scurvature.py::test_reversing_beta_is_reversing_y"

CATALOGUE = (
    Mutant("route gate back to 10 tol", _CLASSIFY,
           "gate = ROUTE_TOL / (1.0 - 2.0 * bu.bsq**0.5) if widens else ROUTE_TOL", "gate = 10.0 * tol",
           ("tests/test_classify.py::test_cli_check_route_gate_does_not_follow_tol",)),
    Mutant("Ricci route gate widens as b -> 1/2", _CLASSIFY,
           "gate = ROUTE_TOL / (1.0 - 2.0 * bu.bsq**0.5) if widens else ROUTE_TOL",
           "gate = ROUTE_TOL / (1.0 - 2.0 * bu.bsq**0.5)",
           ("tests/test_classify.py::test_cli_check_route_gate_does_not_follow_tol",)),
    Mutant("Lambda x 1.01", _SCURV,
           "lam = fpp / f if b < 1e-4 else fp / (b * f)", "lam = 1.01 * (fpp / f if b < 1e-4 else fp / (b * f))",
           (_DRIFT,)),
    Mutant("implication constant Killing => Killing deleted", _CLASSIFY,
           '    ("constant Killing => Killing", ("beta_constant_killing",), ("beta_killing",)),\n', "",
           ("tests/test_classify.py::test_every_implication_reports_its_violation",)),
    Mutant("theorem rows read at every dimension", _CLASSIFY,
           'theorem=spec.dim >= 3 and worst.get("beta", 0.0) > tol', 'theorem=worst.get("beta", 0.0) > tol',
           ("tests/test_classify.py::test_theorem_rows_are_asserted_where_dim_is_3_or_more_and_beta_is_not_zero",)),
    Mutant("theorem rows read whether or not asked for", _CLASSIFY,
           "_IMPLICATIONS[: None if theorem else 4]", "_IMPLICATIONS",
           ("tests/test_classify.py::test_every_implication_reports_its_violation",)),
    Mutant("implication checked without every condition computed", _CLASSIFY,
           "if all(k in v for k in ps + cs) and all(v[k] for k in ps)", "if all(v.get(k, True) for k in ps)",
           ("tests/test_classify.py::test_every_implication_reports_its_violation",)),
    Mutant("bundle pass without errstate", _RIEMANN,
           'with np.errstate(over="ignore", invalid="ignore"):', "with np.errstate():",
           ("tests/test_classify.py::test_chunk_pass_raises_at_the_first_failing_point",)),
    Mutant("bundle finite flag ignored", _RIEMANN,
           "    if not finite:\n", "    if False:\n",
           ("tests/test_classify.py::test_chunk_pass_raises_at_the_first_failing_point",)),
    Mutant("closed S form reads s for s0", _SCURV,
           "+ m / d1d2 * s0", "+ m / d1d2 * s",
           (_REVERSAL,)),
    Mutant("metric_value with |y|", _FINSLER,
           "return al * al / (al - y @ bundle.b)", "return al * al / (al - np.abs(y) @ bundle.b)",
           (_REVERSAL,)),
    Mutant("HT f'' without the l1^2 term", _SCURV,
           "t * (l2 + l1 * l1)", "t * l2",
           ("tests/test_scurvature.py::test_fsecond_matches_second_difference",)),
    Mutant("BH f' with n - 1 for n", _SCURV,
           "i1 = -n * float((c * v1) @ w)", "i1 = -(n - 1) * float((c * v1) @ w)",
           ("tests/test_scurvature.py::test_fprime_matches_fd",)),
    Mutant("log-volume drift without the half of ln det a", _SCURV,
           "0.5 * bundle.dlndet + 0.5 * vf.Lambda", "bundle.dlndet + 0.5 * vf.Lambda",
           ("tests/test_scurvature.py::test_dual_route_agreement",)),
    Mutant("jet product without one cross term", "jets.py",
           "            hess += outer.swapaxes(-1, -2)\n", "",
           ("tests/test_jets.py::test_array_jet_matches_scalar_jet_and_fd",)),
    Mutant("sums and differences grouped to the right", "dsl.py",
           "node = Bin(op, node, self.term())", "node = Bin(op, node, self.expr())",
           ("tests/test_dsl.py::test_grammar_chains_read_left_to_right",)),
    Mutant("products and quotients grouped to the right", "dsl.py",
           "node = Bin(op, node, self.factor())", "node = Bin(op, node, self.term())",
           ("tests/test_dsl.py::test_grammar_chains_read_left_to_right",)),
    Mutant("Christoffel with + d_l a_jk", _RIEMANN,
           "- dA.transpose(0, 3, 1, 2))", "+ dA.transpose(0, 3, 1, 2))",
           ("tests/test_riemann.py::test_christoffels_match_fd",)),
    Mutant("spray coefficient 4s - 1 read as 4s + 1", _FINSLER,
           "w = 4.0 * s - 1.0", "w = 4.0 * s + 1.0",
           ("tests/test_finsler.py::test_spray_dual_formula_agreement",)),
    Mutant("curvature with + dG/dy dG/dy", _FINSLER,
           "- gy @ gy", "+ gy @ gy",
           ("tests/test_finsler.py::test_ricci_via_T_routes",)),
    Mutant("T-split Ricci with half its third term", _FINSLER,
           "term3 = 2.0 * np.einsum", "term3 = np.einsum",
           ("tests/test_finsler.py::test_ricci_via_T_routes",)),
    Mutant("sigma residual as a mean", _FINSLER,
           "resid_sigma=float(np.max(np.abs(ric - sig * F2)))", "resid_sigma=float(np.mean(np.abs(ric - sig * F2)))",
           ("tests/test_finsler.py::test_extract_scalars_sigma_is_least_squares_over_the_samples",)),
    Mutant("flag fit without y y_flat", _FINSLER,
           "M = F2[..., None, None] * np.eye(n) - y[..., :, None] * y_flat[..., None, :]",
           "M = F2[..., None, None] * np.eye(n)",
           ("tests/test_finsler.py::test_flag_fit_sphere_unit",)),
    Mutant("verdict thresholds x 1e6", _CLASSIFY,
           "return tol * max(1.0, scale)", "return 1e6 * tol * max(1.0, scale)",
           ("tests/test_classify.py::test_check_negative_control",)),
    Mutant("Killing verdict reads s", _CLASSIFY,
           '"beta_killing": beta and Condition(worst["r"] <= kill, worst["r"])',
           '"beta_killing": beta and Condition(worst["s"] <= kill, worst["s"])',
           ("tests/test_classify.py::test_check_rotational_killing",)),
)


def _broken() -> list:
    """A message per mutant whose anchor is not found exactly once or that lists a pin."""
    problems = []
    for m in CATALOGUE:
        count = (ROOT / "src" / "finslerab" / m.path).read_text(encoding="utf-8").count(m.old)
        if count != 1:
            problems.append(f"{m.name}: anchor found {count} times in src/finslerab/{m.path}")
        problems += [f"{m.name}: lists the pin {t}" for t in m.tests if t.split("[")[0] in PINS]
    return problems


def _run(tests, mutant: Mutant | None = None):
    """(pytest exit status, first failing test id or None) of ``tests`` in a copy of the tree, mutated if given."""
    with tempfile.TemporaryDirectory(prefix="finslerab-mutant-") as tmp:
        for name in COPIED:
            src, dst = ROOT / name, Path(tmp) / name
            if src.is_dir():
                shutil.copytree(src, dst, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(src, dst)
        if mutant is not None:
            target = Path(tmp) / "src" / "finslerab" / mutant.path
            target.write_text(target.read_text(encoding="utf-8").replace(mutant.old, mutant.new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(Path(tmp) / "src"), PYTHONDONTWRITEBYTECODE="1")
        out = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-rf", "-p", "no:cacheprovider", *tests],
            cwd=tmp, env=env, capture_output=True, text=True,
        )
    failed = re.search(r"^FAILED (.+?)(?: - .*)?$", out.stdout, re.M)
    return out.returncode, failed and failed.group(1), out.stdout + out.stderr


def main() -> int:
    problems = _broken()
    if problems:
        print("catalogue broken:", *problems, sep="\n  ")
        return 1

    every = sorted({t for m in CATALOGUE for t in m.tests})
    status, _, log = _run(every)
    if status != 0:
        print(f"the listed tests do not pass on an unmutated copy (pytest exit {status}):\n{log}")
        return 1

    with ThreadPoolExecutor(max_workers=JOBS) as pool:
        results = list(pool.map(lambda m: _run(m.tests, m), CATALOGUE))
    survived = broken = 0
    for m, (status, test, log) in zip(CATALOGUE, results):
        if status == 1 and test:
            print(f"killed    {m.name}  by {test}")
        elif status == 0:
            survived += 1
            print(f"SURVIVED  {m.name}")
        else:
            broken += 1
            print(f"ERROR     {m.name}: pytest exit {status}\n{log}")
    killed = len(CATALOGUE) - survived - broken
    print(f"{len(CATALOGUE)} mutants: {killed} killed, {survived} survived, {broken} errors")
    return 1 if survived or broken else 0


if __name__ == "__main__":
    sys.exit(main())
