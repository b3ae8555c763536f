"""Compare the command line's outputs of this tree with those of another tree (dev tool).

Runs one matrix of ``finslerab`` commands in both source trees and compares
their outputs: the 6 shipped metrics x seeds {0, 1, 2} x (``check --format
json`` under bh and ht, ``check --format csv``, ``scurv`` under bh and ht,
``flag``, ``appendix --sigma random --format json``), plus ``appendix
--dim-sweep 3,4,5,8,12 --format json`` at seeds 0-2, plus dense metrics:
``random_metric(n, 40 + n)`` for n in {3, 5, 8, 12}, written once as
metric files from this tree's ``random_metric_text``, x seeds {0, 1, 2} x (``check --format json``
and ``scurv``, each under bh and ht).  The shipped metrics are sparse and
small, so a change in the order in which a stack's dot products are summed
can leave their outputs byte-identical; the dense ones show it.

The other tree's commands run under ``PYTHONHASHSEED=0`` and this tree's
under ``PYTHONHASHSEED=1``, so this tree compared with itself checks that
every output is independent of hash order.

Each output is split into its numbers and the text between them.  The text
must be equal: it holds every verdict, key, consistency record and
failure list.  Each number may move by at most 1e-12 max(1, |x|), x the
other tree's value.  The report gives the count of byte-identical outputs,
every output that differs, and the worst relative deviation with where it
occurred (a key path in JSON, a line and field elsewhere); its last line is
the line count of the Python source under ``src/finslerab`` in each tree.

``--moved KEY ...`` names the JSON key paths whose numbers a change moves
on purpose, such as ``conditions.F_einstein``: a number at such a path, or
below it, may move by any amount, and the report counts those that moved
and gives the largest move.  Everything else is held as before, including
the text, so a verdict under a moved key must still be equal.

Exit status: 0 when every exit status and text is equal and every number
not under a moved key within the bound, 1 otherwise.

Run:  python tools/compare_cli.py PARENT_ROOT [--moved KEY ...]
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
METRICS = Path("src/finslerab/metrics")
SEEDS = (0, 1, 2)
DENSE_DIMS = (3, 5, 8, 12)  # random_metric(n, 40 + n)
BOUND = 1e-12
JOBS = 2  # commands run at once
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def source_lines(root: Path) -> int:
    """The number of lines of the Python files under ``src/finslerab`` of ``root``, as ``wc -l`` counts them."""
    return sum(path.read_bytes().count(b"\n") for path in (root / "src/finslerab").rglob("*.py"))


def write_dense_metrics(folder: Path) -> list:
    """Write the text of ``random_metric(n, 40 + n)`` of this tree for each n of DENSE_DIMS into ``folder``; their paths."""
    sys.path.insert(0, str(ROOT / "src"))
    from finslerab.testmetrics import random_metric_text

    paths = []
    for n in DENSE_DIMS:
        path = folder / f"random_{n}_{40 + n}.metric"
        path.write_text(random_metric_text(n, 40 + n))
        paths.append(path)
    return paths


def matrix(root: Path, dense=()) -> list:
    """(label, argv) of every command, for the shipped metrics of ``root`` and the metric files ``dense``."""
    runs = []
    for path in sorted((root / METRICS).glob("*.metric")):
        metric, name = str(METRICS / path.name), path.stem
        for seed in SEEDS:
            s = ["--seed", str(seed)]
            runs += [
                (f"check json bh {name} seed {seed}", ["check", metric, "--format", "json", "--volume", "bh", *s]),
                (f"check json ht {name} seed {seed}", ["check", metric, "--format", "json", "--volume", "ht", *s]),
                (f"check csv {name} seed {seed}", ["check", metric, "--format", "csv", *s]),
                (f"scurv bh {name} seed {seed}", ["scurv", metric, "--volume", "bh", *s]),
                (f"scurv ht {name} seed {seed}", ["scurv", metric, "--volume", "ht", *s]),
                (f"flag {name} seed {seed}", ["flag", metric, *s]),
                (f"appendix json {name} seed {seed}", ["appendix", metric, "--sigma", "random", "--format", "json", *s]),
            ]
    for seed in SEEDS:
        runs.append((f"dim-sweep json seed {seed}", ["appendix", "--dim-sweep", "3,4,5,8,12", "--format", "json",
                                                     "--seed", str(seed)]))
    for path in dense:
        for seed in SEEDS:
            for form in ("bh", "ht"):
                s = ["--volume", form, "--seed", str(seed)]
                runs += [
                    (f"check json {form} {path.stem} seed {seed}", ["check", str(path), "--format", "json", *s]),
                    (f"scurv {form} {path.stem} seed {seed}", ["scurv", str(path), *s]),
                ]
    return runs


def run(root: Path, argv: list, hash_seed: str) -> tuple[int, str]:
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED=hash_seed)
    proc = subprocess.run([sys.executable, "-m", "finslerab.cli", *argv], cwd=root, env=env,
                          capture_output=True, text=True, timeout=600)
    return proc.returncode, proc.stdout


def _split(text: str) -> tuple[list, list]:
    """(the text between the numbers, the numbers with their places) of one output."""
    skeleton, numbers = [], []
    for lineno, line in enumerate(text.splitlines(), 1):
        skeleton.append(NUMBER.sub("#", line))
        numbers += [(float(m.group()), f"line {lineno}, field {k}") for k, m in enumerate(NUMBER.finditer(line))]
    return skeleton, numbers


def _json_numbers(value, path="") -> list:
    """Every number of a parsed JSON value, also those inside strings, with its key path; booleans are text."""
    if isinstance(value, dict):
        return [item for k in sorted(value) for item in _json_numbers(value[k], f"{path}.{k}" if path else k)]
    if isinstance(value, list):
        return [item for i, v in enumerate(value) for item in _json_numbers(v, f"{path}[{i}]")]
    if isinstance(value, str):
        return [(float(m.group()), f"{path} field {k}") for k, m in enumerate(NUMBER.finditer(value))]
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return [(float(value), path)]
    return []


def _under(where: str, keys) -> bool:
    """Whether the place ``where`` of a JSON number is one of the key paths ``keys`` or below one."""
    return any(where == k or where.startswith((k + ".", k + "[", k + " ")) for k in keys)


def compare(label: str, argv: list, parent: tuple, child: tuple, moved=()) -> dict:
    """The differences of one output: ``problems`` (text or status), the worst number deviation and the moves.

    A JSON number under a key path of ``moved`` is not held to the bound:
    ``moves`` counts those that changed and ``worst_move`` is the largest change.
    """
    (rc_p, out_p), (rc_c, out_c) = parent, child
    result = {"label": label, "identical": rc_p == rc_c and out_p == out_c, "problems": [], "worst": (0.0, ""),
              "moves": 0, "worst_move": (0.0, "")}
    if rc_p != rc_c:
        result["problems"].append(f"exit status {rc_p} -> {rc_c}")
    skel_p, nums_p = _split(out_p)
    skel_c, nums_c = _split(out_c)
    if skel_p != skel_c:
        line = next((i for i, (a, b) in enumerate(zip(skel_p, skel_c)) if a != b), min(len(skel_p), len(skel_c)))
        result["problems"].append(f"text differs at line {line + 1}")
        return result
    if "--format" in argv and "json" in argv:
        try:
            nums_p, nums_c = _json_numbers(json.loads(out_p)), _json_numbers(json.loads(out_c))
        except json.JSONDecodeError:
            pass  # not JSON after all (an error run): keep the places by line
    for (a, where), (b, _) in zip(nums_p, nums_c):
        dev = abs(b - a) / max(1.0, abs(a))
        key = "worst"
        if _under(where, moved):
            result["moves"] += a != b
            key = "worst_move"
        if dev > result[key][0]:
            result[key] = (dev, where)
    if result["worst"][0] > BOUND:
        result["problems"].append(f"deviation {result['worst'][0]:.3g} at {result['worst'][1]} exceeds {BOUND:g}")
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent_root", type=Path, help="root of the other source tree")
    ap.add_argument("--moved", nargs="+", default=[], metavar="KEY",
                    help="JSON key paths whose numbers may move, e.g. conditions.F_einstein")
    args = ap.parse_args(argv)
    parent = args.parent_root.resolve()

    def both(item):
        label, cmd = item
        return compare(label, cmd, run(parent, cmd, "0"), run(ROOT, cmd, "1"), args.moved)

    with tempfile.TemporaryDirectory() as folder, ThreadPoolExecutor(JOBS) as pool:
        results = list(pool.map(both, matrix(ROOT, write_dense_metrics(Path(folder)))))
    bad = [r for r in results if r["problems"]]
    for r in results:
        if not r["identical"]:
            status = "; ".join(r["problems"]) or f"worst {r['worst'][0]:.3g} at {r['worst'][1] or '-'}"
            if r["moves"]:
                status += f"; {r['moves']} moved, largest {r['worst_move'][0]:.3g} at {r['worst_move'][1]}"
            print(f"differs: {r['label']}: {status}")
    worst = max(results, key=lambda r: r["worst"][0])
    identical = sum(r["identical"] for r in results)
    print(f"{len(results)} outputs: {identical} byte-identical, {len(results) - identical} differ, {len(bad)} failing")
    if worst["worst"][0] > 0.0:
        print(f"worst relative deviation {worst['worst'][0]:.3g}: {worst['label']}, {worst['worst'][1]}")
    else:
        print("worst relative deviation 0")
    if args.moved:
        most = max(results, key=lambda r: r["worst_move"][0])
        print(f"moved keys {', '.join(args.moved)}: {sum(r['moves'] for r in results)} numbers moved, "
              f"largest relative move {most['worst_move'][0]:.3g}"
              + (f": {most['label']}, {most['worst_move'][1]}" if most["worst_move"][0] > 0.0 else ""))
    lines_p, lines_c = source_lines(parent), source_lines(ROOT)
    print(f"src/finslerab lines: {lines_p} in {parent}, {lines_c} in {ROOT} ({lines_c - lines_p:+d})")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
