"""A kill list for congame: small faults put into a copy of the source, each
with the tests that must fail on it.

Each row names a file under ``src/congame``, an exact text of that file, the
text that replaces it, and the pytest node ids that must catch the change.
For each row the source tree is copied to a temp dir, the text is replaced
there, and the nodes run on the copy, first failure ending the run:

    python -m tests.mutants          # every row
    python -m tests.mutants NAME...  # the named rows

prints ``killed`` or ``survived`` per row and exits 1 on any survivor or bad
row: a text found other than exactly once, or a copy that the test run would
not import.  A new mutant is one row with its reason.

Stdlib only; the nodes need pytest and hypothesis, as the suite does.
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple, Optional

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"

ADAPTIVE = "tests/test_adaptation.py::TestLoopEqualsReference"
SIMULATED = "tests/test_strategies.py::TestSimulation::test_equals_per_visit_reference"
FAILING_MOVE = ("tests/test_adaptation.py::TestLoopEqualsReference"
                "::test_stored_move_failing_its_check")
FIXED_MOVES = "tests/test_adaptation.py::TestFixedMoves"
PROFILES = "tests/test_strategies.py::TestSupportProfiles"
SOLVERS = "tests/test_solvers.py"
PREDECESSORS = "tests/test_operators.py::TestOpponentPredecessors"
SINK_TAIL = "tests/test_adaptation.py::TestRunAdaptive::test_sink_tail_adds_as_cum_plus_r"
ZERO_ROW = "tests/test_strategies.py::test_row_without_positive_weight_is_an_input_error"
ACTION_SETS = "tests/test_operators.py::TestActionSets"
EVERY_OPERATOR = "tests/test_exhaustive.py::test_operators_match_oracles_on_every_argument"
EVERY_REGION = "tests/test_exhaustive.py::test_winning_region_against_support_profiles"


class Mutant(NamedTuple):
    name: str
    path: str  # relative to src/congame
    text: str
    replacement: str
    nodes: tuple[str, ...]
    reason: str


MUTANTS = (
    Mutant("walk-sink-short", "strategies.py",
           "yield (v, a, b, w), horizon - k\n",
           "yield (v, a, b, w), horizon - k - 1\n",
           (ADAPTIVE, SIMULATED),
           "the walk's sink repeats its step for every step left"),
    Mutant("walk-sink-any-step", "strategies.py",
           "if w == v and len(set(",
           "if len(set(",
           (ADAPTIVE, SIMULATED),
           "only a one-outcome step that loops back is a sink"),
    Mutant("adapt-counts-once", "adaptation.py",
           "plan.counts[b] += times",
           "plan.counts[b] += 1",
           (ADAPTIVE,),
           "the opponent's counts take every repeated step at a sink"),
    Mutant("adapt-violations-once", "adaptation.py",
           "violations += times",
           "violations += 1",
           (FAILING_MOVE, FIXED_MOVES),
           "a failing move counts a violation at every repeated step"),
    Mutant("adapt-tail-from-cum", "adaptation.py",
           "count(cum + r, r)",
           "count(cum, r)",
           (SINK_TAIL, ADAPTIVE),
           "the sink's first repeated row already adds its own reward"),
    Mutant("simulate-suffix-without-tail", "strategies.py",
           "longest_target_suffix=suffix and suffix + tail,",
           "longest_target_suffix=suffix,",
           (SIMULATED,),
           "a target sink's repeated steps belong to the longest target suffix"),
    Mutant("distribution-one-zero-weight", "strategies.py",
           "if 0.0 < s.c <= _MAX_FLOAT and",
           "if 0.0 <= s.c <= _MAX_FLOAT and",
           (ZERO_ROW,),
           "a one-schedule row of weight zero has no positive weight"),
    Mutant("buchi-target-only", "solvers.py",
           "x1 = pre1_mask(g, w, i_mask)",
           "x1 = i_mask & w",
           (SOLVERS,),
           "buchi's rank 1 is the targets that P1 can keep inside W, not all of them"),
    Mutant("pre2-inside-y", "operators.py",
           "if b_set_mask(g, vi, ~y_mask, gamma1[vi]) != ",
           "if b_set_mask(g, vi, y_mask, gamma1[vi]) != ",
           (PREDECESSORS, PROFILES),
           "pre2 asks for a P2 action with no successor outside Y"),
    Mutant("apre2-hit-only", "operators.py",
           "if hit and hit & ~b_set_mask(g, vi, ~y_mask, gamma1[vi]):",
           "if hit:",
           (PREDECESSORS, PROFILES),
           "apre2's P2 action must also keep every successor inside Y"),
    Mutant("a-set-no-excuse", "operators.py",
           "if not (y_mask >> wi & 1 or gamma2_mask & b_bit):",
           "if not y_mask >> wi & 1:",
           (ACTION_SETS, EVERY_OPERATOR),
           "a successor outside Y is allowed where gamma2 holds its P2 action"),
    Mutant("b-set-every-p1-action", "operators.py",
           "if gamma1_mask & 1:",
           "if True:",
           (ACTION_SETS, EVERY_OPERATOR),
           "only the P1 actions of gamma1 count towards reaching X"),
    Mutant("pred-misses-last-move", "model.py",
           "for wi in set(row):",
           "for wi in set(row[:-1]):",
           (SOLVERS, EVERY_REGION),
           "the last joint action's successor has its state as a predecessor too"),
)


def occurrences(m: Mutant, src: Path = SRC) -> int:
    """How often `m`'s text occurs in its file under `src`."""
    return (src / "congame" / m.path).read_text(encoding="utf-8").count(m.text)


def imports_copy(env: dict, src: Path) -> bool:
    """Whether a Python run with `env` imports congame from `src`."""
    done = subprocess.run(
        [sys.executable, "-c", "import congame; print(congame.__file__)"],
        capture_output=True, text=True, env=env, cwd=REPO, timeout=120)
    return done.returncode == 0 and \
        Path(done.stdout.strip()) == src / "congame" / "__init__.py"


def run(m: Mutant) -> tuple[str, Optional[str]]:
    """Apply `m` to a copy of the source and run its nodes there; return
    ``killed``, ``survived`` or ``bad``, with what was wrong for ``bad``."""
    found = occurrences(m)
    if found != 1:
        return "bad", f"text found {found} times in {m.path}"
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp).resolve() / "src"
        shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        path = src / "congame" / m.path
        path.write_text(path.read_text(encoding="utf-8").replace(m.text, m.replacement),
                        encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        if not imports_copy(env, src):
            return "bad", f"the test run would not import the copy in {src}"
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *m.nodes],
            capture_output=True, text=True, env=env, cwd=REPO, timeout=1800)
    # exit 1 alone is also what a missing pytest gives, so a kill needs a failed test
    if done.returncode == 1 and re.search(r"^FAILED ", done.stdout, re.MULTILINE):
        return "killed", None
    if done.returncode == 0:
        return "survived", None
    return "bad", f"pytest exited {done.returncode}: {(done.stdout + done.stderr).strip()[-300:]}"


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m tests.mutants",
                                     description="Check that the tests kill each mutant.")
    parser.add_argument("names", nargs="*", help="rows to run (default: all)")
    args = parser.parse_args(argv)
    known = {m.name for m in MUTANTS}
    unknown = [n for n in args.names if n not in known]
    if unknown:
        print(f"error: no mutant named {', '.join(unknown)}", file=sys.stderr)
        return 2
    failed = False
    for m in MUTANTS:
        if args.names and m.name not in args.names:
            continue
        verdict, problem = run(m)
        failed |= verdict != "killed"
        print(f"{verdict:9s} {m.name}" + (f": {problem}" if problem else ""), flush=True)
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
