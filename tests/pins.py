"""Every pinned command line of congame: one table, read by the test suite
and by CI.

Each row is a ``congame`` command run from the repository root, in order,
with ``{tmp}`` standing for the one temp dir that earlier rows write into.
Its output is the ``-o`` file when the command has one, and stdout
otherwise.  A row expects exit 0 and, when it names one, that output to
equal a golden under ``tests/data/goldens`` or to have a given sha256.
A new pin is one row with its reason.

Stdlib only, so that an interpreter without pytest can run it:

    PYTHONPATH=src python -m tests.pins      # through congame.cli.main
    python -m tests.pins --installed         # through the congame on PATH

prints one line per row and exits 1 on any mismatch, or when no row ran.
``--installed`` first checks that the ``congame`` on PATH imports this
checkout's ``src``.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Callable, NamedTuple, Optional

REPO = Path(__file__).resolve().parents[1]
GOLDENS = REPO / "tests" / "data" / "goldens"


class Pin(NamedTuple):
    name: str
    argv: str
    reason: str
    golden: Optional[str] = None
    sha256: Optional[str] = None


PINS = (
    Pin("incremental-small", "incremental --games 3 --sizes 1",
        "the incremental harness runs at its smallest size"),
    Pin("incremental-golden", "incremental --games 60",
        "the conflict-fraction CSV of the paper's incremental experiment",
        golden="incremental_games60.csv"),
    Pin("compare-small",
        "compare games/cobuchi_stabilize.json games/reward_s0.json games/opponent_heavy_d.json"
        " --start S2 --pairs 2 --horizon 50",
        "compare runs at a small size"),
    Pin("template-buchi", "template games/buchi_cycle.json -o {tmp}/buchi_template.json",
        "the buchi template, its rank partition and live groups",
        golden="template_buchi_cycle.json"),
    Pin("extract-buchi",
        "extract games/buchi_cycle.json {tmp}/buchi_template.json -o {tmp}/buchi_strategy.json",
        "extraction reads a template file"),
    Pin("check-buchi",
        "check games/buchi_cycle.json {tmp}/buchi_template.json {tmp}/buchi_strategy.json",
        "check reads an extracted strategy"),
    Pin("verify-buchi", "verify games/buchi_cycle.json {tmp}/buchi_strategy.json",
        "exact verification reads an extracted strategy"),
    Pin("check-buchi-nonmax",
        "check games/buchi_cycle.json {tmp}/buchi_template.json games/strategy_buchi_nonmax.json",
        "the verdict on a compliant strategy that is not the maximal one",
        golden="verdict_buchi_nonmax.json"),
    Pin("solve-buchi", "solve games/buchi_cycle.json",
        "the buchi winning region and its rank chain",
        golden="solve_buchi_cycle.json"),
    Pin("compose-buchi",
        "compose games/buchi_cycle.json {tmp}/buchi_template.json {tmp}/buchi_template.json",
        "compose reads two template files"),
    Pin("simulate-buchi",
        "simulate games/buchi_cycle.json {tmp}/buchi_strategy.json --episodes 2 --horizon 20",
        "simulate runs with its default opponent"),
    Pin("simulate-buchi-long-uniform",
        "simulate games/buchi_cycle.json {tmp}/buchi_strategy.json --episodes 50 --horizon 500",
        "the all-constant rows A, B and C face two uniform P2 actions each and no sink, so"
        " every step draws both players; recorded when later visits read a per-state table"
        " of steps",
        sha256="7ad47393b13396be1df69517329149544cf64ca86c2fcbc749ad4fa0fd97915d"),
    Pin("adapt-small",
        "adapt games/cobuchi_stabilize.json games/reward_s0.json --start S2 --horizon 20",
        "adapt runs with its default opponent"),
    Pin("adapt-greedy-golden",
        "adapt games/cobuchi_stabilize.json games/reward_s0.json"
        " --horizon 40 --seed 3 --start S2 --opponent greedy",
        "an adaptive trace against the greedy opponent, every reward and running total",
        golden="adapt_greedy_cobuchi.csv"),
    Pin("compare-golden",
        "compare games/cobuchi_stabilize.json games/reward_s0.json games/opponent_heavy_d.json"
        " --start S2 --pairs 10 --horizon 500",
        "the seed-paired adaptive and fixed totals",
        golden="compare_cobuchi.txt"),
    Pin("adapt-long-fixed",
        "adapt games/cobuchi_stabilize.json games/reward_s0.json --start S2 --horizon 2000"
        " --seed 5 --opponent fixed --opponent-file games/opponent_heavy_d.json",
        "episodes that end at the sink S0 or S1; recorded when every step was played",
        sha256="2b1ccfa4e0bfa29a706c99d59678172be33d0171bf3801ac5498e9226eeb4d81"),
    Pin("adapt-long-uniform",
        "adapt games/cobuchi_stabilize.json games/reward_s0.json --start S2 --horizon 2000"
        " --seed 5 --opponent uniform",
        "episodes that end at the sink S0 or S1; recorded when every step was played",
        sha256="b0a16b698071a027f0f615343da44840aa6d90ee45e4d33d0658e7aa86b59013"),
    Pin("adapt-long-greedy",
        "adapt games/cobuchi_stabilize.json games/reward_s0.json --start S2 --horizon 2000"
        " --seed 7 --opponent greedy",
        "greedy's move off S2 is built once per state; recorded when it was asked at every step",
        sha256="92da0e2bba3065fd83cc178acb2fb417555380504887682e1d00ce51cccc55d3"),
    Pin("compare-default",
        "compare games/cobuchi_stabilize.json games/reward_s0.json games/opponent_heavy_d.json"
        " --start S2",
        "50 pairs of 2000 steps, the adapt benchmark's episodes; recorded when adaptive"
        " episodes played every step",
        sha256="fcaba608902fade86a68393b1fb33875d1ecddecb3256dc7a97081ca48130429"),
    Pin("solve-cobuchi", "solve games/cobuchi_stabilize.json",
        "the cobuchi winning region and its rank chain",
        golden="solve_cobuchi_stabilize.json"),
    Pin("template-cobuchi",
        "template games/cobuchi_stabilize.json -o {tmp}/cobuchi_template.json",
        "the cobuchi template, its colive edges and rank partition",
        golden="template_cobuchi_stabilize.json"),
    Pin("check-cobuchi-nonmax",
        "check games/cobuchi_stabilize.json {tmp}/cobuchi_template.json"
        " games/strategy_cobuchi_nonmax.json",
        "the verdict on a compliant strategy that is not the maximal one",
        golden="verdict_cobuchi_nonmax.json"),
    Pin("extract-cobuchi",
        "extract games/cobuchi_stabilize.json {tmp}/cobuchi_template.json"
        " -o {tmp}/cobuchi_strategy.json",
        "extraction reads a template file"),
    Pin("simulate-fixed",
        "simulate games/cobuchi_stabilize.json {tmp}/cobuchi_strategy.json --start S2"
        " --horizon 50 --opponent fixed --opponent-file games/opponent_heavy_d.json",
        "simulate reads an opponent file"),
    Pin("simulate-fixed-golden",
        "simulate games/cobuchi_stabilize.json {tmp}/cobuchi_strategy.json --start S2"
        " --horizon 60 --episodes 3 --opponent fixed --opponent-file games/opponent_heavy_d.json",
        "every field of the episode logs, visits and target counts included",
        golden="simulate_cobuchi_fixed.jsonl"),
    Pin("simulate-long-fixed",
        "simulate games/cobuchi_stabilize.json {tmp}/cobuchi_strategy.json --start S2"
        " --horizon 2000 --episodes 5 --opponent fixed --opponent-file games/opponent_heavy_d.json",
        "episodes that stay at the sink S1 or S0 for nearly all their steps; recorded when"
        " every step was played",
        sha256="831d5893cc47c925a76e577eb3fdc5948c776fd80b766fc7514b93a6c6eb3d93"),
    Pin("simulate-long-greedy",
        "simulate games/cobuchi_stabilize.json {tmp}/cobuchi_strategy.json --start S2"
        " --horizon 2000 --episodes 5 --opponent greedy",
        "greedy fixes its action off S2, so episodes stop at a sink; recorded when it was"
        " asked at every step",
        sha256="bc2e99c9813b6b77335ede21fc4640cb307648ee7fb4a6f234daa9e1d6bbda02"),
    Pin("simulate-greedy-constant-rows",
        "simulate games/buchi_cycle.json games/strategy_buchi_nonmax.json --episodes 50"
        " --horizon 500 --opponent greedy",
        "greedy's first pick at the all-constant rows A and C is fixed, B's geometric row"
        " asks it at every visit; recorded when it was asked at every step",
        sha256="0c99c7c3c552b17bdea37b02a061be6dc1e799bbab8b76eff19301e7b58ee7bf"),
    Pin("extract-colive",
        "extract games/cobuchi_stabilize.json games/template_cobuchi_colive.json"
        " -o {tmp}/colive_strategy.json",
        "colive x and y at S2 get decaying schedules next to constant a and b; recorded"
        " with two schedule records",
        sha256="62ba093d56f4d764be0da855ec9615cafa501fd5ead273bc29d62debbae4a66f"),
    Pin("simulate-colive",
        "simulate games/cobuchi_stabilize.json {tmp}/colive_strategy.json --start S2"
        " --horizon 100 --episodes 50 --opponent uniform",
        "S2's geometric row is drawn afresh at every visit; recorded with two schedule records",
        sha256="c3f7a5bd855a29a736803c02b4ad707995530acf8f163c3735fe47faf92410ce"),
    Pin("simulate-jobs",
        "simulate games/cobuchi_stabilize.json {tmp}/cobuchi_strategy.json --start S2"
        " --horizon 50 --opponent uniform --episodes 4 --jobs 2",
        "simulate runs episodes on a process pool"),
    Pin("simulate-greedy-small",
        "simulate games/buchi_cycle.json {tmp}/buchi_strategy.json --episodes 2 --horizon 20"
        " --opponent greedy",
        "simulate runs against the greedy opponent"),
    Pin("convert", "convert games/tb_handshake.json",
        "the concurrent game converted from a turn-based one",
        golden="convert_tb_handshake.json"),
)


def run_in_process(argv: list) -> tuple[int, bytes, str]:
    """`argv` through ``congame.cli.main`` in this process."""
    from congame.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
    return code, out.getvalue().encode("utf-8"), err.getvalue()


def run_installed(exe: str, argv: list) -> tuple[int, bytes, str]:
    """`argv` through the ``congame`` executable `exe`."""
    done = subprocess.run([exe, *argv], capture_output=True, timeout=600)
    return done.returncode, done.stdout, done.stderr.decode("utf-8", "replace")


def imports_this_checkout(exe: str) -> bool:
    """Whether the ``congame`` executable `exe` imports this checkout's
    ``src``: its verbose import log names ``src/congame/cli.py``."""
    env = dict(os.environ, PYTHONVERBOSE="1")
    done = subprocess.run([exe, "--help"], capture_output=True, text=True, env=env,
                          timeout=120)
    return done.returncode == 0 and str(REPO / "src" / "congame" / "cli.py") in done.stderr


def _mismatch(pin: Pin, argv: list, code: int, stdout: bytes, stderr: str) -> Optional[str]:
    if code != 0:
        return f"exit {code}: {stderr.strip()[-200:]}"
    if pin.golden is None and pin.sha256 is None:
        return None
    out = Path(argv[argv.index("-o") + 1]).read_bytes() if "-o" in argv else stdout
    if pin.golden is not None and out != (GOLDENS / pin.golden).read_bytes():
        return f"output differs from golden {pin.golden}"
    if pin.sha256 is not None and hashlib.sha256(out).hexdigest() != pin.sha256:
        return f"sha256 {hashlib.sha256(out).hexdigest()}, expected {pin.sha256}"
    return None


def check(pins, run: Callable = run_in_process) -> list:
    """Run `pins` in order from the repository root, in one temp dir, each
    argv through `run`, which returns its exit code, stdout and stderr;
    each pin with its mismatch, or None."""
    results = []
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(REPO)
        try:
            for pin in pins:
                argv = [arg.replace("{tmp}", tmp) for arg in pin.argv.split()]
                results.append((pin, _mismatch(pin, argv, *run(argv))))
        finally:
            os.chdir(cwd)
    return results


def report(results) -> int:
    """Print one line per pin; 1 if any mismatched or none ran, else 0."""
    for pin, problem in results:
        print(f"ok    {pin.name}" if problem is None else f"FAIL  {pin.name}: {problem}")
    if not results:
        print("no pin ran")
    return int(not results or any(problem is not None for _, problem in results))


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m tests.pins",
                                     description="Run every pinned congame command line.")
    parser.add_argument("--installed", action="store_true",
                        help="run the congame on PATH instead of congame.cli.main")
    args = parser.parse_args(argv)
    if not args.installed:
        return report(check(PINS))
    exe = shutil.which("congame")
    if exe is None or not imports_this_checkout(exe):
        print(f"error: the congame on PATH ({exe}) does not import {REPO / 'src'}",
              file=sys.stderr)
        return 1
    return report(check(PINS, functools.partial(run_installed, exe)))


if __name__ == "__main__":
    sys.exit(main())
