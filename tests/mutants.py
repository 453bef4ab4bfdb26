"""Mutation checks: each row breaks one piece of library code, and the tests it names must then fail.

    python tests/mutants.py        # every row
    python tests/mutants.py 1 3    # rows by number, from 1

For each row, the script copies `src/` into a temporary directory, replaces
the row's exact old text (which must occur once in its file) with the new
text, and runs pytest on the row's tests with the copy first on PYTHONPATH.
A mutant is killed when some named test fails, and survives when all pass.
The script prints one line per row and exits 1 if any mutant survives. Each
row names tests that check a property (an oracle, a call count, a draw), not
bit pins, which fail on any change and so cannot say what broke.

pytest does not collect this file: its name does not start with `test_`.
A change to a function listed here runs the script and updates its rows.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    what: str
    file: str  # relative to src/genbounds
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repository root


MUTANTS = [
    Mutant(
        "`>=` for `>` in the MC tail violation count",
        "validation.py",
        "np.count_nonzero(ge > bound[rows, w])",
        "np.count_nonzero(ge >= bound[rows, w])",
        ("tests/test_validation.py::TestBatchedMc::test_trials_equal_the_per_trial_loop",),
    ),
    Mutant(
        "the type table kept when its index is emptied, so cells read stale rows and bounds",
        "validation.py",
        "            index.clear()\n            table = table[:0]\n",
        "            index.clear()\n",
        ("tests/test_validation.py::TestBatchedMc::test_full_type_cache_evaluates_again",),
    ),
    Mutant(
        "a re-key that keeps the previous stream's buffer_pos",
        "seeding.py",
        "            bitgen.state = state\n",
        '            bitgen.state = {**state, "buffer_pos": bitgen.state["buffer_pos"]}\n',
        ("tests/test_seeding.py::TestRekey::test_streams_draw_what_rng_draws",),
    ),
    Mutant(
        "a cell's bound evaluated at the block's last trial's w",
        "validation.py",
        "bound_fn(s[t], w_t, table[r, 0])",
        "bound_fn(s[t], int(w[-1]), table[r, 0])",
        ("tests/test_validation.py::TestBatchedMc::test_trials_equal_the_per_trial_loop",),
    ),
    Mutant(
        "`<` for `<=` in the categorical draw, so a tie u == cdf[i] stays in cell i",
        "validation.py",
        "(cdf[..., :-1] <= u[..., None])",
        "(cdf[..., :-1] < u[..., None])",
        ("tests/test_validation.py::TestBook::test_book_entries_equal_the_inverse_cdf",),
    ),
    Mutant(
        "a --config value written into the cached parser's defaults, so a later call without it reads it",
        "cli.py",
        "            setattr(args, key, _config_value(actions[key], key, value))\n",
        "            setattr(args, key, _config_value(actions[key], key, value))\n"
        "            actions[key].default = getattr(args, key)\n",
        ("tests/test_io_cli.py::TestCli::test_repeated_calls_match_fresh_parser_calls",),
    ),
    Mutant(
        "thm5's multiplier moved off the root of its first-order condition, to lam (1 + 1e-6)",
        "bounds.py",
        "lam = _increasing_root(lambda x: _fo_condition(logw, g, K, x), lo)[1]",
        "lam = _increasing_root(lambda x: _fo_condition(logw, g, K, x), lo)[1] * (1 + 1e-6)",
        ("tests/test_properties.py::test_thm5_multiplier_beats_a_fine_grid",),
    ),
    Mutant(
        "the binary KL inverse returning the bracket's upper float, whose divergence exceeds b",
        "info.py",
        "    return _increasing_root(h, a)[0]\n",
        "    return _increasing_root(h, a)[1]\n",
        ("tests/test_properties.py::test_binary_kl_inverse_within_its_constraint_and_cap",),
    ),
    Mutant(
        "the scaling study's domination check dropped, so an exact mean above the expectation bound passes",
        "counterexample.py",
        "        if not mean <= be:\n",
        "        if not mean <= math.inf:\n",
        ("tests/test_counterexample.py::TestScaling::test_bound_violation_raises",),
    ),
    Mutant(
        "`<` for `<=` in the MC tail pass rule, so a rate at the edge delta + 3 se fails",
        "validation.py",
        "return self.violation_rate <= self.target_delta + 3 * self.binomial_se",
        "return self.violation_rate < self.target_delta + 3 * self.binomial_se",
        ("tests/test_validation.py::TestValidationReport::test_pass_rule_edge",),
    ),
    Mutant(
        "a 30-sigma buffer for the 3-sigma one in the MC tail pass rule",
        "validation.py",
        "return self.violation_rate <= self.target_delta + 3 * self.binomial_se",
        "return self.violation_rate <= self.target_delta + 30 * self.binomial_se",
        ("tests/test_validation.py::TestValidationReport::test_pass_rule_edge",),
    ),
    Mutant(
        "an export that nothing loads",
        "__init__.py",
        '__version__ = "0.1.0"\n',
        '__version__ = "0.1.0"\n\nfrom .info import Pmf as Distribution\n',
        ("tests/test_layering.py::test_every_export_has_a_caller",),
    ),
]


def failed(src: Path, tests, what: str) -> bool:
    """Whether some of `tests` fail with `src` first on PYTHONPATH."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    if run.returncode not in (0, 1):  # 1: tests failed; anything else is a usage or collection error
        raise SystemExit(f"{what}: pytest exited {run.returncode}\n{run.stdout}{run.stderr}")
    return run.returncode == 1


def killed(mutant: Mutant, tmp: Path) -> bool:
    """Whether some named test fails on a copy of src/ with the mutant's edit."""
    src = tmp / "src"
    shutil.rmtree(src, ignore_errors=True)
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    path = src / "genbounds" / mutant.file
    text = path.read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        raise SystemExit(f"{mutant.what}: the old text occurs {text.count(mutant.old)} times in {mutant.file}")
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
    return failed(src, mutant.tests, mutant.what)


def main(argv: list[str]) -> int:
    rows = [int(a) for a in argv] or range(1, len(MUTANTS) + 1)
    tests = sorted({t for i in rows for t in MUTANTS[i - 1].tests})
    if failed(ROOT / "src", tests, "the unmutated code"):
        raise SystemExit("the named tests must pass on the unmutated code")
    survivors = []
    with tempfile.TemporaryDirectory() as tmp:
        for i in rows:
            dead = killed(MUTANTS[i - 1], Path(tmp))
            print(f"{i:2d} {'killed  ' if dead else 'SURVIVED'} {MUTANTS[i - 1].what}")
            if not dead:
                survivors.append(i)
    print(f"{len(rows) - len(survivors)} of {len(rows)} killed" + (f"; survivors: {survivors}" if survivors else ""))
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
