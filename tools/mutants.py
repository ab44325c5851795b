"""Run a fixed list of hand-written mutants of ``src/ddls`` against tier-1.

Each mutant is one edit, ``(name, file, old, new)``, and ``old`` must occur
exactly once in ``file``.  For each mutant the repository is copied to a
temporary directory, the edit is made there, and the tier-1 suite runs
with ``-x``: the first failing test kills the mutant, and a mutant that
passes every test survives.  The unmutated copy runs first and must pass,
so that a failure is the mutant's.  The working tree is never changed.

    python tools/mutants.py              # every mutant
    python tools/mutants.py gamma-sign   # the named ones only
    python tools/mutants.py --list

Prints one line per mutant, ``<name>: killed by <test>`` or
``<name>: survived``, and exits 1 if any survived.  The runs take pytest
options from ``PYTEST_ADDOPTS``; to see which other test kills each
mutant, leave the pinned digests out of every run:

    PYTEST_ADDOPTS=--deselect=tests/test_cli.py::test_desk_day_csvs_match_their_recorded_digests \
        python tools/mutants.py

A surviving mutant runs the whole suite, about a minute on a 2-core
machine.  This script is not part of tier-1.
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

ROOT = Path(__file__).resolve().parents[1]
TIER1 = ("-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--continue-on-collection-errors")
IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                 ".bench_out", "out", "*.egg-info")

CORE, LP, SCHEDULER = "src/ddls/core.py", "src/ddls/lp.py", "src/ddls/scheduler.py"
SIMKIT = "src/ddls/simkit.py"
MUTANTS = (
    # the window rows
    ("gamma-sign", SCHEDULER,  # every step down of a pulse becomes a step up
     "steps = np.diff(pulses, prepend=0.0)", "steps = np.abs(np.diff(pulses, prepend=0.0))"),
    ("gamma-lag", SCHEDULER,  # the load starts one epoch late
     "rows = cols + lag\n", "rows = cols + lag + 1\n"),
    ("completion-entry-dropped", SCHEDULER,  # the last queue's completion row is empty
     "-ones, ones, np.ones(q))", "-ones, ones, np.r_[np.ones(q - 1), 0.0])"),
    ("monotonicity-row-dropped", SCHEDULER,  # no e(1) >= e(0) row in any queue
     "width + epochs[1:]).ravel()", "width + epochs[2:]).ravel()"),
    ("up-dn-swapped", SCHEDULER,  # buying up lowers the load
     "(gamma.data, -ones, ones,", "(gamma.data, ones, -ones,"),
    # the program's checks
    ("rows-finite-unchecked", LP,
     "if not np.isfinite(data).all():", "if False:"),
    ("rows-duplicates-kept", LP,  # each entry is stored apart, in sorted place
     "key, position = np.unique(np.ravel_multi_index((m.col, m.row), m.shape[::-1]),\n"
     "                              return_inverse=True)",
     "key = np.sort(np.ravel_multi_index((m.col, m.row), m.shape[::-1]))\n"
     "    position = np.argsort(np.argsort(np.ravel_multi_index((m.col, m.row), m.shape[::-1]),"
     " kind='stable'), kind='stable')"),
    ("rows-zeros-kept", LP,
     "kept = data != 0", "kept = data == data"),
    ("rows-int64", LP,
     "(np.searchsorted(col, np.arange(n + 1)).astype(np.int32), row.astype(np.int32),",
     "(np.searchsorted(col, np.arange(n + 1)), row.astype(np.int64),"),
    ("stacked-rows-unsorted", LP,  # each column of [-ineq; eq] holds its rows in reverse
     "        self._entries = (self.csc[1].astype(np.intp),",
     "        order = np.lexsort((-self.csc[1], np.repeat(np.arange(n), np.diff(self.csc[0]))))\n"
     "        self.csc = (self.csc[0], self.csc[1][order], self.csc[2][order])\n"
     "        self._entries = (self.csc[1].astype(np.intp),"),
    ("lower-shape-unchecked", LP,
     "if lower.shape != shape or upper", "if upper"),
    ("nan-lower-accepted", LP,
     "nonempty = lower <= upper + FEAS_TOL", "nonempty = ~(lower > upper + FEAS_TOL)"),
    ("nonempty-interval-unchecked", LP,  # a crossed or NaN bound reaches HiGHS
     "        if np.count_nonzero(nonempty) != nonempty.size:\n", "        if False:\n"),
    ("new-cost-unchecked", LP,  # only the first costs a program is filled with are checked
     "if checked_cost is None or objective is not checked_cost:",
     "if checked_cost is None:"),
    # the binding
    ("highs-inf-unchecked", LP,  # a loaded or already imported binding skips every check
     "        core = sys.modules.get(_CORE) or _core_from_file()\n",
     "        return sys.modules.get(_CORE) or _core_from_file()\n"),
    # the warm path
    ("eq-rhs-never-pushed", LP,
     "rows = (eq_rhs != self._eq_rhs).nonzero()[0]", "rows = (eq_rhs != eq_rhs).nonzero()[0]"),
    ("upper-bounds-never-pushed", LP,  # a column whose upper bound alone changed keeps the old one
     "cols = ((lower != self._lower) | (upper != self._upper)).nonzero()[0]",
     "cols = (lower != self._lower).nonzero()[0]"),
    ("equality-residual-unchecked", LP,
     "and np.count_nonzero(residual <= _ACCEPT_TOL) == residual.size",
     "and np.count_nonzero(residual[:mi] <= _ACCEPT_TOL) == mi"),
    # the window vectors and the commit pass
    ("deadline-floor-one-epoch-late", SCHEDULER,  # offset j is due from l0 + j - deadline - 1
     "    if deadline is not None:\n        # offset j",
     "    if deadline is not None:\n        deadline += 1\n        # offset j"),
    ("deadline-floor-unclipped", SCHEDULER,  # a floor below the prior departures stays negative
     "            np.maximum(due, 0.0, out=due)\n", ""),
    ("rounding-half-up", SCHEDULER,
     "d0 = np.rint(np.round(e0 + prior, 6))", "d0 = np.floor(np.round(e0 + prior, 6) + 0.5)"),
    ("rounding-unsnapped", SCHEDULER,  # rounding error around a half decides its side
     "d0 = np.rint(np.round(e0 + prior, 6))", "d0 = np.rint(e0 + prior)"),
    ("load-sum-pairwise", SCHEDULER,  # add.reduce sums eight or more queues pairwise
     "load[...] = np.add.accumulate(terms, axis=0)[-1]", "np.add.reduce(terms, axis=0, out=load)"),
    # one optimum a window: the tie-break, and net supply in dn' = dn - s
    ("tie-break-in-the-bank-only", SCHEDULER,  # build_program's costs lack it
     "    cost = _window_cost(inputs.delay_prices, inputs.price_up, inputs.price_dn)\n",
     "    cost = np.concatenate(((-inputs.delay_prices).repeat(inputs.lookahead + 1),\n"
     "                           inputs.price_up, inputs.price_dn))\n"),
    ("tie-break-without-queue-factor", SCHEDULER,
     "* (1 + np.arange(q)[:, None] / (q + 1))", "* np.ones((q, 1))"),
    ("dn-shift-not-undone", SCHEDULER,  # extract_plan reports dn' as dn
     "q * width + 2 * width] + inputs.zic_kw", "q * width + 2 * width].copy()"),
    ("balance-rhs-still-supply", SCHEDULER,  # the supply both in the rows and in dn's bound
     "rhs = np.concatenate((np.zeros_like(net_supply),", "rhs = np.concatenate((net_supply,"),
    # the first basis
    ("first-basis-across-banks", SCHEDULER,  # one module-level list for every bank
     "first_basis = [] if m > 1 else None",
     "first_basis = globals().setdefault('_B', []) if m > 1 else None"),
    # a fresh factor each run
    ("refactor-option-before-pass-options", LP,  # which resets it to HiGHS's default
     "            highs.passOptions(_highs_options())  # resets every option, this one too\n"
     "            highs.setOptionValue(\"no_unnecessary_rebuild_refactor\", False)"
     "  # or keep the default\n",
     "            highs.setOptionValue(\"no_unnecessary_rebuild_refactor\", False)\n"
     "            highs.passOptions(_highs_options())\n"),
    # the delay cost
    ("dci-one-epoch-short", "src/ddls/queues.py",
     "np.arange(from_epoch, from_epoch + horizon + 1)", "np.arange(from_epoch, from_epoch + horizon)"),
    # the boundary checks
    ("checked-int-accepts-bool", CORE,
     "if isinstance(value, bool) or not isinstance(value, (int, np.integer)):",
     "if not isinstance(value, (int, np.integer)):"),
    ("checked-int-accepts-whole-float", CORE,
     "if isinstance(value, bool) or not isinstance(value, (int, np.integer)):",
     "if isinstance(value, bool) or not (isinstance(value, (int, np.integer))\n"
     "            or isinstance(value, float) and value.is_integer()):"),
    ("checked-numbers-accepts-booleans", CORE,
     'if arr.dtype.kind not in "iuf":', 'if arr.dtype.kind not in "iufb":'),
    ("codebook-ids-unchecked", CORE,  # any ChargeCodes, in any order, make a codebook
     "if not isinstance(code, ChargeCode) or code.id != pos:",
     "if not isinstance(code, ChargeCode):"),
    ("code-entry-any-pulse", CORE,  # a pulse that is not constant is written as its first rate
     "    if any(abs(g - code.pulse[0]) > 1e-12 for g in code.pulse):\n", "    if False:\n"),
    ("run-metrics-nan-accepted", SIMKIT,  # a bare comparison: NaN < low is False
     "            checked_numbers(getattr(self, name), name, low=low)\n",
     "            if getattr(self, name) < low:\n"
     "                raise ConfigurationError(f\"{name} must be >= {low}\")\n"),
    ("scenario-horizons-unchecked", SIMKIT,  # any codebook, lookahead and deadline >= 1
     "        self.codebook, self.lookahead, self.deadline_epochs, _ = _window_horizons(\n"
     "            self.codebook, self.lookahead, self.deadline_epochs)\n", ""),
    # the mean delay
    ("delay-sum-skips-epoch-0", SIMKIT,
     "int(backlog.sum())", "int(backlog[:, 1:].sum())"),
)


def _tier1(tree: Path) -> str | None:
    """The first test that fails in ``tree``, or None if tier-1 passes."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(tree / "src"), os.environ.get("PYTHONPATH")]))}
    try:
        proc = subprocess.run([sys.executable, *TIER1], cwd=tree, env=env, capture_output=True,
                              text=True, timeout=1800)
    except subprocess.TimeoutExpired:
        return "a timeout"
    if proc.returncode == 0:
        return None
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.MULTILINE)
    return failed.group(1) if failed else f"pytest exit {proc.returncode}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    parser.add_argument("--list", action="store_true", help="print the mutants' names and exit")
    args = parser.parse_args(argv)
    if args.list:
        print("\n".join(name for name, *_ in MUTANTS))
        return 0
    unknown = set(args.names) - {name for name, *_ in MUTANTS}
    if unknown:
        parser.error(f"unknown mutants: {sorted(unknown)}")
    chosen = [m for m in MUTANTS if not args.names or m[0] in args.names]
    stale = [name for name, file, old, _ in chosen if (ROOT / file).read_text().count(old) != 1]
    if stale:
        sys.exit(f"edits that do not match exactly once: {stale}")

    survived = []
    with tempfile.TemporaryDirectory(prefix="ddls-mutants-") as scratch:
        pristine = Path(scratch) / "pristine"
        shutil.copytree(ROOT, pristine, ignore=IGNORED)
        failing = _tier1(pristine)
        if failing:
            sys.exit(f"the unmutated copy fails {failing}; fix that first")
        for name, file, old, new in chosen:
            tree = Path(scratch) / name
            shutil.copytree(pristine, tree, ignore=IGNORED)
            (tree / file).write_text((tree / file).read_text().replace(old, new))
            killer = _tier1(tree)
            print(f"{name}: " + (f"killed by {killer}" if killer else "survived"), flush=True)
            if not killer:
                survived.append(name)
            shutil.rmtree(tree)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
