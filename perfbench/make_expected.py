"""Regenerate perfbench/expected.json, the stored references of the benchmark.

    python3 perfbench/make_expected.py

- ``hard``: the hard pool, which is the first draws per target whose build
  ends within ``HARD_MAX_DRAW_S`` here plus the fixed instances, with the
  draws left out; and for every instance its text and its satisfiability
  and infinitude verdicts.  The verdicts come from the
  solution automaton at the commit that writes the file and are cross-checked
  here with the brute-force oracle at a small length bound: an
  unsatisfiable verdict needs the oracle to find no solution, an oracle
  solution needs a satisfiable verdict, and a finite verdict needs the same
  solution count at the bound and one above it.
- ``hunt``: the class totals of the full b2 sweep, which do not depend on
  the seed because the seed only orders the instances.

Rerun it only when the workload definitions change, never to make a run pass.
"""

from __future__ import annotations

import itertools
import json
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import weq.hunt  # noqa: E402
import weq.oracle  # noqa: E402
from weq.equations import parse_instance  # noqa: E402
from weq.semigroup import resolve_semigroup  # noqa: E402
from weq.solution_graph import build, has_infinitely_many, is_solvable  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402

ORACLE_BOUND = 3


class TooSlow(Exception):
    pass


def _too_slow(signum, frame):
    raise TooSlow


def timed_build(ins, limit_s: float):
    """The solution graph, or None when build takes longer than limit_s."""
    previous = signal.signal(signal.SIGALRM, _too_slow)
    signal.setitimer(signal.ITIMER_REAL, limit_s)
    try:
        return build(ins)
    except TooSlow:
        return None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def hard_pool() -> tuple[list[tuple[str, str]], list[dict]]:
    """The first HARD_DRAWS_PER_TARGET draws per target whose build ends
    within HARD_MAX_DRAW_S, then the fixed instances; and the draws left out."""
    pool, left_out = [], []
    for target in workloads.HARD_TARGETS:
        draws = workloads.hard_draws(target)
        kept = 0
        for i in itertools.count():
            text = next(draws)
            label = f"draw-{target}-{i}"
            if timed_build(parse_instance(text), workloads.HARD_MAX_DRAW_S) is None:
                left_out.append({"label": label, "text": text,
                                 "reason": f"build takes over {workloads.HARD_MAX_DRAW_S} s"})
                continue
            pool.append((label, text))
            kept += 1
            if kept == workloads.HARD_DRAWS_PER_TARGET:
                break
    return pool + workloads.hard_fixed_texts(), left_out


def hard_entries(pool) -> list[dict]:
    entries = []
    for label, text in pool:
        ins = parse_instance(text)
        g = build(ins)
        solvable, infinite = is_solvable(g), has_infinitely_many(g)
        found = len(weq.oracle.brute_solutions(ins, ORACLE_BOUND).solutions)
        if found and not solvable:
            raise SystemExit(f"{label}: oracle finds {found} solutions, automaton says unsatisfiable")
        entry = {"label": label, "text": text, "solvable": solvable, "infinite": infinite,
                 "states_kept": g.state_count, f"oracle_solutions_len_le_{ORACLE_BOUND}": found}
        if solvable and not infinite:
            above = len(weq.oracle.brute_solutions(ins, ORACLE_BOUND + 1).solutions)
            if above != found:
                raise SystemExit(f"{label}: finite verdict, but oracle counts grow {found} -> {above}")
            entry[f"oracle_solutions_len_le_{ORACLE_BOUND + 1}"] = above
        entries.append(entry)
        print(f"{label}: solvable={solvable} infinite={infinite} oracle<={ORACLE_BOUND}: {found}",
              file=sys.stderr)
    return entries


def hunt_totals() -> dict:
    sem, n_constants, max_vars, max_len = workloads.HUNT_ARGS
    report = weq.hunt.run_hunt(resolve_semigroup(f"builtin:{sem}"), n_constants, max_vars,
                               max_len, workloads.HUNT_BUDGET, 0)
    return {k: v for k, v in report.as_dict().items() if k in workloads.HUNT_CLASSES}


def main() -> None:
    pool, left_out = hard_pool()
    data = {
        "commit": run.git_commit(),
        "hard": {
            "left_out": left_out,
            "crosscheck": (
                f"brute_solutions at length bound {ORACLE_BOUND}: no solution for every "
                f"unsatisfiable verdict, a satisfiable verdict for every instance with one, and "
                f"equal counts at bounds {ORACLE_BOUND} and {ORACLE_BOUND + 1} for every finite verdict"),
            "instances": hard_entries(pool),
        },
        "hunt": {
            "parameters": dict(zip(("semigroup", "constants", "max_vars", "max_len"),
                                   workloads.HUNT_ARGS)),
            "totals": hunt_totals(),
        },
    }
    (HERE / "expected.json").write_text(json.dumps(data, indent=1) + "\n")


if __name__ == "__main__":
    main()
