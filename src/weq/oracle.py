"""Brute-force ground truth: exhaustive solution enumeration up to a length
bound, and the exhaustive exponent-of-periodicity maximum.

Internally words are packed into strings of one character per token
(`equations.packing`, shared with `solution_graph.build`) so the hot
comparison loop runs on native string operations; results are converted
back to token tuples.  Candidates are pre-filtered per variable by the
constraint image and by forced first/last letters, and assignments are
enumerated per length profile so length-infeasible combinations are skipped
wholesale.  All filters are necessary conditions of the defining checks, so
the result equals the unfiltered enumeration.

The results are not re-verified with `verify_solution`: each kept
assignment holds nonempty constant words that meet their images, and both
sides of every equation were compared, so each of its conditions holds by
construction.  The tests check the results with it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .equations import BudgetExceeded, Instance, Solution, packing

DEFAULT_BUDGET = 10_000_000


@dataclass(frozen=True)
class OracleReport:
    bound: int
    solutions: tuple[Solution, ...]
    max_exp_seen: int


def _edge_constraints(ins: Instance):
    """Necessary first/last-token facts: None on outright contradiction,
    otherwise forced first/last tokens per variable."""
    syms = ins.symbols
    first: dict[str, str] = {}
    last: dict[str, str] = {}
    for eq in ins.equations:
        for pick, side in ((0, first), (-1, last)):
            a, b = eq.lhs[pick], eq.rhs[pick]
            if a == b:
                continue
            if syms.is_constant(a) and syms.is_constant(b):
                return None
            if syms.is_constant(a):
                if side.setdefault(b, a) != a:
                    return None
            elif syms.is_constant(b):
                if side.setdefault(a, b) != b:
                    return None
    return first, last


def brute_solutions(ins: Instance, bound: int, budget: int = DEFAULT_BUDGET) -> OracleReport:
    """Enumerate every assignment of nonempty constant words of length <=
    bound, in (variable order, word length, word) order, keeping those that
    satisfy the equations and the constraints."""
    if bound < 1:
        raise ValueError("length bound must be at least 1")
    syms = ins.symbols
    variables = syms.variables
    nvars = len(variables)
    needed = len(syms.constants) ** (bound * nvars)
    if needed > budget:
        raise BudgetExceeded(f"enumeration needs ~{needed} assignments, budget is {budget}")

    char_of, token_of = packing(syms)

    edges = _edge_constraints(ins)
    sols: list[Solution] = []
    if edges is not None:
        first, last = edges
        # candidate words per variable and length, in lexicographic token order
        mul = ins.mu.target.table
        steps = [(char_of[a], ins.mu[a]) for a in syms.constants]
        by_len: dict[str, list[list[str]]] = {v: [[] for _ in range(bound + 1)] for v in variables}
        level = steps
        for ln in range(1, bound + 1):
            for w, img in level:
                for v in variables:
                    if img != ins.mu[v]:
                        continue
                    fc = char_of[first[v]] if v in first else None
                    lc = char_of[last[v]] if v in last else None
                    if (fc is None or w[0] == fc) and (lc is None or w[-1] == lc):
                        by_len[v][ln].append(w)
            if ln < bound:
                level = [(w + c, mul[img][a]) for w, img in level for c, a in steps]

        consts_l = [
            ([char_of[t] for t in eq.lhs], [char_of[t] for t in eq.rhs])
            for eq in ins.equations
        ]
        # per-equation length profile: constant part + per-variable occurrence counts
        profiles = []
        for eq in ins.equations:
            cl = sum(1 for t in eq.lhs if syms.is_constant(t))
            cr = sum(1 for t in eq.rhs if syms.is_constant(t))
            ol = [eq.lhs.count(v) for v in variables]
            orr = [eq.rhs.count(v) for v in variables]
            profiles.append((cl, cr, ol, orr))

        def feasible(lens) -> bool:
            for cl, cr, ol, orr in profiles:
                dl = cl + sum(o * ln for o, ln in zip(ol, lens))
                dr = cr + sum(o * ln for o, ln in zip(orr, lens))
                if dl != dr:
                    return False
            return True

        def assemble(parts, env) -> str:
            return "".join(env.get(c, c) for c in parts)

        # nvars == 0 yields one empty profile, checking the ground equations
        for lens in itertools.product(range(1, bound + 1), repeat=nvars):
            if not feasible(lens):
                continue
            groups = [by_len[v][ln] for v, ln in zip(variables, lens)]
            if not all(groups):
                continue
            for combo in itertools.product(*groups):
                env = {char_of[v]: w for v, w in zip(variables, combo)}
                if all(assemble(l, env) == assemble(r, env) for l, r in consts_l):
                    sols.append(Solution.from_dict({
                        v: tuple(token_of[c] for c in env[char_of[v]])
                        for v in variables
                    }))

    sols.sort(key=lambda s: s.sort_key(syms))
    max_exp = max((s.exponent for s in sols), default=0)
    return OracleReport(bound, tuple(sols), max_exp)
