"""The brute-force oracle as it was before the oracle cached its length
profiles and grouped its candidates by image: every kept assignment is
found by the same enumeration, with the candidate lists built per variable
and every length profile tested per call.  The tests compare
`weq.oracle.brute_solutions` against it, report for report."""

from __future__ import annotations

import itertools

from weq.equations import BudgetExceeded, Instance, Solution, SymbolTable, packing
from weq.oracle import DEFAULT_BUDGET, OracleReport


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


def sort_key(sol: Solution, symbols: SymbolTable) -> tuple:
    """The oracle's order: the length and then the tokens of each
    variable's word, variables in declaration order."""
    m = sol.as_dict
    return tuple((len(m[v]), m[v]) for v in symbols.variables)


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

        sides = [
            ("".join(char_of[t] for t in eq.lhs), "".join(char_of[t] for t in eq.rhs))
            for eq in ins.equations
        ]
        codes = [ord(char_of[v]) for v in variables]
        # a length profile balances an equation when len(lhs) - len(rhs)
        # plus the sum over X of (|lhs|_X - |rhs|_X)(len_X - 1) is zero
        balances = [
            (len(l) - len(r), [l.count(char_of[v]) - r.count(char_of[v]) for v in variables])
            for l, r in sides
        ]
        # nvars == 0 yields one empty profile, checking the ground equations
        for lens in itertools.product(range(1, bound + 1), repeat=nvars):
            if any(d + sum(k * (ln - 1) for k, ln in zip(ks, lens)) for d, ks in balances):
                continue
            for combo in itertools.product(*(by_len[v][ln] for v, ln in zip(variables, lens))):
                table = dict(zip(codes, combo))
                if all(l.translate(table) == r.translate(table) for l, r in sides):
                    sols.append(Solution.from_dict({
                        v: tuple(token_of[c] for c in w) for v, w in zip(variables, combo)
                    }))

    sols.sort(key=lambda s: sort_key(s, syms))
    return OracleReport(tuple(sols))
