"""Brute-force ground truth: exhaustive solution enumeration up to a length
bound, and the exhaustive exponent-of-periodicity maximum.

Each side of each equation is one string of one character per token
(`equations.packing`, shared with `solution_graph.build`), and an
assignment is one `str.translate` table on the variables' code points.
An equation whose packed sides are the same string holds under every
assignment, so it is not compared; when no equation is left to compare,
no table is made and every assignment of a balanced length profile is kept.
The kept assignments stay packed until `equations.packed_solutions`,
which the enumeration of `solution_graph` shares and which defines their
order: each distinct word gets one order term, its length and the word
under a table from each packed character to its token's rank in name
order, made once per symbol table, and is decoded once.
Before any word is made, an instance is dropped when some equation's
sides fold to different constraint images, or when forced first/last
letters contradict.  The length profiles under which every equation's
sides have equal length depend only on the equations' balance vectors and
the bound, so they are computed once per such key and cached, unless
there are more than 1,024 to test.  The candidate words are generated
once per call, grouped by constraint image and length; each variable
takes the group of its image, filtered by its forced first/last letters.
No variable means no words.
A variable left with no candidate at any length ends the call with no
solution, before the profiles of a large key space are streamed: over one
constant they number bound ** nvars, millions at bound 150 for three
variables.  A small key space is looked up first, because its cached
profiles end most calls before any word is made.
All filters are necessary conditions of the defining checks, so the result
equals the unfiltered enumeration.  The largest exponent is computed when
first read.

The results are not re-verified with `verify_solution`: each kept
assignment holds nonempty constant words that meet their images, and both
sides of every equation were compared or are identical, so each of its
conditions holds by construction.  The tests check the results with it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .equations import BudgetExceeded, Instance, Solution, packed_solutions, packing

DEFAULT_BUDGET = 10_000_000


@dataclass(frozen=True)
class OracleReport:
    solutions: tuple[Solution, ...]

    @cached_property
    def max_exp_seen(self) -> int:
        """The largest exponent of periodicity among the solutions, or 0."""
        return max((s.exponent for s in self.solutions), default=0)


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


def _exceeds(base: int, exp: int, budget: int) -> bool:
    """Whether base ** exp > budget, multiplying only while the product
    stays within the budget."""
    acc = 1
    for _ in range(exp if base > 1 else 0):
        acc *= base
        if acc > budget:
            return True
    return acc > budget


def _power_text(base: int, exp: int) -> str:
    """base ** exp in decimal while it has at most 4,300 digits (Python's
    default limit for converting an int to str), else written as a power."""
    if exp * math.log10(base) < 4400:  # a power this small is quick to build
        n = base ** exp
        if n < 10 ** 4300:
            return str(n)
    return f"{base}**{exp}"


def _balanced_profiles(balances: tuple[tuple[int, tuple[int, ...]], ...], nvars: int, bound: int):
    """Yield the length profiles (one length in 1..bound per variable)
    that balance every equation.  A profile balances an equation (d, ks)
    when d plus the sum over X of ks[X] * (len_X - 1) is zero, where d is
    len(lhs) - len(rhs) and ks[X] is |lhs|_X - |rhs|_X."""
    # nvars == 0 yields one empty profile, checking the ground equations
    for lens in itertools.product(range(1, bound + 1), repeat=nvars):
        if not any(d + sum(k * (ln - 1) for k, ln in zip(ks, lens)) for d, ks in balances):
            yield lens


# a key's profiles are cached when it has at most this many to test, so the
# cache holds at most 512 * 1024 profiles; one constant allows the budget
_MAX_CACHED_PROFILES = 1024


@lru_cache(maxsize=512)
def _cached_profiles(balances: tuple[tuple[int, tuple[int, ...]], ...], nvars: int,
                     bound: int) -> tuple[tuple[int, ...], ...]:
    return tuple(_balanced_profiles(balances, nvars, bound))


def brute_solutions(ins: Instance, bound: int, budget: int = DEFAULT_BUDGET) -> OracleReport:
    """Enumerate every assignment of nonempty constant words of length <=
    bound, keeping those that satisfy the equations and the constraints,
    in (variable order, word length, word) order."""
    if bound < 1:
        raise ValueError("length bound must be at least 1")
    syms = ins.symbols
    variables = syms.variables
    nvars = len(variables)
    k = len(syms.constants)
    # k ** (bound * nvars) words, but bound ** nvars length profiles when k is 1
    base, exp = (k, bound * nvars) if k > 1 else (bound, nvars)
    if _exceeds(base, exp, budget):
        raise BudgetExceeded(f"enumeration needs ~{_power_text(base, exp)} assignments, budget is {budget}")

    mu = ins.mu
    edges = _edge_constraints(ins)
    if edges is None or any(mu.eval(eq.lhs) != mu.eval(eq.rhs) for eq in ins.equations):
        return OracleReport(())
    char_of = packing(syms)[0]
    sides = [
        ("".join(char_of[t] for t in eq.lhs), "".join(char_of[t] for t in eq.rhs))
        for eq in ins.equations
    ]
    balances = tuple(
        (len(l) - len(r), tuple(l.count(char_of[v]) - r.count(char_of[v]) for v in variables))
        for l, r in sides
    )
    cached = bound ** nvars <= _MAX_CACHED_PROFILES
    if cached:  # most calls whose profiles all fail end here, before any word is made
        profiles = _cached_profiles(balances, nvars, bound)
        if not profiles:
            return OracleReport(())

    # the words of each needed image per length, in lexicographic token order
    mul = mu.target.table
    groups: dict[int, list[list[str]]] = {mu[v]: [[] for _ in range(bound + 1)] for v in variables}
    if groups:
        steps = [(char_of[a], mu[a]) for a in syms.constants]
        level = steps
        for ln in range(1, bound + 1):
            for w, img in level:
                if img in groups:
                    groups[img][ln].append(w)
            if ln < bound:
                level = [(w + c, mul[img][a]) for w, img in level for c, a in steps]
    first, last = edges
    candidates = []
    for v in variables:
        words = groups[mu[v]]
        fc = char_of[first[v]] if v in first else ""
        lc = char_of[last[v]] if v in last else ""
        if fc or lc:
            words = [[w for w in ws if w.startswith(fc) and w.endswith(lc)] for ws in words]
        if not any(words):  # no word of any length for v fills a profile
            return OracleReport(())
        candidates.append(words)
    if not cached:  # streamed only when every variable has a word
        profiles = _balanced_profiles(balances, nvars, bound)

    codes = [ord(char_of[v]) for v in variables]
    compared = [(l, r) for l, r in sides if l != r]  # identical sides hold under every assignment
    found = []
    for lens in profiles:
        combos = itertools.product(*(c[ln] for c, ln in zip(candidates, lens)))
        if not compared:
            found.extend(combos)
            continue
        for combo in combos:
            table = dict(zip(codes, combo))
            for l, r in compared:
                if l.translate(table) != r.translate(table):
                    break
            else:
                found.append(combo)
    return OracleReport(tuple(packed_solutions(syms, found)))
