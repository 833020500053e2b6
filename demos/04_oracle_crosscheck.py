#!/usr/bin/env python3
"""The brute-force oracle against the automaton: both enumerate the same
solution sets, and the oracle's maximal observed exponent grows exactly when
the instance pumps."""

from weq import (
    brute_solutions,
    build,
    enumerate_solutions,
    exp_word,
    has_infinitely_many,
    unconstrained,
)
from weq.equations import equation

for spec in ["Xa=aX", "XabY=YbaX", "XY=YX", "Xa=bX", "XaY=YbX"]:
    lhs, rhs = spec.split("=")
    ins = unconstrained([equation(lhs, rhs)], "ab",
                        sorted({t for t in spec if t.isupper()}))
    g = build(ins)
    graph_sols = enumerate_solutions(g, max_word_len=4)
    oracle = brute_solutions(ins, 4)
    agree = graph_sols == list(oracle.solutions)
    print(f"{spec:12s} solutions<=4: {len(graph_sols):3d}  agree={agree}  "
          f"infinite={has_infinitely_many(g)}  max_exp<=4: {oracle.max_exp_seen}")

# exponent of periodicity of plain words
for w in ["", "a", "ab", "aabaa", "ababab", "abaabaaba"]:
    print(f"exp({w or 'empty':10s}) = {exp_word(w)}")

# for an infinite instance the observed exponent keeps climbing with the bound
ins = unconstrained([equation("Xa", "aX")], "ab", ["X"])
print("max exp of Xa=aX at bounds 2..6:",
      [brute_solutions(ins, b).max_exp_seen for b in range(2, 7)])
