#!/usr/bin/env python3
"""The solution automaton of the running example XabY = YbaX: states,
transitions, verdicts, and DOT export."""

import os
import tempfile

from weq import (
    build,
    dot_lines,
    enumerate_solutions,
    has_infinitely_many,
    is_solvable,
    parse_instance,
)

ins = parse_instance("""
constants a b
variables X Y
equation X a b Y = Y b a X
semigroup builtin:trivial
""")

g = build(ins)
print(f"{g.state_count} states, {g.transition_count} transitions, "
      f"{len(g.scc.components)} strongly connected components")
print("satisfiable:", is_solvable(g))
print("infinitely many solutions:", has_infinitely_many(g))

# The mutually reachable core: both variables still occur in these states.
core = next(comp for comp in g.scc.components if g.initial in comp)
print("core states:")
for sid in core:
    print("   ", g.state(sid).equation_str())

# Accepting paths compose to solutions; bounded enumeration is exact.
print("solutions with |words| <= 3:")
for sol in enumerate_solutions(g, max_word_len=3):
    print("   ", ", ".join(f"{v}={''.join(w)}" for v, w in sol.assignment))

dot = "".join(dot_lines(g))
path = os.path.join(tempfile.gettempdir(), "solution_graph.dot")
with open(path, "w", encoding="utf-8") as fh:
    fh.write(dot)
print(f"wrote {path} ({len(dot.splitlines())} lines); "
      f"render with: dot -Tpdf {path} -o graph.pdf")
