#!/usr/bin/env python3
"""Certificates of unbounded exponent of periodicity.

For constraints whose regular D-classes are right groups, an instance with
infinitely many solutions always admits a pump: either a head variable X
with the equation shaped X u = v X v' where the image of v stabilizes the
image of X, or a variable with an infinite constraint language that is free
of the equation.  Instantiating the certificate at m produces a solution
with exponent of periodicity at least m."""

import json

from weq import (
    builtin,
    certificate_to_json,
    decide_exp_infinite_dlg,
    instantiate,
    parse_instance,
)

ins = parse_instance("""
constants a b
variables X Y
equation X a b Y = Y b a X
semigroup builtin:trivial
""")

# the certificate, or None when there are finitely many solutions
cert = decide_exp_infinite_dlg(ins)
print("infinite:", cert is not None)
print("pumped variable:", cert.variable, "| case:", cert.case)
print("stabilizing word v:", "".join(cert.v))
print("base solution:", {v: "".join(w) for v, w in cert.base})
for m in range(5):
    sol = instantiate(cert, ins, m)
    words = ", ".join(f"{v}={''.join(w)}" for v, w in sol.assignment)
    print(f"  m={m}: {words}   exp={sol.exponent}")

print("\ncertificate as JSON:")
print(json.dumps(certificate_to_json(cert), indent=2, sort_keys=True))

# Constraints can cut the solution set down to finitely many.
finite = parse_instance("""
constants a
variables X
equation X a = a X
semigroup builtin:n2
map a -> x
map X -> x
""")
print("\nsame equation, nilpotent constraints, infinite:", decide_exp_infinite_dlg(finite) is not None)

# Outside the supported variety the decision procedure refuses...
brandt = parse_instance("""
constants a b
variables X Y
equation X a Y = Y a X
semigroup builtin:b2
map a -> a
map b -> b
map X -> 0
map Y -> 0
""")
print("\nBrandt-constrained target is in the variety:", builtin("b2").label, "->",
      end=" ")
try:
    decide_exp_infinite_dlg(brandt)
except Exception as exc:
    print(f"refused ({exc})")
