#!/usr/bin/env python3
"""Tour of the finite-semigroup layer: tables, Green's relations, idempotent
powers, L-stabilizers, and the right-group D-class test."""

from weq import builtin, green, is_dlg, omega, stab_L, variety_report

# The five-element Brandt semigroup: a, b, ab, ba, 0 with aba=a, bab=b, a²=b²=0.
b2 = builtin("b2")
print("elements:", ", ".join(b2.names))
print("a·b =", b2.names[b2.mul(0, 1)], "   a·a =", b2.names[b2.mul(0, 0)])

# Idempotent powers: x^omega is the unique idempotent among the powers of x.
pw = omega(b2, 0)
print(f"a^omega = {b2.names[pw.element]} (reached at exponent {pw.exponent})")

# Green's relations.  In finite semigroups the D- and J-partitions coincide.
gr = green(b2)
print("L-classes:", [[b2.names[x] for x in c] for c in gr.classesL])
print("R-classes:", [[b2.names[x] for x in c] for c in gr.classesR])
print("regular D-classes:", [
    [b2.names[x] for x in c] for c, r in zip(gr.classesJ, gr.regularD) if r
])

# L-stabilizers: u with u^omega x = x.  For a in B2 only the identity and ab.
print("stab_L(a) =", sorted(b2.name_of(u) for u in stab_L(b2, 0)))

# The key dichotomy: is every regular D-class a right group?
for name in ("trivial", "z3", "sl2", "n2", "rz2", "lz2", "b2"):
    sg = builtin(name)
    res = is_dlg(sg)
    line = f"{name:8s} dlg={res.holds}"
    if res.witness:
        x, u = res.witness
        line += (f"   (witness: {sg.names[sg.mul(u, x)]} ~L {sg.names[x]}"
                 f" but {sg.names[u]}^omega·{sg.names[x]} != {sg.names[x]})")
    print(line)

# The wider variety report for one member.
print("\nz3 report:", variety_report(builtin("z3")).as_dict())
