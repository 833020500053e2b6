#!/usr/bin/env python3
"""Equation-level reductions: systems to single equations, singular-solution
guessing, the power-chain construction, and the two-constant Brandt trick.

`periodicity_reduction` is defined here, since this demo is its only user;
the rest comes from the library."""

from weq import (
    EquationError,
    Instance,
    WordEquation,
    brandt_two_constant_guesses,
    brute_solutions,
    parse_instance,
    singular_guesses,
    system_to_single,
    unconstrained,
)
from weq.equations import fresh_variables


def periodicity_reduction(ins: Instance, m: int, var: str | None = None) -> Instance:
    """Augment the system with a power chain for one variable: X = Y X1 Z and
    X_{i-1} = X_i X_i for 2 <= i <= m.  Construction only; the result is
    unconstrained and generally not quadratic."""
    if m < 1:
        raise EquationError("the chain length must be at least 1")
    syms = ins.symbols
    if var is None:
        if not syms.variables:
            raise EquationError("no variable to expand")
        var = syms.variables[0]
    elif var not in syms.variable_set:
        raise EquationError(f"unknown variable {var!r}")
    fresh = fresh_variables(syms.all_symbols(), m + 2)
    chain, y, z = fresh[:m], fresh[m], fresh[m + 1]
    eqs = list(ins.equations)
    eqs.append(WordEquation((var,), (y, chain[0], z)))
    for i in range(1, m):
        eqs.append(WordEquation((chain[i - 1],), (chain[i], chain[i])))
    return unconstrained(eqs, syms.constants, syms.variables + tuple(fresh))


def main() -> None:
    # A system becomes one equation: sides are joined by a fresh separator that
    # maps to a freshly adjoined zero, so no accidental alignment can cross it.
    system = parse_instance("""
    constants a b
    variables X Y
    equation X a = a X
    equation Y b = b Y
    semigroup builtin:trivial
    """)
    single = system_to_single(system)
    print("encoded system:", single.equation)
    print("separator maps to:", single.mu.target.names[single.mu["#"]])
    left = {s.assignment for s in brute_solutions(system, 2).solutions}
    right = {s.assignment for s in brute_solutions(single, 2).solutions}
    print("solution sets agree:", left == right)

    # Over a free monoid a variable may take the empty word; guessing which
    # variables vanish reduces to the nonempty setting.
    ins = parse_instance("""
    constants a b
    variables X Y
    equation X Y = a b
    semigroup builtin:trivial
    """)
    print("\nsingular guesses of XY = ab:")
    for guess in singular_guesses(ins):
        eqs = "; ".join(str(e) for e in guess.equations) or "(no equations left)"
        print(f"   variables {','.join(guess.symbols.variables) or '-'}: {eqs}")

    # The power-chain construction: satisfiability of the augmented system
    # witnesses a 2^m-fold repetition inside X.  Construction only; the result
    # is generally not quadratic.
    chain = periodicity_reduction(ins, 3, var="X")
    print("\npower chain for X (m=3):")
    for eq in chain.equations[len(ins.equations):]:
        print("   ", eq)

    # With both constants generating the five-element Brandt semigroup and every
    # variable forced to its zero, each variable must contain a squared letter;
    # guessing that letter removes the constraints entirely.
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
    print("\ntwo-constant Brandt guesses of XaY = YaX:")
    for guess in brandt_two_constant_guesses(brandt):
        print("   ", guess.equation)


if __name__ == "__main__":
    main()
