"""Shared fixtures: compact instance construction, the semigroup zoo, and the
exhaustive small-equation battery."""

from __future__ import annotations

import itertools

import pytest

from families import adjoin_identity, direct_product
from weq.equations import ConstraintMorphism, Instance, SymbolTable, WordEquation
from weq.semigroup import FiniteSemigroup, adjoin_zero, builtin, opposite

BATTERY_SEMIGROUPS = ("trivial", "z2", "n2", "rz2")
# the names `semigroup.builtin` knows, in the zoo's order and sorted
ZOO_BASE = ("trivial", "z2", "z3", "s3", "b2", "lz2", "rz2", "n2", "sl2")
BUILTIN_NAMES = tuple(sorted(ZOO_BASE))


def compact_equation(spec: str) -> WordEquation:
    """Parse 'XabY=YbaX' with one-character tokens."""
    lhs, rhs = spec.replace(" ", "").split("=")
    return WordEquation(tuple(lhs), tuple(rhs))


def make_instance(eqs, constants="ab", variables=None, sg=None, mapping=None) -> Instance:
    """Compact instance builder.  `eqs` is a string or list of strings with
    one-character tokens; `mapping` maps symbols to element names."""
    if isinstance(eqs, str):
        eqs = [eqs]
    equations = tuple(compact_equation(e) for e in eqs)
    if variables is None:
        used = {t for eq in equations for t in eq.lhs + eq.rhs}
        variables = "".join(sorted(t for t in used if t.isupper()))
    syms = SymbolTable(tuple(constants), tuple(variables))
    if sg is None:
        sg = builtin("trivial")
    if mapping is None:
        if sg.label != "trivial":
            raise ValueError("mapping required for nontrivial semigroups")
        image = {s: 0 for s in syms.all_symbols()}
    else:
        image = {s: sg.index_of(name) for s, name in mapping.items()}
        for s in syms.all_symbols():
            if s not in image:
                raise ValueError(f"mapping misses {s!r}")
    return Instance(equations, ConstraintMorphism.from_dict(syms, sg, image))


def class_of(classes, x: int) -> tuple[int, ...]:
    """The class of a partition, as `GreenData` lists them, that holds x."""
    return next(c for c in classes if x in c)


def zoo() -> list[tuple[str, FiniteSemigroup]]:
    """The structural test zoo: base members, opposites, identity/zero
    adjunctions, and pairwise direct products of the members with at most
    three elements."""
    members: list[tuple[str, FiniteSemigroup]] = [(n, builtin(n)) for n in ZOO_BASE]
    members += [(f"{n}^op", opposite(builtin(n))) for n in ZOO_BASE]
    members += [(f"{n}+1", adjoin_identity(builtin(n))) for n in ZOO_BASE]
    members += [(f"{n}+0", adjoin_zero(builtin(n))) for n in ZOO_BASE]
    small = [n for n in ZOO_BASE if builtin(n).order <= 3]
    for a, b in itertools.product(small, repeat=2):
        members.append((f"{a}x{b}", direct_product(builtin(a), builtin(b))))
    return members


@pytest.fixture(scope="session")
def zoo_members():
    return zoo()


def quadratic_equation_battery(max_len: int = 6):
    """Canonical representatives of all quadratic equations over two constants
    and up to two variables with |UV| <= max_len.

    Canonicalization quotients by constant renaming, variable renaming, and
    side swap; each identification maps solution sets bijectively, so every
    property asserted over the battery transfers to the full enumeration.
    """
    sigma = ("a", "b")
    variables = ("X", "Y")
    alphabet = sigma + variables
    swaps = [
        {**dict(zip(sigma, cs)), **dict(zip(variables, vs))}
        for cs in itertools.permutations(sigma)
        for vs in itertools.permutations(variables)
    ]

    def canonical(lhs, rhs):
        best = None
        for ren in swaps:
            for l, r in ((lhs, rhs), (rhs, lhs)):
                cand = (tuple(ren[t] for t in l), tuple(ren[t] for t in r))
                if best is None or cand < best:
                    best = cand
        return best

    out = []
    for total in range(2, max_len + 1):
        for word in itertools.product(alphabet, repeat=total):
            if word.count("X") > 2 or word.count("Y") > 2:
                continue
            for cut in range(1, total):
                lhs, rhs = word[:cut], word[cut:]
                if canonical(lhs, rhs) == (lhs, rhs):
                    out.append(WordEquation(lhs, rhs))
    return out


def battery_instances(equations, semigroup_names=BATTERY_SEMIGROUPS):
    """Every constraint map of every battery equation into each semigroup."""
    for eq in equations:
        used = tuple(v for v in ("X", "Y") if v in eq.lhs + eq.rhs)
        syms = SymbolTable(("a", "b"), used)
        order = syms.all_symbols()
        for name in semigroup_names:
            sg = builtin(name)
            for images in itertools.product(range(sg.order), repeat=len(order)):
                mu = ConstraintMorphism.from_dict(syms, sg, dict(zip(order, images)))
                yield Instance((eq,), mu)


@pytest.fixture(scope="session")
def battery_equations():
    return quadratic_equation_battery(6)
