"""The paper's named classes of constraint targets, generated here.

The paper's variety DLG ∪ DRG contains all finite groups, all commutative
semigroups and all J-trivial semigroups.  Each member below is the closure
of a few generators under an associative composition, turned into a table
by `from_table`:

- groups: the cyclic groups Z_n for n <= 12 and the dihedral groups D_3 to
  D_6, as permutations of n points;
- commutative: the monogenic semigroups <a | a^(i+p) = a^i> for i, p <= 4,
  as powers of one map with a tail of i points and a cycle of p, and the
  subsets of a 3-set under union, as bit masks;
- J-trivial: the Catalan monoids of orders 5, 14 and 42, the
  order-preserving extensive maps of 3, 4 and 5 points.

`families()` is these 36 targets, over which the planted-instance
properties of `test_acceptance.py` run.  `permutation_groups()` adds groups
drawn at random on 3 to 5 points, and the symmetric group S_5.

The zoo of `conftest.py` also adjoins identities and takes direct products
of the builtins, and the tests write tables with `format_semigroup`; the
library itself needs none of the three.
"""

from __future__ import annotations

import random

from weq.semigroup import ONE, FiniteSemigroup, from_table


def closure(generators, compose) -> list:
    """Every product of the generators, in the order first reached when
    each element found is multiplied on the right by each generator."""
    elements = list(dict.fromkeys(generators))
    seen = set(elements)
    for x in elements:  # the loop reads the elements it appends
        for g in generators:
            y = compose(x, g)
            if y not in seen:
                seen.add(y)
                elements.append(y)
    return elements


def generated(label: str, generators, compose) -> FiniteSemigroup:
    """The semigroup the generators make under `compose`, its elements named
    by their rank in `closure`."""
    elements = closure(generators, compose)
    index = {x: i for i, x in enumerate(elements)}
    table = [[index[compose(x, y)] for y in elements] for x in elements]
    return from_table([str(i) for i in range(len(elements))], table, label=label)


def then(f: tuple[int, ...], g: tuple[int, ...]) -> tuple[int, ...]:
    """The map f followed by g, maps of range(n) written as tuples."""
    return tuple(g[x] for x in f)


def cyclic_group(n: int) -> FiniteSemigroup:
    return generated(f"Z{n}", [tuple((i + 1) % n for i in range(n))], then)


def dihedral_group(n: int) -> FiniteSemigroup:
    """The symmetries of a regular n-gon, of order 2n."""
    rotation = tuple((i + 1) % n for i in range(n))
    reflection = tuple((-i) % n for i in range(n))
    return generated(f"D{n}", [rotation, reflection], then)


def monogenic(index: int, period: int) -> FiniteSemigroup:
    """<a | a^(index+period) = a^index>, of order index + period - 1: a
    walks a tail of `index` points into a cycle of `period`."""
    last = index + period - 1
    a = tuple(i + 1 if i < last else index for i in range(last + 1))
    return generated(f"M{index},{period}", [a], then)


def subsets_under_union(n: int) -> FiniteSemigroup:
    """The 2^n subsets of an n-set as bit masks, joined by union."""
    return generated(f"P{n}", [0] + [1 << i for i in range(n)], int.__or__)


def catalan_monoid(n: int) -> FiniteSemigroup:
    """The order-preserving extensive maps of n points, generated by the
    identity and the maps that move one point i to i + 1."""
    identity = tuple(range(n))
    steps = [identity[:i] + (i + 1,) + identity[i + 1:] for i in range(n - 1)]
    return generated(f"C{n}", [identity] + steps, then)


def symmetric_group(n: int) -> FiniteSemigroup:
    """All n! permutations of n points, generated by a transposition and an
    n-cycle."""
    swap = (1, 0) + tuple(range(2, n))
    return generated(f"S{n}", [swap, tuple((i + 1) % n for i in range(n))], then)


def permutation_groups() -> list[FiniteSemigroup]:
    """Four groups on each of 3, 4 and 5 points, each generated by one or two
    permutations drawn with seed 11, then S_5."""
    rng = random.Random(11)
    drawn = [
        generated(f"G{n}.{i}", [tuple(rng.sample(range(n), n)) for _ in range(rng.randint(1, 2))], then)
        for n in (3, 4, 5) for i in range(4)
    ]
    return drawn + [symmetric_group(5)]


def groups() -> list[FiniteSemigroup]:
    return [cyclic_group(n) for n in range(1, 13)] + [dihedral_group(n) for n in range(3, 7)]


def commutative() -> list[FiniteSemigroup]:
    monogenics = [monogenic(i, p) for i in range(1, 5) for p in range(1, 5)]
    return monogenics + [subsets_under_union(3)]


def j_trivial() -> list[FiniteSemigroup]:
    return [catalan_monoid(n) for n in (3, 4, 5)]


def families() -> list[FiniteSemigroup]:
    """Every member of the three families: 36 targets."""
    return groups() + commutative() + j_trivial()


def adjoin_identity(sg: FiniteSemigroup) -> FiniteSemigroup:
    """S with a new last element `1` (primed until new) as its identity."""
    n = sg.order
    rows = [list(row) + [i] for i, row in enumerate(sg.table)]
    rows.append(list(range(n + 1)))
    label = f"{sg.label}+1" if sg.label else ""
    return FiniteSemigroup(sg.names + (sg.name_of(ONE),), tuple(map(tuple, rows)), label)


def direct_product(a: FiniteSemigroup, b: FiniteSemigroup) -> FiniteSemigroup:
    names = tuple(f"{na},{nb}" for na in a.names for nb in b.names)
    nb = b.order
    table = tuple(
        tuple(a.table[xa][ya] * nb + b.table[xb][yb] for ya in a.elements() for yb in b.elements())
        for xa in a.elements() for xb in b.elements()
    )
    label = f"{a.label}x{b.label}" if a.label and b.label else ""
    return FiniteSemigroup(names, table, label=label)


def format_semigroup(sg: FiniteSemigroup) -> str:
    """The table in the text format that `parse_semigroup` reads."""
    out = [f"semigroup {sg.label or 'S'}", "elements " + " ".join(sg.names), "table"]
    for row in sg.table:
        out.append(" ".join(sg.names[v] for v in row))
    return "\n".join(out) + "\n"
