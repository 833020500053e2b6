"""Finite semigroups presented by multiplication tables.

All algebra works on element indices ``0 .. order-1``; display names are
carried along but never consulted.  The adjoined identity of ``S^1`` is the
pseudo-index ``ONE`` and is never stored in a table.

Provided here: eager table validation, Green's relations, idempotent powers,
L-stabilizers, the membership test for the class of semigroups whose regular
D-classes are right groups (with an explicit counterexample on failure), a
wider variety report, and the opposite semigroup and zero adjunction.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import asdict, dataclass, field, replace
from functools import lru_cache

from ._text import ParseError, logical_lines, read_text

ONE = -1
"""Pseudo-index of the adjoined identity of S^1 (never a table index)."""


class SemigroupError(Exception):
    pass


class BadIndex(SemigroupError):
    """Table shape or entry is not a valid element index."""


class NonAssociative(SemigroupError):
    """Carries the lexicographically least violating triple of indices."""

    def __init__(self, x: int, y: int, z: int, names: tuple[str, ...] = ()):
        self.triple = (x, y, z)
        shown = ", ".join(names[i] for i in (x, y, z)) if names else f"{x}, {y}, {z}"
        super().__init__(f"multiplication not associative on ({shown})")


class InternalDisagreement(SemigroupError):
    """Provably equivalent computations disagreed; indicates a bug."""


@dataclass(frozen=True)
class FiniteSemigroup:
    names: tuple[str, ...]
    table: tuple[tuple[int, ...], ...]
    label: str = field(default="", compare=False)
    # the spec that loads the target (`builtin:NAME` or `file:` and an
    # absolute path), so that instance text names it; empty when derived
    spec: str = field(default="", compare=False)

    @property
    def order(self) -> int:
        return len(self.names)

    def elements(self) -> range:
        return range(len(self.names))

    def mul(self, x: int, y: int) -> int:
        return self.table[x][y]

    def mul1(self, x: int, y: int) -> int:
        """Product in S^1, where either factor may be ONE."""
        if x == ONE:
            return y
        if y == ONE:
            return x
        return self.table[x][y]

    def fold(self, xs) -> int:
        """Product of a sequence of S^1 elements; empty product is ONE."""
        acc = ONE
        for x in xs:
            acc = self.mul1(acc, x)
        return acc

    def name_of(self, x: int) -> str:
        """The element's name; the adjoined identity ONE is `1`, primed until
        it differs from every element's name."""
        return _fresh_name(self.names, "1") if x == ONE else self.names[x]

    def index_of(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise BadIndex(f"no element named {name!r}") from None

    def is_idempotent(self, x: int) -> bool:
        return self.table[x][x] == x

    def identity_element(self) -> int | None:
        """The neutral element of S itself, adjoined or not; None if absent."""
        for e in self.elements():
            if all(self.table[e][x] == x == self.table[x][e] for x in self.elements()):
                return e
        return None

    def zero_element(self) -> int | None:
        for z in self.elements():
            if all(self.table[z][x] == z == self.table[x][z] for x in self.elements()):
                return z
        return None

    def __repr__(self):
        tag = self.label or f"order {self.order}"
        return f"FiniteSemigroup({tag})"


def from_table(names, table, label: str = "") -> FiniteSemigroup:
    """Build and eagerly validate a semigroup from a multiplication table.

    Raises BadIndex on shape/entry problems and NonAssociative with the
    lexicographically least violating triple.
    """
    names = tuple(names)
    if len(set(names)) != len(names):
        raise BadIndex("element names must be pairwise distinct")
    n = len(names)
    rows = tuple(tuple(row) for row in table)
    if len(rows) != n:
        raise BadIndex(f"table has {len(rows)} rows for {n} elements")
    for row in rows:
        if len(row) != n:
            raise BadIndex("table is not square")
        for v in row:
            if not isinstance(v, int) or not 0 <= v < n:
                raise BadIndex(f"table entry {v!r} is not an element index")
    rng = range(n)
    for x in rng:
        rx = rows[x]
        for y in rng:
            xy = rx[y]
            row_xy = rows[xy]
            row_y = rows[y]
            for z in rng:
                if row_xy[z] != rx[row_y[z]]:
                    raise NonAssociative(x, y, z, names)
    return FiniteSemigroup(names, rows, label)


# ---------------------------------------------------------------------------
# idempotent powers


@dataclass(frozen=True)
class OmegaPower:
    element: int
    exponent: int


def omega(sg: FiniteSemigroup, x: int) -> OmegaPower:
    """The unique idempotent in the cyclic subsemigroup of x, with the least
    exponent k >= 1 such that x^k is that idempotent."""
    if x == ONE:
        return OmegaPower(ONE, 1)
    if not 0 <= x < sg.order:
        raise BadIndex(f"element {x} out of range")
    p = x
    for k in range(1, 2 * sg.order + 2):
        if sg.table[p][p] == p:
            return OmegaPower(p, k)
        p = sg.table[p][x]
    raise InternalDisagreement("no idempotent power found")  # pragma: no cover


def _omega_vector(sg: FiniteSemigroup) -> list[int]:
    return [omega(sg, x).element for x in sg.elements()]


# ---------------------------------------------------------------------------
# Green's relations


@dataclass(frozen=True)
class GreenData:
    """The classes of each relation by least member; D-classes are J-classes."""

    classesL: tuple[tuple[int, ...], ...]
    classesR: tuple[tuple[int, ...], ...]
    classesJ: tuple[tuple[int, ...], ...]
    classesH: tuple[tuple[int, ...], ...]
    regularD: tuple[bool, ...]
    indexL: tuple[int, ...]

    def same_L(self, x: int, y: int) -> bool:
        return self.indexL[x] == self.indexL[y]


def _partition(keys: list) -> tuple[tuple[int, ...], ...]:
    """Classes of elements with equal keys, ordered by least member: each
    class is first met at its least member."""
    groups: dict[object, list[int]] = {}
    for x, key in enumerate(keys):
        groups.setdefault(key, []).append(x)
    return tuple(map(tuple, groups.values()))


@lru_cache(maxsize=64)
def green(sg: FiniteSemigroup) -> GreenData:
    """Compute Green's relations.  H groups elements by their L- and
    R-classes together; D is the J partition, as in every finite
    semigroup."""
    n = sg.order
    T = sg.table
    rng = range(n)
    Lsets = [frozenset({y} | {T[u][y] for u in rng}) for y in rng]
    Rsets = [frozenset({y} | {T[y][v] for v in rng}) for y in rng]
    Jsets = []
    for y in rng:
        left = Lsets[y]
        Jsets.append(frozenset(left | {T[b][v] for b in left for v in rng}))
    classesL, classesR, classesJ, classesH = map(_partition, (Lsets, Rsets, Jsets, list(zip(Lsets, Rsets))))
    indexL = [0] * n
    for ci, cls in enumerate(classesL):
        for x in cls:
            indexL[x] = ci
    regularD = tuple(any(sg.is_idempotent(x) for x in cls) for cls in classesJ)
    return GreenData(classesL, classesR, classesJ, classesH, regularD, tuple(indexL))


# ---------------------------------------------------------------------------
# L-stabilizers and the right-group D-class variety


@lru_cache(maxsize=1024)
def stab_L(sg: FiniteSemigroup, x: int) -> frozenset[int]:
    """{u in S^1 : u^omega * x = x}; always contains ONE."""
    if not 0 <= x < sg.order:
        raise BadIndex(f"element {x} out of range")
    om = _omega_vector(sg)
    return frozenset({ONE} | {u for u in sg.elements() if sg.table[om[u]][x] == x})


@dataclass(frozen=True)
class DlgResult:
    """Verdict of the right-group D-class membership test.

    When false, `witness` is the lexicographically least pair (x, u) such
    that u*x is L-equivalent to x yet u^omega * x != x.
    """

    holds: bool
    witness: tuple[int, int] | None = None


@lru_cache(maxsize=64)
def is_dlg(sg: FiniteSemigroup) -> DlgResult:
    """Decide whether every regular D-class is a right group: exactly when no
    u and x have u*x L-equivalent to x yet u^omega * x != x."""
    T = sg.table
    om = _omega_vector(sg)
    gr = green(sg)
    for x in sg.elements():
        for u in sg.elements():
            if gr.same_L(T[u][x], x) and T[om[u]][x] != x:
                return DlgResult(False, (x, u))
    return DlgResult(True)


# ---------------------------------------------------------------------------
# variety report


@dataclass(frozen=True)
class VarietyReport:
    right_group: bool
    group: bool
    commutative: bool
    semilattice: bool
    j_trivial: bool
    l_trivial: bool
    nilpotent: bool
    duo: bool
    dlg: bool
    drg: bool
    do: bool
    ds: bool

    def as_dict(self) -> dict[str, bool]:
        """Every flag, in field order."""
        return asdict(self)


def _is_nilpotent(sg: FiniteSemigroup) -> bool:
    """S ⊇ S² ⊇ ... shrinks until a power P has P·S = P; S is nilpotent
    exactly when that P is a single element, then its zero (and vacuously
    when S is empty)."""
    power = set(sg.elements())
    while (nxt := {sg.table[x][y] for x in power for y in sg.elements()}) != power:
        power = nxt
    return len(power) <= 1


def variety_report(sg: FiniteSemigroup) -> VarietyReport:
    n = sg.order
    T = sg.table
    rng = range(n)
    gr = green(sg)
    commutative = all(T[x][y] == T[y][x] for x in rng for y in rng)
    semilattice = commutative and all(sg.is_idempotent(x) for x in rng)
    e = sg.identity_element()
    group = e is not None and all(
        len({T[x][y] for y in rng}) == n and len({T[y][x] for y in rng}) == n for x in rng
    )
    duo = True
    for x in rng:
        if frozenset({x} | {T[x][u] for u in rng}) != frozenset({x} | {T[u][x] for u in rng}):
            duo = False
            break
    ds = True
    do = True
    for ci, cls in enumerate(gr.classesJ):
        if not gr.regularD[ci]:
            continue
        members = set(cls)
        closed = all(T[x][y] in members for x in cls for y in cls)
        ds = ds and closed
        if closed:
            idems = [x for x in cls if sg.is_idempotent(x)]
            do = do and all(sg.is_idempotent(T[a][b]) for a in idems for b in idems)
        else:
            do = False
    return VarietyReport(
        right_group=len(gr.classesR) <= 1,  # finite right-simple = right group
        group=group,
        commutative=commutative,
        semilattice=semilattice,
        j_trivial=all(len(c) == 1 for c in gr.classesJ),
        l_trivial=all(len(c) == 1 for c in gr.classesL),
        nilpotent=_is_nilpotent(sg),
        duo=duo,
        dlg=is_dlg(sg).holds,
        drg=is_dlg(opposite(sg)).holds,
        do=do,
        ds=ds,
    )


# ---------------------------------------------------------------------------
# structural constructions


def opposite(sg: FiniteSemigroup) -> FiniteSemigroup:
    n = sg.order
    table = tuple(tuple(sg.table[y][x] for y in range(n)) for x in range(n))
    label = f"{sg.label}^op" if sg.label else ""
    return FiniteSemigroup(sg.names, table, label)


def _fresh_name(taken, base: str) -> str:
    name = base
    while name in taken:
        name += "'"
    return name


def adjoin_zero(sg: FiniteSemigroup) -> FiniteSemigroup:
    """S with a new last element `0` (primed until new) as its zero."""
    n = sg.order
    rows = [list(row) + [n] for row in sg.table]
    rows.append([n] * (n + 1))
    label = f"{sg.label}+0" if sg.label else ""
    return FiniteSemigroup(sg.names + (_fresh_name(sg.names, "0"),), tuple(map(tuple, rows)), label)


# ---------------------------------------------------------------------------
# built-in semigroups


def _cyclic(n: int, label: str) -> FiniteSemigroup:
    names = tuple(str(i) for i in range(n))
    table = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
    return FiniteSemigroup(names, table, label=label)


def _sym3() -> FiniteSemigroup:
    perms = sorted(itertools.permutations(range(3)))
    names = tuple("".join(map(str, p)) for p in perms)
    index = {p: i for i, p in enumerate(perms)}
    # p followed by q: i -> q[p[i]]
    table = tuple(
        tuple(index[tuple(q[p[i]] for i in range(3))] for q in perms) for p in perms
    )
    return FiniteSemigroup(names, table, label="s3")


def _brandt2() -> FiniteSemigroup:
    # a, b, ab, ba, 0 with aba = a, bab = b, a^2 = b^2 = 0
    names = ("a", "b", "ab", "ba", "0")
    table = (
        (4, 2, 4, 0, 4),
        (3, 4, 1, 4, 4),
        (0, 4, 2, 4, 4),
        (4, 1, 4, 3, 4),
        (4, 4, 4, 4, 4),
    )
    return FiniteSemigroup(names, table, label="b2")


_BUILTIN_FACTORIES = {
    "trivial": lambda: FiniteSemigroup(("e",), ((0,),), label="trivial"),
    "b2": _brandt2,
    "z2": lambda: _cyclic(2, "z2"),
    "z3": lambda: _cyclic(3, "z3"),
    "s3": _sym3,
    "lz2": lambda: FiniteSemigroup(("a", "b"), ((0, 0), (1, 1)), label="lz2"),
    "rz2": lambda: FiniteSemigroup(("a", "b"), ((0, 1), (0, 1)), label="rz2"),
    "n2": lambda: FiniteSemigroup(("x", "0"), ((1, 1), (1, 1)), label="n2"),
    "sl2": lambda: FiniteSemigroup(("1", "0"), ((0, 1), (1, 1)), label="sl2"),
}


@lru_cache(maxsize=None)
def builtin(name: str) -> FiniteSemigroup:
    try:
        factory = _BUILTIN_FACTORIES[name]
    except KeyError:
        raise BadIndex(f"unknown builtin semigroup {name!r}") from None
    sg = factory()
    # builtins are trusted but validate once anyway
    return replace(from_table(sg.names, sg.table, label=sg.label), spec=f"builtin:{name}")


# ---------------------------------------------------------------------------
# text format


def parse_semigroup(text: str) -> FiniteSemigroup:
    """Parse the line-oriented table format ('#' starts a comment line)."""
    lines = logical_lines(text, comment="#")
    if not lines:
        raise ParseError(1, "empty semigroup file")
    pos = 0

    def expect(keyword: str) -> tuple[int, list[str]]:
        nonlocal pos
        if pos >= len(lines):
            raise ParseError(lines[-1][0], f"missing {keyword!r} line")
        no, toks = lines[pos]
        if toks[0] != keyword:
            raise ParseError(no, f"expected {keyword!r}, found {toks[0]!r}")
        pos += 1
        return no, toks

    no, toks = expect("semigroup")
    if len(toks) != 2:
        raise ParseError(no, "expected: semigroup <name>")
    label = toks[1]
    no, toks = expect("elements")
    names = tuple(toks[1:])
    if not names:
        raise ParseError(no, "no elements listed")
    if len(set(names)) != len(names):
        raise ParseError(no, "duplicate element tokens")
    no, toks = expect("table")
    if len(toks) != 1:
        raise ParseError(no, "unexpected tokens after 'table'")
    n = len(names)
    lookup = {t: i for i, t in enumerate(names)}
    rows = []
    for _ in range(n):
        if pos >= len(lines):
            raise ParseError(lines[-1][0], f"table needs {n} rows, found {len(rows)}")
        no, toks = lines[pos]
        pos += 1
        if len(toks) != n:
            raise ParseError(no, f"table row has {len(toks)} entries, expected {n}")
        try:
            rows.append(tuple(lookup[t] for t in toks))
        except KeyError as exc:
            raise ParseError(no, f"unknown element token {exc.args[0]!r}") from None
    if pos < len(lines):
        raise ParseError(lines[pos][0], "trailing content after table")
    try:
        return from_table(names, rows, label=label)
    except SemigroupError as exc:
        raise ParseError(lines[0][0], str(exc)) from exc


def resolve_semigroup(spec: str, base_dir: str = ".") -> FiniteSemigroup:
    """Resolve 'builtin:<name>', 'file:<path>', a bare builtin name, or a path
    relative to `base_dir`.  The target's `spec` is `builtin:<name>`, or
    `file:` and the path joined to the absolute `base_dir`, which loads it
    from any directory."""
    if spec.startswith("builtin:"):
        return builtin(spec[len("builtin:"):])
    if spec.startswith("file:"):
        path = spec[len("file:"):]
    elif spec in _BUILTIN_FACTORIES:
        return builtin(spec)
    else:
        path = spec
    path = os.path.join(os.path.abspath(base_dir), path)
    return replace(parse_semigroup(read_text(path)), spec="file:" + path)
