"""Words over constants and variables, equations with constraints valued in a
finite semigroup, substitutions, the exponent of periodicity, and the
constraint-language pumping machinery.

A word is a tuple of symbol tokens.  An instance bundles equations with a
constraint morphism; the morphism knows the symbol table, the target
semigroup, and the image of every symbol.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from functools import cached_property, lru_cache

from . import semigroup as sgmod
from ._text import NotText, ParseError, logical_lines
from .semigroup import ONE, FiniteSemigroup, adjoin_zero, builtin, resolve_semigroup

Word = tuple[str, ...]


class EquationError(Exception):
    pass


class EmptyWord(EquationError):
    pass


class NotQuadratic(EquationError):
    """Some variable occurs more than twice across the equations."""


class WrongConstraintShape(EquationError):
    """The constraint map does not have the required special form."""


def as_word(w) -> Word:
    """Coerce a token iterable (a string is read as 1-char tokens) to a word."""
    return tuple(w)


@dataclass(frozen=True)
class SymbolTable:
    constants: tuple[str, ...]
    variables: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.constants:
            raise EquationError("at least one constant is required")
        seen = self.constants + self.variables
        if len(set(seen)) != len(seen):
            raise EquationError("symbol tokens must be pairwise distinct")

    @cached_property
    def constant_set(self) -> frozenset[str]:
        return frozenset(self.constants)

    @cached_property
    def variable_set(self) -> frozenset[str]:
        return frozenset(self.variables)

    @cached_property
    def symbol_set(self) -> frozenset[str]:
        return frozenset(self.constants + self.variables)

    def is_constant(self, tok: str) -> bool:
        return tok in self.constant_set

    def all_symbols(self) -> tuple[str, ...]:
        return self.constants + self.variables

    def variable_order(self, var: str) -> int:
        return self.variables.index(var)


@dataclass(frozen=True)
class WordEquation:
    lhs: Word
    rhs: Word

    def __post_init__(self):
        if not self.lhs or not self.rhs:
            raise EquationError("equation sides must be nonempty")

    def __str__(self):
        return " ".join(self.lhs) + " = " + " ".join(self.rhs)


def equation(lhs, rhs) -> WordEquation:
    return WordEquation(as_word(lhs), as_word(rhs))


@dataclass(frozen=True)
class ConstraintMorphism:
    """Assignment of a target element to every symbol, evaluated on words by
    folding the multiplication table."""

    symbols: SymbolTable
    target: FiniteSemigroup
    image: tuple[tuple[str, int], ...]

    @classmethod
    def from_dict(cls, symbols: SymbolTable, target: FiniteSemigroup, mapping) -> "ConstraintMorphism":
        missing = [s for s in symbols.all_symbols() if s not in mapping]
        if missing:
            raise EquationError(f"constraint map misses symbols {missing}")
        extra = [s for s in mapping if s not in symbols.symbol_set]
        if extra:
            raise EquationError(f"constraint map has unknown symbols {extra}")
        items = []
        for sym in symbols.all_symbols():
            el = mapping[sym]
            if not 0 <= el < target.order:
                raise sgmod.BadIndex(f"image of {sym!r} out of range")
            items.append((sym, el))
        return cls(symbols, target, tuple(sorted(items)))

    @classmethod
    def trivial(cls, symbols: SymbolTable) -> "ConstraintMorphism":
        sg = builtin("trivial")
        return cls.from_dict(symbols, sg, {s: 0 for s in symbols.all_symbols()})

    @cached_property
    def _map(self) -> dict[str, int]:
        return dict(self.image)

    def __getitem__(self, sym: str) -> int:
        return self._map[sym]

    def eval(self, w) -> int:
        w = as_word(w)
        if not w:
            raise EmptyWord("cannot evaluate the empty word in a semigroup")
        m = self._map
        acc = m[w[0]]
        for tok in w[1:]:
            acc = self.target.table[acc][m[tok]]
        return acc


@dataclass(frozen=True)
class Instance:
    """Equations together with a constraint morphism; there are none only
    in a singular guess that erases every side."""

    equations: tuple[WordEquation, ...]
    mu: ConstraintMorphism

    def __post_init__(self):
        known = self.symbols.symbol_set
        for eq in self.equations:
            for tok in eq.lhs + eq.rhs:
                if tok not in known:
                    raise EquationError(f"undeclared symbol {tok!r} in equation")

    @property
    def symbols(self) -> SymbolTable:
        return self.mu.symbols

    @property
    def equation(self) -> WordEquation:
        if len(self.equations) != 1:
            raise EquationError("instance is a system; reduce it to a single equation first")
        return self.equations[0]

    def require_quadratic(self) -> None:
        counts: dict[str, int] = {}
        for eq in self.equations:
            for tok in eq.lhs + eq.rhs:
                counts[tok] = counts.get(tok, 0) + 1
        for v in self.symbols.variables:
            if counts.get(v, 0) > 2:
                raise NotQuadratic(f"variable {v!r} occurs {counts[v]} times")


def instance(equations, mu: ConstraintMorphism) -> Instance:
    eqs = tuple(equations) if not isinstance(equations, WordEquation) else (equations,)
    return Instance(eqs, mu)


def unconstrained(equations, constants, variables) -> Instance:
    """Instance over the one-element semigroup (no effective constraints)."""
    table = SymbolTable(tuple(constants), tuple(variables))
    return instance(equations, ConstraintMorphism.trivial(table))


# ---------------------------------------------------------------------------
# substitutions and solutions


PACK_BASE = 0xE000  # first code point of the packed alphabet


@lru_cache(maxsize=1024)
def packing(symbols: SymbolTable) -> tuple[dict[str, str], dict[str, str]]:
    """The packed form of words over the symbols: token i of
    `all_symbols()` is the code point PACK_BASE + i, so a word is a `str`
    of one character per token and distinct tokens get distinct
    characters whatever their names.  Returns the character of each token
    and the token of each character; callers must not change either."""
    char_of = {t: chr(PACK_BASE + i) for i, t in enumerate(symbols.all_symbols())}
    return char_of, {c: t for t, c in char_of.items()}


def substitute(word: Word, var: str, repl: Word) -> Word:
    """Replace every occurrence of one variable by a word."""
    if var not in word:
        return word
    out: list[str] = []
    for tok in word:
        if tok == var:
            out.extend(repl)
        else:
            out.append(tok)
    return tuple(out)


def apply_map(word: Word, mapping) -> Word:
    """Replace every token of the word by its image under the mapping, if it
    has one."""
    out: list[str] = []
    for tok in word:
        out.extend(mapping.get(tok, (tok,)))
    return tuple(out)


@dataclass(frozen=True)
class Solution:
    """Total assignment of nonempty constant words to the variables."""

    assignment: tuple[tuple[str, Word], ...]

    @classmethod
    def from_dict(cls, mapping) -> "Solution":
        return cls(tuple(sorted((v, as_word(w)) for v, w in mapping.items())))

    @cached_property
    def as_dict(self) -> dict[str, Word]:
        return dict(self.assignment)

    @cached_property
    def exponent(self) -> int:
        """Exponent of periodicity: the largest of its words'."""
        return max((exp_word(w) for _, w in self.assignment), default=0)

    def value(self, var: str) -> Word:
        return self.as_dict[var]

    def apply(self, word) -> Word:
        return apply_map(word, self.as_dict)

    def sort_key(self, symbols: SymbolTable):
        m = self.as_dict
        return tuple((len(m[v]), m[v]) for v in symbols.variables if v in m)


def verify_solution(ins: Instance, sol: Solution) -> bool:
    m = sol.as_dict
    syms = ins.symbols
    for v in syms.variables:
        w = m.get(v)
        if not w or not syms.constant_set.issuperset(w):
            return False
    for eq in ins.equations:
        if sol.apply(eq.lhs) != sol.apply(eq.rhs):
            return False
    for v in syms.variables:
        if ins.mu.eval(m[v]) != ins.mu[v]:
            return False
    return True


def require_solution(ins: Instance, sol: Solution) -> None:
    if not verify_solution(ins, sol):
        raise EquationError(f"assignment {sol.assignment} does not solve the instance")


# ---------------------------------------------------------------------------
# exponent of periodicity


def exp_word(w) -> int:
    """Greatest k such that some nonempty p has p^k as a factor; 0 only for
    the empty word.  A run of r positions i with w[i] == w[i + p] spans a
    factor of period p and length r + p, that is p^(r // p + 1); periods
    are tried upward until n // p, the most any longer one allows, cannot
    beat the best found."""
    w = as_word(w)
    n = len(w)
    if n == 0:
        return 0
    best = 1
    p = 1
    while n // p > best:
        run = longest = 0
        for a, b in zip(w, w[p:]):
            if a == b:
                run += 1
                if run > longest:
                    longest = run
            else:
                run = 0
        best = max(best, longest // p + 1)
        p += 1
    return best


def exp_solution(sol: Solution) -> int:
    return sol.exponent


# ---------------------------------------------------------------------------
# constraint languages: the deterministic reachability automaton over S^1


def _preimage_cycles(mu: ConstraintMorphism, s: int):
    """The useful states of the S^1 automaton (on a path start -> accept)
    that lie on a cycle inside the useful set, in increasing order, plus
    the useful set and the transition function on constants.  The preimage
    language of s is infinite exactly when the first list is nonempty."""
    if not 0 <= s < mu.target.order:
        raise sgmod.BadIndex(f"element {s} out of range")
    sg = mu.target
    sigma = mu.symbols.constants
    step = {a: mu[a] for a in sigma}
    states = [ONE] + list(sg.elements())
    delta = {t: {a: sg.mul1(t, step[a])for a in sigma} for t in states}
    reach = {ONE}
    frontier = deque([ONE])
    while frontier:
        t = frontier.popleft()
        for a in sigma:
            nxt = delta[t][a]
            if nxt not in reach:
                reach.add(nxt)
                frontier.append(nxt)
    co = {s}
    frontier = deque(co)
    rev: dict[int, set[int]] = {t: set() for t in states}
    for t in states:
        for a in sigma:
            rev[delta[t][a]].add(t)
    while frontier:
        t = frontier.popleft()
        for p in rev[t]:
            if p not in co:
                co.add(p)
                frontier.append(p)
    useful = reach & co
    # ONE is never a transition target, so never on a cycle
    cyclic = [
        q for q in sorted(useful)
        if q != ONE and _bfs_word(delta, sigma, useful, [q], q, min_len=1) is not None
    ]
    return cyclic, useful, delta


@lru_cache(maxsize=1024)
def preimage_infinite(mu: ConstraintMorphism, s: int) -> bool:
    """Whether infinitely many nonempty constant words map to s."""
    return bool(_preimage_cycles(mu, s)[0])


def _bfs_word(delta, sigma, useful, sources, target, min_len: int) -> tuple[Word, int] | None:
    """Shortest (then constant-order lexicographically least) word of length
    >= min_len driving some source state to the target inside the useful set.
    Returns (word, source_used)."""
    start = [(q, (), q) for q in sources]
    queue = deque(start)
    seen = {(q, 0) for q in sources}
    while queue:
        state, word, src = queue.popleft()
        if state == target and len(word) >= min_len:
            return word, src
        if len(word) > len(useful) + min_len + 1:
            continue
        for a in sigma:
            nxt = delta[state][a]
            if nxt not in useful:
                continue
            key = (nxt, min(len(word) + 1, min_len))
            if key in seen:
                continue
            seen.add(key)
            queue.append((nxt, word + (a,), src))
    return None


def preimage_pump(mu: ConstraintMorphism, s: int) -> tuple[Word, Word, Word] | None:
    """A decomposition (u, y, w), y nonempty, with u y^m w mapping to s for
    all m >= 0, pumped at the least state on a cycle; None when the preimage
    language is finite."""
    cyclic, useful, delta = _preimage_cycles(mu, s)
    if not cyclic:
        return None
    q = cyclic[0]
    sigma = mu.symbols.constants
    u, _ = _bfs_word(delta, sigma, useful, [ONE], q, min_len=0)
    y, _ = _bfs_word(delta, sigma, useful, [q], q, min_len=1)
    w, _ = _bfs_word(delta, sigma, useful, [q], s, min_len=0)
    return u, y, w


# ---------------------------------------------------------------------------
# fresh tokens and instance-level reductions


def fresh_constant(taken, base: str = "#") -> str:
    if base not in taken:
        return base
    i = 1
    while f"{base}{i}" in taken:
        i += 1
    return f"{base}{i}"


def fresh_variables(taken, count: int) -> list[str]:
    out: list[str] = []
    taken = set(taken)
    i = 1
    while len(out) < count:
        cand = f"${i}"
        if cand not in taken:
            out.append(cand)
            taken.add(cand)
        i += 1
    return out


def system_to_single(ins: Instance) -> Instance:
    """Encode a system as one equation by joining sides with a fresh separator
    constant that maps to a freshly adjoined zero."""
    syms = ins.symbols
    sep = fresh_constant(set(syms.all_symbols()))
    target = adjoin_zero(ins.mu.target)
    zero = target.order - 1
    new_syms = SymbolTable(syms.constants + (sep,), syms.variables)
    mapping = {s: ins.mu[s] for s in syms.all_symbols()}
    mapping[sep] = zero
    mu = ConstraintMorphism.from_dict(new_syms, target, mapping)
    lhs: list[str] = []
    rhs: list[str] = []
    for eq in ins.equations:
        lhs.extend(eq.lhs)
        lhs.append(sep)
        rhs.extend(eq.rhs)
        rhs.append(sep)
    return Instance((WordEquation(tuple(lhs), tuple(rhs)),), mu)


def singular_guesses(ins: Instance) -> list[Instance]:
    """All ways of erasing a subset of variables (declaring them mapped to the
    empty word), dropping trivially true equations and discarding guesses that
    leave an equation with exactly one empty side.

    Erasing a variable is only allowed when the target has a neutral element
    and the variable's image is that element, so that the re-extended
    assignment still respects the constraint.
    """
    syms = ins.symbols
    identity = ins.mu.target.identity_element()
    erasable = [
        v for v in syms.variables
        if identity is not None and ins.mu[v] == identity
    ]
    guesses: list[Instance] = []
    for mask in range(1 << len(erasable)):
        erased = {erasable[i] for i in range(len(erasable)) if mask >> i & 1}
        to_empty = dict.fromkeys(erased, ())
        eqs: list[WordEquation] = []
        contradictory = False
        for eq in ins.equations:
            lhs, rhs = apply_map(eq.lhs, to_empty), apply_map(eq.rhs, to_empty)
            if not lhs and not rhs:
                continue
            if not lhs or not rhs:
                contradictory = True
                break
            eqs.append(WordEquation(lhs, rhs))
        if contradictory:
            continue
        kept = tuple(v for v in syms.variables if v not in erased)
        new_syms = SymbolTable(syms.constants, kept)
        mu = ConstraintMorphism.from_dict(
            new_syms, ins.mu.target,
            {s: ins.mu[s] for s in new_syms.all_symbols()},
        )
        guesses.append(Instance(tuple(eqs), mu))
    return guesses


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


def brandt_two_constant_guesses(ins: Instance) -> list[Instance]:
    """For constraints in the five-element Brandt semigroup with the two
    constants mapped to its generators and every variable mapped to zero,
    replace each variable X by X1 c c X2 for every choice of c per variable
    and drop the constraints."""
    ins.require_quadratic()
    syms = ins.symbols
    if len(syms.constants) != 2:
        raise WrongConstraintShape("exactly two constants are required")
    sg = ins.mu.target
    if sg.order != 5:
        raise WrongConstraintShape("target must have five elements")
    p, q = (ins.mu[c] for c in syms.constants)
    pq, qp = sg.mul(p, q), sg.mul(q, p)
    zero = sg.mul(p, p)
    ok = (
        sg.mul(q, q) == zero
        and sg.zero_element() == zero
        and sg.mul(sg.mul(p, q), p) == p
        and sg.mul(sg.mul(q, p), q) == q
        and len({p, q, pq, qp, zero}) == 5
    )
    if not ok:
        raise WrongConstraintShape("constants do not generate the Brandt relations")
    if any(ins.mu[v] != zero for v in syms.variables):
        raise WrongConstraintShape("every variable must map to the zero element")

    fresh = fresh_variables(syms.all_symbols(), 2 * len(syms.variables))
    halves = {v: (fresh[2 * i], fresh[2 * i + 1]) for i, v in enumerate(syms.variables)}
    out: list[Instance] = []
    for choice in itertools.product(syms.constants, repeat=len(syms.variables)):
        sub = {v: (halves[v][0], c, c, halves[v][1]) for v, c in zip(syms.variables, choice)}
        eqs = tuple(
            WordEquation(apply_map(eq.lhs, sub), apply_map(eq.rhs, sub)) for eq in ins.equations
        )
        out.append(unconstrained(eqs, syms.constants, fresh))
    return out


# ---------------------------------------------------------------------------
# instance text format (';' comments; '#' may be a constant)


def parse_instance(text: str, base_dir: str = ".") -> Instance:
    constants: tuple[str, ...] | None = None
    variables: tuple[str, ...] = ()
    raw_equations: list[tuple[int, list[str]]] = []
    sg_spec: tuple[int, str] | None = None
    mapping: dict[str, tuple[int, str]] = {}
    seen_variables = False
    for no, toks in logical_lines(text, comment=";"):
        head, rest = toks[0], toks[1:]
        if head == "constants":
            if constants is not None:
                raise ParseError(no, "duplicate constants line")
            constants = tuple(rest)
        elif head == "variables":
            if seen_variables:
                raise ParseError(no, "duplicate variables line")
            seen_variables = True
            variables = tuple(rest)
        elif head == "equation":
            raw_equations.append((no, rest))
        elif head == "semigroup":
            if len(rest) != 1:
                raise ParseError(no, "expected: semigroup <spec>")
            sg_spec = (no, rest[0])
        elif head == "map":
            if len(rest) != 3 or rest[1] != "->":
                raise ParseError(no, "expected: map <symbol> -> <element>")
            if rest[0] in mapping:
                raise ParseError(no, f"duplicate map line for {rest[0]!r}")
            mapping[rest[0]] = (no, rest[2])
        else:
            raise ParseError(no, f"unknown directive {head!r}")
    if constants is None or not constants:
        raise ParseError(1, "missing or empty constants line")
    for tok in constants + variables:
        if tok.startswith("$"):
            raise ParseError(1, f"token {tok!r} uses the reserved '$' prefix")
        if tok == "=":
            raise ParseError(1, "'=' cannot be a symbol token")
    if len(set(constants + variables)) != len(constants + variables):
        raise ParseError(1, "symbol tokens must be pairwise distinct")
    if sg_spec is None:
        raise ParseError(1, "missing semigroup line")
    if not raw_equations:
        raise ParseError(1, "missing equation line")
    no, spec = sg_spec
    try:
        target = resolve_semigroup(spec, base_dir)
    except (OSError, NotText, ParseError, sgmod.SemigroupError) as exc:
        raise ParseError(no, f"cannot load semigroup {spec!r}: {exc}") from exc
    syms = SymbolTable(constants, variables)
    eqs = []
    for no, toks in raw_equations:
        if toks.count("=") != 1:
            raise ParseError(no, "equation needs exactly one '='")
        cut = toks.index("=")
        lhs, rhs = tuple(toks[:cut]), tuple(toks[cut + 1:])
        if not lhs or not rhs:
            raise ParseError(no, "equation sides must be nonempty")
        for tok in lhs + rhs:
            if tok not in syms.constant_set and tok not in syms.variable_set:
                raise ParseError(no, f"undeclared symbol {tok!r}")
        eqs.append(WordEquation(lhs, rhs))
    trivial_default = spec in ("builtin:trivial", "trivial")
    image: dict[str, int] = {}
    for sym in syms.all_symbols():
        if sym in mapping:
            no, el_tok = mapping[sym]
            try:
                image[sym] = target.index_of(el_tok)
            except sgmod.BadIndex as exc:
                raise ParseError(no, str(exc)) from exc
        elif trivial_default:
            image[sym] = 0
        else:
            raise ParseError(1, f"missing map line for symbol {sym!r}")
    for sym, (no, _) in mapping.items():
        if sym not in syms.constant_set and sym not in syms.variable_set:
            raise ParseError(no, f"map line for undeclared symbol {sym!r}")
    mu = ConstraintMorphism.from_dict(syms, target, image)
    return Instance(tuple(eqs), mu)


def format_instance(ins: Instance, sg_spec: str | None = None) -> str:
    syms = ins.symbols
    lines = ["constants " + " ".join(syms.constants)]
    if syms.variables:
        lines.append("variables " + " ".join(syms.variables))
    for eq in ins.equations:
        lines.append("equation " + str(eq))
    label = ins.mu.target.label
    lines.append("semigroup " + (sg_spec or (f"builtin:{label}" if label in sgmod.BUILTIN_NAMES else "file:?")))
    for sym in syms.all_symbols():
        lines.append(f"map {sym} -> {ins.mu.target.names[ins.mu[sym]]}")
    return "\n".join(lines) + "\n"
