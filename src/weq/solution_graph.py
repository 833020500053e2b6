"""State-space automaton for quadratic instances.

States are equations together with the set of still-active variables and the
current constraint images; transitions are labeled by single-variable
substitutions (or are silent head cancellations).  Accepting paths, read as
composed substitutions, enumerate exactly the solution set; a cycle in the
trimmed automaton witnesses infinitude.

Exploration runs on packed words.  `equations.packing`, which the oracle
uses too, maps token i of the symbol table to one code point, so a side is
a `str`, a substitution is `str.replace` and letter counting is `str.count`.
A state is the key (lhs, rhs, images, is_true), where images holds the
constraint image of each variable by rank and -1 for a variable that is no
longer active.  States get ids in the order they are first generated and
are expanded in that order, breadth-first, recording their moves as integer
successors with packed labels.  Two keys are equal exactly when the decoded
states are, and the moves of a state are generated in the order they have
over token tuples.

One iterative Tarjan pass (Tarjan 1972) over the integer moves, from the
initial state, which reaches every explored state, then trims the
automaton and finds its SCCs together.  A state is live when it is final or
has a live successor, and a component is kept exactly when its root is live
as it closes.  A state that reaches no final state reaches no kept state
either, so descending into it never changes `low` or the stack order of a
live state, and the kept components close in the order Tarjan's algorithm
gives them on the trimmed automaton.  The kept states are renumbered in
exploration order, and each keeps its moves in the order they were made.
So the state numbering, the order of each state's transitions, the SCC
order (and with it the certificate `pumpable_state` picks) and the DOT
output are those of exploring over token tuples and running Tarjan on the
trimmed automaton.

`SolutionGraph` stores the trimmed automaton as arrays and decodes nothing
while it is built: the packed key of each kept state, out-offsets `first`
and integer targets `dst` per edge, the packed label of each edge, and the
map from packed characters back to tokens.  The verdicts read the SCCs and
the final states; the path searches walk `first` and `dst`; enumeration
composes packed labels.  `g.state(sid)` decodes one `GraphState` (memoized
per graph) and `g.label(e)` one label, which is all that the pumpable-state
scan and the certificates need.  `dot_lines` decodes each state and edge as
it writes its line and keeps none.  `g.states`, `g.transitions` and `g.out`
decode the whole automaton on first access, for callers that want objects.

A degenerate state whose equation has been consumed entirely is represented
by a TRUE marker that keeps its variable set; it is accepting once the
variable set is empty, and remaining variables are assigned by the
absent-variable rule.

Exploration skips states that letter counting proves unsolvable.  With d_a
the net count |U|_a - |V|_a of each constant and c_X that of each variable,
a state is dead when some d_a != 0 while every c_X = 0, when every c_X is
even and some d_a odd, or when the c_X share a sign that no nonempty
substitution can reconcile with the d_a (see `_abelian_refuted`).  Such a
state is recorded as dead when first generated and gets no transitions and
no expansion.  The test runs on the initial state and after a substitution
for a variable with c_X != 0; every other move keeps the counts of its
source, which passed.  A dead state has only dead successors and every
predecessor of a live state is live, so the live states are generated in the
same breadth-first order as without the test, and the trimmed automaton,
its state numbering included, is unchanged.

Exploration also skips states whose sides have different constraint
images: with constants at their images under the instance's morphism and
active variables at the state's images, a solution maps both sides to the
same element, so a state whose sides fold to different elements of the
target has no accepting path (Schulz 1990) and is recorded as dead in the
same way.  The test runs on the initial state and after every move that
cancels a head: silent, keeping and deleting moves.  An absent-variable
move changes neither side, and substitution alone keeps both folds
(x -> alpha x picks t with mu(alpha) t = mu(x); x -> alpha needs
mu(alpha) = mu(x)), so only cancellation can make them differ.  Over a
target of order 1 every fold is equal and the test is skipped.  A dead
state is never co-reachable, so by the argument above the trimmed
automaton and its numbering stay the same.

`enumerate_solutions` searches pairs of a state and its patterns, the packed
word each variable has become under the labels composed so far, and prunes a
move that pushes a word past the bound B; a substitution never shortens a
word, so no solution within B is lost.  The search ends with no bound on
the path length: a move that lengthens no word either deletes an active
variable or is silent and shortens the state by two tokens, neither count
ever grows, and every active variable occurs in its own pattern, so a
keeping move x -> alpha x lengthens a word.  A path within B thus has at
most B*k + n0/2 moves, for k variables and n0 tokens in the equation.  The
number of pairs can still grow exponentially in B (X Y = Y X doubles it
with each step of B), so the pairs the search interns count against the
same `max_states` budget as the states of `build`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Iterator, NamedTuple

from .equations import (
    PACK_BASE, EquationError, Instance, Solution, Word, packing, require_solution, substitute,
)
from .semigroup import FiniteSemigroup


class EmptySide(EquationError):
    pass


class NotAccepting(EquationError):
    """The given path is not an accepting run of the automaton."""


class StateBudgetExceeded(Exception):
    """`build` interned more states, or `enumerate_solutions` more (state,
    patterns) pairs, than the budget allows."""

    def __init__(self, count: int, budget: int):
        super().__init__(f"exploration reached {count} states, budget is {budget}")
        self.count = count
        self.budget = budget


# the default state budget of `build`.  An interned state, dead ones
# included, costs about 0.6 KB of RSS while exploring and 0.65 KB at the
# peak of a finished build (measured at 1.8 to 6 x 10^5 states), so a build
# stays near 0.7 GB at the cap.  `dot_lines` decodes one state or edge at
# a time, so `weq graph` peaks where its build does.
DEFAULT_MAX_STATES = 1_000_000


Label = tuple[str, Word] | None  # None = silent head cancellation


class GraphState(NamedTuple):
    lhs: Word
    rhs: Word
    varset: frozenset[str]
    mu_items: tuple[tuple[str, int], ...]  # images of the active variables
    is_true: bool

    def equation_str(self) -> str:
        if self.is_true:
            return "(true)"
        return " ".join(self.lhs) + " = " + " ".join(self.rhs)


class GraphTransition(NamedTuple):
    source: int
    target: int
    label: Label


@dataclass
class SccData:
    components: tuple[tuple[int, ...], ...]  # topological order
    comp_of: tuple[int, ...]
    has_transition: tuple[bool, ...]


@dataclass
class SolutionGraph:
    """The trimmed automaton as arrays: state s is the packed key keys[s],
    its moves are the edges first[s]:first[s + 1], edge e goes to state
    dst[e] under the packed label labels[e] ("" for a silent move, else
    the variable's character followed by its replacement), and token_of
    maps each packed character back to its token."""

    instance: Instance
    keys: list[tuple[str, str, tuple[int, ...], bool]]
    first: list[int]
    dst: list[int]
    labels: list[str]
    token_of: dict[str, str]
    initial: int | None
    finals: frozenset[int]
    scc: SccData
    _decoded: dict[int, GraphState] = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def state_count(self) -> int:
        return len(self.keys)

    @property
    def transition_count(self) -> int:
        return len(self.dst)

    def state(self, sid: int) -> GraphState:
        """State `sid` decoded to tokens, once per graph."""
        st = self._decoded.get(sid)
        if st is None:
            lhs, rhs, images, is_true = self.keys[sid]
            token = self.token_of.__getitem__
            mu_items = sorted([(v, e) for v, e in zip(self.instance.symbols.variables, images) if e != -1])
            st = self._decoded[sid] = GraphState(
                tuple(map(token, lhs)), tuple(map(token, rhs)),
                frozenset([v for v, _ in mu_items]), tuple(mu_items), is_true,
            )
        return st

    def edges(self, sid: int) -> range:
        """The ids of the edges out of state `sid`, in the order of its moves."""
        return range(self.first[sid], self.first[sid + 1])

    def label(self, e: int) -> Label:
        """The label of edge e decoded to tokens."""
        lab = self.labels[e]
        if not lab:
            return None
        return self.token_of[lab[0]], tuple(map(self.token_of.__getitem__, lab[1:]))

    @cached_property
    def states(self) -> list[GraphState]:
        """Every state decoded, in id order."""
        return [self.state(sid) for sid in range(len(self.keys))]

    @cached_property
    def transitions(self) -> list[GraphTransition]:
        """Every edge decoded, in edge order."""
        return [
            GraphTransition(sid, self.dst[e], self.label(e))
            for sid in range(len(self.keys)) for e in self.edges(sid)
        ]

    @cached_property
    def out(self) -> list[list[int]]:
        """The edges of each state."""
        return [list(self.edges(sid)) for sid in range(len(self.keys))]

    def state_mu(self, sid: int) -> dict[str, int]:
        """Constraint images at a state: original constants plus the state's
        active-variable images."""
        mu = {a: self.instance.mu[a] for a in self.instance.symbols.constants}
        mu.update(self.state(sid).mu_items)
        return mu

    def state_eval1(self, sid: int, word) -> int:
        """Evaluate a word over the state's symbols in S^1 (empty -> ONE)."""
        m = self.state_mu(sid)
        return self.instance.mu.target.fold(m[t] for t in word)

    def summary(self) -> dict:
        return {
            "solvable": is_solvable(self),
            "infinite": has_infinitely_many(self),
            "state_count": self.state_count,
            "transition_count": self.transition_count,
            "scc_count": len(self.scc.components),
        }


@lru_cache(maxsize=64)
def _left_quotients(sg: FiniteSemigroup) -> dict[tuple[int, int], tuple[int, ...]]:
    """(p, q) -> all t with p*t == q."""
    table: dict[tuple[int, int], list[int]] = {}
    for p in sg.elements():
        row = sg.table[p]
        for t in sg.elements():
            table.setdefault((p, row[t]), []).append(t)
    return {k: tuple(v) for k, v in table.items()}


def build(ins: Instance, faithful: bool = False, max_states: int = DEFAULT_MAX_STATES) -> SolutionGraph:
    """Breadth-first closure from the initial state under the transition
    schema, on packed words, followed by one pass that trims and finds the
    SCCs; raises StateBudgetExceeded once more than `max_states` states,
    dead ones included, have been interned."""
    eq = ins.equation
    if not eq.lhs or not eq.rhs:
        raise EmptySide("both sides must be nonempty")
    ins.require_quadratic()
    syms = ins.symbols
    sg = ins.mu.target
    char_of, token_of = packing(syms)
    n_const = len(syms.constants)
    alphabet = "".join(token_of)  # the packed symbols, constants first
    consts, var_chars = alphabet[:n_const], alphabet[n_const:]
    var_base = PACK_BASE + n_const  # ord(c) - var_base is the rank of variable c
    symbol_imgs = tuple(map(ins.mu.__getitem__, syms.all_symbols()))
    const_imgs = symbol_imgs[:n_const]
    table = sg.table
    test_images = sg.order > 1

    def images_differ(lhs: str, rhs: str, images: tuple[int, ...]) -> bool:
        vals = const_imgs + images  # indexed like all_symbols()
        left = vals[ord(lhs[0]) - PACK_BASE]
        for c in lhs[1:]:
            left = table[left][vals[ord(c) - PACK_BASE]]
        right = vals[ord(rhs[0]) - PACK_BASE]
        for c in rhs[1:]:
            right = table[right][vals[ord(c) - PACK_BASE]]
        return left != right

    # a state is (lhs, rhs, images, is_true): packed sides and the image of
    # each variable by rank, -1 once it is no longer active.  States are
    # expanded in id order, so the moves of state s are the entries
    # first[s]:first[s + 1] of dsts and labels.
    keys: list[tuple[str, str, tuple[int, ...], bool]] = []
    index: dict[tuple[str, str, tuple[int, ...], bool], int] = {}
    first: list[int] = []
    dsts: list[int] = []
    labels: list[str] = []  # "" silent, else variable + replacement

    def intern(
        lhs: str, rhs: str, images: tuple[int, ...], true_: bool,
        cancelled: bool = False, counts: bool = False,
    ) -> int:
        """Id of the state, adding it on first sight; DEAD when, on first
        sight of a non-true state, a head has `cancelled` on the way and the
        sides' images differ, or `counts` is set and letter counting
        refutes it."""
        key = (lhs, rhs, images, true_)
        sid = index.get(key)
        if sid is None:
            if len(index) >= max_states:
                raise StateBudgetExceeded(len(index) + 1, max_states)
            if not true_ and (
                (cancelled and test_images and images_differ(lhs, rhs, images))
                or (counts and _abelian_refuted(lhs, rhs, var_chars))
            ):
                index[key] = DEAD
                return DEAD
            sid = len(keys)
            index[key] = sid
            keys.append(key)
        return sid

    def add(dst: int, label: str) -> None:
        """Record a move of the state being expanded."""
        if dst != DEAD:
            dsts.append(dst)
            labels.append(label)

    intern(  # the initial state: id 0, or DEAD with no state explored
        "".join(map(char_of.__getitem__, eq.lhs)), "".join(map(char_of.__getitem__, eq.rhs)),
        symbol_imgs[n_const:], False, cancelled=True, counts=True,
    )
    quot = _left_quotients(sg) if keys else {}  # needed only to expand states

    # breadth-first: the loop reads the states that intern appends
    for lhs, rhs, images, is_true in keys:
        first.append(len(dsts))

        if not is_true and lhs[0] == rhs[0]:
            # silent head cancellation: the unique outgoing transition
            l, r = lhs[1:], rhs[1:]
            if l and r:
                add(intern(l, r, images, False, cancelled=True), "")
            elif not l and not r:
                add(intern("", "", images, True), "")
            continue

        for k, x in enumerate(var_chars):
            mx = images[k]
            if mx == -1 or x in lhs or x in rhs:
                continue
            # an active variable that does not occur: only the first one
            # unless faithful
            for a, ma in zip(consts, const_imgs):
                for t in quot.get((ma, mx), ()):
                    add(intern(lhs, rhs, images[:k] + (t,) + images[k + 1:], is_true), x + a + x)
                if mx == ma:
                    add(intern(lhs, rhs, images[:k] + (-1,) + images[k + 1:], is_true), x + a)
            if not faithful:
                break
        if is_true:
            continue

        vals = const_imgs + images
        for this, other, swapped in ((lhs, rhs, False), (rhs, lhs, True)):
            x = this[0]
            k = ord(x) - var_base
            if k < 0:  # a constant head
                continue
            alpha = other[0]
            mx, ma = images[k], vals[ord(alpha) - PACK_BASE]
            u, v = this[1:], other[1:]
            # x -> alpha x and x -> alpha add c_x = |this|_x - |other|_x to
            # the count difference of alpha; with c_x = 0 the children have
            # the letter counts of this state, which passed the test
            counts = u.count(x) + 1 != v.count(x)

            # keeping transition: x -> alpha x, the opposing head cancels
            ax = alpha + x
            keep_r = v.replace(x, ax)
            if keep_r:
                keep_l = x + u.replace(x, ax)
                pair = (keep_l, keep_r) if not swapped else (keep_r, keep_l)
                for t in quot.get((ma, mx), ()):
                    add(
                        intern(pair[0], pair[1], images[:k] + (t,) + images[k + 1:], False,
                               cancelled=True, counts=counts),
                        x + ax,
                    )
            # deleting transition: x -> alpha
            if mx == ma:
                dl, dr = u.replace(x, alpha), v.replace(x, alpha)
                if swapped:
                    dl, dr = dr, dl
                gone = images[:k] + (-1,) + images[k + 1:]
                if dl and dr:
                    add(intern(dl, dr, gone, False, cancelled=True, counts=counts), x + alpha)
                elif not dl and not dr:
                    add(intern("", "", gone, True), x + alpha)

    none_active = (-1,) * len(var_chars)
    finals = [
        sid for sid, (lhs, rhs, images, is_true) in enumerate(keys)
        if images == none_active and (is_true or (len(lhs) == 1 and lhs == rhs and lhs in consts))
    ]
    first.append(len(dsts))
    del index  # trimming needs only the explored states and their moves
    return _trim(ins, keys, first, dsts, labels, finals, token_of)


DEAD = -1  # index entry of a state refuted by its images or by letter counting


def _abelian_refuted(lhs: Word | str, rhs: Word | str, varset: frozenset[str] | str) -> bool:
    """Whether letter counting alone shows that the equation has no solution
    in nonempty words; the sides are token tuples, with varset the set of
    active variables, or packed strings, with varset the packed variables
    (those that occur are active).  With d_a = |lhs|_a - |rhs|_a for each constant a and
    c_X = |lhs|_X - |rhs|_X for each variable X, a solution s satisfies
    d_a + sum_X c_X |s(X)|_a = 0 for every a and |s(X)| >= 1, which fails
    when some d_a != 0 but every c_X = 0; when every c_X is even but some
    d_a is odd; when every c_X >= 0 and some d_a > 0 or sum_X c_X > -sum_a
    d_a (and symmetrically for every c_X <= 0)."""
    # flags instead of lists and any/all: this runs once per explored state
    # of every instance, most of which are tiny
    c_sum = d_sum = 0
    c_pos = c_neg = c_odd = d_pos = d_neg = d_odd = False
    for t in set(lhs + rhs):
        n = lhs.count(t) - rhs.count(t)
        if not n:
            continue
        if t in varset:
            c_sum += n
            c_pos, c_neg = c_pos or n > 0, c_neg or n < 0
            c_odd = c_odd or n & 1
        else:
            d_sum += n
            d_pos, d_neg = d_pos or n > 0, d_neg or n < 0
            d_odd = d_odd or n & 1
    if not (c_pos or c_neg):
        return d_pos or d_neg
    if d_odd and not c_odd:
        return True
    if not c_neg:
        return d_pos or c_sum > -d_sum
    if not c_pos:
        return d_neg or c_sum < -d_sum
    return False


def _trim(ins, keys, first, dsts, labels, finals, token_of) -> SolutionGraph:
    """Keep the states from which a final state is reachable, renumbered in
    exploration order, find their SCCs in the same Tarjan pass from the
    initial state 0, and keep their moves as arrays renumbered the same way.
    A DFS child passes its live flag to its parent as it returns; a state
    whose component has closed gets index n, which no longer lowers `low`."""
    if not finals:  # nothing is co-reachable, as when the initial state is DEAD
        return SolutionGraph(ins, [], [0], [], [], token_of, None, frozenset(), SccData((), (), ()))
    n = len(keys)
    index_of = [-1] * n
    low = [0] * n
    live = [False] * n
    for f in finals:
        live[f] = True
    stack = [0]
    path: list[tuple[int, int]] = []  # the DFS ancestors of v, each with its next edge
    comps: list[list[int]] = []  # the kept components, in closing order
    cyclic: list[bool] = []
    counter = 1
    index_of[0] = 0
    v, e = 0, first[0]
    while True:
        end = first[v + 1]
        while e < end:
            w = dsts[e]
            e += 1
            iw = index_of[w]
            if iw == -1:
                break
            if iw < low[v]:
                low[v] = iw
            if live[w]:
                live[v] = True
        else:
            if low[v] == index_of[v]:  # v roots a component: close it
                comp = []
                while True:
                    w = stack.pop()
                    index_of[w] = n
                    comp.append(w)
                    if w == v:
                        break
                if live[v]:
                    for w in comp:
                        live[w] = True
                    comps.append(comp)
                    cyclic.append(len(comp) > 1 or v in dsts[first[v]:end])
            if not path:
                break
            w = v
            v, e = path.pop()
            if low[w] < low[v]:
                low[v] = low[w]
            if live[w]:
                live[v] = True
            continue
        path.append((v, e))  # descend to the unvisited successor w
        index_of[w] = low[w] = counter
        counter += 1
        stack.append(w)
        v, e = w, first[w]

    keep = [s for s in range(n) if live[s]]
    new_id = keep
    if len(keep) < n:  # renumber, dropping the moves to states that are not kept
        new_id = [DEAD] * n
        for new, old in enumerate(keep):
            new_id[old] = new
        kept_first: list[int] = []
        kept_dst: list[int] = []
        kept_labels: list[str] = []
        for old in keep:
            kept_first.append(len(kept_dst))
            for e in range(first[old], first[old + 1]):
                dst = new_id[dsts[e]]
                if dst != DEAD:
                    kept_dst.append(dst)
                    kept_labels.append(labels[e])
        kept_first.append(len(kept_dst))
        keys, first, dsts, labels = [keys[old] for old in keep], kept_first, kept_dst, kept_labels
    comps.reverse()  # topological order
    components = tuple(tuple(sorted(map(new_id.__getitem__, comp))) for comp in comps)
    comp_of = [0] * len(keep)
    for ci, comp in enumerate(components):
        for s in comp:
            comp_of[s] = ci
    scc = SccData(components, tuple(comp_of), tuple(reversed(cyclic)))
    finals_new = frozenset(new_id[f] for f in finals)
    return SolutionGraph(ins, keys, first, dsts, labels, token_of, 0, finals_new, scc)


def is_solvable(g: SolutionGraph) -> bool:
    return g.initial is not None


def has_infinitely_many(g: SolutionGraph) -> bool:
    return any(g.scc.has_transition)


def compose(variables, labels) -> dict[str, Word]:
    """The word each variable becomes under the labels' substitutions,
    applied first label first; a silent label (None) changes nothing."""
    patterns = {v: (v,) for v in variables}
    for label in labels:
        if label is not None:
            var, repl = label
            for v, w in patterns.items():
                patterns[v] = substitute(w, var, repl)
    return patterns


def extract_solution(g: SolutionGraph, path) -> Solution:
    """Compose the path's labels, first label first, starting from the
    one-symbol word per original variable; checks that the path is an
    accepting run and that the result solves the instance."""
    if g.initial is None:
        raise NotAccepting("the automaton accepts nothing")
    at = g.initial
    labels = []
    for e in path:
        if not 0 <= e < len(g.dst):
            raise NotAccepting(f"no transition {e}")
        if e not in g.edges(at):
            raise NotAccepting(f"transition {e} does not start at state {at}")
        labels.append(g.label(e))
        at = g.dst[e]
    if at not in g.finals:
        raise NotAccepting(f"path ends at non-final state {at}")
    patterns = compose(g.instance.symbols.variables, labels)
    syms = g.instance.symbols
    for v, w in patterns.items():
        if not w or any(not syms.is_constant(tok) for tok in w):
            raise NotAccepting(f"variable {v!r} is not fully resolved by the path")
    sol = Solution.from_dict(patterns)
    require_solution(g.instance, sol)
    return sol


def enumerate_solutions(
    g: SolutionGraph, max_word_len: int, max_states: int = DEFAULT_MAX_STATES
) -> list[Solution]:
    """Every solution whose words all have length <= max_word_len, in the
    oracle's order; the module docstring says why the search ends.  The
    patterns stay packed, one `str` per variable, until a final state
    yields them.  Raises StateBudgetExceeded once more than `max_states`
    (state, patterns) pairs are interned."""
    if g.initial is None:
        return []
    syms = g.instance.symbols
    variables = syms.variables
    dst, labels, finals = g.dst, g.labels, g.finals
    found: set[tuple[str, ...]] = set()
    init = (g.initial, tuple(packing(syms)[0][v] for v in variables))
    seen = {init}
    stack = [init]
    while stack:
        sid, patterns = stack.pop()
        if sid in finals:
            found.add(patterns)
        for e in g.edges(sid):
            lab = labels[e]
            nxt = patterns
            if lab:
                x, repl = lab[0], lab[1:]
                nxt = tuple([w.replace(x, repl) for w in patterns])
                if max(map(len, nxt)) > max_word_len:
                    continue
            key = (dst[e], nxt)
            if key not in seen:
                if len(seen) >= max_states:
                    raise StateBudgetExceeded(len(seen) + 1, max_states)
                seen.add(key)
                stack.append(key)
    token = g.token_of.__getitem__
    sols = []
    for patterns in found:
        sol = Solution.from_dict({v: tuple(map(token, w)) for v, w in zip(variables, patterns)})
        require_solution(g.instance, sol)
        sols.append(sol)
    return sorted(sols, key=lambda s: s.sort_key(syms))


def export_dot(g: SolutionGraph) -> str:
    """Deterministic DOT rendering: final states double-circled, silent edges
    dashed, nodes ordered by state id."""
    return "".join(dot_lines(g))


def dot_lines(g: SolutionGraph) -> Iterator[str]:
    """The lines of `export_dot(g)`, each with its newline.  Each state and
    edge is decoded from the arrays as its line is made and is not kept, so
    writing the lines out holds one line at a time."""
    syms = g.instance.symbols
    variables, names = syms.variables, g.instance.mu.target.names
    token = g.token_of.__getitem__
    sep = "" if all(len(t) == 1 for t in syms.all_symbols()) else " "

    def word_str(packed: str) -> str:
        return sep.join(map(token, packed))

    def escaped(label: str) -> str:
        return label.replace("\\", "\\\\").replace('"', '\\"')

    yield "digraph solution_graph {\n"
    yield "  rankdir=LR;\n"
    if g.initial is not None:
        yield "  __start [shape=point];\n"
    for sid, (lhs, rhs, images, is_true) in enumerate(g.keys):
        eqs = "(true)" if is_true else f"{word_str(lhs)} = {word_str(rhs)}"
        active = [(v, e) for v, e in zip(variables, images) if e != -1]
        vars_part = ",".join(v for v, _ in active) or "-"
        mu_part = ",".join(f"{v}={names[e]}" for v, e in sorted(active)) or "-"
        shape = "doublecircle" if sid in g.finals else "circle"
        label = escaped(f"{eqs} | {vars_part} | {mu_part}")
        yield f'  q{sid} [shape={shape}, label="{label}"];\n'
    if g.initial is not None:
        yield f"  __start -> q{g.initial};\n"
    for sid in range(g.state_count):
        for e in g.edges(sid):
            lab = g.labels[e]
            if not lab:
                yield f'  q{sid} -> q{g.dst[e]} [style=dashed, label="ε"];\n'
            else:
                label = escaped(f"{token(lab[0])}->{word_str(lab[1:])}")
                yield f'  q{sid} -> q{g.dst[e]} [label="{label}"];\n'
    yield "}\n"
