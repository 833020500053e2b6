"""State-space automaton for quadratic instances.

States are equations together with the set of still-active variables and the
current constraint images; transitions are labeled by single-variable
substitutions (or are silent head cancellations).  Accepting paths, read as
composed substitutions, enumerate exactly the solution set; a cycle in the
trimmed automaton witnesses infinitude.

Exploration runs on packed words.  `equations.packing`, which the oracle
uses too, maps token i of the symbol table to one code point, so a side is
a `str` and a substitution is `str.replace`.
A state is the key (lhs, rhs, images), where images holds the constraint
image of each variable by rank and -1 for a variable that is no longer
active.  States get ids in the order they are first generated and
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
and integer targets `dst` per edge, and the packed label of each edge.  The
verdicts read the SCCs and the final states; the path searches walk
`first` and `dst`; enumeration composes packed labels.  `g.state(sid)`
decodes one `GraphState` and `g.label(e)` one label through the instance's
`packing`, which is all that the pumpable-state scan and the certificates
need; they decode each state they read once and pass it on.  `dot_lines`
decodes each state and edge the same way as it writes its line and keeps
none.  `g.transitions` and `g.out` decode every edge on first access, for
callers that want objects.

A degenerate state whose equation has been consumed entirely is TRUE: both
its sides are empty, and it keeps its variable set.  It is accepting once
the variable set is empty, and remaining variables are assigned by the
absent-variable rule.  No other state has an empty side: the initial sides
are nonempty, a head cancellation that empties one side only is dropped,
and a keeping move needs the opposite side nonempty.

Exploration skips states that letter counting proves unsolvable.  With d_a
the net count |U|_a - |V|_a of each constant and c_X that of each variable,
a state is dead when some d_a != 0 while every c_X = 0, when every c_X is
even and some d_a odd, or when the c_X share a sign that no nonempty
substitution can reconcile with the d_a (see `_counts_refuted`).  Such a
state is recorded as dead when first generated and gets no transitions and
no expansion.  Each state carries its net counts, outside its key: x ->
alpha x adds c_x to alpha's, x -> alpha also sets c_x to 0, and no other
move changes them, so the test runs only on the initial state and after a
substitution for a variable with c_x != 0.  A dead state has only dead
successors and every predecessor of a live state is live, so the live
states are generated in the same breadth-first order as without the test,
and the trimmed automaton, its state numbering included, is unchanged.

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

Exploration also drops a state whose two sides end in different constants.
A substitution maps each constant to itself, so no solution maps the sides
to one word.  From such a state every move keeps both last letters or
empties one side only, and a final state has equal sides, so it is never
co-reachable either.  Only a deletion x -> alpha changes a last letter: a
keeping move x -> alpha x leaves x last where x was last, a silent move
cancels heads and an absent-variable move changes no side.  So the test
runs, inline, on the initial state, which ends the build like the tests
above, and in the deleting branch, which drops the move.  Heads need no
test: no move changes the sides of a state whose heads are two different
constants, so it reaches no final state already.  The target of a dropped
deletion is not interned, so it does not count against `max_states`.  On X a^k b = a^k b X, each deletion X -> a leaves sides
ending in b and a, which without the test are cancelled one head at a time
before they die, O(k^2) states in all; with it the build interns the
2k + 3 states that it keeps (403 at k = 200, against 20,503).

`enumerate_solutions` searches pairs of a state and its patterns, the packed
word each variable has become under the labels composed so far, and prunes a
move that pushes a word past the bound B; a substitution never shortens a
word, so no solution within B is lost.  A pair that reaches a TRUE state
with active variables leaves the search for a walk that assigns them one at
a time.  There `build` fires only the first active variable x, so the words
x takes before its deletion, each with the TRUE state the deletion reaches,
depend on the state alone.  They are made once per length for every TRUE
state the walk reaches, from the automaton's own moves: the words of length
1 are the deletions x -> a, those of length n + 1 put a before each word of
length n at the target of a keeping move x -> a x.  Each word is substituted
into the patterns, which go on at the state reached.  A word of length n
makes a pattern p with c > 0 occurrences of x len(p) + c(n - 1) long, so x's
words are capped at the least (B - len(p) + c) // c, which prunes what the
pair search would.  The search ends with no bound on the path length: a move
that lengthens no word either deletes an active variable or is silent and
shortens the state by two tokens, neither count ever grows, and every active
variable occurs in its own pattern, so a keeping move x -> alpha x lengthens
a word.  A path within B thus has at most B*k + n0/2 moves, for k variables
and n0 tokens in the equation.  The walk deletes a variable with each word
it substitutes, and it makes words one length at a time up to the largest
cap it meets, stopping at the first length at which no TRUE state it reaches
has a word, as no longer word exists then; so on an acyclic automaton it
ends for any B.  The number of pairs, words and tuples can still grow
exponentially in B (X Y = Y X doubles it with each step of B), so the pairs
the search interns, the words the walk makes and the tuples it adds count
together against the same `max_states` budget as the states of `build`.  The
walk drops a tuple it has made before, through the search's pairs or the
solutions found.  The patterns met at final states are checked against the
automaton's guarantee while still packed (`first_non_solution`: nonempty
constant words, each word folding to its variable's image, each distinct
word folded once, and equal sides under one `str.translate` table; an
equation whose packed sides are the same string is not compared, and with
none left no table is made), then decoded and sorted by
`equations.packed_solutions`, the step the oracle ends with too.  There each
distinct word is decoded once and gets one order term, its length and the
word under a table from each packed character to its token's rank in name
order, made once per symbol table; a solution's key is the tuple of its
words' places in that order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterator, NamedTuple

from .equations import (
    PACK_BASE, BudgetExceeded, EquationError, Instance, Solution, TheoremViolation, Word,
    apply_map, packed_solutions, packing, verify_solution,
)
from .semigroup import FiniteSemigroup


class NotAccepting(EquationError):
    """The given path is not an accepting run of the automaton."""


class StateBudgetExceeded(BudgetExceeded):
    """`build` interned more states, or `enumerate_solutions` more (state,
    patterns) pairs, than the budget allows."""

    def __init__(self, count: int, budget: int, counted: str = "states"):
        super().__init__(f"exploration reached {count} {counted}, budget is {budget}")
        self.count = count
        self.budget = budget


# the default state budget of `build`.  An interned state, dead ones
# included, costs about 0.6 KB of RSS both while exploring and at the peak
# of a finished build (measured at 1.8 x 10^5 states, the count vectors
# included), so a build stays near 0.6 GB at the cap.  `dot_lines` decodes
# one state or edge at a time, so `weq graph` peaks where its build does.
DEFAULT_MAX_STATES = 1_000_000


Label = tuple[str, Word] | None  # None = silent head cancellation


class GraphState(NamedTuple):
    """A state decoded to tokens; both sides are empty exactly when it is TRUE."""

    lhs: Word
    rhs: Word
    mu_items: tuple[tuple[str, int], ...]  # each active variable, by name, with its image

    def equation_str(self) -> str:
        if not self.lhs:
            return "(true)"
        return " ".join(self.lhs) + " = " + " ".join(self.rhs)


class GraphTransition(NamedTuple):
    source: int
    target: int
    label: Label


@dataclass
class SccData:
    components: tuple[tuple[int, ...], ...]  # topological order
    has_transition: tuple[bool, ...]


@dataclass
class SolutionGraph:
    """The trimmed automaton as arrays: state s is the packed key keys[s],
    its moves are the edges first[s]:first[s + 1], edge e goes to state
    dst[e] under the packed label labels[e] ("" for a silent move, else
    the variable's character followed by its replacement)."""

    instance: Instance
    keys: list[tuple[str, str, tuple[int, ...]]]
    first: list[int]
    dst: list[int]
    labels: list[str]
    initial: int | None
    finals: frozenset[int]
    scc: SccData

    @property
    def state_count(self) -> int:
        return len(self.keys)

    @property
    def transition_count(self) -> int:
        return len(self.dst)

    def state(self, sid: int) -> GraphState:
        """State `sid` decoded to tokens."""
        lhs, rhs, images = self.keys[sid]
        syms = self.instance.symbols
        token = packing(syms)[1].__getitem__
        mu_items = sorted([(v, e) for v, e in zip(syms.variables, images) if e != -1])
        return GraphState(tuple(map(token, lhs)), tuple(map(token, rhs)), tuple(mu_items))

    def edges(self, sid: int) -> range:
        """The ids of the edges out of state `sid`, in the order of its moves."""
        return range(self.first[sid], self.first[sid + 1])

    def label(self, e: int) -> Label:
        """The label of edge e decoded to tokens."""
        lab = self.labels[e]
        if not lab:
            return None
        token_of = packing(self.instance.symbols)[1]
        return token_of[lab[0]], tuple(map(token_of.__getitem__, lab[1:]))

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


def build(ins: Instance, max_states: int = DEFAULT_MAX_STATES) -> SolutionGraph:
    """Breadth-first closure from the initial state under the transition
    schema, on packed words, followed by one pass that trims and finds the
    SCCs; raises StateBudgetExceeded once more than `max_states` states,
    dead ones included, have been interned.  A deletion whose sides end in
    different constants interns nothing, so it does not count.  An instance
    has one automaton, so the state ids a certificate names are the same in
    every build."""
    eq = ins.equation
    ins.require_quadratic()
    syms = ins.symbols
    sg = ins.mu.target
    char_of, token_of = packing(syms)
    n_const = len(syms.constants)
    alphabet = "".join(token_of)  # the packed symbols, constants first
    consts, var_chars = alphabet[:n_const], alphabet[n_const:]
    var_base = PACK_BASE + n_const  # ord(c) - var_base is the rank of variable c
    var_first = chr(var_base)  # a packed symbol c is a constant exactly when c < var_first
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

    # the initial state counts against the budget and is tested before any
    # exploration structure exists: most instances of a hunt sweep end here
    lhs = "".join(map(char_of.__getitem__, eq.lhs))
    rhs = "".join(map(char_of.__getitem__, eq.rhs))
    images = symbol_imgs[n_const:]
    if max_states < 1:
        raise StateBudgetExceeded(1, max_states)
    diff = [0] * len(alphabet)  # |lhs|_t - |rhs|_t, indexed like the alphabet
    for c in lhs:
        diff[ord(c) - PACK_BASE] += 1
    for c in rhs:
        diff[ord(c) - PACK_BASE] -= 1
    if ((test_images and images_differ(lhs, rhs, images)) or _counts_refuted(diff, n_const)
            or (lhs[-1] != rhs[-1] and lhs[-1] < var_first and rhs[-1] < var_first)):
        return _trim(ins, [], [0], [], [], [])  # no final state

    # a state is (lhs, rhs, images): packed sides, both empty once TRUE, and
    # each variable's image by rank, -1 once inactive; diffs[s] holds its net
    # counts.  States are expanded in id order, so the moves of state s are
    # the entries first[s]:first[s + 1] of dsts and labels.
    keys: list[tuple[str, str, tuple[int, ...]]] = [(lhs, rhs, images)]
    diffs: list[list[int]] = [diff]
    index: dict[tuple[str, str, tuple[int, ...]], int] = {keys[0]: 0}
    first: list[int] = []
    dsts: list[int] = []
    labels: list[str] = []  # "" silent, else variable + replacement
    quot = _left_quotients(sg)

    def move(label, lhs, rhs, images, diff, cancelled, counts) -> None:
        """Record a move of the state being expanded, interning its target
        with net counts diff; a new target is DEAD, the move dropped, when a
        head has `cancelled` and its images differ or `counts` refute it."""
        key = (lhs, rhs, images)
        sid = index.get(key)
        if sid is None:
            if len(index) >= max_states:
                raise StateBudgetExceeded(len(index) + 1, max_states)
            if (cancelled and test_images and images_differ(lhs, rhs, images)
                    or counts and _counts_refuted(diff, n_const)):
                index[key] = DEAD
                return
            sid = index[key] = len(keys)
            keys.append(key)
            diffs.append(diff)
        elif sid == DEAD:
            return
        dsts.append(sid)
        labels.append(label)

    # breadth-first: the loop reads the states that move appends
    for (lhs, rhs, images), diff in zip(keys, diffs):
        first.append(len(dsts))

        if lhs and lhs[0] == rhs[0]:
            # silent head cancellation: the unique outgoing transition
            l, r = lhs[1:], rhs[1:]
            if l and r:
                move("", l, r, images, diff, True, False)
            elif not l and not r:
                move("", "", "", images, diff, False, False)
            continue

        for k, x in enumerate(var_chars):
            mx = images[k]
            if mx == -1 or x in lhs or x in rhs:
                continue
            # only the first active variable that does not occur; the next
            # has its turn once this one is deleted, so firing for every one
            # would add paths but no solutions.  x does not occur: no count changes.
            for a, ma in zip(consts, const_imgs):
                for t in quot.get((ma, mx), ()):
                    kept = images if t == mx else images[:k] + (t,) + images[k + 1:]
                    move(x + a + x, lhs, rhs, kept, diff, False, False)
                if mx == ma:
                    move(x + a, lhs, rhs, images[:k] + (-1,) + images[k + 1:], diff, False, False)
            break
        if not lhs:  # TRUE
            continue

        vals = const_imgs + images
        for this, other, swapped in ((lhs, rhs, False), (rhs, lhs, True)):
            x = this[0]
            k = ord(x) - var_base
            if k < 0:  # a constant head
                continue
            alpha = other[0]
            ia = ord(alpha) - PACK_BASE
            mx, ma = images[k], vals[ia]
            u, v = this[1:], other[1:]
            # x -> alpha x adds c_x to alpha's count, x -> alpha also zeroes
            # x's; with c_x = 0 both children share this state's, which passed
            cx = diff[n_const + k]
            counts = cx != 0
            diff_kept = diff_gone = diff
            if counts:
                diff_kept = diff.copy()
                diff_kept[ia] += cx
                diff_gone = diff_kept.copy()
                diff_gone[n_const + k] = 0

            # keeping transition: x -> alpha x, the opposing head cancels
            ax = alpha + x
            keep_r = v.replace(x, ax)
            if keep_r:
                keep_l = x + u.replace(x, ax)
                pair = (keep_l, keep_r) if not swapped else (keep_r, keep_l)
                for t in quot.get((ma, mx), ()):
                    kept = images if t == mx else images[:k] + (t,) + images[k + 1:]
                    move(x + ax, pair[0], pair[1], kept, diff_kept, True, counts)
            # deleting transition: x -> alpha
            if mx == ma:
                dl, dr = u.replace(x, alpha), v.replace(x, alpha)
                if swapped:
                    dl, dr = dr, dl
                gone = images[:k] + (-1,) + images[k + 1:]
                if dl and dr:
                    # the one move that changes a last letter: sides that now
                    # end in different constants are dead, and not interned
                    l_end, r_end = dl[-1], dr[-1]
                    if l_end == r_end or l_end >= var_first or r_end >= var_first:
                        move(x + alpha, dl, dr, gone, diff_gone, True, counts)
                elif not dl and not dr:
                    move(x + alpha, "", "", gone, diff_gone, False, False)

    none_active = (-1,) * len(var_chars)
    finals = [
        sid for sid, (lhs, rhs, images) in enumerate(keys)
        if images == none_active and (not lhs or (len(lhs) == 1 and lhs == rhs and lhs in consts))
    ]
    first.append(len(dsts))
    del index, diffs  # trimming needs only the explored states and their moves
    return _trim(ins, keys, first, dsts, labels, finals)


DEAD = -1  # index entry of a state refuted by its images or by letter counting


def _counts_refuted(diff: list[int], n_const: int) -> bool:
    """Letter counting on net counts diff (|lhs|_t - |rhs|_t by packed symbol
    t, the n_const constants first): with d_a those of constants and c_X of
    variables, a solution s has d_a + sum_X c_X |s(X)|_a = 0 for every a and
    |s(X)| >= 1, which fails when some d_a != 0 but every c_X = 0; when every
    c_X is even but some d_a is odd; when every c_X >= 0 and some d_a > 0 or
    sum_X c_X > -sum_a d_a (and symmetrically for every c_X <= 0)."""
    # flags instead of lists and any/all: this runs on every instance, most
    # of which are tiny, and on every new state whose counts changed
    c_pos = c_neg = c_odd = d_pos = d_neg = d_odd = False
    for n in diff[:n_const]:
        if n:
            d_pos, d_neg = d_pos or n > 0, d_neg or n < 0
            d_odd = d_odd or n & 1
    for n in diff[n_const:]:
        if n:
            c_pos, c_neg = c_pos or n > 0, c_neg or n < 0
            c_odd = c_odd or n & 1
    if not (c_pos or c_neg):
        return d_pos or d_neg
    if d_odd and not c_odd:
        return True
    if not c_neg:  # sum_X c_X > -sum_a d_a
        return d_pos or sum(diff) > 0
    if not c_pos:
        return d_neg or sum(diff) < 0
    return False


def _trim(ins, keys, first, dsts, labels, finals) -> SolutionGraph:
    """Keep the states from which a final state is reachable, renumbered in
    exploration order, find their SCCs in the same Tarjan pass from the
    initial state 0, and keep their moves as arrays renumbered the same way.
    A DFS child passes its live flag to its parent as it returns; a state
    whose component has closed gets index n, which no longer lowers `low`."""
    if not finals:  # nothing is co-reachable, as when the initial state is refuted
        return SolutionGraph(ins, [], [0], [], [], None, frozenset(), SccData((), ()))
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
    components = tuple(
        (new_id[comp[0]],) if len(comp) == 1 else tuple(sorted(map(new_id.__getitem__, comp)))
        for comp in comps
    )
    scc = SccData(components, tuple(reversed(cyclic)))
    finals_new = frozenset(new_id[f] for f in finals)
    return SolutionGraph(ins, keys, first, dsts, labels, 0, finals_new, scc)


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
            step = {label[0]: label[1]}  # the variable to its replacement
            for v, w in patterns.items():
                patterns[v] = apply_map(w, step)
    return patterns


def extract_solution(g: SolutionGraph, path) -> Solution:
    """Compose the path's labels, first label first, starting from the
    one-symbol word per original variable; checks that the path is an
    accepting run, and raises TheoremViolation if the result does not solve
    the instance."""
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
    sol = Solution.from_dict(compose(g.instance.symbols.variables, labels))
    if not verify_solution(g.instance, sol):
        raise _failed_guarantee(sol)
    return sol


def enumerate_solutions(
    g: SolutionGraph, max_word_len: int, max_states: int = DEFAULT_MAX_STATES
) -> list[Solution]:
    """Every solution whose words all have length <= max_word_len, in the
    oracle's order; the module docstring says why the search ends.  The
    patterns stay packed, one `str` per variable, until the solutions found
    are checked and decoded at the end.  Raises StateBudgetExceeded once
    more than `max_states` (state, patterns) pairs, words and solution
    tuples are held, and TheoremViolation if an accepting path composes to a
    non-solution."""
    if g.initial is None:
        return []
    syms = g.instance.symbols
    variables = syms.variables
    keys, first, dst, labels, finals = g.keys, g.first, g.dst, g.labels, g.finals
    found: set[tuple[str, ...]] = set()
    init = (g.initial, tuple(map(packing(syms)[0].__getitem__, variables)))
    seen = {init}
    stack = [init]
    entered = []  # the pairs at TRUE states with active variables
    while stack:
        sid, patterns = stack.pop()
        if sid in finals:
            found.add(patterns)
        elif not keys[sid][0]:  # TRUE: the walk assigns its active variables
            entered.append((sid, patterns))
            continue
        for e in range(first[sid], first[sid + 1]):
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
                    raise StateBudgetExceeded(len(seen) + 1, max_states, "(state, patterns) pairs")
                seen.add(key)
                stack.append(key)
    if entered:
        _complete_at_true(g, entered, seen, found, max_word_len, max_states)
    if not found:
        return []
    bad = first_non_solution(g.instance, found)
    if bad is not None:
        raise _failed_guarantee(packed_solutions(syms, [bad])[0])
    return packed_solutions(syms, found)


def _complete_at_true(g: SolutionGraph, todo, seen, found, max_word_len, max_states) -> None:
    """Complete the (TRUE state, patterns) pairs of `todo` within
    max_word_len, one active variable at a time, with the words each TRUE
    state gives its first active variable (the module docstring says how
    they are made), adding the tuples that reach a final state to `found`
    and the others to `seen` and `todo`.  Raises StateBudgetExceeded once
    `seen`, the words and the new tuples of `found` hold more than
    `max_states` entries in all."""
    first, dst, labels, finals = g.first, g.dst, g.labels, g.finals
    keeps: dict[int, list[tuple[str, int]]] = {}  # (a, target) of each move x -> a x
    deletions: dict[int, list[tuple[str, int]]] = {}  # (a, target) of each move x -> a
    reach = [sid for sid, _ in todo]
    for t in reach:  # the loop reads the states it appends
        if t in keeps:
            continue
        kept, gone = keeps[t], deletions[t] = [], []
        for e in range(first[t], first[t + 1]):
            lab, s = labels[e], dst[e]
            (kept if len(lab) == 3 else gone).append((lab[1], s))
            if s not in keeps and s not in finals:
                reach.append(s)
    levels: list[dict[int, list[tuple[str, int]]]] = []  # levels[n - 1]: the words of length n
    made = 0  # the words
    budget = max_states + len(found)  # the tuples found so far are in `seen` too
    while todo:
        sid, patterns = todo.pop()
        x = labels[first[sid]][0]
        # a word of length n for x makes a pattern p with c > 0 x's len(p) + c(n - 1) long
        cap = min((max_word_len - len(p) + c) // c for p in patterns if (c := p.count(x)))
        # after a level without words no longer word exists either
        while len(levels) < cap and (not levels or levels[-1]):
            last = levels[-1] if levels else None
            level = {}
            for t, kept in keeps.items():
                ws = deletions[t] if last is None else [(a + w, s) for a, u in kept for w, s in last.get(u, ())]
                if ws:
                    made += len(ws)
                    if len(seen) + len(found) + made > budget:
                        raise StateBudgetExceeded(max_states + 1, max_states, "(state, patterns) pairs")
                    level[t] = ws
            levels.append(level)
        for n in range(min(cap, len(levels))):
            for w, s in levels[n].get(sid, ()):
                nxt = tuple([p.replace(x, w) for p in patterns])
                if s in finals:
                    found.add(nxt)
                elif (s, nxt) not in seen:
                    seen.add((s, nxt))
                    todo.append((s, nxt))
            if len(seen) + len(found) + made > budget:
                raise StateBudgetExceeded(max_states + 1, max_states, "(state, patterns) pairs")


def first_non_solution(ins: Instance, found) -> tuple[str, ...] | None:
    """The first of `found`, tuples of packed words in the order of the
    instance's variables, that does not solve the instance, or None.  The
    conditions are `verify_solution`'s: every word is nonempty and holds
    only constants, which pack first, and folds to its variable's image;
    both sides of every equation are equal under one `str.translate`
    table, and an equation whose sides are the same word is not compared.
    Each distinct word is checked and folded once."""
    syms = ins.symbols
    char_of = packing(syms)[0]
    top = chr(PACK_BASE + len(syms.constants))  # the first variable's character
    image = {char_of[s]: e for s, e in ins.mu.image}
    mul = ins.mu.target.table
    folds = {}  # the image of each distinct nonempty word of constants
    for w in {w for words in found for w in words}:
        if w and max(w) < top:
            f = image[w[0]]
            for c in w[1:]:
                f = mul[f][image[c]]
            folds[w] = f
    wanted = [image[char_of[v]] for v in syms.variables]
    codes = [ord(char_of[v]) for v in syms.variables]
    compared = [("".join(map(char_of.__getitem__, eq.lhs)), "".join(map(char_of.__getitem__, eq.rhs)))
                for eq in ins.equations if eq.lhs != eq.rhs]  # identical sides hold under every assignment
    for words in found:
        if list(map(folds.get, words)) != wanted:  # None for any other word
            return words
        if compared:
            table = dict(zip(codes, words))
            for l, r in compared:
                if l.translate(table) != r.translate(table):
                    return words
    return None


def _failed_guarantee(sol: Solution) -> TheoremViolation:
    """The error for `sol`, composed along an accepting path, when it does
    not solve the instance, against the automaton's guarantee."""
    return TheoremViolation(f"an accepting path composes to {sol.assignment}, "
                            "which does not solve the instance")


def dot_lines(g: SolutionGraph) -> Iterator[str]:
    """The automaton in DOT, one line at a time, each with its newline:
    final states double-circled, silent edges dashed, nodes ordered by state
    id.  Each state and edge is decoded from the arrays as its line is made
    and is not kept, so writing the lines out holds one line at a time."""
    syms = g.instance.symbols
    variables, names = syms.variables, g.instance.mu.target.names
    sep = "" if all(len(t) == 1 for t in syms.all_symbols()) else " "

    def escaped(label: str) -> str:
        return label.replace("\\", "\\\\").replace('"', '\\"')

    yield "digraph solution_graph {\n"
    yield "  rankdir=LR;\n"
    if g.initial is not None:
        yield "  __start [shape=point];\n"
    for sid in range(g.state_count):
        st = g.state(sid)
        eqs = f"{sep.join(st.lhs)} = {sep.join(st.rhs)}" if st.lhs else "(true)"
        mu = dict(st.mu_items)
        vars_part = ",".join(v for v in variables if v in mu) or "-"
        mu_part = ",".join(f"{v}={names[e]}" for v, e in st.mu_items) or "-"
        shape = "doublecircle" if sid in g.finals else "circle"
        label = escaped(f"{eqs} | {vars_part} | {mu_part}")
        yield f'  q{sid} [shape={shape}, label="{label}"];\n'
    if g.initial is not None:
        yield f"  __start -> q{g.initial};\n"
    for sid in range(g.state_count):
        for e in g.edges(sid):
            lab = g.label(e)
            if lab is None:
                yield f'  q{sid} -> q{g.dst[e]} [style=dashed, label="ε"];\n'
            else:
                label = escaped(f"{lab[0]}->{sep.join(lab[1])}")
                yield f'  q{sid} -> q{g.dst[e]} [label="{label}"];\n'
    yield "}\n"
