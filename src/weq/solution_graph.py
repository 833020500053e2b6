"""State-space automaton for quadratic instances.

States are equations together with the set of still-active variables and the
current constraint images; transitions are labeled by single-variable
substitutions (or are silent head cancellations).  Accepting paths, read as
composed substitutions, enumerate exactly the solution set; a cycle in the
trimmed automaton witnesses infinitude.

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
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from .equations import EquationError, Instance, Solution, Word, require_solution, substitute
from .semigroup import FiniteSemigroup


class EmptySide(EquationError):
    pass


class NotAccepting(EquationError):
    """The given path is not an accepting run of the automaton."""


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

    def label_str(self) -> str:
        if self.label is None:
            return "eps"
        var, repl = self.label
        return f"{var}->{''.join(repl)}"


@dataclass
class SccData:
    components: tuple[tuple[int, ...], ...]  # topological order
    comp_of: tuple[int, ...]
    has_transition: tuple[bool, ...]


@dataclass
class SolutionGraph:
    instance: Instance
    states: list[GraphState]
    transitions: list[GraphTransition]
    out: list[list[int]]
    initial: int | None
    finals: frozenset[int]
    trimmed: bool
    scc: SccData
    n0: int
    faithful: bool = False

    @property
    def state_count(self) -> int:
        return len(self.states)

    @property
    def transition_count(self) -> int:
        return len(self.transitions)

    def out_transitions(self, sid: int):
        return [self.transitions[t] for t in self.out[sid]]

    def state_mu(self, sid: int) -> dict[str, int]:
        """Constraint images at a state: original constants plus the state's
        active-variable images."""
        mu = {a: self.instance.mu[a] for a in self.instance.symbols.constants}
        mu.update(self.states[sid].mu_items)
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


def build(ins: Instance, faithful: bool = False) -> SolutionGraph:
    """Breadth-first closure from the initial state under the transition
    schema, followed by trimming and SCC computation."""
    eq = ins.equation
    if not eq.lhs or not eq.rhs:
        raise EmptySide("both sides must be nonempty")
    ins.require_quadratic()
    syms = ins.symbols
    sg = ins.mu.target
    sigma = syms.constants
    var_rank = {v: i for i, v in enumerate(syms.variables)}
    quot = _left_quotients(sg)
    n0 = len(eq.lhs) + len(eq.rhs)
    const_mu = {a: ins.mu[a] for a in sigma}
    table = sg.table
    test_images = sg.order > 1

    def images_differ(lhs: Word, rhs: Word, mu: dict[str, int]) -> bool:
        m = {**const_mu, **mu}
        left = m[lhs[0]]
        for t in lhs[1:]:
            left = table[left][m[t]]
        right = m[rhs[0]]
        for t in rhs[1:]:
            right = table[right][m[t]]
        return left != right

    states: list[GraphState] = []
    index: dict[GraphState, int] = {}
    out: list[list[int]] = []
    transitions: list[GraphTransition] = []

    def intern(
        lhs: Word, rhs: Word, varset: frozenset[str], mu: dict[str, int], true_: bool,
        cancelled: bool = False, counts: bool = False,
    ) -> int:
        """Id of the state, adding it on first sight; DEAD when, on first
        sight of a non-true state, a head has `cancelled` on the way and the
        sides' images differ, or `counts` is set and letter counting
        refutes it."""
        st = GraphState(lhs, rhs, varset, tuple(sorted((v, mu[v]) for v in varset)), true_)
        sid = index.get(st)
        if sid is None:
            if not true_ and (
                (cancelled and test_images and images_differ(lhs, rhs, mu))
                or (counts and _abelian_refuted(lhs, rhs, varset))
            ):
                index[st] = DEAD
                return DEAD
            sid = len(states)
            index[st] = sid
            states.append(st)
            out.append([])
            queue.append(sid)
        return sid

    def add(src: int, dst: int, label: Label) -> None:
        if dst == DEAD:
            return
        tid = len(transitions)
        transitions.append(GraphTransition(src, dst, label))
        out[src].append(tid)

    init_vars = frozenset(syms.variables)
    init_mu = {v: ins.mu[v] for v in syms.variables}
    queue: deque[int] = deque()
    initial = intern(eq.lhs, eq.rhs, init_vars, init_mu, False, cancelled=True, counts=True)

    while queue:
        sid = queue.popleft()
        st = states[sid]
        varset = st.varset
        mu = dict(st.mu_items)
        mu_of = {a: ins.mu[a] for a in sigma}
        mu_of.update(mu)

        if not st.is_true and st.lhs[0] == st.rhs[0]:
            # silent head cancellation: the unique outgoing transition
            l, r = st.lhs[1:], st.rhs[1:]
            if l and r:
                add(sid, intern(l, r, varset, mu, False, cancelled=True), None)
            elif not l and not r:
                add(sid, intern((), (), varset, mu, True), None)
            continue

        occurring = {t for t in st.lhs + st.rhs if t in varset}
        absent = [v for v in sorted(varset, key=var_rank.get) if v not in occurring]
        if absent and not faithful:
            absent = absent[:1]
        for x in absent:
            for a in sigma:
                for t in quot.get((mu_of[a], mu[x]), ()):
                    mu2 = dict(mu)
                    mu2[x] = t
                    add(sid, intern(st.lhs, st.rhs, varset, mu2, st.is_true), (x, (a, x)))
                if mu[x] == mu_of[a]:
                    add(
                        sid,
                        intern(st.lhs, st.rhs, varset - {x}, mu, st.is_true),
                        (x, (a,)),
                    )
        if st.is_true:
            continue

        def head_rules(this: Word, other: Word, swapped: bool) -> None:
            x = this[0]
            if x not in varset:
                return
            alpha = other[0]
            u, v = this[1:], other[1:]
            # x -> alpha x and x -> alpha add c_x = |this|_x - |other|_x to
            # the count difference of alpha; with c_x = 0 the children have
            # the letter counts of this state, which passed the test
            counts = u.count(x) + 1 != v.count(x)

            # keeping transition: x -> alpha x, the opposing head cancels
            keep_l = (x,) + substitute(u, x, (alpha, x))
            keep_r = substitute(v, x, (alpha, x))
            if keep_r:
                pair = (keep_l, keep_r) if not swapped else (keep_r, keep_l)
                for t in quot.get((mu_of[alpha], mu[x]), ()):
                    mu2 = dict(mu)
                    mu2[x] = t
                    add(
                        sid,
                        intern(pair[0], pair[1], varset, mu2, False, cancelled=True, counts=counts),
                        (x, (alpha, x)),
                    )
            # deleting transition: x -> alpha
            if mu[x] == mu_of[alpha]:
                dl, dr = substitute(u, x, (alpha,)), substitute(v, x, (alpha,))
                if swapped:
                    dl, dr = dr, dl
                if dl and dr:
                    add(
                        sid,
                        intern(dl, dr, varset - {x}, mu, False, cancelled=True, counts=counts),
                        (x, (alpha,)),
                    )
                elif not dl and not dr:
                    add(sid, intern((), (), varset - {x}, mu, True), (x, (alpha,)))

        head_rules(st.lhs, st.rhs, swapped=False)
        head_rules(st.rhs, st.lhs, swapped=True)

    finals = frozenset(
        sid for sid, st in enumerate(states)
        if not st.varset and (
            st.is_true
            or (len(st.lhs) == 1 == len(st.rhs) and st.lhs == st.rhs and syms.is_constant(st.lhs[0]))
        )
    )
    return _trim(ins, states, transitions, out, initial, finals, n0, faithful)


DEAD = -1  # index entry of a state refuted by its images or by letter counting


def _abelian_refuted(lhs: Word, rhs: Word, varset: frozenset[str]) -> bool:
    """Whether letter counting alone shows that the equation has no solution
    in nonempty words.  With d_a = |lhs|_a - |rhs|_a for each constant a and
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


def _trim(ins, states, transitions, out, initial, finals, n0, faithful) -> SolutionGraph:
    co = set(finals)
    if co:  # without finals nothing is co-reachable, as when the initial state is DEAD
        rev: list[list[int]] = [[] for _ in states]
        for t in transitions:
            rev[t.target].append(t.source)
        frontier = deque(co)
        while frontier:
            s = frontier.popleft()
            for p in rev[s]:
                if p not in co:
                    co.add(p)
                    frontier.append(p)
    if initial not in co:
        empty = SccData((), (), ())
        return SolutionGraph(ins, [], [], [], None, frozenset(), True, empty, n0, faithful)
    keep = sorted(co)  # all states are forward-reachable by construction
    remap = {old: new for new, old in enumerate(keep)}
    new_states = [states[old] for old in keep]
    new_out: list[list[int]] = [[] for _ in keep]
    new_transitions: list[GraphTransition] = []
    for old in keep:
        for tid in out[old]:
            t = transitions[tid]
            if t.target in co:
                new_out[remap[old]].append(len(new_transitions))
                new_transitions.append(GraphTransition(remap[t.source], remap[t.target], t.label))
    g = SolutionGraph(
        ins, new_states, new_transitions, new_out,
        remap[initial], frozenset(remap[f] for f in finals if f in co),
        True, SccData((), (), ()), n0, faithful,
    )
    g.scc = _tarjan(g)
    return g


def _tarjan(g: SolutionGraph) -> SccData:
    n = len(g.states)
    index_of = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    comps: list[tuple[int, ...]] = []
    counter = 0
    for root in range(n):
        if index_of[root] != -1:
            continue
        work = [(root, iter(g.out[root]))]
        index_of[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            v, it = work[-1]
            advanced = False
            for tid in it:
                w = g.transitions[tid].target
                if index_of[w] == -1:
                    index_of[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(g.out[w])))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index_of[w])
            if advanced:
                continue
            work.pop()
            if work:
                pv = work[-1][0]
                low[pv] = min(low[pv], low[v])
            if low[v] == index_of[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                comps.append(tuple(sorted(comp)))
    comps.reverse()  # topological order
    comp_of = [0] * n
    for ci, comp in enumerate(comps):
        for s in comp:
            comp_of[s] = ci
    has_tr = [False] * len(comps)
    for t in g.transitions:
        if comp_of[t.source] == comp_of[t.target]:
            has_tr[comp_of[t.source]] = True
    return SccData(tuple(comps), tuple(comp_of), tuple(has_tr))


def is_solvable(g: SolutionGraph) -> bool:
    return g.initial is not None


def has_infinitely_many(g: SolutionGraph) -> bool:
    return any(g.scc.has_transition)


def _apply_label(patterns: dict[str, Word], label: Label) -> dict[str, Word]:
    if label is None:
        return patterns
    var, repl = label
    return {k: substitute(w, var, repl) for k, w in patterns.items()}


def extract_solution(g: SolutionGraph, path) -> Solution:
    """Compose the path's labels, first label first, starting from the
    one-symbol word per original variable; checks that the path is an
    accepting run and that the result solves the instance."""
    if g.initial is None:
        raise NotAccepting("the automaton accepts nothing")
    path = list(path)
    at = g.initial
    patterns = {v: (v,) for v in g.instance.symbols.variables}
    for tid in path:
        if not 0 <= tid < len(g.transitions):
            raise NotAccepting(f"no transition {tid}")
        t = g.transitions[tid]
        if t.source != at:
            raise NotAccepting(f"transition {tid} does not start at state {at}")
        patterns = _apply_label(patterns, t.label)
        at = t.target
    if at not in g.finals:
        raise NotAccepting(f"path ends at non-final state {at}")
    syms = g.instance.symbols
    for v, w in patterns.items():
        if not w or any(not syms.is_constant(tok) for tok in w):
            raise NotAccepting(f"variable {v!r} is not fully resolved by the path")
    sol = Solution.from_dict(patterns)
    require_solution(g.instance, sol)
    return sol


def enumerate_solutions(
    g: SolutionGraph,
    max_word_len: int | None = None,
    max_path_len: int | None = None,
) -> list[Solution]:
    """Depth-bounded traversal of accepting paths.  With a word bound B and
    path bound n0*(B+1), every solution whose words all have length <= B is
    produced."""
    if max_word_len is None and max_path_len is None:
        raise ValueError("a word bound or a path bound is required")
    if max_path_len is None:
        max_path_len = g.n0 * (max_word_len + 1)
    if g.initial is None:
        return []
    syms = g.instance.symbols
    found: set[Solution] = set()
    seen: set[tuple] = set()
    init_patterns = tuple((v, (v,)) for v in syms.variables)

    stack = [(g.initial, init_patterns, max_path_len)]
    while stack:
        sid, patterns, depth = stack.pop()
        key = (sid, patterns, depth)
        if key in seen:
            continue
        seen.add(key)
        pat_map = dict(patterns)
        if sid in g.finals:
            if all(all(syms.is_constant(t) for t in w) for w in pat_map.values()):
                sol = Solution.from_dict(pat_map)
                if max_word_len is None or all(len(w) <= max_word_len for w in pat_map.values()):
                    if sol not in found:
                        require_solution(g.instance, sol)
                        found.add(sol)
        if depth == 0:
            continue
        for tid in g.out[sid]:
            t = g.transitions[tid]
            nxt = _apply_label(pat_map, t.label)
            if max_word_len is not None and any(len(w) > max_word_len for w in nxt.values()):
                continue
            stack.append((t.target, tuple(sorted(nxt.items())), depth - 1))
    return sorted(found, key=lambda s: s.sort_key(syms))


def export_dot(g: SolutionGraph) -> str:
    """Deterministic DOT rendering: final states double-circled, silent edges
    dashed, nodes ordered by state id."""
    syms = g.instance.symbols
    compact = all(len(t) == 1 for t in syms.all_symbols())

    def word_str(w: Word) -> str:
        s = "".join(w) if compact else " ".join(w)
        return s.replace("\\", "\\\\").replace('"', '\\"')

    lines = ["digraph solution_graph {", "  rankdir=LR;"]
    if g.initial is not None:
        lines.append("  __start [shape=point];")
    for sid, st in enumerate(g.states):
        if st.is_true:
            eqs = "(true)"
        else:
            eqs = f"{word_str(st.lhs)} = {word_str(st.rhs)}"
        vars_part = ",".join(sorted(st.varset, key=syms.variable_order)) or "-"
        mu_part = ",".join(
            f"{v}={g.instance.mu.target.names[e]}" for v, e in st.mu_items
        ) or "-"
        shape = "doublecircle" if sid in g.finals else "circle"
        label = f"{eqs} | {vars_part} | {mu_part}"
        lines.append(f'  q{sid} [shape={shape}, label="{label}"];')
    if g.initial is not None:
        lines.append(f"  __start -> q{g.initial};")
    for t in g.transitions:
        if t.label is None:
            lines.append(f'  q{t.source} -> q{t.target} [style=dashed, label="ε"];')
        else:
            var, repl = t.label
            lines.append(f'  q{t.source} -> q{t.target} [label="{var}->{word_str(repl)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
