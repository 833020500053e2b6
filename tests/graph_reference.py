"""The solution graph as `build` made it before its exploration ran on
packed words and pruned dead tails: breadth-first over token tuples, with a
GraphState built on every visit, letter counting by recounting both sides,
and trimming and Tarjan's algorithm over transition objects.  The tests
compare `weq.solution_graph.build` against it, graph for graph.

`reference_enumerate` is `enumerate_solutions` as it was before it assigned
the words of a TRUE state's variables from per-state tables: one search
over (state, patterns) pairs that grows each word one letter per pair.  The
tests compare the two solution lists past the oracle's range.

`accepting_distances` gives the length of a shortest accepting run from each
state, against which the certificate's base path is checked."""

from __future__ import annotations

from collections import deque
from types import SimpleNamespace

from weq.equations import EquationError, apply_map, packed_solutions, packing
from weq.solution_graph import (
    DEFAULT_MAX_STATES, GraphState, GraphTransition, SccData, StateBudgetExceeded, _failed_guarantee,
    _left_quotients, first_non_solution,
)


def abelian_refuted(lhs, rhs, varset):
    """Letter counting by recounting both sides, which `build` did before it
    carried the count differences from state to state; the sides are token
    tuples and varset the active variables.  With d_a = |lhs|_a - |rhs|_a
    for each constant a and c_X = |lhs|_X - |rhs|_X for each variable X,
    the rule of `_counts_refuted`."""
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


def reference_build(ins):
    """The solution graph by breadth-first exploration over token tuples,
    with a GraphState and its sorted images built on every visit and the
    trimmed transitions rebuilt from the explored ones: `build` as it was
    before exploration packed words into strings.  Returns plain lists of
    states, transitions and each state's transition ids."""
    eq = ins.equation
    if not eq.lhs or not eq.rhs:
        raise EquationError("both sides must be nonempty")
    ins.require_quadratic()
    syms = ins.symbols
    sg = ins.mu.target
    sigma = syms.constants
    var_rank = {v: i for i, v in enumerate(syms.variables)}
    quot = _left_quotients(sg)
    const_mu = {a: ins.mu[a] for a in sigma}
    test_images = sg.order > 1
    dead = -1

    def images_differ(lhs, rhs, mu):
        m = {**const_mu, **mu}
        return sg.fold(m[t] for t in lhs) != sg.fold(m[t] for t in rhs)

    states, index, out, transitions = [], {}, [], []
    queue = deque()

    def intern(lhs, rhs, varset, mu, true_, cancelled=False, counts=False):
        st = GraphState(lhs, rhs, tuple(sorted((v, mu[v]) for v in varset)))
        sid = index.get(st)
        if sid is None:
            if not true_ and (
                (cancelled and test_images and images_differ(lhs, rhs, mu))
                or (counts and abelian_refuted(lhs, rhs, varset))
            ):
                index[st] = dead
                return dead
            sid = index[st] = len(states)
            states.append(st)
            out.append([])
            queue.append(sid)
        return sid

    def add(src, dst, label):
        if dst != dead:
            out[src].append(len(transitions))
            transitions.append(GraphTransition(src, dst, label))

    initial = intern(eq.lhs, eq.rhs, frozenset(syms.variables),
                     {v: ins.mu[v] for v in syms.variables}, False, cancelled=True, counts=True)
    while queue:
        sid = queue.popleft()
        st = states[sid]
        varset = frozenset(v for v, _ in st.mu_items)
        mu = dict(st.mu_items)
        mu_of = {**const_mu, **mu}
        if st.lhs and st.lhs[0] == st.rhs[0]:
            l, r = st.lhs[1:], st.rhs[1:]
            if l and r:
                add(sid, intern(l, r, varset, mu, False, cancelled=True), None)
            elif not l and not r:
                add(sid, intern((), (), varset, mu, True), None)
            continue
        occurring = {t for t in st.lhs + st.rhs if t in varset}
        absent = [v for v in sorted(varset, key=var_rank.get) if v not in occurring]
        for x in absent[:1]:
            for a in sigma:
                for t in quot.get((mu_of[a], mu[x]), ()):
                    add(sid, intern(st.lhs, st.rhs, varset, {**mu, x: t}, not st.lhs), (x, (a, x)))
                if mu[x] == mu_of[a]:
                    add(sid, intern(st.lhs, st.rhs, varset - {x}, mu, not st.lhs), (x, (a,)))
        if not st.lhs:
            continue
        for this, other, swapped in ((st.lhs, st.rhs, False), (st.rhs, st.lhs, True)):
            x = this[0]
            if x not in varset:
                continue
            alpha = other[0]
            u, v = this[1:], other[1:]
            counts = u.count(x) + 1 != v.count(x)
            keep_l = (x,) + apply_map(u, {x: (alpha, x)})
            keep_r = apply_map(v, {x: (alpha, x)})
            if keep_r:
                pair = (keep_l, keep_r) if not swapped else (keep_r, keep_l)
                for t in quot.get((mu_of[alpha], mu[x]), ()):
                    add(sid, intern(pair[0], pair[1], varset, {**mu, x: t}, False,
                                    cancelled=True, counts=counts), (x, (alpha, x)))
            if mu[x] == mu_of[alpha]:
                dl, dr = apply_map(u, {x: (alpha,)}), apply_map(v, {x: (alpha,)})
                if swapped:
                    dl, dr = dr, dl
                if dl and dr:
                    add(sid, intern(dl, dr, varset - {x}, mu, False, cancelled=True, counts=counts),
                        (x, (alpha,)))
                elif not dl and not dr:
                    add(sid, intern((), (), varset - {x}, mu, True), (x, (alpha,)))

    finals = frozenset(
        sid for sid, st in enumerate(states)
        if not st.mu_items and (
            not st.lhs
            or (len(st.lhs) == 1 == len(st.rhs) and st.lhs == st.rhs and syms.is_constant(st.lhs[0]))
        )
    )
    co = set(finals)
    rev = [[] for _ in states]
    for t in transitions:
        rev[t.target].append(t.source)
    frontier = deque(co)
    while frontier:
        for p in rev[frontier.popleft()]:
            if p not in co:
                co.add(p)
                frontier.append(p)
    if initial not in co:
        return SimpleNamespace(states=[], transitions=[], out=[], initial=None,
                               finals=frozenset(), scc=SccData((), ()))
    keep = sorted(co)
    remap = {old: new for new, old in enumerate(keep)}
    new_out = [[] for _ in keep]
    new_transitions = []
    for old in keep:
        for tid in out[old]:
            t = transitions[tid]
            if t.target in co:
                new_out[remap[old]].append(len(new_transitions))
                new_transitions.append(GraphTransition(remap[t.source], remap[t.target], t.label))
    g = SimpleNamespace(
        states=[states[old] for old in keep], transitions=new_transitions, out=new_out,
        initial=remap[initial], finals=frozenset(remap[f] for f in finals if f in co),
    )
    g.scc = reference_tarjan(g)
    return g


def reference_tarjan(g):
    """Tarjan's algorithm over the transition objects, components in
    topological order."""
    n = len(g.states)
    index_of, low, on_stack = [-1] * n, [0] * n, [False] * n
    stack, comps = [], []
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
            for tid in it:
                w = g.transitions[tid].target
                if index_of[w] == -1:
                    index_of[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(g.out[w])))
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index_of[w])
            else:
                work.pop()
                if work:
                    low[work[-1][0]] = min(low[work[-1][0]], low[v])
                if low[v] == index_of[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        comp.append(w)
                        if w == v:
                            break
                    comps.append(tuple(sorted(comp)))
    comps.reverse()
    comp_of = [0] * n
    for ci, comp in enumerate(comps):
        for s in comp:
            comp_of[s] = ci
    has_tr = [False] * len(comps)
    for t in g.transitions:
        if comp_of[t.source] == comp_of[t.target]:
            has_tr[comp_of[t.source]] = True
    return SccData(tuple(comps), tuple(has_tr))


def accepting_distances(g):
    """The fewest edges from each state of `g` to a final state, by one
    breadth-first search backwards from all the final states at once."""
    into = [[] for _ in range(g.state_count)]
    for s in range(g.state_count):
        for e in g.edges(s):
            into[g.dst[e]].append(s)
    dist = dict.fromkeys(g.finals, 0)
    queue = deque(g.finals)
    while queue:
        t = queue.popleft()
        for s in into[t]:
            if s not in dist:
                dist[s] = dist[t] + 1
                queue.append(s)
    return dist


def assert_same_graph(g, ref):
    assert [g.state(sid) for sid in range(g.state_count)] == ref.states
    assert g.transitions == ref.transitions
    assert g.out == ref.out
    assert g.initial == ref.initial
    assert g.finals == ref.finals
    assert g.scc == ref.scc


def reference_enumerate(g, max_word_len, max_states=DEFAULT_MAX_STATES):
    """Every solution whose words all have length <= max_word_len, in the
    oracle's order, by a depth-first search over (state, patterns) pairs
    that prunes a move pushing a word past the bound."""
    if g.initial is None:
        return []
    syms = g.instance.symbols
    variables = syms.variables
    first, dst, labels, finals = g.first, g.dst, g.labels, g.finals
    found: set[tuple[str, ...]] = set()
    init = (g.initial, tuple(map(packing(syms)[0].__getitem__, variables)))
    seen = {init}
    stack = [init]
    while stack:
        sid, patterns = stack.pop()
        if sid in finals:
            found.add(patterns)
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
    if not found:
        return []
    bad = first_non_solution(g.instance, found)
    if bad is not None:
        raise _failed_guarantee(packed_solutions(syms, [bad])[0])
    return packed_solutions(syms, found)
