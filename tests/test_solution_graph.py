import hashlib
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from collections import deque
from types import SimpleNamespace

from conftest import make_instance
from weq.equations import (
    ConstraintMorphism,
    Instance,
    NotQuadratic,
    Solution,
    SymbolTable,
    WordEquation,
    parse_instance,
    substitute,
)
from weq.hunt import sweep_instances
from weq.oracle import brute_solutions
from weq.periodicity import instantiate, pumping_certificate
from weq.semigroup import builtin, from_table
from weq.solution_graph import (
    EmptySide,
    GraphState,
    GraphTransition,
    NotAccepting,
    SccData,
    StateBudgetExceeded,
    _abelian_refuted,
    _left_quotients,
    build,
    enumerate_solutions,
    export_dot,
    extract_solution,
    has_infinitely_many,
    is_solvable,
)


def state_strs(g):
    return {st.equation_str() for st in g.states}


def label_str(t):
    return "eps" if t.label is None else f"{t.label[0]}->{''.join(t.label[1])}"


def find_state(g, s):
    for i, st in enumerate(g.states):
        if st.equation_str() == s:
            return i
    raise AssertionError(f"no state {s!r}")


class TestBuild:
    def test_xa_ax_cycle_and_exit(self):
        g = build(make_instance("Xa=aX"))
        sid = find_state(g, "X a = a X")
        labels = {label_str(g.transitions[t]): g.transitions[t].target for t in g.out[sid]}
        assert labels.get("X->aX") == sid  # self-reachable cycle
        assert "X->a" in labels
        assert has_infinitely_many(g)

    def test_n2_constrained_no_keeping_transition(self):
        ins = make_instance("Xa=aX", constants="a", sg=builtin("n2"),
                            mapping={"a": "x", "X": "x"})
        g = build(ins)
        sid = g.initial
        labels = [label_str(g.transitions[t]) for t in g.out[sid]]
        assert labels == ["X->a"]
        assert not has_infinitely_many(g)

    def test_rejects_non_quadratic(self):
        with pytest.raises(NotQuadratic):
            build(make_instance("XXa=aXb"))

    def test_not_quadratic_names_the_first_variable(self):
        # X and Y each occur three times across the two equations
        ins = make_instance(["XaY=aX", "XbY=bY"])
        with pytest.raises(NotQuadratic, match="^variable 'X' occurs 3 times$"):
            ins.require_quadratic()

    def test_rejects_system(self):
        from weq.equations import EquationError
        with pytest.raises(EquationError):
            build(make_instance(["Xa=aX", "Xb=bX"]))

    def test_lengths_never_increase(self):
        for spec in ("XabY=YbaX", "Xa=aX", "XY=YX", "XaY=YbX"):
            ins = make_instance(spec)
            g = build(ins)
            n0 = len(ins.equation.lhs) + len(ins.equation.rhs)
            for t in g.transitions:
                src = g.states[t.source]
                dst = g.states[t.target]
                ls = len(src.lhs) + len(src.rhs)
                ld = len(dst.lhs) + len(dst.rhs)
                assert ls <= n0 and ld <= ls
                if t.label is None:
                    assert ld < ls

    def test_quadraticity_preserved(self):
        for spec in ("XabY=YbaX", "XY=YX", "XXa=ab"):
            g = build(make_instance(spec))
            for st in g.states:
                body = st.lhs + st.rhs
                for v in st.varset:
                    assert body.count(v) <= 2


class TestVerdicts:
    def test_solvable(self):
        assert is_solvable(build(make_instance("Xa=aX")))
        assert not is_solvable(build(make_instance("Xa=bX")))
        assert is_solvable(build(make_instance("XabY=YbaX")))

    def test_infinitude(self):
        assert has_infinitely_many(build(make_instance("Xa=aX")))
        assert not has_infinitely_many(build(make_instance("ab=ab")))
        ins = make_instance("Xa=aX", constants="a", sg=builtin("n2"),
                            mapping={"a": "x", "X": "x"})
        assert not has_infinitely_many(build(ins))

    def test_no_variable_ground(self):
        g = build(make_instance("ab=ab"))
        assert is_solvable(g)
        assert enumerate_solutions(g, max_word_len=2) == [Solution.from_dict({})]

    def test_true_marker_equation(self):
        g = build(make_instance("X=Y"))
        assert is_solvable(g) and has_infinitely_many(g)
        got = enumerate_solutions(g, max_word_len=2)
        want = list(brute_solutions(make_instance("X=Y"), 2).solutions)
        assert got == want


class TestExtract:
    def test_shortest_and_longer_paths(self):
        g = build(make_instance("Xa=aX"))
        sid = g.initial
        loop = next(t for t in g.out[sid] if g.transitions[t].label == ("X", ("a", "X")))
        exit_ = next(t for t in g.out[sid] if g.transitions[t].label == ("X", ("a",)))
        after = g.transitions[exit_].target
        eps = [t for t in g.out[after] if g.transitions[t].label is None]
        assert extract_solution(g, [exit_] + eps[:0]).value("X") == ("a",)
        sol = extract_solution(g, [loop, exit_])
        assert sol.value("X") == ("a", "a")

    def test_rejects_bad_paths(self):
        g = build(make_instance("Xa=aX"))
        with pytest.raises(NotAccepting):
            extract_solution(g, [10**6])
        loop = next(
            t for t in g.out[g.initial]
            if g.transitions[t].label == ("X", ("a", "X"))
        )
        with pytest.raises(NotAccepting):
            extract_solution(g, [loop])  # ends at a non-final state

    def test_fig1_style_path(self):
        ins = make_instance("XabY=YbaX")
        g = build(ins)
        sols = enumerate_solutions(g, max_word_len=3)
        assert Solution.from_dict({"X": tuple("aba"), "Y": ("a",)}) in sols


class TestEnumerate:
    @pytest.mark.parametrize("spec", [
        "Xa=aX", "XabY=YbaX", "XY=YX", "XaY=YbX", "Xab=baX", "XY=ab",
    ])
    def test_matches_oracle(self, spec):
        ins = make_instance(spec)
        g = build(ins)
        for bound in (2, 3, 4):
            got = enumerate_solutions(g, max_word_len=bound)
            want = list(brute_solutions(ins, bound).solutions)
            assert got == want, (spec, bound)

    def test_unsolvable_empty(self):
        assert enumerate_solutions(build(make_instance("Xa=bX")), max_word_len=4) == []

    def test_needs_some_bound(self):
        with pytest.raises(TypeError):
            enumerate_solutions(build(make_instance("Xa=aX")))

    def test_faithful_mode_agrees(self):
        # scheduling restriction does not change the language
        for spec in ("XY=ab", "X=Y", "XaY=YaX"):
            ins = make_instance(spec)
            canonical = enumerate_solutions(build(ins), max_word_len=3)
            faithful = enumerate_solutions(build(ins, faithful=True), max_word_len=3)
            assert canonical == faithful


class TestDot:
    def test_deterministic(self):
        ins = make_instance("XabY=YbaX")
        assert export_dot(build(ins)) == export_dot(build(ins))

    def test_contents(self):
        g = build(make_instance("Xa=aX"))
        dot = export_dot(g)
        assert "X->aX" in dot
        assert "doublecircle" in dot
        assert "style=dashed" in dot
        assert dot.startswith("digraph")

    def test_single_state_graph(self):
        g = build(make_instance("a=a", variables=""))
        dot = export_dot(g)
        assert dot.count("label=") >= 1

    def test_names_are_escaped(self):
        """Quotes and backslashes in variable and element names are escaped
        as in words, so every label is one well-formed DOT string."""
        syms = SymbolTable(("a",), ('X"',))
        eq = WordEquation(('X"', "a"), ("a", 'X"'))
        sg = from_table(("\\",), [[0]])
        ins = Instance((eq,), ConstraintMorphism.from_dict(syms, sg, {"a": 0, 'X"': 0}))
        lines = [line for line in export_dot(build(ins)).splitlines() if "label=" in line]
        assert len(lines) > 2
        for line in lines:
            assert re.search(r'label="(?:[^"\\]|\\.)*"\];$', line), line
        assert 'label="X\\" a = a X\\" | X\\" | X\\"=\\\\"' in lines[0]


def long_cycle(k):
    return make_instance("X" + "a" * k + "b=" + "a" * k + "bX")


FIVE_VARIABLES = parse_instance(
    "constants a b\nvariables X0 X1 X2 X3 X4\n"
    "equation b X2 X3 X4 X3 b X0 b b = X1 X0 X2 X4 X1\nsemigroup builtin:trivial\n"
)


def test_hot_path_stays_lazy():
    """The verdicts, a certificate and enumeration decode no more than a few
    states of the packed automaton."""
    g = build(FIVE_VARIABLES)
    assert is_solvable(g) and has_infinitely_many(g)
    cert = pumping_certificate(FIVE_VARIABLES, graph=g)
    for m in range(3):
        instantiate(cert, FIVE_VARIABLES, m)
    assert enumerate_solutions(g, 2) == list(brute_solutions(FIVE_VARIABLES, 2).solutions)
    assert not {"states", "transitions", "out"} & set(vars(g))
    assert len(g._decoded) < 100


class TestStateBudget:
    # FIVE_VARIABLES interns 7,377 states, dead ones included, and keeps 4,591
    def test_exact_budget_suffices(self):
        assert build(FIVE_VARIABLES, max_states=7377).state_count == 4591

    def test_budget_error_carries_the_count(self):
        with pytest.raises(StateBudgetExceeded) as exc:
            build(FIVE_VARIABLES, max_states=7376)
        assert (exc.value.count, exc.value.budget) == (7377, 7376)


def odd_tokens():
    """XabY=YbaX over tokens with the characters DOT labels use as
    separators and names of several characters, one a prefix of another;
    two absent variables, and variable names whose sorted order is not
    their declared order."""
    syms = SymbolTable(("#", ",", "ab", "a"), ("X1", "->", "Yy", "z,#"))
    eq = WordEquation(("->", "#", "ab", "X1"), ("X1", "ab", "#", "->"))
    images = {"#": 1, ",": 0, "ab": 0, "a": 1, "->": 1, "X1": 0, "Yy": 1, "z,#": 0}
    return Instance((eq,), ConstraintMorphism.from_dict(syms, builtin("z2"), images))


def dead_cycles():
    """XY=YX over n2 with every symbol at 0: of its 13 explored states, two
    have self-loops but reach no final state, and 6 are kept."""
    return make_instance("XY=YX", sg=builtin("n2"), mapping={s: "0" for s in "abXY"})


class TestAbelianFilter:
    """Pruning states refuted by letter counting keeps the automaton."""

    # sha256 of export_dot, computed with every reachable state explored
    # before trimming (no letter-count test)
    @pytest.mark.parametrize("ins, faithful, digest", [
        pytest.param(FIVE_VARIABLES, False,
                     "394bcb190d096f8d78c633cfa6331e6f2d47bb7b999d0a4799ac6b234a042807",
                     id="five-variables"),
        pytest.param(FIVE_VARIABLES, True,
                     "9dc72b5cece331f74235a53183f8bd0a2c7b2489c976911a354daef15b140b25",
                     id="five-variables-faithful"),
        pytest.param(long_cycle(20), False,
                     "e7a863b96e61ea1b3feb18fe2b21e64af47f517dbb50198525864ef5f54102a9",
                     id="long-cycle-20"),
        pytest.param(long_cycle(20), True,
                     "e7a863b96e61ea1b3feb18fe2b21e64af47f517dbb50198525864ef5f54102a9",
                     id="long-cycle-20-faithful"),
        pytest.param(make_instance("XabY=YbaX"), False,
                     "86f79865ed7301f3ac8c0dfad33d4630164ff8ff123ad531cbde57c40a12d0da",
                     id="XabY=YbaX"),
        pytest.param(make_instance("XabY=YbaX"), True,
                     "86f79865ed7301f3ac8c0dfad33d4630164ff8ff123ad531cbde57c40a12d0da",
                     id="XabY=YbaX-faithful"),
        pytest.param(make_instance("XaY=YaX", sg=builtin("z2"),
                                   mapping={"a": "1", "b": "0", "X": "1", "Y": "0"}), False,
                     "8ae345c8cda6db321e6a552337c20ce967beb84344506f05ef14d76cfaa7424a",
                     id="XaY=YaX-z2"),
        pytest.param(make_instance("XYb=bYX", sg=builtin("rz2"),
                                   mapping={"a": "a", "b": "b", "X": "b", "Y": "a"}), True,
                     "260720c4eebee6596ac6fe0985531c21b8f0e92b96c7045adae5367be32b8618",
                     id="XYb=bYX-rz2-faithful"),
        pytest.param(make_instance("XaY=YbX", sg=builtin("n2"),
                                   mapping={"a": "x", "b": "x", "X": "0", "Y": "x"}), False,
                     "2c6855c6e47c9a8b5df5bb7fc4f76c2e9d12892686afad2b97da0ce8d0f7272d",
                     id="XaY=YbX-n2-empty"),
        pytest.param(make_instance("XaY=YaX", variables="XYZ"), False,
                     "258fc4e1ec0f3a33416e3cf049624bc926e84e73bce77e7b29a9149fbd047dc4",
                     id="XaY=YaX-absent-Z"),
        pytest.param(make_instance("XaY=YaX", variables="XYZ"), True,
                     "dda6c2275471fe4163e8d90244d366a190b3f1600fa32d639b9f3fe68d5f8852",
                     id="XaY=YaX-absent-Z-faithful"),
        # computed with tuple words, before exploration packed them
        pytest.param(odd_tokens(), False,
                     "7b23e7bcaf35303bd5de69fe76a6d8c912b3f4130378305489784f35f5f7a1a3",
                     id="odd-tokens"),
        pytest.param(odd_tokens(), True,
                     "4fb4b7cf3b936be60eb6aa63605cd11d2f51cb77f03e5b5b7e3581fa15756b09",
                     id="odd-tokens-faithful"),
    ])
    def test_dot_unchanged(self, ins, faithful, digest):
        dot = export_dot(build(ins, faithful=faithful))
        assert hashlib.sha256(dot.encode()).hexdigest() == digest

    @pytest.mark.parametrize("spec, refuted", [
        ("Xa=bX", True),     # counts of a and b differ, X cancels
        ("XaY=YbX", True),
        ("XXa=b", True),     # c_X = 2 > 0 and d_a = 1 > 0
        ("XY=Y", True),      # c_X = 1 > 0 = -(sum of d)
        ("XX=aaa", True),    # every c even, d_a odd
        ("XX=YaY", True),
        ("XabY=YbaX", False),
        ("XY=aab", False),
        ("XaX=aYb", False),  # d_b = -1, c_X = 2, c_Y = -1: signs mixed
    ])
    def test_refutation_rule(self, spec, refuted):
        ins = make_instance(spec)
        eq = ins.equation
        assert _abelian_refuted(eq.lhs, eq.rhs, frozenset(ins.symbols.variables)) == refuted

    def test_six_variable_instance_refuted_at_the_start(self):
        ins = parse_instance(
            "constants a b\nvariables X0 X1 X2 X3 X4 X5\n"
            "equation X0 X4 X0 X1 b X4 X5 X5 = X2 X2 X3 X1 a X3\nsemigroup builtin:trivial\n"
        )
        eq = ins.equation
        assert _abelian_refuted(eq.lhs, eq.rhs, frozenset(ins.symbols.variables))
        assert not is_solvable(build(ins))


@st.composite
def quadratic_equations(draw, max_vars=4):
    """Up to `max_vars` (at most four) variables, each occurring once or
    twice, plus up to four constants, shuffled and cut into two nonempty
    sides."""
    variables = "WXYZ"[:draw(st.integers(1, max_vars))]
    tokens = [v for v in variables for _ in range(draw(st.integers(1, 2)))]
    tokens += draw(st.lists(st.sampled_from("ab"), max_size=4))
    assume(len(tokens) >= 2)
    word = "".join(draw(st.permutations(tokens)))
    cut = draw(st.integers(1, len(word) - 1))
    return word[:cut] + "=" + word[cut:], variables


@settings(max_examples=150, deadline=None)
@given(quadratic_equations())
def test_refuted_initial_state_has_no_solution(case):
    spec, variables = case
    ins = make_instance(spec, variables=variables)
    eq = ins.equation
    if _abelian_refuted(eq.lhs, eq.rhs, frozenset(variables)):
        assert brute_solutions(ins, 4).solutions == ()
        assert not is_solvable(build(ins))


class TestImageFilter:
    """Pruning states whose sides have different constraint images keeps
    the automaton."""

    # sha256 of the concatenated export_dot of every instance of the sweep,
    # computed with no image test; both settings give the same graphs here
    @pytest.mark.parametrize("faithful", [False, True])
    def test_b2_sweep_dot_unchanged(self, faithful):
        h = hashlib.sha256()
        for ins in sweep_instances(builtin("b2"), 2, 2, 3):
            h.update(export_dot(build(ins, faithful=faithful)).encode())
        assert h.hexdigest() == "7322ef843227d54180ac370e8d35d78c3eecb1c06dbb0e196d37e7f9167476d2"


@settings(max_examples=150, deadline=None)
@given(quadratic_equations(), st.sampled_from(("z2", "n2", "rz2", "b2", "lz2")), st.data())
def test_initial_images_that_differ_leave_no_solution(case, target, data):
    spec, variables = case
    sg = builtin(target)
    base = make_instance(spec, variables=variables)
    images = {s: data.draw(st.integers(0, sg.order - 1)) for s in base.symbols.all_symbols()}
    ins = Instance(base.equations, ConstraintMorphism.from_dict(base.symbols, sg, images))
    eq = ins.equation
    assume(ins.mu.eval(eq.lhs) != ins.mu.eval(eq.rhs))
    assert brute_solutions(ins, 4).solutions == ()
    assert not is_solvable(build(ins))


def reference_build(ins, faithful=False):
    """The solution graph by breadth-first exploration over token tuples,
    with a GraphState and its sorted images built on every visit and the
    trimmed transitions rebuilt from the explored ones: `build` as it was
    before exploration packed words into strings.  Returns plain lists of
    states, transitions and each state's transition ids."""
    eq = ins.equation
    if not eq.lhs or not eq.rhs:
        raise EmptySide("both sides must be nonempty")
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
        st = GraphState(lhs, rhs, varset, tuple(sorted((v, mu[v]) for v in varset)), true_)
        sid = index.get(st)
        if sid is None:
            if not true_ and (
                (cancelled and test_images and images_differ(lhs, rhs, mu))
                or (counts and _abelian_refuted(lhs, rhs, varset))
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
        varset = st.varset
        mu = dict(st.mu_items)
        mu_of = {**const_mu, **mu}
        if not st.is_true and st.lhs[0] == st.rhs[0]:
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
                    add(sid, intern(st.lhs, st.rhs, varset, {**mu, x: t}, st.is_true), (x, (a, x)))
                if mu[x] == mu_of[a]:
                    add(sid, intern(st.lhs, st.rhs, varset - {x}, mu, st.is_true), (x, (a,)))
        if st.is_true:
            continue
        for this, other, swapped in ((st.lhs, st.rhs, False), (st.rhs, st.lhs, True)):
            x = this[0]
            if x not in varset:
                continue
            alpha = other[0]
            u, v = this[1:], other[1:]
            counts = u.count(x) + 1 != v.count(x)
            keep_l = (x,) + substitute(u, x, (alpha, x))
            keep_r = substitute(v, x, (alpha, x))
            if keep_r:
                pair = (keep_l, keep_r) if not swapped else (keep_r, keep_l)
                for t in quot.get((mu_of[alpha], mu[x]), ()):
                    add(sid, intern(pair[0], pair[1], varset, {**mu, x: t}, False,
                                    cancelled=True, counts=counts), (x, (alpha, x)))
            if mu[x] == mu_of[alpha]:
                dl, dr = substitute(u, x, (alpha,)), substitute(v, x, (alpha,))
                if swapped:
                    dl, dr = dr, dl
                if dl and dr:
                    add(sid, intern(dl, dr, varset - {x}, mu, False, cancelled=True, counts=counts),
                        (x, (alpha,)))
                elif not dl and not dr:
                    add(sid, intern((), (), varset - {x}, mu, True), (x, (alpha,)))

    finals = frozenset(
        sid for sid, st in enumerate(states)
        if not st.varset and (
            st.is_true
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
                               finals=frozenset(), scc=SccData((), (), ()))
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
    return SccData(tuple(comps), tuple(comp_of), tuple(has_tr))


def assert_same_graph(g, ref):
    assert g.states == ref.states
    assert g.transitions == ref.transitions
    assert g.out == ref.out
    assert g.initial == ref.initial
    assert g.finals == ref.finals
    assert g.scc == ref.scc


class TestPackedExploration:
    """Exploration over packed words gives the graph of the tuple-word
    reference: states, their numbering, transitions in order and SCCs."""

    @pytest.mark.parametrize("faithful", [False, True])
    @pytest.mark.parametrize("ins", [
        pytest.param(FIVE_VARIABLES, id="five-variables"),
        pytest.param(long_cycle(8), id="long-cycle-8"),
        pytest.param(long_cycle(20), id="long-cycle-20"),
        pytest.param(long_cycle(32), id="long-cycle-32"),
        pytest.param(odd_tokens(), id="odd-tokens"),
        pytest.param(dead_cycles(), id="dead-cycles"),
    ])
    def test_matches_reference(self, ins, faithful):
        assert_same_graph(build(ins, faithful=faithful), reference_build(ins, faithful=faithful))

    # sha256 of repr(g.scc), computed with tuple words; the order of the
    # components decides the certificate that pumpable_state picks, and
    # DOT does not show it
    @pytest.mark.parametrize("faithful", [False, True])
    def test_five_variables_scc_unchanged(self, faithful):
        g = build(FIVE_VARIABLES, faithful=faithful)
        assert hashlib.sha256(repr(g.scc).encode()).hexdigest() == (
            "e807f199848a5f0fd38cb203c80ca4645f519610449696a4055bc2c9c03395c3"
        )

    @pytest.mark.parametrize("faithful, digest", [
        (False, "1608fdd60a2059bc0bfcd340b4a83640a99e8ddeb8347c2a340e98eca7bf16b6"),
        (True, "f0c92eb6221a8e6b3362a5b57bd32dec3828538b562f2529a45c19ae83e3b336"),
    ])
    def test_b2_sweep_scc_unchanged(self, faithful, digest):
        h = hashlib.sha256()
        for ins in sweep_instances(builtin("b2"), 2, 2, 4):
            h.update(repr(build(ins, faithful=faithful).scc).encode())
        assert h.hexdigest() == digest


@settings(max_examples=200, deadline=None)
@given(quadratic_equations(), st.booleans(),
       st.sampled_from(("z2", "n2", "rz2", "b2", "lz2")), st.data())
def test_packed_build_matches_reference(case, absent, target, data):
    spec, variables = case
    if absent and len(variables) < 4:
        variables += "V"  # declared but not in the equation
    sg = builtin(target)
    base = make_instance(spec, variables=variables)
    images = {s: data.draw(st.integers(0, sg.order - 1)) for s in base.symbols.all_symbols()}
    ins = Instance(base.equations, ConstraintMorphism.from_dict(base.symbols, sg, images))
    for faithful in (False, True):
        assert_same_graph(build(ins, faithful=faithful), reference_build(ins, faithful=faithful))


@settings(max_examples=200, deadline=None)
@given(quadratic_equations(max_vars=3), st.booleans(),
       st.sampled_from(("z2", "n2", "rz2", "b2", "lz2")), st.data())
def test_enumeration_matches_oracle(case, absent, target, data):
    """The word bound alone ends the search and misses no solution, also
    with an absent variable over a constrained target."""
    spec, variables = case
    if absent and len(variables) < 3:
        variables += "V"  # declared but not in the equation
    sg = builtin(target)
    base = make_instance(spec, variables=variables)
    images = {s: data.draw(st.integers(0, sg.order - 1)) for s in base.symbols.all_symbols()}
    ins = Instance(base.equations, ConstraintMorphism.from_dict(base.symbols, sg, images))
    want = list(brute_solutions(ins, 3).solutions)
    for faithful in (False, True):
        assert enumerate_solutions(build(ins, faithful=faithful), 3) == want
