import hashlib
import random
import re
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import families
import weq
from conftest import make_instance
from graph_reference import abelian_refuted, assert_same_graph, reference_build, reference_enumerate
from scc_reference import comp_of
from weq.equations import (
    ConstraintMorphism,
    Instance,
    NotQuadratic,
    Solution,
    SymbolTable,
    TheoremViolation,
    WordEquation,
    parse_instance,
)
from weq.hunt import sweep_instances
from weq.oracle import brute_solutions
from weq.periodicity import instantiate, pumping_certificate
from weq.semigroup import builtin, from_table
from weq.solution_graph import (
    NotAccepting,
    SolutionGraph,
    StateBudgetExceeded,
    _counts_refuted,
    build,
    dot_lines,
    enumerate_solutions,
    extract_solution,
    has_infinitely_many,
    is_solvable,
)


def scc_text(scc) -> str:
    """The components, the index of each state's component and the cyclic
    flags, spelled as `repr` spelled an `SccData` that stored the indices:
    the text the pinned SCC digests hash."""
    return (f"SccData(components={scc.components!r}, comp_of={tuple(comp_of(scc))!r}, "
            f"has_transition={scc.has_transition!r})")


def decoded_states(g):
    return [g.state(sid) for sid in range(g.state_count)]


def state_strs(g):
    return {st.equation_str() for st in decoded_states(g)}


def label_str(t):
    return "eps" if t.label is None else f"{t.label[0]}->{''.join(t.label[1])}"


def find_state(g, s):
    for i, st in enumerate(decoded_states(g)):
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
                src = g.state(t.source)
                dst = g.state(t.target)
                ls = len(src.lhs) + len(src.rhs)
                ld = len(dst.lhs) + len(dst.rhs)
                assert ls <= n0 and ld <= ls
                if t.label is None:
                    assert ld < ls

    def test_quadraticity_preserved(self):
        for spec in ("XabY=YbaX", "XY=YX", "XXa=ab"):
            g = build(make_instance(spec))
            for st in decoded_states(g):
                body = st.lhs + st.rhs
                for v, _ in st.mu_items:
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
        assert extract_solution(g, [exit_] + eps[:0]).as_dict["X"] == ("a",)
        sol = extract_solution(g, [loop, exit_])
        assert sol.as_dict["X"] == ("a", "a")

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

    def test_non_solution_is_a_failed_guarantee(self, monkeypatch):
        g = build(make_instance("Xa=aX"))
        exit_ = next(t for t in g.out[g.initial] if g.transitions[t].label == ("X", ("a",)))
        monkeypatch.setattr(weq.solution_graph, "verify_solution", lambda ins, sol: False)
        with pytest.raises(TheoremViolation, match="does not solve the instance"):
            extract_solution(g, [exit_])

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

    def test_matches_the_pair_search_past_the_oracle(self):
        """At bounds 5 to 7, past the battery's bound 4, the enumeration
        equals the search over (state, patterns) pairs that grew every word
        one letter per pair, over the families' targets.  The instances keep
        variables active at TRUE states: identical sides over one or two
        variables, and X a = a X with Y absent from the equation.  Constants
        get drawn images and each variable the image of a drawn word, so
        that most instances have solutions."""
        start = time.monotonic()
        rng = random.Random(29)
        specs = [("XY=XY", "XY"), ("XaY=XaY", "XY"), ("aXb=aXb", "X"), ("YbX=YbX", "XY"), ("Xa=aX", "XY")]
        counts = []
        for i, sg in enumerate(families.families()):
            spec, variables = specs[i % len(specs)]
            images = {a: rng.randrange(sg.order) for a in "ab"}
            for v in variables:
                word = [rng.choice("ab") for _ in range(rng.randint(1, 3))]
                images[v] = sg.fold(images[c] for c in word)
            ins = make_instance(spec, variables=variables, sg=sg,
                                mapping={s: sg.names[e] for s, e in images.items()})
            g = build(ins)
            bound = 5 + i % 3
            got = enumerate_solutions(g, bound)
            assert got == reference_enumerate(g, bound), (spec, sg.label, images, bound)
            counts.append(len(got))
        assert sum(counts) == 85_536 and counts.count(0) == 2
        assert time.monotonic() - start < 5.0

    def test_needs_some_bound(self):
        with pytest.raises(TypeError):
            enumerate_solutions(build(make_instance("Xa=aX")))


class TestDot:
    def test_deterministic(self):
        ins = make_instance("XabY=YbaX")
        assert "".join(dot_lines(build(ins))) == "".join(dot_lines(build(ins)))

    def test_contents(self):
        g = build(make_instance("Xa=aX"))
        dot = "".join(dot_lines(g))
        assert "X->aX" in dot
        assert "doublecircle" in dot
        assert "style=dashed" in dot
        assert dot.startswith("digraph")

    def test_single_state_graph(self):
        g = build(make_instance("a=a", variables=""))
        dot = "".join(dot_lines(g))
        assert dot.count("label=") >= 1

    def test_names_are_escaped(self):
        """Quotes and backslashes in variable and element names are escaped
        as in words, so every label is one well-formed DOT string."""
        syms = SymbolTable(("a",), ('X"',))
        eq = WordEquation(('X"', "a"), ("a", 'X"'))
        sg = from_table(("\\",), [[0]])
        ins = Instance((eq,), ConstraintMorphism.from_dict(syms, sg, {"a": 0, 'X"': 0}))
        lines = [line for line in "".join(dot_lines(build(ins))).splitlines() if "label=" in line]
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


def test_hot_path_stays_lazy(monkeypatch):
    """The verdicts, a certificate and enumeration decode no more than a few
    states of the packed automaton."""
    decoded = []
    state = SolutionGraph.state

    def counted(self, sid):
        decoded.append(sid)
        return state(self, sid)

    monkeypatch.setattr(SolutionGraph, "state", counted)
    g = build(FIVE_VARIABLES)
    assert is_solvable(g) and has_infinitely_many(g)
    cert = pumping_certificate(FIVE_VARIABLES, graph=g)
    for m in range(3):
        instantiate(cert, FIVE_VARIABLES, m)
    assert enumerate_solutions(g, 2) == list(brute_solutions(FIVE_VARIABLES, 2).solutions)
    assert not {"states", "transitions", "out"} & set(vars(g))
    assert len(decoded) < 100


def test_a_certificate_decodes_each_state_it_reads_once(monkeypatch):
    """The pumpable-state scan hands the certified state on decoded, so the
    certificate of FIVE_VARIABLES decodes its 2 states 2 times."""
    g = build(FIVE_VARIABLES)
    decoded = []
    state = SolutionGraph.state

    def counted(self, sid):
        decoded.append(sid)
        return state(self, sid)

    monkeypatch.setattr(SolutionGraph, "state", counted)
    cert = pumping_certificate(FIVE_VARIABLES, graph=g)
    assert len(decoded) == len(set(decoded)) == 2
    assert decoded[-1] == cert.state


VARIABLE_HEADS = parse_instance(
    "constants a b\nvariables X Y Z W\n"
    "equation b b b Z Z = W Y X X Y\nsemigroup builtin:z2\n"
    "map a -> 1\nmap b -> 1\nmap X -> 0\nmap Y -> 0\nmap Z -> 0\nmap W -> 1\n"
)


class TestStateBudget:
    # FIVE_VARIABLES interns 7,377 states, dead ones included, and keeps 4,591
    def test_exact_budget_suffices(self):
        assert build(FIVE_VARIABLES, max_states=7377).state_count == 4591

    def test_budget_error_carries_the_count(self):
        with pytest.raises(StateBudgetExceeded) as exc:
            build(FIVE_VARIABLES, max_states=7376)
        assert (exc.value.count, exc.value.budget) == (7377, 7376)

    def test_the_exported_budget_error_covers_the_state_budget(self):
        with pytest.raises(weq.BudgetExceeded):
            build(FIVE_VARIABLES, max_states=7376)

    # VARIABLE_HEADS interns 169 states and keeps 103.  Over z2 it has
    # keeping and deleting moves whose opposing head is a variable, so a
    # wrong update of the carried counts (alpha's entry left alone, lowered
    # instead of raised, or x's raised in its place; x's entry kept on
    # deletion or zeroed on keeping) changes the number interned
    def test_variable_heads_exact_budget(self):
        assert build(VARIABLE_HEADS, max_states=169).state_count == 103
        with pytest.raises(StateBudgetExceeded) as exc:
            build(VARIABLE_HEADS, max_states=168)
        assert (exc.value.count, exc.value.budget) == (169, 168)

    def test_a_refuted_initial_state_counts_against_the_budget(self):
        ins = make_instance("Xa=bX")
        assert abelian_refuted(ins.equation.lhs, ins.equation.rhs, {"X"})
        with pytest.raises(StateBudgetExceeded) as exc:
            build(ins, max_states=0)
        assert (exc.value.count, exc.value.budget) == (1, 0)
        assert not is_solvable(build(ins, max_states=1))


class TestDeadTails:
    """Sides that end in different constants have no solution: a build
    that starts with them ends at once, and a deletion that leaves them is
    dropped without being interned."""

    # X a^k b = a^k b X interns 2k + 3 states and keeps them all; without
    # the rule each deletion X -> a leaves sides ending in b and a that are
    # cancelled head by head, 20,503 interned states at k = 200
    def test_long_cycle_interns_what_it_keeps(self):
        assert build(long_cycle(200), max_states=1000).state_count == 403
        with pytest.raises(StateBudgetExceeded) as exc:
            build(long_cycle(200), max_states=402)
        assert exc.value.count == 403

    def test_initial_tails_refute(self):
        assert not is_solvable(build(make_instance("Xab=Xba"), max_states=1))


# over n2 (a -> x, b -> 0, X, Y -> 0) deletions leave sides ending in b
# and a that neither letter counting nor the images refute
DEAD_TAILS_N2 = parse_instance(
    "constants a b\nvariables X Y\nequation X Y a a a a b = a a a a b Y X\nsemigroup builtin:n2\n"
    "map a -> x\nmap b -> 0\nmap X -> 0\nmap Y -> 0\n"
)


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


REFUTATION_ROWS = [
    ("Xa=bX", True),     # counts of a and b differ, X cancels
    ("XaY=YbX", True),
    ("XXa=b", True),     # c_X = 2 > 0 and d_a = 1 > 0
    ("XY=Y", True),      # c_X = 1 > 0 = -(sum of d)
    ("XX=aaa", True),    # every c even, d_a odd
    ("XX=YaY", True),
    ("XabY=YbaX", False),
    ("XY=aab", False),
    ("XaX=aYb", False),  # d_b = -1, c_X = 2, c_Y = -1: signs mixed
]


class TestAbelianFilter:
    """Pruning states refuted by letter counting keeps the automaton."""

    # sha256 of the DOT text, computed with every reachable state explored
    # before trimming (no letter-count test)
    @pytest.mark.parametrize("ins, digest", [
        pytest.param(FIVE_VARIABLES,
                     "394bcb190d096f8d78c633cfa6331e6f2d47bb7b999d0a4799ac6b234a042807",
                     id="five-variables"),
        pytest.param(long_cycle(20),
                     "e7a863b96e61ea1b3feb18fe2b21e64af47f517dbb50198525864ef5f54102a9",
                     id="long-cycle-20"),
        pytest.param(make_instance("XabY=YbaX"),
                     "86f79865ed7301f3ac8c0dfad33d4630164ff8ff123ad531cbde57c40a12d0da",
                     id="XabY=YbaX"),
        pytest.param(make_instance("XaY=YaX", sg=builtin("z2"),
                                   mapping={"a": "1", "b": "0", "X": "1", "Y": "0"}),
                     "8ae345c8cda6db321e6a552337c20ce967beb84344506f05ef14d76cfaa7424a",
                     id="XaY=YaX-z2"),
        pytest.param(make_instance("XaY=YbX", sg=builtin("n2"),
                                   mapping={"a": "x", "b": "x", "X": "0", "Y": "x"}),
                     "2c6855c6e47c9a8b5df5bb7fc4f76c2e9d12892686afad2b97da0ce8d0f7272d",
                     id="XaY=YbX-n2-empty"),
        pytest.param(make_instance("XaY=YaX", variables="XYZ"),
                     "258fc4e1ec0f3a33416e3cf049624bc926e84e73bce77e7b29a9149fbd047dc4",
                     id="XaY=YaX-absent-Z"),
        # computed with tuple words, before exploration packed them
        pytest.param(odd_tokens(),
                     "7b23e7bcaf35303bd5de69fe76a6d8c912b3f4130378305489784f35f5f7a1a3",
                     id="odd-tokens"),
    ])
    def test_dot_unchanged(self, ins, digest):
        dot = "".join(dot_lines(build(ins)))
        assert hashlib.sha256(dot.encode()).hexdigest() == digest

    @pytest.mark.parametrize("spec, refuted", REFUTATION_ROWS)
    def test_refutation_rule(self, spec, refuted):
        ins = make_instance(spec)
        eq = ins.equation
        assert abelian_refuted(eq.lhs, eq.rhs, frozenset(ins.symbols.variables)) == refuted

    def test_six_variable_instance_refuted_at_the_start(self):
        ins = parse_instance(
            "constants a b\nvariables X0 X1 X2 X3 X4 X5\n"
            "equation X0 X4 X0 X1 b X4 X5 X5 = X2 X2 X3 X1 a X3\nsemigroup builtin:trivial\n"
        )
        eq = ins.equation
        assert abelian_refuted(eq.lhs, eq.rhs, frozenset(ins.symbols.variables))
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
    if abelian_refuted(eq.lhs, eq.rhs, frozenset(variables)):
        assert brute_solutions(ins, 4).solutions == ()
        assert not is_solvable(build(ins))


@st.composite
def count_differences(draw):
    """Sides with drawn count differences, zero or of either sign, for up
    to three constants and four variables: a symbol with difference n
    occurs n times on the left when n > 0 and -n times on the right when
    n < 0."""
    constants = "abc"[:draw(st.integers(0, 3))]
    variables = "WXYZ"[:draw(st.integers(0, 4))]
    lhs, rhs = [], []
    for t in constants + variables:
        n = draw(st.integers(-3, 3))
        (lhs if n > 0 else rhs).extend([t] * abs(n))
    return tuple(lhs), tuple(rhs), constants, variables


def refutation_cases():
    """Sides, constants and variables: the rows of `test_refutation_rule`,
    drawn quadratic equations and drawn count differences."""
    def from_spec(case):
        ins = make_instance(case[0], variables=case[1])
        syms = ins.symbols
        return ins.equation.lhs, ins.equation.rhs, syms.constants, syms.variables

    rows = st.sampled_from([(spec, "XY") for spec, _ in REFUTATION_ROWS])
    return st.one_of(rows.map(from_spec), quadratic_equations().map(from_spec), count_differences())


@settings(max_examples=400, deadline=None, derandomize=True)
@given(refutation_cases())
def test_carried_differences_refute_as_recounting_does(case):
    lhs, rhs, constants, variables = case
    diff = [lhs.count(t) - rhs.count(t) for t in constants + variables]
    assert _counts_refuted(diff, len(constants)) == abelian_refuted(lhs, rhs, frozenset(variables))


class TestImageFilter:
    """Pruning states whose sides have different constraint images keeps
    the automaton."""

    # sha256 of the concatenated DOT text of every instance of the sweep,
    # computed with no image test
    def test_b2_sweep_dot_unchanged(self):
        h = hashlib.sha256()
        for ins in sweep_instances(builtin("b2"), 2, 2, 3):
            h.update("".join(dot_lines(build(ins))).encode())
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


class TestPackedExploration:
    """Exploration over packed words gives the graph of the tuple-word
    reference: states, their numbering, transitions in order and SCCs."""

    @pytest.mark.parametrize("ins", [
        pytest.param(FIVE_VARIABLES, id="five-variables"),
        pytest.param(long_cycle(8), id="long-cycle-8"),
        pytest.param(long_cycle(20), id="long-cycle-20"),
        pytest.param(long_cycle(32), id="long-cycle-32"),
        pytest.param(long_cycle(100), id="long-cycle-100"),
        pytest.param(DEAD_TAILS_N2, id="dead-tails-n2"),
        pytest.param(odd_tokens(), id="odd-tokens"),
        pytest.param(dead_cycles(), id="dead-cycles"),
    ])
    def test_matches_reference(self, ins):
        assert_same_graph(build(ins), reference_build(ins))

    # sha256 of scc_text(g.scc), computed with tuple words; the order of
    # the components decides the certificate that pumpable_state picks, and
    # DOT does not show it
    def test_five_variables_scc_unchanged(self):
        g = build(FIVE_VARIABLES)
        assert hashlib.sha256(scc_text(g.scc).encode()).hexdigest() == (
            "e807f199848a5f0fd38cb203c80ca4645f519610449696a4055bc2c9c03395c3"
        )

    def test_b2_sweep_scc_unchanged(self):
        h = hashlib.sha256()
        for ins in sweep_instances(builtin("b2"), 2, 2, 4):
            h.update(scc_text(build(ins).scc).encode())
        assert h.hexdigest() == "1608fdd60a2059bc0bfcd340b4a83640a99e8ddeb8347c2a340e98eca7bf16b6"


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
    assert_same_graph(build(ins), reference_build(ins))


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
    assert enumerate_solutions(build(ins), 3) == want
