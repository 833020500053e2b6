"""Differential tests over generated valid instances: the automaton's
enumeration against the brute-force oracle, the instance text format and
the certificate JSON as round trips, pumped solutions as certified, and,
over targets in the supported variety, a certificate exactly when there
are infinitely many solutions.  A second property compares `build` with
the reference exploration on constant blocks of 20 to 40 letters and on
two-equation systems encoded by `system_to_single`.  A third feeds packed
assignments, real solutions and each kind of fault, to the enumeration's
packed check and to `verify_solution`, over the zoo's targets.  A last
test checks the packed checks on equations whose two sides are the same.

Instances are quadratic, with at most three variables (a declared variable
may be absent from the equation), at most three constants (two with three
variables) and at most eight tokens, with random images into targets in and
outside the supported variety: builtins, their identity and zero
adjunctions, and the 2x2 rectangular band lz2 x rz2.  Token names include
separators of the text formats and multi-character names.  Every instance
takes the text round trip: a target that is not a builtin is written to a
`file:` table first and loaded back, so that the text can name it."""

import itertools
import json
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_reference
from conftest import make_instance, zoo
from graph_reference import assert_same_graph, reference_build
from weq.equations import (
    ConstraintMorphism,
    Instance,
    Solution,
    SymbolTable,
    WordEquation,
    format_instance,
    packing,
    parse_instance,
    system_to_single,
    verify_solution,
)
from weq.oracle import brute_solutions
from weq.periodicity import certificate_to_json, instantiate, load_certificate, pumping_certificate
from weq.semigroup import (
    adjoin_identity, adjoin_zero, builtin, direct_product, format_semigroup, is_dlg, resolve_semigroup,
)
from weq.solution_graph import build, enumerate_solutions, first_non_solution, has_infinitely_many

CONSTANTS = ("a", "#", ",", "->", "bc")
VARIABLES = ("X", "Yy", "Z_2")
BUILTINS = ("trivial", "z2", "n2", "rz2", "lz2", "b2", "sl2")
TARGETS = (
    [builtin(name) for name in BUILTINS]
    + [adjoin(builtin(name)) for adjoin in (adjoin_identity, adjoin_zero) for name in BUILTINS]
    + [direct_product(builtin("lz2"), builtin("rz2"))]
)


@st.composite
def instances(draw):
    variables = tuple(draw(st.lists(st.sampled_from(VARIABLES), max_size=3, unique=True)))
    # three constants with three variables absent from the equation give
    # 39^3 = 59,319 solutions within length 3, seconds for each side
    max_constants = 2 if len(variables) == 3 else 3
    constants = tuple(draw(st.lists(st.sampled_from(CONSTANTS), min_size=1, max_size=max_constants,
                                    unique=True)))
    drawn = draw(st.lists(st.sampled_from(constants + variables), min_size=2, max_size=8))
    word = []
    for tok in drawn:  # each variable at most twice
        if tok in constants or word.count(tok) < 2:
            word.append(tok)
    if len(word) < 2:
        word.append(constants[0])
    cut = draw(st.integers(1, len(word) - 1))
    sg = draw(st.sampled_from(TARGETS))
    syms = SymbolTable(constants, variables)
    images = draw(st.lists(st.sampled_from(sg.elements()), min_size=len(syms.all_symbols()),
                           max_size=len(syms.all_symbols())))
    mu = ConstraintMorphism.from_dict(syms, sg, dict(zip(syms.all_symbols(), images)))
    return Instance((WordEquation(tuple(word[:cut]), tuple(word[cut:])),), mu)


@pytest.fixture(scope="module")
def loaded(tmp_path_factory):
    """Each target that is not a builtin, as loaded from its `file:` table."""
    tables = tmp_path_factory.mktemp("tables")
    out = {}
    for k, sg in enumerate(TARGETS[len(BUILTINS):]):
        path = tables / f"t{k}.sg"
        path.write_text(format_semigroup(sg))
        out[sg] = resolve_semigroup(f"file:{path}")
    return out


@given(ins=instances())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_valid_instances(loaded, ins):
    if ins.mu.target in loaded:
        ins = replace(ins, mu=replace(ins.mu, target=loaded[ins.mu.target]))
    assert parse_instance(format_instance(ins)) == ins
    g = build(ins)
    assert enumerate_solutions(g, 3) == list(brute_solutions(ins, 3).solutions)
    cert = pumping_certificate(ins, graph=g)
    if is_dlg(ins.mu.target).holds:
        assert (cert is not None) == has_infinitely_many(g)
    if cert is None:
        return
    data = json.loads(json.dumps(certificate_to_json(cert)))
    assert load_certificate(ins, data, graph=g) == cert
    for m in range(3):
        assert instantiate(cert, ins, m).exponent >= m


def drawn_morphism(draw, syms, sg):
    """Random images of the constants; each variable takes the image of a
    drawn word of one to three constants, so that a side's image can match
    the other's."""
    images = {a: draw(st.sampled_from(sg.elements())) for a in syms.constants}
    for v in syms.variables:
        word = draw(st.lists(st.sampled_from(syms.constants), min_size=1, max_size=3))
        images[v] = sg.fold(images[a] for a in word)
    return ConstraintMorphism.from_dict(syms, sg, images)


@st.composite
def constant_blocks(draw):
    """One equation whose sides each hold a block of 20 to 40 constants,
    a^i b^j on the left and the same letters or a permutation of them on
    the right, and one or two variables that occur once on each side, so
    that letter counting refutes none of them: `X a^k b = a^k b X` and its
    relatives."""
    variables = "XY"[:draw(st.integers(1, 2))]
    n = draw(st.integers(20, 40))
    block = "a" * draw(st.integers(0, n))
    block += "b" * (n - len(block))
    other = block if draw(st.booleans()) else "".join(draw(st.permutations(block)))
    lhs, rhs = ("".join(draw(st.permutations([word, *variables]))) for word in (block, other))
    syms = SymbolTable(("a", "b"), tuple(variables))
    mu = drawn_morphism(draw, syms, draw(st.sampled_from(TARGETS)))
    return Instance((WordEquation(tuple(lhs), tuple(rhs)),), mu), None


@st.composite
def two_equation_systems(draw):
    """Two equations over constants a, b and variables X, Y, each variable
    at most twice in the whole system, with the encoding `system_to_single`
    makes of them.  An equation is a drawn word cut in two, or a drawn word
    against a permutation of itself, which letter counting cannot refute."""
    equations, uses = [], {"X": 0, "Y": 0}
    for _ in range(2):
        mirrored = draw(st.booleans())
        word = []
        for tok in draw(st.lists(st.sampled_from("abXY"), min_size=1, max_size=4)):
            if tok in uses:
                if uses[tok] + 1 + mirrored > 2:
                    continue
                uses[tok] += 1 + mirrored
            word.append(tok)
        if mirrored:
            word = word or ["a"]
            lhs, rhs = word, draw(st.permutations(word))
        else:
            word += ["a"] * (2 - len(word))
            cut = draw(st.integers(1, len(word) - 1))
            lhs, rhs = word[:cut], word[cut:]
        equations.append(WordEquation(tuple(lhs), tuple(rhs)))
    syms = SymbolTable(("a", "b"), tuple(v for v in "XY" if uses[v]))
    system = Instance(tuple(equations), drawn_morphism(draw, syms, draw(st.sampled_from(TARGETS))))
    return system_to_single(system), system


@given(case=st.one_of(constant_blocks(), two_equation_systems()))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_long_blocks_and_encoded_systems(case):
    """`build` gives the reference's automaton, which prunes no dead tails,
    and an encoded system has the system's solutions."""
    ins, system = case
    g = build(ins)
    assert_same_graph(g, reference_build(ins))
    if system is not None:
        assert enumerate_solutions(g, 3) == list(brute_solutions(system, 3).solutions)


ZOO = [sg for _, sg in zoo()]


@st.composite
def packed_assignments(draw):
    """An instance into a zoo target, with one or two variables (one may be
    absent from the equation), and tuples of packed words, one per
    variable, in a drawn order: the solutions within length 3; the
    solutions of the unconstrained equation, whose words may miss their
    images; drawn words that meet the images, whose sides mostly differ;
    and drawn members of these with one word emptied or holding a
    variable."""
    variables = tuple(draw(st.lists(st.sampled_from(VARIABLES), min_size=1, max_size=2, unique=True)))
    constants = tuple(draw(st.lists(st.sampled_from(CONSTANTS), min_size=1, max_size=2, unique=True)))
    word = []
    for tok in draw(st.lists(st.sampled_from(constants + variables), min_size=2, max_size=6)):
        if tok in constants or word.count(tok) < 2:
            word.append(tok)
    word += [constants[0]] * (2 - len(word))
    cut = draw(st.integers(1, len(word) - 1))
    syms = SymbolTable(constants, variables)
    ins = Instance((WordEquation(tuple(word[:cut]), tuple(word[cut:])),),
                   drawn_morphism(draw, syms, draw(st.sampled_from(ZOO))))
    char_of = packing(syms)[0]

    def packed(sol):
        return tuple("".join(map(char_of.__getitem__, sol.as_dict[v])) for v in variables)

    free = replace(ins, mu=ConstraintMorphism.trivial(syms))
    cases = [packed(s) for s in brute_solutions(ins, 3).solutions + brute_solutions(free, 3).solutions]
    by_image: dict[int, list[str]] = {}
    for n in range(1, 4):
        for w in itertools.product(constants, repeat=n):
            by_image.setdefault(ins.mu.eval(w), []).append("".join(map(char_of.__getitem__, w)))
    for _ in range(3):
        cases.append(tuple(draw(st.sampled_from(by_image[ins.mu[v]])) for v in variables))
    for _ in range(6):
        words = list(draw(st.sampled_from(cases)))
        i = draw(st.integers(0, len(words) - 1))
        w = words[i]
        if draw(st.booleans()):
            words[i] = ""
        else:
            j = draw(st.integers(0, len(w)))
            words[i] = w[:j] + char_of[draw(st.sampled_from(variables))] + w[j:]
        cases.append(tuple(words))
    return ins, draw(st.permutations(cases))


@given(case=packed_assignments())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_packed_check_agrees_with_verify_solution(case):
    """`first_non_solution`, which checks the enumeration's results on
    packed words, gives `verify_solution`'s verdict on each assignment, and
    over all of them names the first that `verify_solution` rejects."""
    ins, cases = case
    token_of = packing(ins.symbols)[1]
    verdicts = [
        verify_solution(ins, Solution.from_dict({
            v: tuple(map(token_of.__getitem__, w)) for v, w in zip(ins.symbols.variables, words)
        }))
        for words in cases
    ]
    for words, ok in zip(cases, verdicts):
        assert (first_non_solution(ins, [words]) is None) == ok, words
    assert first_non_solution(ins, cases) == next((w for w, ok in zip(cases, verdicts) if not ok), None)


IDENTICAL_SIDES = [
    make_instance("Xa=Xa", sg=builtin("z2"), mapping={"a": "1", "b": "0", "X": "1"}),
    make_instance(["XbY=YbX", "aXb=aXb"], sg=builtin("z2"),
                  mapping={"a": "1", "b": "0", "X": "1", "Y": "0"}),
]


@pytest.mark.parametrize("ins", IDENTICAL_SIDES, ids=["Xa=Xa", "system"])
def test_identical_sides_keep_every_other_check(ins):
    """An equation whose packed sides are the same string holds under every
    assignment, and the packed checks do not compare it.  They still reject
    a word with the wrong image, an empty word and a word that holds a
    variable's character, and the other equation of a system is still
    compared.  The oracle equals the reference at bounds 1 to 4, and so does
    the enumeration where `build` takes the instance: the system is not
    quadratic, X occurs four times."""
    char_of = packing(ins.symbols)[0]
    a, b, x = char_of["a"], char_of["b"], char_of["X"]
    others = (a + b + a,) * (len(ins.symbols.variables) - 1)  # X = a, Y = a b a solves the system
    assert first_non_solution(ins, [(a,) + others]) is None
    for bad in (b, "", a + x):  # b has image 0, X's is 1
        assert first_non_solution(ins, [(bad,) + others]) == (bad,) + others
    if others:  # X = a a a, Y = b meet their images but break X b Y = Y b X
        assert first_non_solution(ins, [(a * 3, b)]) == (a * 3, b)
    g = build(ins) if len(ins.equations) == 1 else None
    for bound in range(1, 5):
        want = oracle_reference.brute_solutions(ins, bound).solutions
        assert brute_solutions(ins, bound).solutions == want
        assert g is None or enumerate_solutions(g, bound) == list(want)
    assert want
