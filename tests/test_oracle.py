import hashlib
import itertools
import random

import pytest

import oracle_reference
from conftest import battery_instances, make_instance, zoo
from weq import oracle
from weq.equations import (
    ConstraintMorphism, Instance, Solution, SymbolTable, packed_solutions, packing, parse_instance,
    verify_solution,
)
from weq.oracle import BudgetExceeded, brute_solutions
from weq.semigroup import builtin
from weq.solution_graph import build, enumerate_solutions


def words(report, var):
    return ["".join(s.as_dict[var]) for s in report.solutions]


class TestBruteSolutions:
    def test_xa_ax(self):
        rep = brute_solutions(make_instance("Xa=aX"), 3)
        assert words(rep, "X") == ["a", "aa", "aaa"]

    def test_xabby_contains_expected(self):
        rep = brute_solutions(make_instance("XabY=YbaX"), 3)
        pairs = {("".join(s.as_dict["X"]), "".join(s.as_dict["Y"])) for s in rep.solutions}
        assert ("aba", "a") in pairs
        assert ("b", "bab") in pairs

    def test_unsat(self):
        assert brute_solutions(make_instance("Xa=bX"), 4).solutions == ()

    def test_no_variables(self):
        rep = brute_solutions(make_instance("ab=ab"), 2)
        assert rep.solutions == (Solution.from_dict({}),)
        assert brute_solutions(make_instance("ab=ba"), 2).solutions == ()

    def test_constrained(self):
        n2 = builtin("n2")
        ins = make_instance("Xa=aX", constants="a", sg=n2,
                            mapping={"a": "x", "X": "x"})
        rep = brute_solutions(ins, 4)
        assert words(rep, "X") == ["a"]

    def test_all_solutions_verify(self):
        for spec in ("Xa=aX", "XabY=YbaX", "XY=YX", "XX=aa"):
            rep = brute_solutions(make_instance(spec), 3)
            for s in rep.solutions:
                assert verify_solution(make_instance(spec), s)

    def test_monotone_in_bound(self):
        for spec in ("Xa=aX", "XabY=YbaX", "XbY=YbX"):
            ins = make_instance(spec)
            small = set(brute_solutions(ins, 2).solutions)
            large = set(brute_solutions(ins, 3).solutions)
            assert small <= large

    def test_sorted_and_duplicate_free(self):
        ins = make_instance("XY=YX")
        rep = brute_solutions(ins, 3)
        keys = [oracle_reference.sort_key(s, ins.symbols) for s in rep.solutions]
        assert keys == sorted(keys)
        assert len(set(rep.solutions)) == len(rep.solutions)

    def test_budget(self):
        ins = make_instance("XYabZ=ZbaYX", variables="XYZ")
        with pytest.raises(BudgetExceeded):
            brute_solutions(ins, 8, budget=1000)

    def test_bad_bound(self):
        with pytest.raises(ValueError):
            brute_solutions(make_instance("Xa=aX"), 0)


class TestMaxExp:
    def test_xa_ax(self):
        assert brute_solutions(make_instance("Xa=aX"), 4).max_exp_seen == 4

    def test_unsat_is_zero(self):
        assert brute_solutions(make_instance("Xa=bX"), 4).max_exp_seen == 0

    def test_xabby_golden(self):
        # frozen from the enumeration itself: (X,Y)=(aa,aaa) realizes exp 3
        assert brute_solutions(make_instance("XabY=YbaX"), 3).max_exp_seen == 3


MULTI_CHARACTER_TOKENS = """\
constants a1 bb
variables Xl Y2
equation Xl a1 bb Y2 = Y2 bb a1 Xl
semigroup builtin:trivial
"""


def test_reports_pinned(battery_equations):
    """sha256 of every report's solutions, in order, and its largest
    exponent over every 50th battery instance at bounds 1 to 5, a system,
    a ground instance, a declared but absent variable and tokens of several
    characters, as the enumeration over token lists gave them."""
    cases = list(itertools.islice(battery_instances(battery_equations), 0, None, 50))
    cases += [
        make_instance(["XaY=YaX", "Xb=bX"]),
        make_instance("abba=abba"),
        make_instance("Xab=baX", variables="XZ"),
        parse_instance(MULTI_CHARACTER_TOKENS),
    ]
    h = hashlib.sha256()
    for ins in cases:
        for bound in range(1, 6):
            rep = brute_solutions(ins, bound)
            h.update(repr((rep.solutions, rep.max_exp_seen)).encode())
    assert h.hexdigest() == "bb41fd7d1cc16a28c43f6e9fe915ce67aef880e862b470a243b736019d62fb61"


def zoo_instances(seed=22):
    """Per zoo target, each spec with random images of the constants; each
    variable's image is that of a random word over the constants, so the
    image test passes for some of them."""
    rng = random.Random(seed)
    specs = ("XabY=YbaX", "XaY=YaX", "Xab=baX", "XY=YX")
    for _, sg in zoo():
        for spec in specs:
            probe = make_instance(spec)
            syms = probe.symbols
            images = {a: rng.randrange(sg.order) for a in syms.constants}
            for v in syms.variables:
                word = [rng.choice(syms.constants) for _ in range(rng.randint(1, 3))]
                acc = images[word[0]]
                for a in word[1:]:
                    acc = sg.table[acc][images[a]]
                images[v] = acc
            yield Instance(probe.equations, ConstraintMorphism.from_dict(syms, sg, images))


def differential_cases(battery_equations):
    cases = list(zoo_instances())
    cases += [
        make_instance(["XaY=YaX", "Xb=bX"]),
        make_instance(["XY=YX", "Xa=aX"]),
        make_instance("Xab=baX", variables="XZ"),
        make_instance("XabY=YbaX", constants="ba"),
        make_instance(["XbY=YbX", "aXb=aXb"], constants="ba"),
        parse_instance(MULTI_CHARACTER_TOKENS),
    ]
    cases += itertools.islice(battery_instances(battery_equations), 0, None, 20)
    return cases


def test_equals_the_reference(battery_equations):
    """The oracle gives the reference enumeration's solutions, in its
    order, at bounds 1 to 5."""
    for ins in differential_cases(battery_equations):
        for bound in range(1, 6):
            got = brute_solutions(ins, bound).solutions
            assert got == oracle_reference.brute_solutions(ins, bound).solutions, (ins, bound)


def test_cached_profiles_are_not_changed_by_a_call():
    """Two calls share one cached profile key; the first has forced first
    and last letters, the second none."""
    oracle._cached_profiles.cache_clear()
    forced, free = make_instance("Xab=baX"), make_instance("aXb=aXb")
    for ins in (forced, free, forced):
        assert brute_solutions(ins, 4) == oracle_reference.brute_solutions(ins, 4)
    info = oracle._cached_profiles.cache_info()
    assert (info.misses, info.hits) == (1, 2)


def test_many_profiles_are_streamed():
    """One constant allows as many length profiles as the budget; past
    1,024 to test, they are made per call and not cached."""
    oracle._cached_profiles.cache_clear()
    ins = make_instance("XYZ=ZYX", constants="a")
    rep = brute_solutions(ins, 11)
    assert rep == oracle_reference.brute_solutions(ins, 11)
    assert len(rep.solutions) == 11 ** 3
    assert oracle._cached_profiles.cache_info().currsize == 0


def test_a_variable_without_words_tests_no_profile(monkeypatch):
    """No word over the one constant (image 0 in z2) has X's image 1, so
    there is no solution, and none of the 3,375,000 length profiles at
    bound 150 is made."""
    def refuse(*args):
        raise AssertionError("a length profile was made")

    monkeypatch.setattr(oracle, "_balanced_profiles", refuse)
    ins = parse_instance("constants a\nvariables X Y Z\nequation X Y Z = Z Y X\nsemigroup builtin:z2\n"
                         "map a -> 0\nmap X -> 1\nmap Y -> 1\nmap Z -> 0\n")
    assert brute_solutions(ins, 150).solutions == ()


@pytest.mark.parametrize("bound, budget", [(8, 100), (8, 0), (14284, 10), (3, 7)])
def test_budget_message_is_the_reference_one(bound, budget):
    """Where the reference prints its count (up to 4,300 digits), the
    message is the same."""
    ins = make_instance("Xa=aX")
    with pytest.raises(BudgetExceeded) as want:
        oracle_reference.brute_solutions(ins, bound, budget=budget)
    with pytest.raises(BudgetExceeded) as got:
        brute_solutions(ins, bound, budget=budget)
    assert str(got.value) == str(want.value)


def test_budget_needs_no_giant_integer():
    with pytest.raises(BudgetExceeded, match=r"needs ~2\*\*14286 assignments, budget is 10$"):
        brute_solutions(make_instance("Xa=aX"), 14286, budget=10)
    with pytest.raises(BudgetExceeded, match=r"needs ~3\*\*20000000 assignments"):
        brute_solutions(make_instance("XY=YX", constants="abc"), 10**7)



@pytest.mark.parametrize("constants, variables", [
    (("b", "a"), ("X", "Y")),  # constants declared against name order
    (("a9", "a10"), ("X", "Y")),  # "a10" sorts before "a9"
    (("a", "b"), ("Y", "X")),  # Y, declared first, sorts after X
    (("a9", "a10", "b"), ("Z1", "Y", "Z10")),
])
def test_packed_order_is_the_reference_order(constants, variables):
    """`packed_solutions` sorts every assignment of words of up to two
    tokens, given shuffled, by `oracle_reference.sort_key`, and holds each
    solution's pairs in variable-name order, where name order and
    declaration order differ."""
    syms = SymbolTable(constants, variables)
    char_of, token_of = packing(syms)
    words = [w for n in (1, 2) for w in itertools.product(constants, repeat=n)]
    assignments = list(itertools.product(words, repeat=len(variables)))
    random.Random(3).shuffle(assignments)
    found = [tuple("".join(map(char_of.__getitem__, w)) for w in ws) for ws in assignments]
    want = sorted((Solution.from_dict(dict(zip(variables, ws))) for ws in assignments),
                  key=lambda s: oracle_reference.sort_key(s, syms))
    assert packed_solutions(syms, found) == want


NAME_ORDER_AGAINST_DECLARATION = """\
constants a9 a10
variables Y X
equation Y a9 X = X a9 Y
semigroup builtin:trivial
"""


@pytest.mark.parametrize("ins", [
    make_instance("XabY=YbaX", constants="ba"),
    parse_instance(NAME_ORDER_AGAINST_DECLARATION),
], ids=["constants-ba", "a9-a10-Y-X"])
def test_enumeration_and_oracle_keep_the_reference_order(ins):
    g = build(ins)
    for bound in range(1, 5):
        want = oracle_reference.brute_solutions(ins, bound).solutions
        assert brute_solutions(ins, bound).solutions == want
        assert enumerate_solutions(g, bound) == list(want)


def test_words_longer_than_255_tokens_keep_length_order():
    """Over one constant, X a = a X has the solutions X = a^n; at bound 300
    the oracle, the reference and the enumeration list them by length."""
    ins = make_instance("Xa=aX", constants="a")
    sols = brute_solutions(ins, 300).solutions
    assert [len(s.as_dict["X"]) for s in sols] == list(range(1, 301))
    assert sols == oracle_reference.brute_solutions(ins, 300).solutions
    assert enumerate_solutions(build(ins), 300) == list(sols)
