import hashlib
import itertools

import pytest

from conftest import battery_instances, make_instance
from weq.equations import Solution, parse_instance, verify_solution
from weq.oracle import BudgetExceeded, brute_solutions
from weq.semigroup import builtin


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
        keys = [s.sort_key(ins.symbols) for s in rep.solutions]
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
