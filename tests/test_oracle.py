import pytest

from conftest import make_instance
from weq.equations import Solution, verify_solution
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
