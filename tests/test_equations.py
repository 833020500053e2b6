import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_instance
from weq._text import ParseError
from weq.equations import (
    ConstraintMorphism,
    EmptyWord,
    Solution,
    SymbolTable,
    WrongConstraintShape,
    brandt_two_constant_guesses,
    exp_solution,
    exp_word,
    format_instance,
    parse_instance,
    periodicity_reduction,
    preimage_infinite,
    preimage_pump,
    singular_guesses,
    system_to_single,
    verify_solution,
)
from weq.oracle import brute_solutions
from weq.semigroup import builtin


def exp_by_factor_search(w):
    """Independent oracle: try every factor as the period."""
    w = tuple(w)
    best = 0
    n = len(w)

    def contains(hay, needle):
        return any(hay[i:i + len(needle)] == needle for i in range(len(hay) - len(needle) + 1))

    for i in range(n):
        for j in range(i + 1, n + 1):
            p = w[i:j]
            k = 1
            while contains(w, p * (k + 1)):
                k += 1
            best = max(best, k)
    return best


def exp_by_scan(w):
    """Reference: every start and period, counting repeats of the factor that
    starts there (cubic in |w|)."""
    w = tuple(w)
    n = len(w)
    if n == 0:
        return 0
    best = 1
    for start in range(n):
        for period in range(1, (n - start) // 2 + 1):
            p = w[start:start + period]
            k = 1
            pos = start + period
            while w[pos:pos + period] == p:
                k += 1
                pos += period
            best = max(best, k)
    return best


@st.composite
def pumped_words(draw):
    """u y^k w over {a,b,c}: up to about 300 tokens, exponents up to 60."""
    letters = st.text(alphabet="abc", max_size=20)
    u, w = draw(letters), draw(letters)
    y = draw(st.text(alphabet="abc", min_size=1, max_size=12))
    k = draw(st.integers(0, min(60, 260 // len(y))))
    return u + y * k + w


class TestEval:
    def test_b2_values(self):
        b2 = builtin("b2")
        syms = SymbolTable(("a", "b"))
        mu = ConstraintMorphism.from_dict(syms, b2, {"a": 0, "b": 1})
        assert b2.names[mu.eval("ab")] == "ab"
        assert b2.names[mu.eval("aa")] == "0"

    def test_trivial_everything_maps_to_e(self):
        ins = make_instance("Xa=aX")
        assert ins.mu.eval("aabab".replace("b", "a")) == 0

    def test_empty_word_rejected(self):
        ins = make_instance("Xa=aX")
        with pytest.raises(EmptyWord):
            ins.mu.eval("")


class TestExpWord:
    @pytest.mark.parametrize("word,expect", [
        ("", 0), ("a", 1), ("ababab", 3), ("aabaa", 2),
        ("abaaba", 2), ("aaaa", 4), ("abcabc", 2),
    ])
    def test_examples(self, word, expect):
        assert exp_word(word) == expect

    def test_matches_factor_search_up_to_8(self):
        for n in range(0, 9):
            for w in itertools.product("ab", repeat=n):
                assert exp_word(w) == exp_by_factor_search(w)

    @given(st.text(alphabet="ab", min_size=1, max_size=6), st.integers(1, 5))
    @settings(max_examples=60, deadline=None)
    def test_power_lower_bound(self, p, k):
        assert exp_word(p * k) >= k

    @given(st.text(alphabet="abc", min_size=0, max_size=12))
    @settings(max_examples=80, deadline=None)
    def test_renaming_invariance(self, w):
        swapped = w.translate(str.maketrans("abc", "bca"))
        assert exp_word(w) == exp_word(swapped)

    def test_matches_scan_up_to_12(self):
        for n in range(13):
            for w in itertools.product("ab", repeat=n):
                assert exp_word(w) == exp_by_scan(w)

    @given(pumped_words())
    @settings(max_examples=60, deadline=None)
    def test_matches_scan_on_pumped_words(self, w):
        assert exp_word(w) == exp_by_scan(w)

    def test_exp_solution(self):
        s = Solution.from_dict({"X": tuple("aa"), "Y": tuple("aba")})
        assert exp_solution(s) == 2
        assert exp_solution(Solution.from_dict({"X": ("a",)})) == 1
        assert exp_solution(Solution.from_dict({"X": tuple("aba" * 3), "Y": ("a",)})) == 3
        assert exp_solution(Solution.from_dict({})) == 0


class TestPreimage:
    def b2_mu(self):
        return ConstraintMorphism.from_dict(
            SymbolTable(("a", "b")), builtin("b2"), {"a": 0, "b": 1}
        )

    def test_trivial_whole_language(self):
        mu = ConstraintMorphism.trivial(SymbolTable(("a",)))
        assert preimage_infinite(mu, 0)
        u, y, w = preimage_pump(mu, 0)
        assert y

    def test_b2_ab_is_ab_star(self):
        mu = self.b2_mu()
        ab = builtin("b2").index_of("ab")
        assert preimage_infinite(mu, ab)
        u, y, w = preimage_pump(mu, ab)
        for m in range(4):
            assert mu.eval(u + y * m + w) == ab

    def test_n2_singleton(self):
        mu = ConstraintMorphism.from_dict(SymbolTable(("a",)), builtin("n2"), {"a": 0})
        assert not preimage_infinite(mu, 0)
        assert preimage_pump(mu, 0) is None

    def test_pump_validity_all_zoo_targets(self):
        for name in ("trivial", "z2", "z3", "b2", "n2", "rz2", "sl2"):
            sg = builtin(name)
            for images in itertools.product(sg.elements(), repeat=2):
                mu = ConstraintMorphism.from_dict(
                    SymbolTable(("a", "b")), sg, dict(zip("ab", images))
                )
                for s in sg.elements():
                    pump = preimage_pump(mu, s)
                    if pump is None:
                        continue
                    u, y, w = pump
                    start = 0 if (u or w) else 1
                    for m in range(start, start + 4):
                        assert mu.eval(u + y * m + w) == s

    def test_threshold_count_equivalence(self):
        # infinite iff the word count strictly grows from |S^1| to 2|S^1|
        def count_up_to(mu, s, L):
            sigma = mu.symbols.constants
            return sum(
                1 for n in range(1, L + 1)
                for w in itertools.product(sigma, repeat=n) if mu.eval(w) == s
            )

        for name in ("trivial", "z2", "n2", "rz2", "b2"):
            sg = builtin(name)
            for images in itertools.product(sg.elements(), repeat=2):
                mu = ConstraintMorphism.from_dict(
                    SymbolTable(("a", "b")), sg, dict(zip("ab", images))
                )
                for s in sg.elements():
                    k = sg.order + 1
                    grows = count_up_to(mu, s, 2 * k) > count_up_to(mu, s, k)
                    assert preimage_infinite(mu, s) == grows, (name, images, s)


class TestSystemToSingle:
    def test_one_equation(self):
        ins = make_instance("Xa=aX")
        out = system_to_single(ins)
        eq = out.equation
        assert eq.lhs == ("X", "a", "#") and eq.rhs == ("a", "X", "#")
        assert out.mu.target.adjoined_zero is not None
        assert out.mu["#"] == out.mu.target.adjoined_zero

    def test_two_equations(self):
        ins = make_instance(["Xa=aX", "Xb=bX"])
        eq = system_to_single(ins).equation
        assert eq.lhs == tuple("Xa#Xb#") and eq.rhs == tuple("aX#bX#")

    def test_solution_sets_preserved(self):
        # oracle-level bijection on small systems
        cases = [
            ["Xa=aX"],
            ["Xa=aX", "Xb=bX"],
            ["XY=ab", "Yb=bY"],
            ["XabY=YbaX"],
        ]
        for eqs in cases:
            ins = make_instance(eqs)
            enc = system_to_single(ins)
            got = {s.assignment for s in brute_solutions(enc, 3).solutions}
            want = {s.assignment for s in brute_solutions(ins, 3).solutions}
            assert got == want, eqs

    def test_separator_avoids_collision(self):
        ins = make_instance("X#=#X", constants="#b")
        out = system_to_single(ins)
        sep = out.symbols.constants[-1]
        assert sep == "#1"


class TestSingularGuesses:
    def test_erasure(self):
        ins = make_instance("XY=ab")
        guesses = singular_guesses(ins)
        shapes = {
            tuple(str(e) for e in g.equations): tuple(g.symbols.variables)
            for g in guesses
        }
        assert ("X Y = a b",) in shapes  # empty guess
        assert ("Y = a b",) in shapes    # X erased
        assert ("X = a b",) in shapes    # Y erased
        # erasing both leaves (empty = ab): contradictory, filtered
        assert len(guesses) == 3

    def test_contradiction_filtered(self):
        ins = make_instance("X=a")
        guesses = singular_guesses(ins)
        assert len(guesses) == 1 and guesses[0].equations == ins.equations

    def test_trivially_true_dropped(self):
        ins = make_instance(["X=X", "Ya=aY"])
        guesses = singular_guesses(ins)
        erased_x = [g for g in guesses if "X" not in g.symbols.variables]
        assert all(
            all("X" not in eq.lhs + eq.rhs for eq in g.equations) for g in erased_x
        )
        assert any(len(g.equations) == 1 for g in erased_x)

    def test_constraint_blocks_erasure(self):
        # a variable mapped to a non-neutral element cannot take the empty word
        sl2 = builtin("sl2")
        ins = make_instance("Xa=aX", constants="a", sg=sl2,
                            mapping={"a": "1", "X": "0"})
        assert len(singular_guesses(ins)) == 1
        ins2 = make_instance("Xa=aX", constants="a", sg=sl2,
                             mapping={"a": "1", "X": "1"})
        assert len(singular_guesses(ins2)) == 2

    def test_union_matches_monoid_solutions(self):
        # monoid solutions with length <= 2 (empty allowed) of XY=ab
        ins = make_instance("XY=ab")
        words = [""] + ["".join(p) for n in (1, 2) for p in itertools.product("ab", repeat=n)]
        monoid = {
            (x, y) for x in words for y in words
            if (x + y) == "ab"
        }
        covered = set()
        for g in singular_guesses(ins):
            erased = set(ins.symbols.variables) - set(g.symbols.variables)
            if g.equations:
                sols = brute_solutions(g, 2).solutions
            else:
                sols = [Solution.from_dict({})]
            for s in sols:
                nonsingular = all(s.value(v) for v in g.symbols.variables)
                if not nonsingular:
                    continue
                full = {v: "".join(s.value(v)) for v in g.symbols.variables}
                full.update({v: "" for v in erased})
                covered.add((full["X"], full["Y"]))
        assert covered == monoid


class TestPeriodicityReduction:
    def test_m1(self):
        ins = make_instance("Xa=aX")
        out = periodicity_reduction(ins, 1)
        assert len(out.equations) == 2
        extra = out.equations[-1]
        assert extra.lhs == ("X",) and len(extra.rhs) == 3

    def test_m2_chain(self):
        ins = make_instance("Xa=aX")
        out = periodicity_reduction(ins, 2)
        assert len(out.equations) == 3
        x1 = out.equations[1].rhs[1]
        last = out.equations[2]
        assert last.lhs == (x1,)
        assert last.rhs == (last.rhs[0],) * 2

    def test_variable_count_grows_by_m_plus_2(self):
        ins = make_instance("XabY=YbaX")
        for m in (1, 2, 3):
            out = periodicity_reduction(ins, m)
            assert len(out.symbols.variables) == len(ins.symbols.variables) + m + 2

    def test_fresh_names_reserved(self):
        out = periodicity_reduction(make_instance("Xa=aX"), 2)
        fresh = set(out.symbols.variables) - {"X"}
        assert all(v.startswith("$") for v in fresh)


class TestBrandtGuesses:
    def brandt_instance(self, eqs="XaY=YaX"):
        return make_instance(
            eqs, sg=builtin("b2"),
            mapping={"a": "a", "b": "b", "X": "0", "Y": "0"},
        )

    def test_guess_count_and_shape(self):
        guesses = brandt_two_constant_guesses(self.brandt_instance())
        assert len(guesses) == 4  # 2 constants ^ 2 variables
        first = guesses[0]
        assert first.mu.target.label == "trivial"
        eq = first.equation
        assert eq.lhs.count("a") >= 2  # the inserted c^2 block

    def test_single_variable(self):
        ins = make_instance("Xa=aX", sg=builtin("b2"),
                            mapping={"a": "a", "b": "b", "X": "0"})
        guesses = brandt_two_constant_guesses(ins)
        assert len(guesses) == 2
        lhs = guesses[0].equation.lhs
        assert ("a", "a") == tuple(t for t in lhs if t == "a")[:2]

    def test_wrong_shape_rejected(self):
        ins = make_instance("Xa=aX", sg=builtin("b2"),
                            mapping={"a": "a", "b": "b", "X": "a"})
        with pytest.raises(WrongConstraintShape):
            brandt_two_constant_guesses(ins)
        ins2 = make_instance("Xa=aX", sg=builtin("b2"),
                             mapping={"a": "a", "b": "a", "X": "0"})
        with pytest.raises(WrongConstraintShape):
            brandt_two_constant_guesses(ins2)

    def test_soundness_spot_check(self):
        ins = self.brandt_instance()
        for guess in brandt_two_constant_guesses(ins):
            for sub in brute_solutions(guess, 2).solutions:
                composed = compose_guess(ins, guess, sub)
                assert verify_solution(ins, composed)


def compose_guess(original, guess, sub_solution):
    """Rebuild the original assignment from a guessed instance's solution."""
    fresh = guess.symbols.variables
    halves = {v: (fresh[2 * i], fresh[2 * i + 1]) for i, v in enumerate(original.symbols.variables)}
    # identify the squared constant for each variable from the guess equation
    eq_g = guess.equations[0]
    eq_o = original.equations[0]
    out = {}
    for v in original.symbols.variables:
        x1, x2 = halves[v]
        i = eq_g.lhs.index(x1) if x1 in eq_g.lhs else eq_g.rhs.index(x1)
        side = eq_g.lhs if x1 in eq_g.lhs else eq_g.rhs
        c = side[i + 1]
        out[v] = sub_solution.value(x1) + (c, c) + sub_solution.value(x2)
    return Solution.from_dict(out)


class TestInstanceFormat:
    GOOD = """\
; running example
constants a b
variables X Y
equation X a b Y = Y b a X
semigroup builtin:trivial
"""

    def test_parse_defaults(self):
        ins = parse_instance(self.GOOD)
        assert str(ins.equation) == "X a b Y = Y b a X"
        assert ins.mu.target.label == "trivial"

    def test_roundtrip(self):
        ins = parse_instance(self.GOOD)
        again = parse_instance(format_instance(ins))
        assert again.equations == ins.equations
        assert again.mu.image == ins.mu.image

    def test_map_lines(self):
        text = (
            "constants a b\nvariables X\nequation X a = a X\n"
            "semigroup builtin:b2\nmap a -> a\nmap b -> b\nmap X -> ab\n"
        )
        ins = parse_instance(text)
        assert ins.mu.target.names[ins.mu["X"]] == "ab"

    @pytest.mark.parametrize("text,line", [
        ("constants a\nequation X = a\nsemigroup builtin:trivial\n", 2),
        ("constants a\nvariables X\nequation X a\nsemigroup builtin:trivial\n", 3),
        ("constants a\nvariables X\nequation X = a\nsemigroup builtin:nope\n", 4),
        ("constants a\nvariables X\nequation X = a\nsemigroup builtin:z2\nmap a -> 7\n", 5),
        ("wat a\n", 1),
    ])
    def test_errors_carry_line_numbers(self, text, line):
        with pytest.raises(ParseError) as exc:
            parse_instance(text)
        assert exc.value.line == line

    def test_dollar_prefix_rejected(self):
        with pytest.raises(ParseError):
            parse_instance("constants a\nvariables $X\nequation $X = a\nsemigroup builtin:trivial\n")

    def test_missing_map_for_nontrivial(self):
        with pytest.raises(ParseError):
            parse_instance("constants a\nvariables X\nequation X = a\nsemigroup builtin:z2\nmap a -> 0\n")

    def test_hash_constant_allowed(self):
        text = "constants # b\nvariables X\nequation X # = # X\nsemigroup builtin:trivial\n"
        ins = parse_instance(text)
        assert "#" in ins.symbols.constants

    def test_equals_sign_rejected_as_token(self):
        with pytest.raises(ParseError):
            parse_instance("constants =\nequation = = =\nsemigroup builtin:trivial\n")

    def test_duplicate_variables_line_rejected(self):
        with pytest.raises(ParseError):
            parse_instance(
                "constants a\nvariables X\nvariables Y\n"
                "equation X = a\nsemigroup builtin:trivial\n"
            )
