"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
with its runtime (run with `pytest -s` to see them live)."""

import hashlib
import itertools
import json
import random
import sys
import time

import pytest

import families
from conftest import battery_instances, class_of, make_instance, zoo
from scc_reference import comp_of, leq_R, scc_invariants, state_images
from weq.equations import (
    ConstraintMorphism,
    Instance,
    Solution,
    SymbolTable,
    WordEquation,
    brandt_two_constant_guesses,
    exp_word,
    preimage_infinite,
    singular_guesses,
    verify_solution,
)
from weq.oracle import brute_solutions
from weq.periodicity import (
    certificate_to_json,
    decide_exp_infinite_dlg,
    find_nicely_balanced_on_cycle,
    instantiate,
    pumping_certificate,
    simple_cycles,
)
from weq.semigroup import builtin, green, is_dlg, omega, opposite, stab_L, variety_report
from weq.solution_graph import (
    SolutionGraph,
    build,
    enumerate_solutions,
    has_infinitely_many,
    is_solvable,
)


class Criterion:
    def __init__(self, number, description, limit):
        self.number = number
        self.description = description
        self.limit = limit

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.number} {status} ({elapsed:.2f}s / limit {self.limit}s): "
              f"{self.description}")
        if exc_type is None:
            assert elapsed < self.limit, (
                f"criterion {self.number} exceeded its runtime bound: {elapsed:.1f}s"
            )
        return False


FIG1_EQUATIONS = {
    "X a b Y = Y b a X",
    "X a b Y = b a Y X",
    "X a b Y = a Y b X",
    "a b X Y = Y b a X",
    "b X a Y = Y b a X",
}


def test_criterion_1_running_example_graph():
    with Criterion(1, "running-example graph reproduction", 1.0):
        ins = make_instance("XabY=YbaX")
        g = build(ins)
        present = {g.state(i).equation_str(): i for i in range(g.state_count)}
        assert FIG1_EQUATIONS <= set(present)
        comps = {comp_of(g.scc)[present[s]] for s in FIG1_EQUATIONS}
        assert len(comps) == 1  # pairwise mutually reachable
        assert has_infinitely_many(g)


def test_criterion_2_pumping_certificate():
    with Criterion(2, "pumping certificate and instantiation", 1.0):
        ins = make_instance("XabY=YbaX")
        cert = decide_exp_infinite_dlg(ins)
        assert cert is not None
        sols = [instantiate(cert, ins, m) for m in range(7)]
        assert len(set(sols)) == 7
        for m, sol in enumerate(sols):
            assert verify_solution(ins, sol)
            assert sol.exponent >= m
        sigma1 = sols[1]
        assert sigma1 == Solution.from_dict({"X": tuple("abaaba"), "Y": ("a",)})
        # direct substitution: abaaba.ab.a == a.ba.abaaba
        assert sigma1.apply(ins.equation.lhs) == sigma1.apply(ins.equation.rhs)


@pytest.fixture(scope="session")
def battery_results(battery_equations):
    """One pass over every battery instance: criterion 3's checks, plus the
    data criterion 6 and the finite-set check reuse (which instances have a
    cyclic trimmed graph, and the satisfiable acyclic ones with their
    graphs). Every state of every graph is also checked to be no longer than
    the instance and quadratic, as the transition schema guarantees."""
    cyclic: list[Instance] = []
    finite: list[tuple[Instance, SolutionGraph]] = []
    count = 0
    t0 = time.monotonic()
    for ins in battery_instances(battery_equations):
        count += 1
        g = build(ins)
        n0 = len(ins.equation.lhs) + len(ins.equation.rhs)
        for st in map(g.state, range(g.state_count)):
            if st.lhs:
                assert len(st.lhs) + len(st.rhs) <= n0, f"state {st} outgrew {ins.equations[0]}"
                assert all(st.lhs.count(v) + st.rhs.count(v) <= 2 for v, _ in st.mu_items), (
                    f"state {st} of {ins.equations[0]} is not quadratic"
                )
        got = enumerate_solutions(g, max_word_len=4)
        want = list(brute_solutions(ins, 4).solutions)
        assert got == want, f"graph/oracle disagree on {ins.equations[0]} {ins.mu.image}"
        if has_infinitely_many(g):
            cyclic.append(ins)
        elif is_solvable(g):
            finite.append((ins, g))
            c6 = len(brute_solutions(ins, 6).solutions)
            c8 = len(brute_solutions(ins, 8).solutions)
            assert c6 == c8, f"finite verdict but growing counts on {ins.equations[0]}"
        else:
            assert not brute_solutions(ins, 6).solutions
    return {"count": count, "cyclic": cyclic, "finite": finite, "elapsed": time.monotonic() - t0}


def test_criterion_3_oracle_equivalence(battery_results):
    with Criterion(3, "battery graph-vs-oracle equivalence", 300.0) as c:
        c.start -= battery_results["elapsed"]  # work done in the fixture
        assert battery_results["count"] > 50000
        assert battery_results["cyclic"]


def test_finite_solution_sets_are_complete(battery_results):
    """A satisfiable instance whose trimmed automaton is acyclic has finitely
    many accepting paths, so enumerating with an unlimited word length gives
    its whole solution set. With L* the length of its longest solution word,
    the oracle at L* + 2 finds exactly that set: nothing is missing, and no
    longer solution exists below that bound. Bound 4, criterion 3's, misses
    the 448 instances with a solution word of length 5."""
    start = time.monotonic()
    longest_five = 0
    for ins, g in battery_results["finite"]:
        complete = enumerate_solutions(g, max_word_len=sys.maxsize)
        assert complete, f"no solution of satisfiable {ins.equations[0]} {ins.mu.image}"
        longest = max((len(w) for sol in complete for _, w in sol.assignment), default=0)
        longest_five += longest == 5
        bound = longest + 2
        assert enumerate_solutions(g, max_word_len=bound) == complete
        assert list(brute_solutions(ins, bound).solutions) == complete, (
            f"incomplete finite solution set of {ins.equations[0]} {ins.mu.image}"
        )
    assert len(battery_results["finite"]) == 2688
    assert longest_five == 448
    assert time.monotonic() - start < 3.0


def planted_ground_instances(seed: int, per_target: int):
    """Per target of `tests/families.py`, quadratic instances with one side
    ground: X and Y each occur once or twice, with up to two constants, on
    one side, and the other side is that side under random words for X
    and Y, whose images the variables get, so the instance is solvable.
    Each word has up to 5 tokens over one constant and up to 2 over two,
    so that the oracle at L* + 2 stays within its default budget."""
    rng = random.Random(seed)
    for sg in families.families():
        for _ in range(per_target):
            constants = ("a", "b")[:rng.randint(1, 2)]
            planted = {v: [rng.choice(constants) for _ in range(rng.randint(1, 5 if len(constants) == 1 else 2))]
                       for v in ("X", "Y")}
            side = [v for v in planted for _ in range(rng.randint(1, 2))]
            side += [rng.choice(constants) for _ in range(rng.randint(0, 2))]
            rng.shuffle(side)
            ground = [a for t in side for a in planted.get(t, [t])]
            images = {a: rng.randrange(sg.order) for a in constants}
            for v, w in planted.items():
                images[v] = images[w[0]]
                for a in w[1:]:
                    images[v] = sg.table[images[v]][images[a]]
            sides = (tuple(side), tuple(ground)) if rng.random() < 0.5 else (tuple(ground), tuple(side))
            mu = ConstraintMorphism.from_dict(SymbolTable(constants, tuple(planted)), sg, images)
            yield Instance((WordEquation(*sides),), mu)


def test_finite_family_solution_sets_are_complete():
    """D17's property over the paper's families: a ground side bounds every
    solution word, so the automaton is acyclic and enumerating with an
    unlimited word length gives the whole solution set, which the oracle
    at L* + 2 finds exactly.  Words reach 13 tokens, past the battery's
    bound 4."""
    start = time.monotonic()
    longest_words = []
    for ins in planted_ground_instances(seed=17, per_target=20):
        g = build(ins)
        assert is_solvable(g) and not has_infinitely_many(g), ins
        complete = enumerate_solutions(g, max_word_len=sys.maxsize)
        longest = max(len(w) for sol in complete for _, w in sol.assignment)
        longest_words.append(longest)
        assert list(brute_solutions(ins, longest + 2).solutions) == complete, (
            f"incomplete finite solution set of {ins.equations[0]} {ins.mu.image}"
        )
    assert len(longest_words) == 720
    assert sum(n > 4 for n in longest_words) == 194 and max(longest_words) == 13
    assert time.monotonic() - start < 3.0


def test_battery_certificates_unchanged(battery_results):
    """Every certificate of the battery, its JSON and its instantiations at
    m = 0..2 hash as they did before exploration packed words (the state a
    certificate pumps follows from the SCC order and the state numbering)."""
    h = hashlib.sha256()
    certified = 0
    for ins in battery_results["cyclic"]:
        cert = pumping_certificate(ins)
        if cert is None:
            continue
        certified += 1
        h.update(repr(cert).encode())
        h.update(json.dumps(certificate_to_json(cert), sort_keys=True).encode())
        for m in range(3):
            h.update(repr(instantiate(cert, ins, m)).encode())
    assert certified == 7914
    assert h.hexdigest() == "f2747f6c7b7827a8ae83ad893d390220eb6cda30a1ea3682d92e7921f495cfd1"


def _join_of_l_and_r(gr, n):
    """Classes of the equivalence generated by L and R, by least member."""
    classes, seen = [], set()
    for x in range(n):
        if x in seen:
            continue
        cls, stack = {x}, [x]
        while stack:
            y = stack.pop()
            for z in gr.classesL[gr.indexL[y]] + class_of(gr.classesR, y):
                if z not in cls:
                    cls.add(z)
                    stack.append(z)
        seen |= cls
        classes.append(tuple(sorted(cls)))
    return tuple(classes)


def _dlg_characterizations(sg, gr, om):
    """Four reference forms of "every regular D-class is a right group":
    (xy)^w = y^w (xy)^w, (xyz)^w = y^w (xyz)^w, (xy)^w = (yx)^w (xy)^w, and
    the D-class condition read off Green's relations."""
    T, rng = sg.table, range(sg.order)

    def fixed_by(y, e):
        return T[om[y]][e] == e

    ident_xy = all(fixed_by(y, om[T[x][y]]) for x in rng for y in rng)
    ident_xyz = all(fixed_by(y, om[T[T[x][y]][z]]) for x in rng for y in rng for z in rng)
    ident_yx_xy = all(fixed_by(T[y][x], om[T[x][y]]) for x in rng for y in rng)
    d_classes = all(
        all(T[x][y] in cls and fixed_by(y, x) for x in cls for y in cls)
        for cls, regular in zip(gr.classesJ, gr.regularD) if regular
    )
    return ident_xy, ident_xyz, ident_yx_xy, d_classes


def test_criterion_4_semigroup_algebra():
    with Criterion(4, "semigroup algebra over the zoo", 30.0):
        members = zoo()
        assert len(members) > 80
        for name, sg in members:
            gr = green(sg)
            assert gr.classesJ == _join_of_l_and_r(gr, sg.order), name
            for x in sg.elements():
                assert set(class_of(gr.classesH, x)) == (
                    set(gr.classesL[gr.indexL[x]]) & set(class_of(gr.classesR, x)))
            for di, dcls in enumerate(gr.classesJ):
                has_idem = gr.regularD[di]
                assert has_idem == all(
                    any(sg.is_idempotent(e) for e in gr.classesL[gr.indexL[x]]) for x in dcls
                )
                assert has_idem == all(
                    any(sg.is_idempotent(e) for e in class_of(gr.classesR, x)) for x in dcls
                )
                assert has_idem == all(
                    any(sg.mul(sg.mul(x, y), x) == x for y in sg.elements())
                    for x in dcls
                )
            om = [omega(sg, x).element for x in sg.elements()]
            dlg = is_dlg(sg).holds
            assert _dlg_characterizations(sg, gr, om) == (dlg,) * 4, name
            report = variety_report(sg)
            assert report.dlg == dlg and report.drg == is_dlg(opposite(sg)).holds, name
            assert report.right_group == all(
                sg.mul(om[y], x) == x for x in sg.elements() for y in sg.elements()
            ), name
        b2 = builtin("b2")
        res = is_dlg(b2)
        x, u = res.witness
        assert not res.holds
        assert (b2.names[x], b2.names[u]) == ("a", "b")
        assert b2.mul(omega(b2, u).element, x) == b2.index_of("0")
        assert green(b2).same_L(b2.mul(u, x), x)
        assert not is_dlg(builtin("lz2")).holds
        for name in ("rz2", "z3", "n2", "sl2"):
            assert is_dlg(builtin(name)).holds, name


def test_criterion_5_stabilizer_lemmas():
    with Criterion(5, "L-stabilizer laws on the zoo", 30.0):
        for name, sg in zoo():
            gr = green(sg)
            res = is_dlg(sg)
            stabs = {x: stab_L(sg, x) for x in sg.elements()}
            if res.holds:
                for x in sg.elements():
                    for u in stabs[x]:
                        for v in stabs[x]:
                            assert sg.mul1(u, v) in stabs[x], name
                    for y in sg.elements():
                        if y in class_of(gr.classesJ, x):
                            assert stabs[x] == stabs[y], name
                for u in sg.elements():
                    for x in sg.elements():
                        fixed = sg.mul(omega(sg, u).element, x) == x
                        related = gr.same_L(sg.mul(u, x), x)
                        assert fixed == related, name
            else:
                x, u = res.witness
                assert gr.same_L(sg.mul(u, x), x) and \
                    sg.mul(omega(sg, u).element, x) != x, name


def test_criterion_6_scc_invariants(battery_results):
    with Criterion(6, "component invariants and the cycle property", 300.0):
        for name in ("trivial", "z2", "n2", "rz2"):
            assert is_dlg(builtin(name)).holds
        checked_transitions = 0
        checked_cycles = 0
        for ins in battery_results["cyclic"]:
            g = build(ins)
            sg = ins.mu.target
            gr = green(sg)
            analyses = {}
            for ci, has_tr in enumerate(g.scc.has_transition):
                if not has_tr:
                    continue
                analyses[ci] = scc_invariants(g, ci)  # asserts the invariants
            component = comp_of(g.scc)
            for t in g.transitions:
                ci = component[t.source]
                if ci != component[t.target]:
                    continue
                checked_transitions += 1
                # transition shape
                assert t.label is not None
                var, repl = t.label
                assert len(repl) == 2 and repl[1] == var
                alpha = repl[0]
                mu_src = state_images(g, t.source)
                mu_dst = state_images(g, t.target)
                assert leq_R(sg, mu_src[var], mu_src[alpha])
                assert gr.same_L(mu_src[var], mu_dst[var])
                assert preimage_infinite(ins.mu, mu_src[var])
                # playground preservation when the variable still occurs
                st = g.state(t.source)
                if (st.lhs + st.rhs).count(var) >= 1:
                    an = analyses[ci]
                    assert var in an.per_state[t.source].players
                    assert mu_src[alpha] in an.leading_stab
            for cycle in simple_cycles(g, max_len=20):
                checked_cycles += 1
                assert find_nicely_balanced_on_cycle(g, cycle) is not None
        assert checked_transitions > 1000
        assert checked_cycles > 1000


def test_criterion_7_brandt_two_constants(battery_equations):
    with Criterion(7, "two-constant Brandt guessing vs oracle", 120.0):
        b2 = builtin("b2")
        zero = b2.index_of("0")
        checked = 0
        for eq in battery_equations:
            used = tuple(v for v in ("X", "Y") if v in eq.lhs + eq.rhs)
            if not used:
                continue
            syms = SymbolTable(("a", "b"), used)
            image = {"a": 0, "b": 1}
            image.update({v: zero for v in used})
            ins = Instance((eq,), ConstraintMorphism.from_dict(syms, b2, image))
            original = {s.assignment for s in brute_solutions(ins, 4).solutions}
            composed = set()
            for guess in brandt_two_constant_guesses(ins):
                fresh = guess.symbols.variables
                halves = {v: (fresh[2 * i], fresh[2 * i + 1]) for i, v in enumerate(used)}
                squares = _square_constants(ins, guess, halves)
                for sub_ins in singular_guesses(guess):
                    if sub_ins.equations:
                        subs = brute_solutions(sub_ins, 2).solutions
                    else:
                        subs = [Solution.from_dict({})]
                    erased = set(fresh) - set(sub_ins.symbols.variables)
                    for s in subs:
                        full = {
                            v: s.as_dict.get(v, ())
                            for v in fresh
                        }
                        if any(v in erased and full[v] for v in fresh):
                            continue
                        sol = Solution.from_dict({
                            v: full[halves[v][0]] + (squares[v], squares[v]) + full[halves[v][1]]
                            for v in used
                        })
                        if any(len(sol.as_dict[v]) > 4 for v in used):
                            continue
                        # soundness: every guess-derived assignment verifies
                        assert verify_solution(ins, sol), (eq, sol.assignment)
                        composed.add(sol.assignment)
            # completeness: the oracle's solutions all arise from some guess
            assert composed == original, eq
            checked += 1
        assert checked > 2000


def _square_constants(original, guess, halves):
    """Which constant got squared for each original variable in a guess."""
    out = {}
    eq_g = guess.equations[0]
    for v, (x1, _) in halves.items():
        side = eq_g.lhs if x1 in eq_g.lhs else eq_g.rhs
        out[v] = side[side.index(x1) + 1]
    return out


def test_criterion_8_exp_oracle():
    with Criterion(8, "exponent of periodicity vs factor-search oracle", 10.0):
        def factor_search(w):
            best = 0
            n = len(w)

            def contains(needle):
                k = len(needle)
                return any(w[i:i + k] == needle for i in range(n - k + 1))

            for i in range(n):
                for j in range(i + 1, n + 1):
                    p = w[i:j]
                    k = 1
                    while contains(p * (k + 1)):
                        k += 1
                    best = max(best, k)
            return best

        assert exp_word("") == 0
        assert exp_word("ababab") == 3
        total = 0
        for n in range(1, 11):
            for w in itertools.product("ab", repeat=n):
                total += 1
                assert exp_word(w) == factor_search(w)
        assert total == 2046
