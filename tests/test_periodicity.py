import dataclasses
import json

import pytest

from conftest import battery_instances, make_instance, quadratic_equation_battery
from scc_reference import leq_J, scc_invariants
from weq import periodicity
from weq.equations import EquationError, Solution, exp_solution, packing, parse_instance, verify_solution
from weq.periodicity import (
    NotDLG,
    TheoremViolation,
    certificate_to_json,
    decide_exp_infinite_dlg,
    find_nicely_balanced_on_cycle,
    instantiate,
    is_nicely_balanced,
    load_certificate,
    pumpable_state,
    pumping_certificate,
    simple_cycles,
)
from weq.semigroup import ONE, builtin, green, is_dlg
from weq.solution_graph import SccData, SolutionGraph, build


def synthetic_state_graph(ins, lhs, rhs, varset):
    """A single hand-built state for direct shape checks."""
    char_of, token_of = packing(ins.symbols)
    key = (
        "".join(map(char_of.get, lhs)), "".join(map(char_of.get, rhs)),
        tuple(ins.mu[v] if v in varset else -1 for v in ins.symbols.variables), False,
    )
    return SolutionGraph(
        ins, [key], [0, 0], [], [], token_of, 0, frozenset(),
        SccData(((0,),), (0,), (False,)),
    )


class TestNicelyBalanced:
    def test_running_example(self):
        g = build(make_instance("XabY=YbaX"))
        wit = is_nicely_balanced(g, g.initial, "X")
        assert wit is not None and wit.v == tuple("Yba") and wit.v_prime == ()

    def test_single_occurrence_fails(self):
        g = build(make_instance("XY=Yab"))
        assert is_nicely_balanced(g, g.initial, "X") is None

    def test_b2_stabilizer_blocks(self):
        # lhs = Xa, rhs = bXa with the image of X equal to a: the prefix b
        # does not stabilize a
        ins = make_instance("Xa=bXa", sg=builtin("b2"),
                            mapping={"a": "a", "b": "b", "X": "a"})
        g = synthetic_state_graph(ins, "Xa", "bXa", {"X"})
        assert is_nicely_balanced(g, 0, "X") is None

    def test_trivial_constraints_same_shape_passes(self):
        ins = make_instance("Xa=bXa")
        g = synthetic_state_graph(ins, "Xa", "bXa", {"X"})
        wit = is_nicely_balanced(g, 0, "X")
        assert wit is not None and wit.v == ("b",)

    def test_absent_variable(self):
        ins = make_instance("aa=aa", variables="Z")
        g = synthetic_state_graph(ins, "aa", "aa", {"Z"})
        wit = is_nicely_balanced(g, 0, "Z")
        assert wit is not None and wit.absent

    def test_finite_language_blocks_absent(self):
        ins = make_instance("aa=aa", constants="a", variables="Z",
                            sg=builtin("n2"), mapping={"a": "x", "Z": "x"})
        g = synthetic_state_graph(ins, "aa", "aa", {"Z"})
        assert is_nicely_balanced(g, 0, "Z") is None

    def test_empty_v_witness(self):
        ins = make_instance("Xa=Xba")
        g = synthetic_state_graph(ins, "Xa", "Xba", {"X"})
        wit = is_nicely_balanced(g, 0, "X")
        assert wit is not None and wit.v == ()

    def test_swapped_side(self):
        g = build(make_instance("XabY=YbaX"))
        wit = is_nicely_balanced(g, g.initial, "Y")
        assert wit is not None and wit.swapped


class TestSccAnalysis:
    def test_trivial_constraints_full_playground(self):
        g = build(make_instance("XabY=YbaX"))
        comp = next(i for i, h in enumerate(g.scc.has_transition) if h)
        an = scc_invariants(g, comp)
        assert an.leading_J == frozenset({0})
        assert an.leading_stab == frozenset({ONE, 0})
        pg = an.per_state[g.initial]
        assert pg.size == 8
        assert pg.players == {"X", "Y"} == pg.balanced

    def test_n2_constrained(self):
        ins = make_instance("XaY=YaX", constants="a", sg=builtin("n2"),
                            mapping={"a": "x", "X": "0", "Y": "0"})
        g = build(ins)
        comp = next(i for i, h in enumerate(g.scc.has_transition) if h)
        an = scc_invariants(g, comp)
        zero = builtin("n2").index_of("0")
        assert an.leading_J == frozenset({zero})
        assert len(an.leading_stab) == 3  # all of the target plus the identity
        pg = next(iter(an.per_state.values()))
        assert pg.players == {"X", "Y"}

    def test_true_state_component(self):
        g = build(make_instance("X=Y"))
        comp = next(i for i, h in enumerate(g.scc.has_transition) if h)
        an = scc_invariants(g, comp)
        assert all(p.size == 0 for p in an.per_state.values())


class TestCycles:
    def test_first_cycle_is_shortest_in_first_component(self):
        g = build(make_instance("XabY=YbaX"))
        cycles = simple_cycles(g)
        assert cycles
        assert len(cycles[0]) == 3
        assert g.initial in cycles[0]

    def test_self_loop(self):
        g = build(make_instance("Xa=aX"))
        cycles = simple_cycles(g)
        assert cycles[0] == (g.initial,)

    def test_nicely_balanced_on_fig1_cycle(self):
        g = build(make_instance("XabY=YbaX"))
        sid, var, wit = find_nicely_balanced_on_cycle(g, simple_cycles(g)[0])
        assert g.states[sid].equation_str() == "X a b Y = Y b a X"
        assert var == "X" and wit.v == tuple("Yba")

    def test_xa_ax_cycle(self):
        g = build(make_instance("Xa=aX"))
        sid, var, wit = find_nicely_balanced_on_cycle(g, simple_cycles(g)[0])
        assert var == "X" and wit.v == ("a",)


class TestCertificates:
    def test_running_example(self):
        ins = make_instance("XabY=YbaX")
        cert = pumping_certificate(ins)
        assert cert.case == "head_balanced"
        assert cert.v == tuple("Yba")
        assert cert.base_dict() == {"X": tuple("aba"), "Y": ("a",)}
        sol1 = instantiate(cert, ins, 1)
        assert sol1 == Solution.from_dict({"X": tuple("abaaba"), "Y": ("a",)})
        # direct substitution: abaaba ab a == a ba abaaba
        assert sol1.apply(ins.equation.lhs) == sol1.apply(ins.equation.rhs)

    def test_running_example_at_m_400(self):
        ins = make_instance("XabY=YbaX")
        sol = instantiate(pumping_certificate(ins), ins, 400)
        assert len(sol.value("X")) == 1203
        assert exp_solution(sol) >= 400

    def test_empty_pumped_word_is_an_error(self):
        # an explicit error, not an assert that python -O would drop
        ins = make_instance("XabY=YbaX")
        cert = dataclasses.replace(pumping_certificate(ins), v=())
        with pytest.raises(EquationError, match="empty image"):
            instantiate(cert, ins, 1)

    def test_xa_ax(self):
        ins = make_instance("Xa=aX")
        cert = pumping_certificate(ins)
        assert cert.case == "head_balanced" and cert.v == ("a",)
        assert cert.base_dict() == {"X": ("a",)}
        assert instantiate(cert, ins, 3).value("X") == ("a",) * 4

    def test_none_when_finite(self):
        ins = make_instance("Xa=aX", constants="a", sg=builtin("n2"),
                            mapping={"a": "x", "X": "x"})
        assert pumping_certificate(ins) is None
        assert pumping_certificate(make_instance("Xa=bX")) is None

    def test_free_variable_case(self):
        ins = make_instance("aa=aa", variables="Z")
        cert = pumping_certificate(ins)
        assert cert is not None and cert.case == "free_variable"
        for m in range(4):
            sol = instantiate(cert, ins, m)
            assert exp_solution(sol) >= m

    def test_distinct_and_growing(self):
        for spec in ("XabY=YbaX", "Xa=aX", "XY=YX", "X=Y"):
            ins = make_instance(spec)
            cert = pumping_certificate(ins)
            assert cert is not None, spec
            seen = set()
            for m in range(6):
                sol = instantiate(cert, ins, m)
                assert verify_solution(ins, sol)
                assert exp_solution(sol) >= m
                assert sol not in seen
                seen.add(sol)

    def test_lift_through_prefix(self):
        # the pumpable state need not be the initial one
        ins = make_instance("aXb=Xab")
        cert = pumping_certificate(ins)
        if cert is not None:
            for m in range(4):
                assert verify_solution(ins, instantiate(cert, ins, m))

    @pytest.mark.parametrize("k", [20, 32, 600])
    def test_cycle_longer_than_twenty(self, k):
        # every cycle of X a^k b = a^k b X passes through k + 1 states or
        # more; at k = 600 the accepting path from the pumpable state is
        # longer than the interpreter's default recursion limit
        ins = make_instance("X" + "a" * k + "b=" + "a" * k + "bX")
        dec = decide_exp_infinite_dlg(ins)
        assert dec.infinite and dec.certificate is not None
        for m in range(3):
            sol = instantiate(dec.certificate, ins, m)
            assert verify_solution(ins, sol)
            assert exp_solution(sol) >= m

    def test_semigroup_analysis_once_per_graph(self):
        green.cache_clear()
        is_dlg.cache_clear()
        ins = make_instance("XabY=YbaX")
        g = build(ins)
        cyclic = [i for i, h in enumerate(g.scc.has_transition) if h]
        for _ in range(3):
            for ci in cyclic:
                scc_invariants(g, ci)
            pumping_certificate(ins, graph=g)
            find_nicely_balanced_on_cycle(g, g.scc.components[cyclic[0]])
            decide_exp_infinite_dlg(ins, graph=g)
        assert green.cache_info().misses == 1
        assert green.cache_info().hits >= 3
        assert is_dlg.cache_info().misses == 1
        assert is_dlg.cache_info().hits >= 2


class TestSolveState:
    def test_path_that_leaves_variables_raises(self):
        # an explicit exception, so the check survives python -O
        g = build(make_instance("XabY=YbaX"))
        with pytest.raises(TheoremViolation, match="leaves"):
            periodicity._solve_state(g, g.initial, [])


class TestDecide:
    def test_running_example_infinite(self):
        dec = decide_exp_infinite_dlg(make_instance("XabY=YbaX"))
        assert dec.infinite and dec.certificate is not None

    def test_finite_cases(self):
        ins = make_instance("Xa=aX", constants="a", sg=builtin("n2"),
                            mapping={"a": "x", "X": "x"})
        assert not decide_exp_infinite_dlg(ins).infinite
        assert not decide_exp_infinite_dlg(make_instance("Xa=bX")).infinite

    def test_rejects_non_dlg(self):
        ins = make_instance("XaY=YaX", sg=builtin("b2"),
                            mapping={"a": "a", "b": "b", "X": "0", "Y": "0"})
        with pytest.raises(NotDLG):
            decide_exp_infinite_dlg(ins)

    def test_matches_infinitude_over_samples(self):
        specs = ["Xa=aX", "XabY=YbaX", "XY=YX", "Xab=baX", "XY=ab", "X=Y",
                 "XaY=YbX", "aXb=bXa"]
        from weq.solution_graph import has_infinitely_many
        for spec in specs:
            ins = make_instance(spec)
            g = build(ins)
            dec = decide_exp_infinite_dlg(ins, graph=g)
            assert dec.infinite == has_infinitely_many(g), spec


class TestUnconstrainedAlwaysCertified:
    def test_mini_battery(self):
        # with no effective constraints, every infinite instance pumps
        from conftest import quadratic_equation_battery
        from weq.equations import unconstrained
        from weq.solution_graph import has_infinitely_many

        for eq in quadratic_equation_battery(5):
            used = tuple(v for v in ("X", "Y") if v in eq.lhs + eq.rhs)
            ins = unconstrained([eq], ("a", "b"), used)
            g = build(ins)
            if not has_infinitely_many(g):
                continue
            cert = pumping_certificate(ins, graph=g)
            assert cert is not None, eq
            for m in range(3):
                sol = instantiate(cert, ins, m)
                assert verify_solution(ins, sol) and exp_solution(sol) >= m


class TestAbsentVariableComponents:
    def test_incomparable_j_target(self):
        # a declared variable missing from the equation cycles through the
        # absent-variable rule; the component analysis must survive targets
        # whose J-order is not a chain
        from weq.equations import ConstraintMorphism, Instance, SymbolTable
        from weq.semigroup import builtin, direct_product, is_dlg
        from weq.solution_graph import has_infinitely_many
        from conftest import compact_equation

        sg = direct_product(builtin("sl2"), builtin("sl2"))
        assert is_dlg(sg).holds
        assert any(
            not leq_J(sg, x, y) and not leq_J(sg, y, x)
            for x in sg.elements() for y in sg.elements()
        )
        syms = SymbolTable(("a", "b"), ("X", "Y"))
        import itertools
        for spec in ("Xa=aX", "ab=ab", "XabY=YbaX"):
            eq = compact_equation(spec)
            for imgs in itertools.product(sg.elements(), repeat=4):
                mu = ConstraintMorphism.from_dict(syms, sg, dict(zip(syms.all_symbols(), imgs)))
                ins = Instance((eq,), mu)
                g = build(ins)
                cyclic = [i for i, h in enumerate(g.scc.has_transition) if h]
                for ci in cyclic:
                    scc_invariants(g, ci)  # asserts the invariants
                if cyclic:
                    cert = pumping_certificate(ins, graph=g)
                    assert cert is not None
                    assert has_infinitely_many(g)


class TestPumpableState:
    def test_first_hit_of_the_scan(self):
        g = build(make_instance("XabY=YbaX"))
        sid, var, wit = pumpable_state(g)
        assert sid == g.initial and var == "X" and wit.v == tuple("Yba")

    def test_none_when_acyclic(self):
        assert pumpable_state(build(make_instance("Xa=bX"))) is None

    def test_miss_raises_on_dlg_target(self, monkeypatch):
        g = build(make_instance("XabY=YbaX"))
        monkeypatch.setattr(periodicity, "is_nicely_balanced", lambda *a: None)
        with pytest.raises(TheoremViolation):
            pumpable_state(g)

    def test_miss_is_none_outside_the_variety(self, monkeypatch):
        ins = make_instance("Xa=aX", sg=builtin("lz2"),
                            mapping={"a": "a", "b": "b", "X": "a"})
        g = build(ins)
        assert pumpable_state(g) is not None
        monkeypatch.setattr(periodicity, "is_nicely_balanced", lambda *a: None)
        assert pumpable_state(g) is None


class TestNonDlgRobustness:
    def brandt(self, eqs):
        return make_instance(eqs, sg=builtin("b2"),
                             mapping={"a": "a", "b": "b", "X": "0", "Y": "0"})

    def test_certificate_search_never_crashes(self):
        for spec in ("XaY=YaX", "XabY=YbaX", "XbY=YbX"):
            ins = self.brandt(spec)
            cert = pumping_certificate(ins)
            if cert is not None:
                for m in range(3):
                    assert verify_solution(ins, instantiate(cert, ins, m))

    def test_miss_is_allowed_outside_the_variety(self):
        ins = self.brandt("XaY=YaX")
        g = build(ins)
        for cycle in simple_cycles(g):
            find_nicely_balanced_on_cycle(g, cycle)


class TestCertificateJson:
    def test_battery_roundtrip(self):
        loaded = 0
        for ins in battery_instances(quadratic_equation_battery(4), ("trivial", "z2")):
            g = build(ins)
            cert = pumping_certificate(ins, graph=g)
            if cert is None:
                continue
            data = json.loads(json.dumps(certificate_to_json(cert)))
            assert load_certificate(ins, data, graph=g) == cert
            loaded += 1
        assert loaded > 100

    def test_roundtrip(self):
        ins = make_instance("XabY=YbaX")
        g = build(ins)
        cert = pumping_certificate(ins, graph=g)
        data = json.loads(json.dumps(certificate_to_json(cert)))
        assert set(data) == {"state", "variable", "case", "v", "base", "omega", "prefix_path"}
        loaded = load_certificate(ins, data, graph=g)
        for m in range(4):
            assert instantiate(loaded, ins, m) == instantiate(cert, ins, m)

    def test_tokens_with_comma_and_arrow_roundtrip(self):
        # labels are JSON lists, so tokens may contain the old separators
        ins = parse_instance(
            "constants a,b ->\nvariables X Y\nequation X = a,b -> Y\nsemigroup builtin:trivial\n"
        )
        g = build(ins)
        cert = pumping_certificate(ins, graph=g)
        data = json.loads(json.dumps(certificate_to_json(cert)))
        assert data["prefix_path"] == [["X", ["a,b", "X"]], ["X", ["->", "X"]], ["Y", ["X"]]]
        loaded = load_certificate(ins, data, graph=g)
        for m in range(4):
            assert instantiate(loaded, ins, m) == instantiate(cert, ins, m)

    def test_tampered_base_rejected(self):
        ins = make_instance("XabY=YbaX")
        g = build(ins)
        data = certificate_to_json(pumping_certificate(ins, graph=g))
        data["base"]["X"] = ["b", "b"]
        with pytest.raises(EquationError):
            load_certificate(ins, data, graph=g)

    def test_tampered_state_rejected(self):
        ins = make_instance("XabY=YbaX")
        g = build(ins)
        data = certificate_to_json(pumping_certificate(ins, graph=g))
        data["state"] = 10**6
        with pytest.raises(EquationError):
            load_certificate(ins, data, graph=g)

    @pytest.mark.parametrize("case", ["bogus", "free_variable"])
    def test_case_must_match_head_balanced_state(self, case):
        ins = make_instance("XabY=YbaX")
        g = build(ins)
        data = certificate_to_json(pumping_certificate(ins, graph=g))
        data["case"] = case
        with pytest.raises(EquationError, match="certificate case"):
            load_certificate(ins, data, graph=g)

    def test_case_must_match_free_variable_state(self):
        ins = make_instance("aa=aa", variables="Z")
        g = build(ins)
        data = certificate_to_json(pumping_certificate(ins, graph=g))
        data.update(case="head_balanced", v=["a"], omega=1)
        with pytest.raises(EquationError, match="certificate case"):
            load_certificate(ins, data, graph=g)

    def test_free_variable_roundtrip(self):
        ins = make_instance("aa=aa", variables="Z")
        g = build(ins)
        cert = pumping_certificate(ins, graph=g)
        data = certificate_to_json(cert)
        assert data["v"] is None and data["omega"] is None
        loaded = load_certificate(ins, data, graph=g)
        assert loaded.pump == cert.pump
