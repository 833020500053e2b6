import time

import pytest

import families
from conftest import class_of
from families import adjoin_identity, direct_product, format_semigroup
from weq.semigroup import (
    ONE,
    BadIndex,
    NonAssociative,
    adjoin_zero,
    builtin,
    from_table,
    green,
    is_dlg,
    omega,
    opposite,
    parse_semigroup,
    resolve_semigroup,
    stab_L,
    variety_report,
)
from weq._text import ParseError


def names_of(sg, xs):
    return sorted(sg.name_of(x) for x in xs)


class TestConstruction:
    def test_trivial(self):
        sg = from_table(["e"], [[0]])
        assert sg.order == 1
        assert sg.mul(0, 0) == 0

    def test_b2_from_relations(self):
        b2 = builtin("b2")
        a, b = 0, 1
        assert b2.mul(b2.mul(a, b), a) == a  # aba = a
        assert b2.mul(b2.mul(b, a), b) == b  # bab = b
        assert b2.mul(a, a) == b2.index_of("0")
        assert b2.mul(b, b) == b2.index_of("0")

    def test_non_associative_reports_least_triple(self):
        # (pp)q = p but p(pq) = q
        with pytest.raises(NonAssociative) as exc:
            from_table(["p", "q"], [[1, 0], [0, 0]])
        assert exc.value.triple == (0, 0, 1)

    def test_bad_shapes(self):
        with pytest.raises(BadIndex):
            from_table(["a", "b"], [[0, 1]])
        with pytest.raises(BadIndex):
            from_table(["a"], [[2]])
        with pytest.raises(BadIndex):
            from_table(["a", "a"], [[0, 0], [0, 0]])

    def test_empty_semigroup(self):
        sg = from_table([], [])
        assert sg.order == 0
        rep = variety_report(sg)
        assert rep.dlg and rep.right_group and rep.nilpotent and not rep.group

    def test_zoo_is_associative(self, zoo_members):
        for name, sg in zoo_members:
            from_table(sg.names, sg.table)  # re-validates eagerly


@pytest.mark.parametrize("make,message", [
    (lambda: from_table(["a", "b"], [[0, 1], [0]]), "table is not square"),
    (lambda: omega(builtin("z2"), 2), "element 2 out of range"),
    (lambda: omega(builtin("z2"), -2), "element -2 out of range"),
    (lambda: stab_L(builtin("z2"), 2), "element 2 out of range"),
    (lambda: stab_L(builtin("z2"), ONE), "element -1 out of range"),
])
def test_bad_index(make, message):
    """A table row of the wrong length, and an element that is neither in
    range nor, for `omega`, the adjoined identity."""
    with pytest.raises(BadIndex) as exc:
        make()
    assert str(exc.value) == message


class TestOmega:
    def test_z3_generator(self):
        z3 = builtin("z3")
        pw = omega(z3, 1)
        assert pw.element == 0 and pw.exponent == 3

    def test_b2_a(self):
        b2 = builtin("b2")
        pw = omega(b2, 0)
        assert b2.names[pw.element] == "0" and pw.exponent == 2

    def test_idempotent_fixed_point(self, zoo_members):
        for name, sg in zoo_members:
            for e in sg.elements():
                if sg.is_idempotent(e):
                    assert omega(sg, e) == type(omega(sg, e))(e, 1)

    def test_omega_is_idempotent_power(self, zoo_members):
        for name, sg in zoo_members:
            for x in sg.elements():
                pw = omega(sg, x)
                assert sg.mul(pw.element, pw.element) == pw.element
                powers = set()
                p = x
                for _ in range(sg.order + 1):
                    powers.add(p)
                    p = sg.mul(p, x)
                assert pw.element in powers


class TestGreen:
    def test_trivial_all_singletons(self):
        gr = green(builtin("trivial"))
        for classes in (gr.classesL, gr.classesR, gr.classesJ, gr.classesH):
            assert classes == ((0,),)

    def test_b2_classes(self):
        b2 = builtin("b2")
        gr = green(b2)
        assert names_of(b2, gr.classesL[gr.indexL[0]]) == ["a", "ba"]
        assert names_of(b2, class_of(gr.classesR, 0)) == ["a", "ab"]
        assert names_of(b2, class_of(gr.classesJ, 0)) == ["a", "ab", "b", "ba"]
        assert gr.regularD == (True, True)

    def test_regularity_equivalences(self, zoo_members):
        # a D-class has an idempotent iff all its L-classes do iff all its
        # R-classes do iff every element x has some y with xyx = x
        for name, sg in zoo_members:
            gr = green(sg)
            for di, dcls in enumerate(gr.classesJ):
                has_idem = gr.regularD[di]
                l_ok = all(
                    any(sg.is_idempotent(e) for e in gr.classesL[gr.indexL[x]]) for x in dcls
                )
                r_ok = all(
                    any(sg.is_idempotent(e) for e in class_of(gr.classesR, x)) for x in dcls
                )
                elem_ok = all(
                    any(sg.mul(sg.mul(x, y), x) == x for y in sg.elements()) for x in dcls
                )
                assert has_idem == l_ok == r_ok == elem_ok, (name, dcls)

    def test_h_is_l_cap_r(self, zoo_members):
        for name, sg in zoo_members:
            gr = green(sg)
            for x in sg.elements():
                expect = set(gr.classesL[gr.indexL[x]]) & set(class_of(gr.classesR, x))
                assert set(class_of(gr.classesH, x)) == expect


class TestStabilizers:
    def test_trivial(self):
        sg = builtin("trivial")
        assert stab_L(sg, 0) == frozenset({ONE, 0})

    def test_b2(self):
        b2 = builtin("b2")
        assert names_of(b2, stab_L(b2, 0)) == ["1", "ab"]

    def test_groups_stabilize_everything(self):
        for name in ("z2", "z3", "s3"):
            sg = builtin(name)
            full = frozenset({ONE} | set(sg.elements()))
            for x in sg.elements():
                assert stab_L(sg, x) == full


class TestDlg:
    def test_b2_witness(self):
        b2 = builtin("b2")
        res = is_dlg(b2)
        assert not res.holds
        x, u = res.witness
        assert (b2.names[x], b2.names[u]) == ("a", "b")
        # u x ~L x yet u^omega x = 0 != x
        assert b2.mul(omega(b2, u).element, x) == b2.index_of("0")

    def test_left_zero_fails_right_zero_holds(self):
        assert not is_dlg(builtin("lz2")).holds
        assert is_dlg(builtin("rz2")).holds

    def test_groups_hold(self):
        for name in ("z2", "z3", "s3"):
            assert is_dlg(builtin(name)).holds

    def test_dlg_stabilizer_laws(self, zoo_members):
        # in the variety: stab_L is a submonoid, constant on J-classes, and
        # u^omega x = x iff ux ~L x; outside it the last equivalence breaks
        for name, sg in zoo_members:
            gr = green(sg)
            res = is_dlg(sg)
            stabs = {x: stab_L(sg, x) for x in sg.elements()}
            if res.holds:
                for x in sg.elements():
                    st = stabs[x]
                    for u in st:
                        for v in st:
                            assert sg.mul1(u, v) in st or sg.mul1(u, v) == ONE, name
                    for y in sg.elements():
                        if y in class_of(gr.classesJ, x):
                            assert stabs[x] == stabs[y], name
                for u in sg.elements():
                    for x in sg.elements():
                        lhs = sg.mul(omega(sg, u).element, x) == x
                        rhs = gr.same_L(sg.mul(u, x), x)
                        assert lhs == rhs, name
            else:
                x, u = res.witness
                assert gr.same_L(sg.mul(u, x), x)
                assert sg.mul(omega(sg, u).element, x) != x


class TestVarietyReport:
    def test_z3(self):
        rep = variety_report(builtin("z3"))
        assert rep.group and rep.duo and rep.dlg and rep.drg

    def test_n2(self):
        rep = variety_report(builtin("n2"))
        assert rep.nilpotent and rep.j_trivial and rep.dlg

    def test_b2(self):
        rep = variety_report(builtin("b2"))
        assert not rep.j_trivial and not rep.dlg and not rep.drg and not rep.ds

    def test_implications_over_zoo(self, zoo_members):
        for name, sg in zoo_members:
            rep = variety_report(sg)
            if rep.duo:
                assert rep.dlg, name
            if rep.group:
                assert rep.duo, name
            if rep.commutative:
                assert rep.duo, name
            if rep.nilpotent:
                assert rep.j_trivial, name
            if rep.j_trivial:
                assert rep.dlg, name

    def test_right_group_examples(self):
        assert variety_report(builtin("rz2")).right_group
        assert not variety_report(builtin("lz2")).right_group
        assert variety_report(builtin("z3")).right_group


class TestStructure:
    def test_opposite_left_zero(self):
        assert opposite(builtin("lz2")).table == builtin("rz2").table

    def test_opposite_involution(self, zoo_members):
        for name, sg in zoo_members:
            assert opposite(opposite(sg)).table == sg.table

    def test_adjoin_identity(self):
        sg = adjoin_identity(builtin("n2"))
        e = sg.identity_element()
        assert e == sg.order - 1
        assert all(sg.mul(e, x) == x == sg.mul(x, e) for x in sg.elements())

    def test_adjoin_zero(self):
        sg = adjoin_zero(builtin("z2"))
        z = sg.zero_element()
        assert z == sg.order - 1
        assert all(sg.mul(z, x) == z == sg.mul(x, z) for x in sg.elements())

    def test_direct_product_orders(self):
        p = direct_product(builtin("z2"), builtin("z3"))
        assert p.order == 6
        from_table(p.names, p.table)


class TestTextFormat:
    GOOD = """\
# two-element semilattice
semigroup demo
elements t f
table
t f
f f
"""

    def test_roundtrip(self):
        sg = parse_semigroup(self.GOOD)
        assert sg.label == "demo" and sg.order == 2
        again = parse_semigroup(format_semigroup(sg))
        assert again.table == sg.table

    def test_parse_errors_carry_line(self):
        with pytest.raises(ParseError) as exc:
            parse_semigroup("semigroup x\nelements a b\ntable\na b\n")
        assert exc.value.line >= 3
        with pytest.raises(ParseError):
            parse_semigroup("elements a\ntable\na\n")
        with pytest.raises(ParseError):
            parse_semigroup("semigroup x\nelements a\ntable\nq\n")

    def test_resolve_builtin(self):
        assert resolve_semigroup("builtin:b2").label == "b2"
        assert resolve_semigroup("z3").order == 3

    def test_resolve_file(self, tmp_path):
        path = tmp_path / "demo.sg"
        path.write_text(self.GOOD)
        assert resolve_semigroup(f"file:{path}").order == 2
        assert resolve_semigroup(str(path)).order == 2


class TestNamedFamilies:
    """Groups, commutative and J-trivial semigroups lie in DLG and DRG."""

    def test_orders(self):
        assert [sg.order for sg in families.groups()] == list(range(1, 13)) + [6, 8, 10, 12]
        *monogenic, subsets = families.commutative()
        assert [sg.order for sg in monogenic] == [i + p - 1 for i in range(1, 5) for p in range(1, 5)]
        assert subsets.order == 8
        assert [sg.order for sg in families.j_trivial()] == [5, 14, 42]
        assert len(families.families()) == 36
        # the seeded draw on 3, 4 and 5 points, then S_5
        assert [sg.order for sg in families.permutation_groups()] == [6, 3, 3, 3, 2, 24, 6, 2, 120, 2, 4, 6, 120]

    def test_shapes(self):
        for sg in families.groups() + families.permutation_groups():
            assert len(green(sg).classesH) == 1, sg.label  # one H-class: a group
        for sg in families.commutative():
            assert all(sg.mul(x, y) == sg.mul(y, x) for x in sg.elements() for y in sg.elements())
        for sg in families.j_trivial():
            assert len(green(sg).classesJ) == sg.order, sg.label

    @pytest.mark.parametrize("sg", families.families() + families.permutation_groups(), ids=lambda sg: sg.label)
    def test_in_both_varieties(self, sg):
        start = time.monotonic()
        assert is_dlg(sg).holds
        assert is_dlg(opposite(sg)).holds
        assert time.monotonic() - start < 1.0

    @pytest.mark.parametrize("sg", [builtin("b2"), direct_product(builtin("lz2"), builtin("rz2"))],
                             ids=["b2", "lz2xrz2"])
    def test_controls_in_neither(self, sg):
        assert not is_dlg(sg).holds
        assert not is_dlg(opposite(sg)).holds
