import hashlib
import itertools
import json
import random
from types import SimpleNamespace

import pytest

from weq import hunt
from weq.equations import ConstraintMorphism, Instance, SymbolTable, WordEquation, format_instance
from weq.semigroup import builtin


def reference_key(eq, sigma, variables, image=None):
    """The least form of the instance, as strings, under every renaming of
    the constants over sigma and of the occurring variables among
    themselves; a class invariant found by permutation search."""
    used_vars = tuple(v for v in variables if v in eq.lhs + eq.rhs)
    best = None
    for cperm in itertools.permutations(sigma):
        cmap = dict(zip(sigma, cperm))
        for vperm in itertools.permutations(used_vars):
            ren = {**cmap, **dict(zip(used_vars, vperm))}
            cand = (
                tuple(ren[t] for t in eq.lhs),
                tuple(ren[t] for t in eq.rhs),
                tuple(sorted((ren[s], e) for s, e in image.items())) if image else (),
            )
            if best is None or cand < best:
                best = cand
    return best


def product_equations(n_constants, max_vars, max_len):
    """All equations (U, V) over the fixed token pools with nonempty sides,
    |UV| <= max_len, and every variable occurring at most twice, in
    `itertools.product` order, then by cut."""
    sigma = hunt.CONSTANT_POOL[:n_constants]
    variables = hunt.VARIABLE_POOL[:max_vars]
    alphabet = sigma + variables
    for total in range(2, max_len + 1):
        for word in itertools.product(alphabet, repeat=total):
            if any(word.count(v) > 2 for v in variables):
                continue
            for cut in range(1, total):
                yield WordEquation(word[:cut], word[cut:]), sigma, variables


def raw_instances(sg, n_constants, max_vars, max_len):
    """Every (equation, symbols, constraint map) the sweep enumerates, in
    enumeration order, before any renaming class is merged."""
    for eq, sigma, variables in product_equations(n_constants, max_vars, max_len):
        used = tuple(v for v in variables if v in eq.lhs + eq.rhs)
        syms = SymbolTable(sigma, used)
        for images in itertools.product(sg.elements(), repeat=len(syms.all_symbols())):
            yield eq, syms, dict(zip(syms.all_symbols(), images))


def reference_sweep(sg, n_constants, max_vars, max_len):
    """The first instance of each class in enumeration order, found by
    remembering the reference key of every class seen."""
    seen = set()
    for eq, syms, mapping in raw_instances(sg, n_constants, max_vars, max_len):
        key = reference_key(eq, syms.constants, syms.variables, mapping)
        if key not in seen:
            seen.add(key)
            yield Instance((eq,), ConstraintMorphism.from_dict(syms, sg, mapping))


class TestSweepEnumeration:
    @pytest.mark.parametrize("n_constants, max_vars, max_len, count", [
        (2, 2, 7, 22_752),
        (3, 3, 6, 22_458),
        (4, 4, 5, 7_524),
    ])
    def test_generator_is_the_filtered_product(self, n_constants, max_vars, max_len, count):
        # the equations that are their own canonical form, in product order
        want = [
            (eq, sigma, tuple(v for v in variables if v in eq.lhs + eq.rhs),
             len(set(sigma).intersection(eq.lhs + eq.rhs)))
            for eq, sigma, variables in product_equations(n_constants, max_vars, max_len)
            if hunt.canonical_key(eq, sigma, variables)[:2] == (eq.lhs, eq.rhs)
        ]
        got = [(eq, syms.constants, syms.variables, n_occ)
               for eq, syms, n_occ in hunt.quadratic_equations(n_constants, max_vars, max_len)]
        assert len(want) == count
        assert got == want

    def test_generator_makes_only_first_members(self):
        # the product at (8, 6, 5) makes 2,229,118 equations, 0.9 % of them first members
        assert sum(1 for _ in hunt.quadratic_equations(8, 6, 5)) == 19_686

    def test_no_duplicate_canonical_instances(self):
        seen = set()
        for ins in hunt.sweep_instances(builtin("z2"), 2, 1, 3):
            key = (ins.equations, ins.mu.image)
            assert key not in seen
            seen.add(key)
        assert seen

    def test_canonical_forms_are_fixed_points(self):
        for ins in itertools.islice(hunt.sweep_instances(builtin("trivial"), 2, 2, 4), 200):
            eq = ins.equations[0]
            used = ins.symbols.variables
            image = {s: ins.mu[s] for s in ins.symbols.all_symbols()}
            key = hunt.canonical_key(eq, ins.symbols.constants, used, image)
            assert key == (eq.lhs, eq.rhs, tuple(sorted(image.items())))

    @pytest.mark.parametrize("target, sigma, max_vars, max_len, digest", [
        ("z2", 2, 2, 3, "cce3134850042a23881ddd72eff3c46b3085caaa70e9f025aa76da64eaffc8f1"),
        # the variable U sorts before X, Y, Z as a string but follows them in
        # the pool, so representatives depend on which order renaming uses
        ("trivial", 3, 4, 3, "8775ceaf4a9d098bfd50a05a857f720c3585132f4a341529231a25581fee0c60"),
    ])
    def test_sweep_is_pinned(self, target, sigma, max_vars, max_len, digest):
        # the representatives and their order, so that a faster canonical_key
        # must reproduce the sweep exactly
        h = hashlib.sha256()
        for ins in hunt.sweep_instances(builtin(target), sigma, max_vars, max_len):
            h.update(format_instance(ins).encode())
        assert h.hexdigest() == digest

    @pytest.mark.parametrize("target, sigma, max_vars, max_len", [
        ("z2", 2, 2, 3),
        ("trivial", 4, 1, 3),
        ("n2", 2, 4, 3),
        ("lz2", 3, 1, 3),
        ("rz2", 2, 2, 3),
        ("b2", 2, 1, 3),
        ("trivial", 2, 2, 4),
    ])
    def test_sweep_matches_the_permutation_search(self, target, sigma, max_vars, max_len):
        sg = builtin(target)
        got = [format_instance(ins) for ins in hunt.sweep_instances(sg, sigma, max_vars, max_len)]
        want = [format_instance(ins) for ins in reference_sweep(sg, sigma, max_vars, max_len)]
        assert got == want

    def test_key_is_a_class_invariant(self):
        # the two keys split every enumerated instance into the same classes
        pairs = {
            (hunt.canonical_key(eq, syms.constants, syms.variables, mapping),
             reference_key(eq, syms.constants, syms.variables, mapping))
            for eq, syms, mapping in raw_instances(builtin("z2"), 3, 2, 3)
        }
        assert len({key for key, _ in pairs}) == len({ref for _, ref in pairs}) == len(pairs)

    def test_key_is_the_first_member_in_sweep_order(self):
        # b, a and X by first occurrence; X keeps its pool name
        eq = WordEquation(("b", "X"), ("a",))
        image = {"a": 0, "b": 1, "c": 0, "X": 1}
        key = hunt.canonical_key(eq, ("a", "b", "c"), ("Y", "X"), image)
        assert key == (("a", "X"), ("b",), (("X", 1), ("a", 1), ("b", 0), ("c", 0)))
        # the absent constants b, c in order of their images
        eq = WordEquation(("a",), ("a",))
        key = hunt.canonical_key(eq, ("a", "b", "c"), (), {"a": 0, "b": 1, "c": 0})
        assert key == (("a",), ("a",), (("a", 0), ("b", 0), ("c", 1)))

    def test_renamed_instances_collapse(self):
        # single-letter sides over two constants: the four raw pairs collapse
        # to a=a (with b=b) and a=b (with b=a) under constant renaming
        count_two_constants = sum(
            1 for ins in hunt.sweep_instances(builtin("trivial"), 2, 0, 2)
        )
        assert count_two_constants == 2


class TestClassify:
    def test_unsat(self):
        ins = next(iter(hunt.sweep_instances(builtin("trivial"), 2, 0, 2)))
        clazz, _ = hunt.classify(ins)
        assert clazz in ("Unsatisfiable", "FiniteSol")

    def test_certified(self):
        from conftest import make_instance
        clazz, _ = hunt.classify(make_instance("Xa=aX"))
        assert clazz == "InfiniteCertified"

    def test_certified_beyond_twenty_states_per_cycle(self):
        from conftest import make_instance
        clazz, _ = hunt.classify(make_instance("X" + "a" * 20 + "b=" + "a" * 20 + "bX"))
        assert clazz == "InfiniteCertified"

    def test_discharged_when_certificates_are_hidden(self, monkeypatch):
        # force the cycle search to miss: the oracle then sees growing exponents
        from conftest import make_instance
        ins = make_instance("Xa=aX", sg=builtin("lz2"),
                            mapping={"a": "a", "b": "b", "X": "a"})
        monkeypatch.setattr(hunt, "pumpable_state", lambda g: None)
        clazz, detail = hunt.classify(ins)
        assert clazz == "Discharged"
        assert detail["max_exp"]["high"] > detail["max_exp"]["low"]

    def test_suspect_when_exponent_also_stagnates(self, monkeypatch):
        from conftest import make_instance
        ins = make_instance("Xa=aX", sg=builtin("lz2"),
                            mapping={"a": "a", "b": "b", "X": "a"})
        monkeypatch.setattr(hunt, "pumpable_state", lambda g: None)
        monkeypatch.setattr(hunt.oracle, "brute_solutions", 
                            lambda ins, bound, *a, **k: SimpleNamespace(max_exp_seen=1))
        clazz, detail = hunt.classify(ins)
        assert clazz == "Suspect"
        assert detail["states_checked"] >= 1


    def test_suspect_when_the_oracle_is_over_budget(self, monkeypatch):
        # an exponent the oracle cannot measure cannot discharge the instance
        from conftest import make_instance
        ins = make_instance("Xa=aX", sg=builtin("lz2"),
                            mapping={"a": "a", "b": "b", "X": "a"})
        monkeypatch.setattr(hunt, "pumpable_state", lambda g: None)

        def over(ins, bound, *a, **k):
            raise hunt.BudgetExceeded("over")

        monkeypatch.setattr(hunt.oracle, "brute_solutions", over)
        clazz, detail = hunt.classify(ins)
        assert clazz == "Suspect"
        assert set(detail) == {"states_checked", "max_exp"} and detail["max_exp"] is None
        assert detail["states_checked"] >= 1


class TestRunHunt:
    def test_budget_zero_flushes_empty_findings(self, tmp_path):
        path = tmp_path / "findings.jsonl"
        with pytest.raises(hunt.BudgetExceeded) as exc:
            hunt.run_hunt(builtin("trivial"), 1, 1, 2, budget=0,
                          findings_path=str(path))
        assert exc.value.report.total == 0
        assert path.read_text() == ""

    def test_unwritable_findings_path_fails_before_the_sweep(self, tmp_path, monkeypatch):
        def sweep(*args, **kwargs):
            raise AssertionError("the sweep started")

        monkeypatch.setattr(hunt, "sweep_instances", sweep)
        with pytest.raises(FileNotFoundError):
            hunt.run_hunt(builtin("trivial"), 1, 1, 2, budget=10,
                          findings_path=str(tmp_path / "missing" / "findings.jsonl"))

    @pytest.mark.parametrize("target, sigma, max_vars, max_len, seed", [
        ("b2", 2, 2, 3, 0),
        ("z2", 2, 1, 3, 7),
        ("lz2", 3, 1, 3, 41),
        ("trivial", 2, 2, 4, 5),
    ])
    def test_classifies_in_shuffled_sweep_order(self, monkeypatch, target, sigma, max_vars,
                                                max_len, seed):
        # the streamed sweep keeps the order of shuffling the whole list
        sg = builtin(target)
        want = list(hunt.sweep_instances(sg, sigma, max_vars, max_len))
        random.Random(seed).shuffle(want)
        seen = []

        def record(ins, **kwargs):
            seen.append(ins)
            return "FiniteSol", {}

        monkeypatch.setattr(hunt, "classify", record)
        report = hunt.run_hunt(sg, sigma, max_vars, max_len, budget=10**6, seed=seed)
        assert seen == want
        assert report.total == report.finite == len(want)

    def test_counts_partition_the_total(self):
        report = hunt.run_hunt(builtin("z2"), 2, 1, 3, budget=10**6, seed=0)
        assert report.total == (
            report.unsatisfiable + report.finite + report.infinite_certified
            + report.suspects + report.discharged
        )
        assert report.total > 0 and not report.truncated

    def test_discharged_instances_are_counted_not_written(self, tmp_path, monkeypatch):
        monkeypatch.setattr(hunt, "classify", lambda ins, **k: ("Discharged", {"states_checked": 1}))
        path = tmp_path / "findings.jsonl"
        report = hunt.run_hunt(builtin("trivial"), 1, 1, 2, budget=10**6, findings_path=str(path))
        swept = list(hunt.sweep_instances(builtin("trivial"), 1, 1, 2))
        assert report.total == report.discharged == len(swept)
        assert report.suspects == 0 and not report.truncated
        assert path.read_text() == ""

    def test_suspects_written_as_json_lines(self, tmp_path, monkeypatch):
        monkeypatch.setattr(hunt, "classify",
                            lambda ins, **k: ("Suspect", {"states_checked": 0}))
        path = tmp_path / "findings.jsonl"
        with pytest.raises(hunt.BudgetExceeded):
            hunt.run_hunt(builtin("trivial"), 1, 1, 2, budget=2,
                          findings_path=str(path))
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert len(lines) == 2
        for entry in lines:
            assert entry["class"] == "Suspect"
            assert entry["length_constraints"] is None
            assert "constants" in entry["instance"]
