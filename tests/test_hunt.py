import hashlib
import itertools
import json

import pytest

from weq import hunt
from weq.equations import format_instance
from weq.semigroup import builtin


class TestSweepEnumeration:
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
        monkeypatch.setattr(hunt.oracle, "max_exp_up_to", lambda *a, **k: 1)
        clazz, detail = hunt.classify(ins)
        assert clazz == "Suspect"
        assert detail["states_checked"] >= 1


class TestRunHunt:
    def test_budget_zero_flushes_empty_findings(self, tmp_path):
        path = tmp_path / "findings.jsonl"
        with pytest.raises(hunt.BudgetExceeded) as exc:
            hunt.run_hunt(builtin("trivial"), 1, 1, 2, budget=0,
                          findings_path=str(path))
        assert exc.value.report.total == 0
        assert path.read_text() == ""

    def test_counts_partition_the_total(self):
        report = hunt.run_hunt(builtin("z2"), 2, 1, 3, budget=10**6, seed=0)
        assert report.total == (
            report.unsatisfiable + report.finite + report.infinite_certified
            + report.suspects + report.discharged
        )
        assert report.total > 0 and not report.truncated

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
