import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from weq import hunt, periodicity
from weq.cli import main
from weq.equations import format_instance, parse_instance

ROOT = Path(__file__).resolve().parent.parent

XABBY = """\
constants a b
variables X Y
equation X a b Y = Y b a X
semigroup builtin:trivial
"""

XA_BX = """\
constants a b
variables X
equation X a = b X
semigroup builtin:trivial
"""

B2_CONSTRAINED = """\
constants a b
variables X Y
equation X a Y = Y a X
semigroup builtin:b2
map a -> a
map b -> b
map X -> 0
map Y -> 0
"""

LZ2_CONSTRAINED = """\
constants a b
variables X Y
equation X a b Y = Y b a X
semigroup builtin:lz2
map a -> a
map b -> b
map X -> a
map Y -> a
"""

N2_FINITE = """\
constants a
variables X
equation X a = a X
semigroup builtin:n2
map a -> x
map X -> x
"""

ABSENT_Z = """\
constants a b
variables Z
equation a a = a a
semigroup builtin:trivial
"""

SYSTEM = """\
; two independent commutation requirements (still quadratic as a system)
constants a b
variables X Y
equation X a = a X
equation Y b = b Y
semigroup builtin:trivial
"""


@pytest.fixture
def files(tmp_path):
    out = {}
    for name, text in [
        ("xabby.weq", XABBY), ("xa_bx.weq", XA_BX),
        ("b2.weq", B2_CONSTRAINED), ("lz2.weq", LZ2_CONSTRAINED), ("n2.weq", N2_FINITE),
        ("system.weq", SYSTEM), ("absent_z.weq", ABSENT_Z),
    ]:
        p = tmp_path / name
        p.write_text(text)
        out[name] = str(p)
    return out


class TestCheck:
    def test_satisfiable(self, files, capsys):
        assert main(["check", files["xabby.weq"]]) == 0
        assert "satisfiable" in capsys.readouterr().out

    def test_unsatisfiable(self, files, capsys):
        assert main(["check", files["xa_bx.weq"]]) == 3
        assert "unsatisfiable" in capsys.readouterr().out

    def test_malformed_exits_2(self, tmp_path, capsys):
        p = tmp_path / "bad.weq"
        p.write_text("constants a\nvariables X\nequation X a\nsemigroup builtin:trivial\n")
        assert main(["check", str(p)]) == 2
        assert "line 3" in capsys.readouterr().err

    def test_missing_file_exits_2(self, capsys):
        assert main(["check", "/nonexistent/x.weq"]) == 2

    def test_json_report(self, files, capsys):
        assert main(["check", files["xabby.weq"], "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert set(report) == {
            "instance", "solvable", "infinite", "exp_verdict",
            "certificate", "graph", "timings",
        }
        assert set(report["graph"]) == {
            "solvable", "infinite", "state_count", "transition_count", "scc_count",
        }
        assert report["solvable"] is True
        assert report["infinite"] is True
        assert report["exp_verdict"] == "InfiniteCertified"
        assert report["certificate"] is not None
        assert report["graph"]["state_count"] > 0

    def test_json_schema_stable(self, files, capsys):
        # identical runs agree except for the timing values
        def snap():
            assert main(["check", files["xabby.weq"], "--json"]) == 0
            report = json.loads(capsys.readouterr().out)
            report.pop("timings")
            return report

        assert snap() == snap()

    def test_crosscheck(self, files, capsys):
        assert main(["check", files["xabby.weq"], "--json", "--crosscheck", "3"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["oracle_crosscheck"]["agree"] is True

    def test_system_reduced_to_single_equation(self, files, capsys):
        # multi-equation files run through the separator encoding
        assert main(["check", files["system.weq"], "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report["instance"]["equations"]) == 1
        assert "#" in report["instance"]["constants"]
        assert report["solvable"] is True and report["infinite"] is True

    def test_system_solutions_match_oracle(self, files, capsys):
        assert main(["solve", files["system.weq"], "--max-len", "2", "--json"]) == 0
        solved = json.loads(capsys.readouterr().out)["solutions"]
        assert {"X": "a", "Y": "b"} in solved
        assert {"X": "aa", "Y": "bb"} in solved
        assert all(set(s["X"]) == {"a"} and set(s["Y"]) == {"b"} for s in solved)


class TestInfinite:
    def test_yes(self, files):
        assert main(["infinite", files["xabby.weq"]]) == 0

    def test_long_cycle(self, tmp_path):
        # the certificate's accepting path is longer than the default
        # recursion limit
        k = 600
        path = tmp_path / "long.weq"
        path.write_text(
            f"constants a b\nvariables X\nequation X {'a ' * k}b = {'a ' * k}b X\n"
            "semigroup builtin:trivial\n"
        )
        assert main(["infinite", str(path)]) == 0

    def test_no(self, files):
        assert main(["infinite", files["n2.weq"]]) == 3

    def test_unknown_verdict_field_outside_variety(self, files, capsys):
        assert main(["infinite", files["b2.weq"], "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["exp_verdict"] in ("InfiniteCertified", "Unknown")


class TestPump:
    def test_prints_growing_solutions(self, files, capsys):
        assert main(["pump", files["xabby.weq"], "--m", "3"]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("m=")]
        assert len(lines) == 4
        assert "X=abaaba" in lines[1]

    def test_exit_4_outside_variety(self, files, capsys, monkeypatch):
        # only a miss of the pumpable-state scan, possible outside the
        # supported variety, leaves the verdict unknown
        monkeypatch.setattr(periodicity, "pumpable_state", lambda g: None)
        assert main(["pump", files["b2.weq"]]) == 4
        assert "unknown" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["infinite", "pump"])
    def test_exit_4_on_failed_guarantee(self, files, capsys, monkeypatch, command):
        def miss(g):
            raise periodicity.TheoremViolation("no pumpable state")

        monkeypatch.setattr(periodicity, "pumpable_state", miss)
        assert main([command, files["xabby.weq"]]) == 4
        err = capsys.readouterr().err
        assert "no pumpable state" in err
        assert format_instance(parse_instance(XABBY)) in err  # replays the failure
        assert "Traceback" not in err

    def test_pumps_what_check_certifies_outside_variety(self, files, capsys):
        # lz2 is not DLG; the scan still finds a pumpable state
        assert main(["check", files["lz2.weq"], "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["exp_verdict"] == "InfiniteCertified"
        assert main(["pump", files["lz2.weq"], "--m", "2", "--json"]) == 0
        pumped = json.loads(capsys.readouterr().out)
        assert pumped["certificate"] == report["certificate"]
        assert [row["exp"] >= row["m"] for row in pumped["solutions"]] == [True] * 3

    def test_stored_certificate_outside_variety(self, files, tmp_path, capsys):
        cert = tmp_path / "cert.json"
        assert main(["pump", files["lz2.weq"], "--m", "0", "--cert-out", str(cert)]) == 0
        capsys.readouterr()
        assert main(["pump", files["lz2.weq"], "--m", "2", "--cert-in", str(cert)]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 3

    @pytest.mark.parametrize("case", ["bogus", "free_variable"])
    def test_certificate_case_must_match_the_state(self, files, tmp_path, capsys, case):
        cert = tmp_path / "cert.json"
        assert main(["pump", files["xabby.weq"], "--m", "0", "--cert-out", str(cert)]) == 0
        capsys.readouterr()
        data = json.loads(cert.read_text())
        data["case"] = case
        cert.write_text(json.dumps(data))
        assert main(["pump", files["xabby.weq"], "--cert-in", str(cert)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"certificate case {case!r}" in captured.err

    def test_exit_3_when_finite(self, files):
        assert main(["pump", files["n2.weq"]]) == 3

    def test_certificate_roundtrip(self, files, tmp_path, capsys):
        cert = tmp_path / "cert.json"
        assert main(["pump", files["xabby.weq"], "--m", "1", "--cert-out", str(cert)]) == 0
        capsys.readouterr()
        assert main(["pump", files["xabby.weq"], "--m", "2", "--cert-in", str(cert)]) == 0
        out = capsys.readouterr().out
        assert "X=abaabaaba" in out

    def test_rejects_tampered_certificate(self, files, tmp_path, capsys):
        cert = tmp_path / "cert.json"
        assert main(["pump", files["xabby.weq"], "--m", "1", "--cert-out", str(cert)]) == 0
        capsys.readouterr()
        data = json.loads(cert.read_text())
        data["base"]["X"] = ["b"]
        cert.write_text(json.dumps(data))
        assert main(["pump", files["xabby.weq"], "--cert-in", str(cert)]) == 2

    def test_base_of_variables_is_rejected(self, files, tmp_path, capsys):
        cert = tmp_path / "cert.json"
        assert main(["pump", files["absent_z.weq"], "--m", "0", "--cert-out", str(cert)]) == 0
        capsys.readouterr()
        data = json.loads(cert.read_text())
        assert data["base"] == {"Z": ["a"]}
        data["base"]["Z"] = ["Z"]
        cert.write_text(json.dumps(data))
        out = tmp_path / "out.json"
        assert main(["pump", files["absent_z.weq"], "--cert-in", str(cert), "--cert-out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "certificate" in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("text", ['{"state": 0}', "not json", "[1, 2]"])
    def test_malformed_certificate_exits_2(self, files, tmp_path, capsys, text):
        cert = tmp_path / "cert.json"
        cert.write_text(text)
        assert main(["pump", files["xabby.weq"], "--cert-in", str(cert)]) == 2
        err = capsys.readouterr().err
        assert "malformed certificate" in err and "Traceback" not in err

    @pytest.mark.parametrize("field,value", [("omega", 0), ("omega", -1), ("omega", 2), ("v", [])])
    def test_tampered_pump_fields_exit_2(self, files, tmp_path, capsys, field, value):
        cert = tmp_path / "cert.json"
        assert main(["pump", files["xabby.weq"], "--m", "0", "--cert-out", str(cert)]) == 0
        capsys.readouterr()
        data = json.loads(cert.read_text())
        data[field] = value
        cert.write_text(json.dumps(data))
        assert main(["pump", files["xabby.weq"], "--m", "3", "--cert-in", str(cert)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "certificate" in captured.err

    def test_string_labels_are_malformed(self, files, tmp_path, capsys):
        cert = tmp_path / "cert.json"
        assert main(["pump", files["xabby.weq"], "--m", "1", "--cert-out", str(cert)]) == 0
        data = json.loads(cert.read_text())
        data["prefix_path"] = ["eps", "X->a,X"]
        cert.write_text(json.dumps(data))
        assert main(["pump", files["xabby.weq"], "--cert-in", str(cert)]) == 2
        assert "malformed certificate" in capsys.readouterr().err

    def test_deeply_nested_certificate_is_malformed(self, files, tmp_path, capsys):
        cert = tmp_path / "cert.json"
        cert.write_text("[" * 100000 + "]" * 100000)
        assert main(["pump", files["xabby.weq"], "--cert-in", str(cert)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "malformed certificate" in captured.err and "Traceback" not in captured.err

    def test_negative_pump_count_exits_2(self, files, capsys):
        assert main(["pump", files["xabby.weq"], "--m", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--m" in captured.err


class TestNotText:
    """An input file that is not UTF-8 ends in exit 2 and a one-line error
    that names it."""

    def assert_names(self, capsys, name):
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert "error:" in captured.err and name in captured.err
        assert "not UTF-8" in captured.err and len(captured.err.splitlines()) == 1

    def test_instance_file(self, tmp_path, capsys):
        p = tmp_path / "bad.weq"
        p.write_bytes(XABBY.encode() + b"; \xff\n")
        assert main(["check", str(p)]) == 2
        self.assert_names(capsys, "bad.weq")

    def test_semigroup_file_of_an_instance(self, tmp_path, capsys):
        (tmp_path / "bad.sg").write_bytes(b"semigroup g\nelements 1\ntable\n1 \xff\n")
        p = tmp_path / "x.weq"
        p.write_text("constants a\nvariables X\nequation X a = a X\nsemigroup file:bad.sg\n"
                     "map a -> 1\nmap X -> 1\n")
        assert main(["check", str(p)]) == 2
        self.assert_names(capsys, "bad.sg")

    def test_semigroup_command(self, tmp_path, capsys):
        p = tmp_path / "bad.sg"
        p.write_bytes(b"\xff\xfe")
        assert main(["semigroup", f"file:{p}"]) == 2
        self.assert_names(capsys, "bad.sg")


class TestParserReuse:
    """`main` builds its parser once per process; calls stay independent."""

    def test_later_calls_build_no_parser(self, files, capsys, monkeypatch):
        assert main(["check", files["xabby.weq"]]) == 0
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        assert main(["check", files["xabby.weq"]]) == 0
        assert main(["pump", files["xabby.weq"], "--m", "1"]) == 0
        assert main(["frobnicate"]) == 2
        assert built == []

    def test_defaults_do_not_carry_over(self, files, capsys):
        def rows(argv):
            assert main(argv) == 0
            return [l for l in capsys.readouterr().out.splitlines() if l.startswith("m=")]

        assert len(rows(["pump", files["xabby.weq"], "--m", "5"])) == 6
        assert len(rows(["pump", files["xabby.weq"]])) == 4

    def test_flags_do_not_carry_over(self, files, capsys):
        assert main(["check", files["xabby.weq"], "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["solvable"] is True
        assert main(["check", files["xabby.weq"]]) == 0
        out = capsys.readouterr().out
        assert out.startswith("equation: ") and out.endswith("\nsatisfiable\n")

    @pytest.mark.parametrize("argv,code", [
        (["pump", "{xabby}", "--m", "-1"], 2),
        (["pump", "--m", "2"], 2),
        (["--help"], 0),
        (["pump", "--help"], 0),
    ])
    def test_usage_exit_leaves_next_call_unchanged(self, files, capsys, argv, code):
        valid = ["pump", files["xabby.weq"], "--m", "2", "--json"]
        assert main(valid) == 0
        expected = capsys.readouterr().out
        assert main([arg.format(xabby=files["xabby.weq"]) for arg in argv]) == code
        capsys.readouterr()
        assert main(valid) == 0
        assert capsys.readouterr().out == expected


FIVE_VARIABLES = """\
constants a b
variables X0 X1 X2 X3 X4
equation b X2 X3 X4 X3 b X0 b b = X1 X0 X2 X4 X1
semigroup builtin:trivial
"""


class TestStateBudget:
    @pytest.mark.parametrize("command", ["check", "infinite", "pump", "solve", "graph"])
    def test_over_budget_exits_2(self, tmp_path, capsys, command):
        path = tmp_path / "five.weq"
        path.write_text(FIVE_VARIABLES)
        assert main([command, str(path), "--max-states", "1000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "budget exceeded" in captured.err and "Traceback" not in captured.err

    @pytest.mark.parametrize("argv", [
        ["solve", "--max-len", "12", "--max-states", "1000"],
        ["check", "--crosscheck", "6", "--max-states", "300"],
    ], ids=["solve", "crosscheck"])
    def test_enumeration_over_budget_exits_2(self, tmp_path, capsys, argv):
        """The automaton of X Y = Y X has 6 states, but the (state, patterns)
        pairs its enumeration searches double with each step of the length
        bound: 17,925 at length 12."""
        path = tmp_path / "xy.weq"
        path.write_text("constants a b\nvariables X Y\nequation X Y = Y X\nsemigroup builtin:trivial\n")
        assert main([argv[0], str(path)] + argv[1:]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "budget exceeded" in captured.err and "Traceback" not in captured.err


class TestReplay:
    @pytest.mark.parametrize("equations", [
        "equation X a b Y = Y b a X\n",
        "equation X a = a X\nequation Y b = b Y\n",  # a system, reduced to one equation
    ], ids=["equation", "system"])
    def test_exit_4_text_reloads_a_file_semigroup(self, tmp_path, capsys, monkeypatch, equations):
        """The instance text that exit 4 prints is the instance as written,
        with a semigroup file named by its absolute path, so it replays from
        another directory."""
        here = tmp_path / "here"
        here.mkdir()
        (here / "g.sg").write_text("semigroup sl\nelements 1 0\ntable\n1 0\n0 0\n")
        (here / "x.weq").write_text(
            "constants a b\nvariables X Y\n" + equations + "semigroup file:g.sg\n"
            "map a -> 1\nmap b -> 1\nmap X -> 1\nmap Y -> 1\n"
        )

        def miss(g):
            raise periodicity.TheoremViolation("no pumpable state")

        monkeypatch.setattr(periodicity, "pumpable_state", miss)
        assert main(["infinite", str(here / "x.weq")]) == 4
        err = capsys.readouterr().err
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        replay = elsewhere / "replay.weq"
        replay.write_text("".join(err.splitlines(keepends=True)[1:]))
        assert parse_instance(replay.read_text()) == parse_instance((here / "x.weq").read_text(),
                                                                    base_dir=str(here))
        monkeypatch.chdir(elsewhere)
        assert main(["check", str(replay)]) in (0, 3, 4)
        assert "cannot load semigroup" not in capsys.readouterr().err


class TestSolveOracleGraph:
    def test_solve_matches_oracle(self, files, capsys):
        assert main(["solve", files["xabby.weq"], "--max-len", "3", "--json"]) == 0
        solved = json.loads(capsys.readouterr().out)["solutions"]
        assert main(["oracle", files["xabby.weq"], "--max-len", "3", "--json"]) == 0
        brute = json.loads(capsys.readouterr().out)["solutions"]
        assert solved == brute

    def test_solve_exit_codes(self, files):
        assert main(["solve", files["xabby.weq"], "--max-len", "2"]) == 0
        assert main(["solve", files["xa_bx.weq"], "--max-len", "4"]) == 3

    def test_oracle_budget(self, files, capsys):
        assert main(["oracle", files["xabby.weq"], "--max-len", "8", "--budget", "10"]) == 2
        assert "budget" in capsys.readouterr().err

    def test_negative_oracle_budget_rejected(self, files, capsys):
        assert main(["oracle", files["xabby.weq"], "--budget", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--budget" in captured.err

    @pytest.mark.parametrize("argv", [
        ["oracle", "{xabby}", "--max-len", "0"],
        ["check", "{xabby}", "--crosscheck", "0"],
        ["solve", "{xabby}", "--max-len", "0"],
    ])
    def test_zero_length_bound_exits_2(self, files, capsys, argv):
        argv = [arg.format(xabby=files["xabby.weq"]) for arg in argv]
        assert main(argv) == 2
        assert "at least 1" in capsys.readouterr().err

    def test_graph_dot_deterministic(self, files, tmp_path, capsys):
        d1, d2 = tmp_path / "a.dot", tmp_path / "b.dot"
        assert main(["graph", files["xabby.weq"], "--dot", str(d1)]) == 0
        assert main(["graph", files["xabby.weq"], "--dot", str(d2)]) == 0
        assert d1.read_bytes() == d2.read_bytes()
        assert b"digraph" in d1.read_bytes()

    def test_non_quadratic_exits_5(self, tmp_path):
        p = tmp_path / "cubic.weq"
        p.write_text(
            "constants a\nvariables X\nequation X X X = a a a\nsemigroup builtin:trivial\n"
        )
        assert main(["check", str(p)]) == 5


class TestSemigroupCmd:
    def test_b2_report_witness_line(self, capsys):
        assert main(["semigroup", "builtin:b2", "--report"]) == 0
        out = capsys.readouterr().out
        assert "dlg: False" in out
        assert "ba ~L a but b^ω·a = 0" in out

    def test_json(self, capsys):
        assert main(["semigroup", "builtin:z3", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["variety"]["group"] is True
        assert data["variety"]["dlg"] is True

    def test_stabilizers_listing(self, capsys):
        assert main(["semigroup", "builtin:b2", "--report", "--stabilizers"]) == 0
        out = capsys.readouterr().out
        assert "stab_L(a) = {1,ab}" in out

    def test_stabilizers_without_report(self, capsys):
        assert main(["semigroup", "builtin:b2", "--stabilizers"]) == 0
        out = capsys.readouterr().out
        assert "stab_L(a) = {1,ab}" in out
        assert "L-classes" not in out

    def test_adjoined_identity_named_apart(self, capsys):
        # sl2 has its own element 1, so the adjoined identity is 1'
        assert main(["semigroup", "builtin:sl2", "--stabilizers"]) == 0
        assert capsys.readouterr().out.splitlines()[1:] == [
            "stab_L(1) = {1',1}", "stab_L(0) = {1',1,0}",
        ]
        assert main(["semigroup", "builtin:sl2", "--json", "--stabilizers"]) == 0
        assert json.loads(capsys.readouterr().out)["stabilizers"] == {
            "1": ["1'", "1"], "0": ["1'", "1", "0"],
        }

    def test_stabilizers_in_json_only_when_asked(self, capsys):
        assert main(["semigroup", "builtin:b2", "--json"]) == 0
        assert "stabilizers" not in json.loads(capsys.readouterr().out)
        assert main(["semigroup", "builtin:b2", "--json", "--stabilizers"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["stabilizers"]["a"] == ["1", "ab"]
        assert set(data["stabilizers"]) == {"a", "b", "ab", "ba", "0"}


class TestHunt:
    def test_budget_zero(self, tmp_path, capsys):
        findings = tmp_path / "f.jsonl"
        code = main([
            "hunt", "--sigma", "1", "--vars", "1", "--max-len", "2",
            "--budget", "0", "--out", str(findings),
        ])
        assert code == 2
        assert findings.read_text() == ""

    def test_trivial_sweep_no_suspects(self, capsys):
        code = main([
            "hunt", "--sigma", "2", "--vars", "2", "--max-len", "4",
            "--semigroup", "builtin:trivial", "--budget", "100000",
        ])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["suspects"] == 0
        assert report["total"] > 0
        assert report["infinite_certified"] > 0

    @pytest.mark.parametrize("flag,value", [
        ("--sigma", "0"), ("--sigma", "9"), ("--vars", "-1"), ("--vars", "7"),
        ("--max-len", "-1"), ("--max-len", "1"), ("--budget", "-1"),
    ])
    def test_bounds_outside_the_pools_exit_2(self, capsys, flag, value):
        args = {"--sigma": "1", "--vars": "1", "--max-len": "2"}
        args[flag] = value
        argv = ["hunt", "--budget", "100"] + [t for kv in args.items() for t in kv]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and flag in captured.err

    def test_whole_pools_accepted(self, capsys):
        # a = a and a = b, with the other seven constants absent
        assert main(["hunt", "--sigma", "8", "--vars", "0", "--max-len", "2"]) == 0
        assert json.loads(capsys.readouterr().out)["total"] == 2
        assert main(["hunt", "--sigma", "8", "--vars", "6", "--max-len", "2"]) == 0
        assert json.loads(capsys.readouterr().out)["total"] > 2

    def test_findings_with_a_relative_file_target_replay_elsewhere(self, tmp_path, capsys,
                                                                  monkeypatch):
        """A findings line names a semigroup file by its absolute path, so
        `weq check` reloads it from another directory."""
        (tmp_path / "tables").mkdir()
        (tmp_path / "tables" / "t2.sg").write_text("semigroup sl\nelements 1 0\ntable\n1 0\n0 0\n")
        (tmp_path / "elsewhere").mkdir()
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(hunt, "classify", lambda ins: ("Suspect", {}))
        assert main(["hunt", "--sigma", "1", "--vars", "1", "--max-len", "2",
                     "--semigroup", "file:tables/t2.sg", "--out", "elsewhere/f.jsonl"]) == 0
        lines = (tmp_path / "elsewhere" / "f.jsonl").read_text().splitlines()
        assert lines
        monkeypatch.chdir(tmp_path / "elsewhere")
        for k, line in enumerate(lines):
            Path(f"{k}.weq").write_text(json.loads(line)["instance"])
            assert main(["check", f"{k}.weq"]) in (0, 3, 4)
        assert "cannot load semigroup" not in capsys.readouterr().err

    def test_seeded_runs_agree(self, capsys):
        args = ["hunt", "--sigma", "2", "--vars", "1", "--max-len", "3",
                "--budget", "100000", "--seed", "7"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first


class TestUsage:
    def test_no_command(self):
        assert main([]) == 2

    def test_python_dash_m(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", "weq", "--help"], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("usage: weq")

    def test_unknown_command(self):
        assert main(["frobnicate"]) == 2
