import argparse
import contextlib
import functools
import hashlib
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from weq import hunt, periodicity, solution_graph
from weq.cli import main
from weq.equations import format_instance, parse_instance
from weq.semigroup import BUILTIN_NAMES, builtin, variety_report

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

# two declared variables absent from the equation: the automaton fires the
# absent-variable rule for the first of them only
N2_ABSENT = """\
constants a b
variables X Y Z W
equation X X = Y
semigroup builtin:n2
map a -> x
map b -> 0
map X -> 0
map Y -> 0
map Z -> x
map W -> x
"""

# tokens whose JSON strings need escapes: a non-ASCII letter, a quote and a
# backslash, in constants and in variable names
ESCAPES = """\
constants é "q\\
variables X" Yé
equation X" é "q\\ Yé = Yé "q\\ é X"
semigroup builtin:trivial
"""

DEMO_INSTANCES = sorted(str(p) for p in (ROOT / "demos" / "instances").glob("*.weq"))

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
        ("system.weq", SYSTEM), ("absent_z.weq", ABSENT_Z), ("n2_absent.weq", N2_ABSENT),
        ("escapes.weq", ESCAPES),
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

    @pytest.mark.parametrize("command,flags", [
        ("check", []), ("pump", []), ("check", ["--json"]), ("pump", ["--json"]),
    ], ids=["check", "pump", "check-json", "pump-json"])
    def test_pumped_non_solution_exits_4(self, files, capsys, monkeypatch, command, flags):
        """A certified certificate that pumps to a non-solution is a failed
        guarantee, not a usage error: exit 4, with the instance text. Row 0
        fails, so nothing reaches stdout, not even the JSON head."""
        monkeypatch.setattr(periodicity, "verify_solution", lambda ins, sol: False)
        assert main([command, files["xabby.weq"], *flags]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err
        assert err.startswith("internal guarantee failed: pumped solution")
        assert format_instance(parse_instance(XABBY)) in err  # replays the failure
        assert "Traceback" not in err

    def test_rows_before_a_failed_row_are_written(self, files, capsys, monkeypatch):
        """Each row is written as it is made: when row 2 fails its check, rows
        0 and 1 are already on stdout, and the run exits 4 with the instance
        text on stderr."""
        calls = []
        verify = periodicity.verify_solution

        def fail_third(ins, sol):  # instantiate checks row m on call m + 1
            calls.append(sol)
            return len(calls) != 3 and verify(ins, sol)

        monkeypatch.setattr(periodicity, "verify_solution", fail_third)
        assert main(["pump", files["xabby.weq"], "--m", "5"]) == 4
        captured = capsys.readouterr()
        assert captured.out == "m=0: X=aba, Y=a  (exp 1)\nm=1: X=abaaba, Y=a  (exp 2)\n"
        assert captured.err.startswith("internal guarantee failed: pumped solution")
        assert format_instance(parse_instance(XABBY)) in captured.err

    @pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
    def test_memory_is_one_row(self, files, flags):
        """The peak traced allocation of `pump --m 800` stays below 1 MB, as
        rows are written as they are made; all 801 rows held at once take
        about 1.5 MB as text and 4.2 MB as JSON."""
        with open(os.devnull, "w", encoding="utf-8") as sink, contextlib.redirect_stdout(sink):
            tracemalloc.start()
            try:
                assert main(["pump", files["xabby.weq"], "--m", "800", *flags]) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 1 << 20, f"peak traced allocation {peak} bytes"

    def test_output_is_pinned(self, files, capsys):
        """sha256 of the exit code and stdout of `pump`, text and --json, at
        --m 0, 1, 3 and 30 on every instance of the `files` fixture."""
        h = hashlib.sha256()
        for name in ("xabby.weq", "xa_bx.weq", "b2.weq", "lz2.weq", "n2.weq", "system.weq",
                     "absent_z.weq", "n2_absent.weq", "escapes.weq"):
            for m in ("0", "1", "3", "30"):
                for flags in ([], ["--json"]):
                    code = main(["pump", files[name], "--m", m, *flags])
                    h.update(f"{name} {m} {flags} exit {code}\n".encode())
                    h.update(capsys.readouterr().out.encode())
        assert h.hexdigest() == "333d04d5aedd044c5b5c56680d5bf84df12267e2ccde8b420daa5d87c10d6a44"

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

    # xabby's omega is 1, which JSON's true and 1.0 are not
    @pytest.mark.parametrize("field,value", [
        ("omega", 0), ("omega", -1), ("omega", 2), ("v", []), ("omega", True), ("omega", 1.0),
    ])
    def test_tampered_pump_fields_exit_2(self, files, tmp_path, capsys, field, value):
        cert = tmp_path / "cert.json"
        assert main(["pump", files["xabby.weq"], "--m", "0", "--cert-out", str(cert)]) == 0
        capsys.readouterr()
        data = json.loads(cert.read_text())
        data[field] = value
        cert.write_text(json.dumps(data))
        assert main(["pump", files["xabby.weq"], "--m", "3", "--cert-in", str(cert)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"certificate {field} " in captured.err

    # a v or omega other than the derived certificate's: at the scan's word
    # a wrong v pumped a non-solution, and a free-variable one was dropped
    @pytest.mark.parametrize("name,changes", [
        ("xabby.weq", {"v": ["a"]}),
        ("absent_z.weq", {"v": ["a"], "omega": 7}),
        ("absent_z.weq", {"omega": 7}),
    ])
    def test_certificate_fields_must_be_derived(self, files, tmp_path, capsys, name, changes):
        cert = tmp_path / "cert.json"
        assert main(["pump", files[name], "--m", "0", "--cert-out", str(cert)]) == 0
        capsys.readouterr()
        cert.write_text(json.dumps({**json.loads(cert.read_text()), **changes}))
        assert main(["pump", files[name], "--m", "2", "--cert-in", str(cert)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "certificate" in captured.err
        assert "internal guarantee failed" not in captured.err

    def test_string_labels_are_malformed(self, files, tmp_path, capsys):
        cert = tmp_path / "cert.json"
        assert main(["pump", files["xabby.weq"], "--m", "1", "--cert-out", str(cert)]) == 0
        data = json.loads(cert.read_text())
        data["prefix_path"] = ["eps", "X->a,X"]
        cert.write_text(json.dumps(data))
        assert main(["pump", files["xabby.weq"], "--cert-in", str(cert)]) == 2
        assert "malformed certificate" in capsys.readouterr().err

    # each is a certificate of xabby that a reader splitting strings into
    # characters, or reading true as 1, would accept
    @pytest.mark.parametrize("changes", [
        {"base": {"X": "aba", "Y": "a"}},
        {"v": "Yba"},
        {"state": 1, "prefix_path": [["X", "YX"]], "v": ["b", "a", "Y"],
         "base": {"X": ["b", "a", "b"], "Y": ["b", "a", "b"]}},
        {"state": True, "prefix_path": [["X", ["Y", "X"]]], "v": ["b", "a", "Y"],
         "base": {"X": ["b", "a", "b"], "Y": ["b", "a", "b"]}},
    ])
    def test_words_are_lists_and_the_state_an_integer(self, files, tmp_path, capsys, changes):
        cert = tmp_path / "cert.json"
        assert main(["pump", files["xabby.weq"], "--m", "0", "--cert-out", str(cert)]) == 0
        capsys.readouterr()
        cert.write_text(json.dumps({**json.loads(cert.read_text()), **changes}))
        assert main(["pump", files["xabby.weq"], "--cert-in", str(cert)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "malformed certificate" in captured.err

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
        assert captured.err == "budget exceeded: exploration reached 1001 states, budget is 1000\n"

    @pytest.mark.parametrize("argv", [
        ["solve", "--max-len", "12", "--max-states", "1000"],
        ["check", "--crosscheck", "6", "--max-states", "300"],
    ], ids=["solve", "crosscheck"])
    def test_enumeration_over_budget_exits_2(self, tmp_path, capsys, argv):
        """The automaton of X Y = Y X has 6 states, but the (state, patterns)
        pairs its enumeration searches double with each step of the length
        bound: 17,925 at length 12.  The message names what it counted."""
        path = tmp_path / "xy.weq"
        path.write_text("constants a b\nvariables X Y\nequation X Y = Y X\nsemigroup builtin:trivial\n")
        assert main([argv[0], str(path)] + argv[1:]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        budget = int(argv[-1])
        assert captured.err == (
            f"budget exceeded: exploration reached {budget + 1} (state, patterns) pairs, "
            f"budget is {budget}\n"
        )


    def test_enumeration_budget_stops_before_the_words(self, tmp_path, capsys):
        """Within --max-len 40 each variable of X Y = X Y can take 2^41 - 2
        words, so the enumeration must count what it makes as it goes and
        stop at the budget, not make the words first."""
        path = tmp_path / "same.weq"
        path.write_text("constants a b\nvariables X Y\nequation X Y = X Y\nsemigroup builtin:trivial\n")
        start = time.monotonic()
        tracemalloc.start()
        try:
            code = main(["solve", str(path), "--max-len", "40", "--max-states", "10000"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.monotonic() - start < 2.0
        assert peak < 50 * 2**20
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "budget exceeded: exploration reached 10001 (state, patterns) pairs, budget is 10000\n"
        )


class TestOracleBudget:
    @pytest.mark.parametrize("argv", [
        ["oracle", "--max-len", "8000"],
        ["check", "--crosscheck", "8000"],
    ], ids=["oracle", "crosscheck"])
    def test_count_past_the_digit_limit_exits_2(self, files, capsys, argv):
        """2 ** 16000 has more digits than Python converts to str."""
        assert main([argv[0], files["xabby.weq"]] + argv[1:]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert captured.err == "budget exceeded: enumeration needs ~2**16000 assignments, budget is 10000000\n"

    def test_one_constant_counts_length_profiles(self, tmp_path, capsys):
        """With one constant there is one word per length, but 300 ** 3
        length profiles."""
        path = tmp_path / "xyz.weq"
        path.write_text("constants a\nvariables X Y Z\nequation X Y Z = Z Y X\nsemigroup builtin:trivial\n")
        assert main(["oracle", str(path), "--max-len", "300"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "budget exceeded: enumeration needs ~27000000 assignments, budget is 10000000\n"

    def test_ground_instance_generates_no_words(self, tmp_path):
        """Eight constants have 8 ** 12 words of length 12; a ground
        instance needs none of them."""
        import resource

        path = tmp_path / "ground.weq"
        path.write_text("constants a b c d e f g h\nequation a b = a b\nsemigroup builtin:trivial\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))

        def limit():  # runs in the child only: 120 MB of address space
            resource.setrlimit(resource.RLIMIT_AS, (120 << 20, 120 << 20))

        proc = subprocess.run([sys.executable, "-m", "weq", "oracle", str(path), "--max-len", "12"],
                              env=env, capture_output=True, text=True, timeout=120, preexec_fn=limit)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == "(empty assignment)\n1 solution(s) up to length 12; max exp 0\n"


class TestOneAutomaton:
    """An instance has one automaton, so the state ids a certificate names
    mean the same to every command."""

    @pytest.mark.parametrize("command", ["check", "infinite", "solve", "graph"])
    def test_faithful_is_no_option(self, files, capsys, command):
        assert main([command, files["xabby.weq"], "--faithful"]) == 2
        assert "unrecognized arguments: --faithful" in capsys.readouterr().err

    @pytest.mark.parametrize("path", ["n2_absent.weq"] + DEMO_INSTANCES, ids=lambda p: Path(p).stem)
    def test_check_certificate_replays_through_pump(self, files, tmp_path, capsys, path):
        path = files.get(path, path)
        main(["check", path, "--json"])
        cert = json.loads(capsys.readouterr().out)["certificate"]
        if cert is None:  # nothing certified, nothing to pump
            assert main(["pump", path]) == 3
            return
        cert_file = tmp_path / "cert.json"
        cert_file.write_text(json.dumps(cert))
        assert main(["pump", path, "--m", "3"]) == 0
        pumped = capsys.readouterr().out
        assert main(["pump", path, "--m", "3", "--cert-in", str(cert_file)]) == 0
        assert capsys.readouterr().out == pumped


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

    @pytest.mark.parametrize("argv", [
        ["solve", "{xabby}", "--max-len", "2"],
        ["check", "{xabby}", "--crosscheck", "2"],
    ])
    def test_failed_enumeration_guarantee_exits_4(self, files, capsys, monkeypatch, argv):
        """An accepting path that composes to a non-solution is a failed
        guarantee, not a usage error: exit 4, with the instance text."""
        monkeypatch.setattr(solution_graph, "first_non_solution", lambda ins, found: next(iter(found), None))
        assert main([arg.format(xabby=files["xabby.weq"]) for arg in argv]) == 4
        err = capsys.readouterr().err
        assert err.startswith("internal guarantee failed: an accepting path composes to")
        assert format_instance(parse_instance(XABBY)) in err  # replays the failure
        assert "Traceback" not in err

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
    def test_report_keys_are_pinned(self):
        """The report dicts list their dataclass fields, so a new field would
        reach `weq semigroup --json` and the hunt report; these are the keys."""
        assert list(variety_report(builtin("b2")).as_dict()) == [
            "right_group", "group", "commutative", "semilattice", "j_trivial", "l_trivial",
            "nilpotent", "duo", "dlg", "drg", "do", "ds",
        ]
        assert list(hunt.HuntReport(parameters={}).as_dict()) == [
            "parameters", "total", "unsatisfiable", "finite", "infinite_certified", "suspects",
            "discharged", "truncated",
        ]

    def test_output_is_pinned(self, capsys):
        """sha256 of what `--json --stabilizers` and `--report --stabilizers`
        print for every builtin, in that order."""
        h = hashlib.sha256()
        for name in BUILTIN_NAMES:
            for flags in (["--json", "--stabilizers"], ["--report", "--stabilizers"]):
                assert main(["semigroup", f"builtin:{name}", *flags]) == 0
                h.update(capsys.readouterr().out.encode())
        assert h.hexdigest() == "b704ded8a0fd2e9dd62ddc6872cea0c907e4b1297f4ee46aedeeeec10b358aed"

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

    def test_bare_builtin_is_echoed_by_its_spec(self, capsys):
        assert main(["hunt", "--sigma", "1", "--vars", "1", "--max-len", "2",
                     "--semigroup", "b2"]) == 0
        assert json.loads(capsys.readouterr().out)["parameters"]["semigroup"] == "builtin:b2"

    def test_failed_guarantee_keeps_the_report_and_replays(self, capsys, monkeypatch):
        """A TheoremViolation stops the sweep with exit 4, the report of the
        instances classified before it on stdout, and on stderr the text of
        the instance that raised it."""
        failed = []

        def miss(g):
            failed.append(g.instance)
            raise periodicity.TheoremViolation("no pumpable state")

        monkeypatch.setattr(hunt, "pumpable_state", miss)
        assert main(["hunt", "--semigroup", "builtin:z2", "--max-len", "4"]) == 4
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert report["truncated"] and report["total"] > 0
        assert report["total"] == report["unsatisfiable"] + report["finite"]
        head, *text = captured.err.splitlines(keepends=True)
        assert head == "internal guarantee failed: no pumpable state\n"
        assert parse_instance("".join(text)) == failed[0]

    def test_state_budget_keeps_the_report(self, capsys, monkeypatch):
        monkeypatch.setattr(hunt, "build", functools.partial(hunt.build, max_states=3))
        assert main(["hunt", "--semigroup", "builtin:z2", "--max-len", "4"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "budget exceeded: exploration reached 4 states, budget is 3\n"
        report = json.loads(captured.out)
        assert report["truncated"] and report["total"] > 0
        assert report["total"] == sum(report[k] for k in (
            "unsatisfiable", "finite", "infinite_certified", "suspects", "discharged"))

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

    def test_out_of_memory_exits_2(self, tmp_path):
        import resource

        path = tmp_path / "large.weq"
        path.write_text("constants a b\nvariables X0 X1 X2 X3 X4 X5\n"
                        "equation X5 X4 X2 a X0 X2 X3 X3 X5 a X4 = X1 X1 X0\n"
                        "semigroup builtin:trivial\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))

        def limit():  # runs in the child only: 120 MB of address space
            resource.setrlimit(resource.RLIMIT_AS, (120 << 20, 120 << 20))

        proc = subprocess.run([sys.executable, "-m", "weq", "check", str(path)], env=env,
                              capture_output=True, text=True, timeout=120, preexec_fn=limit)
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == "" and "Traceback" not in proc.stderr
        assert proc.stderr == "budget exceeded: out of memory\n"
