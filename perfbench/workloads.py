"""Inputs, operations and reference checks of the four benchmark workloads.

Each workload turns the run seed into inputs with the generators below and
hands the library only those inputs.  Every operation's output is checked
against a reference that does not come from the function under test: the
brute-force oracle, a stored expected-verdict list, or the substitution and
repetition checks at the bottom of this file.

Library functions are called through their modules (``sg.build``, not a
name imported here), so that the traced run, which rebinds those module
attributes, sees every call an operation makes.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from collections import deque
from dataclasses import dataclass
from pathlib import Path

import weq.cli
import weq.equations as eqs
import weq.hunt
import weq.oracle
import weq.periodicity as per
import weq.semigroup
import weq.solution_graph as sg
from weq.equations import ConstraintMorphism, Instance, Solution, SymbolTable, WordEquation

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"


class WrongOutput(Exception):
    """An operation returned, but its output failed the reference check."""


class Workload:
    """Defaults shared by the workloads below.  ``setup`` returns the list of
    operations of one cycle; ``run`` does one operation, ``check`` raises if
    its output is wrong and ``describe`` names it in error messages."""

    name = ""
    setup_reps = 5
    warmup_ops = 0
    min_cycles = 1
    trace_cycles = 1

    def trace_set(self, ops):
        """The fixed operations of a traced run."""
        return ops * self.trace_cycles

    def known_defect(self, op, exc: Exception) -> bool:
        return False


def decide(ins: Instance):
    """What ``weq check`` and ``weq infinite`` do before printing: build, the
    verdicts, and when the graph is infinite a certificate, instantiated at
    m = 0..2 and serialized.  Returns the graph, both verdicts and the
    instantiations."""
    g = sg.build(ins)
    solvable = sg.is_solvable(g)
    infinite = sg.has_infinitely_many(g)
    pumped: tuple[Solution, ...] = ()
    if infinite:
        cert = per.pumping_certificate(ins, graph=g)
        if cert is not None:
            pumped = tuple(per.instantiate(cert, ins, m) for m in range(3))
            per.certificate_to_json(cert)
    return g, solvable, infinite, pumped


# ---------------------------------------------------------------------------
# battery: the two-variable acceptance battery


BATTERY_TARGETS = ("trivial", "z2", "n2", "rz2")
BATTERY_BOUND = 4


def battery_equations(max_len: int = 6) -> list[WordEquation]:
    """One representative per class of quadratic equations over {a, b} and
    {X, Y} with |UV| <= max_len, under constant renaming, variable renaming
    and side swap (each maps solution sets bijectively)."""
    sigma, variables = ("a", "b"), ("X", "Y")
    renamings = [
        {**dict(zip(sigma, cs)), **dict(zip(variables, vs))}
        for cs in itertools.permutations(sigma)
        for vs in itertools.permutations(variables)
    ]
    out = []
    for total in range(2, max_len + 1):
        for word in itertools.product(sigma + variables, repeat=total):
            if word.count("X") > 2 or word.count("Y") > 2:
                continue
            for cut in range(1, total):
                lhs, rhs = word[:cut], word[cut:]
                if all(
                    (lhs, rhs) <= (tuple(ren[t] for t in l), tuple(ren[t] for t in r))
                    for ren in renamings
                    for l, r in ((lhs, rhs), (rhs, lhs))
                ):
                    out.append(WordEquation(lhs, rhs))
    return out


def battery_instances() -> list[Instance]:
    """Every constraint map of every battery equation into each target:
    90,422 instances."""
    targets = [weq.semigroup.builtin(name) for name in BATTERY_TARGETS]
    out = []
    for eq in battery_equations():
        used = tuple(v for v in ("X", "Y") if v in eq.lhs + eq.rhs)
        syms = SymbolTable(("a", "b"), used)
        order = syms.all_symbols()
        for target in targets:
            for images in itertools.product(range(target.order), repeat=len(order)):
                mu = ConstraintMorphism.from_dict(syms, target, dict(zip(order, images)))
                out.append(Instance((eq,), mu))
    return out


@dataclass
class BatteryOutput:
    solvable: bool
    pumped: tuple[Solution, ...]
    oracle: tuple[Solution, ...]
    enumerated: list[Solution]


class Battery(Workload):
    """Per instance, what ``weq check --crosscheck 4`` does, in process."""

    name = "battery"
    setup_reps = 3
    warmup_ops = 300
    trace_ops = 12_000  # the first instances of the shuffle, traced

    def setup(self, seed: int) -> list[Instance]:
        instances = battery_instances()
        random.Random(seed).shuffle(instances)
        return instances

    def trace_set(self, ops):
        return ops[:self.trace_ops]

    def run(self, ins: Instance) -> BatteryOutput:
        g, solvable, _, pumped = decide(ins)
        oracle = weq.oracle.brute_solutions(ins, BATTERY_BOUND).solutions
        enumerated = sg.enumerate_solutions(g, max_word_len=BATTERY_BOUND)
        return BatteryOutput(solvable, pumped, oracle, enumerated)

    def check(self, ins: Instance, out: BatteryOutput) -> None:
        if list(out.oracle) != out.enumerated:
            raise WrongOutput(f"graph enumeration differs from the oracle at bound {BATTERY_BOUND}")
        if out.oracle and not out.solvable:
            raise WrongOutput("unsatisfiable verdict, but the oracle found a solution")
        for m, sol in enumerate(out.pumped):
            check_pumped(ins, sol.as_dict, m)

    def describe(self, ins: Instance) -> str:
        return f"{ins.equations[0]} [{ins.mu.target.label} {dict(ins.mu.image)}]"


# ---------------------------------------------------------------------------
# hard: larger quadratic instances


HARD_POOL_SEED = 3
HARD_TARGETS = ("trivial", "z2", "rz2", "b2")
HARD_DRAWS_PER_TARGET = 6
# make_expected.py leaves out of the pool any draw whose build takes longer
# than this: 5-variable draws reach 8 s, and one of them fills a third of a
# run, so every operation would be timed twice and p50 and the tail would
# move by 20 % from run to run.  expected.json lists the draws left out.
HARD_MAX_DRAW_S = 1.5
HARD_FIXED = (
    "constants a b\nvariables X0 X1 X2 X3 X4\n"
    "equation b X2 X3 X4 X3 b X0 b b = X1 X0 X2 X4 X1\nsemigroup builtin:trivial\n"
)
LONG_CYCLE_KS = (8, 12, 16, 19, 20, 21, 24, 32)
# ``pumping_certificate`` only scans simple cycles of length <= 20, so it
# raises TheoremViolation on X a^k b = a^k b X for k >= 20.  These stay in
# the workload and count as failed operations.
LONG_CYCLE_DEFECT_FROM = 20


def long_cycle_text(k: int) -> str:
    a = " ".join(["a"] * k)
    return f"constants a b\nvariables X\nequation X {a} b = {a} b X\nsemigroup builtin:trivial\n"


def hard_draw_text(rng: random.Random, target: str) -> str:
    """Five variables occurring twice each plus three constants from {a, b},
    shuffled and cut into two nonempty sides, with random constraint images."""
    variables = [f"X{i}" for i in range(5)]
    tokens = variables * 2 + [rng.choice("ab") for _ in range(3)]
    rng.shuffle(tokens)
    cut = rng.randint(1, len(tokens) - 1)
    names = weq.semigroup.builtin(target).names
    lines = [
        "constants a b",
        "variables " + " ".join(variables),
        "equation " + " ".join(tokens[:cut]) + " = " + " ".join(tokens[cut:]),
        f"semigroup builtin:{target}",
    ]
    lines += [f"map {sym} -> {rng.choice(names)}" for sym in ["a", "b"] + variables]
    return "\n".join(lines) + "\n"


def hard_draws(target: str):
    """Endless stream of draws for one target, from that target's own
    generator, so the draws of one target do not depend on the others."""
    rng = random.Random(f"{HARD_POOL_SEED}:{target}")
    while True:
        yield hard_draw_text(rng, target)


def hard_fixed_texts() -> list[tuple[str, str]]:
    """(label, instance text) of the pool's instances that are not drawn."""
    return [("fixed-5var", HARD_FIXED)] + [
        (f"long-cycle-{k}", long_cycle_text(k)) for k in LONG_CYCLE_KS]


@dataclass
class HardCase:
    label: str
    instance: Instance
    expected: dict  # {"solvable": bool, "infinite": bool}


@dataclass
class HardOutput:
    graph: sg.SolutionGraph
    solvable: bool
    infinite: bool
    pumped: tuple[Solution, ...]


def load_expected() -> dict:
    with open(HERE / "expected.json", encoding="utf-8") as fh:
        return json.load(fh)


class Hard(Workload):
    """Per instance, what ``weq infinite`` does: build, verdict, and a
    certificate checked at m = 0..2 when the graph is infinite."""

    name = "hard"
    min_cycles = 4  # so that the 90th percentile has ten samples beyond it

    def setup(self, seed: int) -> list[HardCase]:
        """The pool stored in expected.json, in seeded order."""
        cases = [HardCase(e["label"], eqs.parse_instance(e["text"]), e)
                 for e in load_expected()["hard"]["instances"]]
        random.Random(seed).shuffle(cases)
        return cases

    def run(self, case: HardCase) -> HardOutput:
        return HardOutput(*decide(case.instance))

    def check(self, case: HardCase, out: HardOutput) -> None:
        want = case.expected
        if (out.solvable, out.infinite) != (want["solvable"], want["infinite"]):
            raise WrongOutput(
                f"verdict solvable={out.solvable} infinite={out.infinite}, expected "
                f"solvable={want['solvable']} infinite={want['infinite']}")
        ins = case.instance
        if out.solvable:
            sol = sg.extract_solution(out.graph, accepting_path(out.graph))
            if not eqs.verify_solution(ins, sol):
                raise WrongOutput("verify_solution rejects the extracted solution")
            check_solves(ins, sol.as_dict)
        if out.infinite and weq.semigroup.is_dlg(ins.mu.target).holds and not out.pumped:
            raise WrongOutput("infinite verdict under a DLG target, but no certificate")
        for m, sol in enumerate(out.pumped):
            check_pumped(ins, sol.as_dict, m)

    def describe(self, case: HardCase) -> str:
        return case.label

    def known_defect(self, case: HardCase, exc: Exception) -> bool:
        if not case.label.startswith("long-cycle-"):
            return False
        k = int(case.label.rsplit("-", 1)[1])
        return k >= LONG_CYCLE_DEFECT_FROM and isinstance(exc, per.TheoremViolation)


def accepting_path(g: sg.SolutionGraph) -> list[int]:
    """Transition ids of a shortest run from the initial state to a final one."""
    prev: dict[int, int | None] = {g.initial: None}
    queue = deque([g.initial])
    while queue:
        at = queue.popleft()
        if at in g.finals:
            path = []
            while prev[at] is not None:
                tid = prev[at]
                path.append(tid)
                at = g.transitions[tid].source
            return path[::-1]
        for tid in g.out[at]:
            nxt = g.transitions[tid].target
            if nxt not in prev:
                prev[nxt] = tid
                queue.append(nxt)
    raise WrongOutput("solvable verdict, but no final state is reachable")


# ---------------------------------------------------------------------------
# pump: the CLI on stored certificates


PUMP_INSTANCES = ("xabby", "xa_ax", "free_z")  # head_balanced, head_balanced, free_variable
PUMP_MS = (10, 30, 60)


@dataclass
class PumpCase:
    name: str
    argv: list[str]
    instance: Instance
    m: int


class Pump(Workload):
    """``weq pump INSTANCE --m M --cert-in CERT --json``, in process."""

    name = "pump"
    warmup_ops = 9
    trace_cycles = 4

    def setup(self, seed: int) -> list[PumpCase]:
        work = OUT / "pump"
        work.mkdir(parents=True, exist_ok=True)
        cases = []
        for name in PUMP_INSTANCES:
            path = HERE / "instances" / f"{name}.weq"
            cert = work / f"{name}.cert.json"
            code, _ = call_cli(["pump", str(path), "--m", "0", "--cert-out", str(cert)])
            if code != 0:
                raise RuntimeError(f"weq pump --cert-out failed on {name} with exit code {code}")
            ins = eqs.parse_instance(path.read_text(encoding="utf-8"))
            for m in PUMP_MS:
                argv = ["pump", str(path), "--m", str(m), "--cert-in", str(cert), "--json"]
                cases.append(PumpCase(name, argv, ins, m))
        random.Random(seed).shuffle(cases)
        return cases

    def run(self, case: PumpCase) -> tuple[int, str]:
        return call_cli(case.argv)

    def check(self, case: PumpCase, out: tuple[int, str]) -> None:
        code, text = out
        if code != 0:
            raise WrongOutput(f"exit code {code}")
        rows = json.loads(text)["solutions"]
        if [row["m"] for row in rows] != list(range(case.m + 1)):
            raise WrongOutput("rows do not cover m = 0..M")
        for row in rows:
            m = row["m"]
            assignment = {v: tuple(w) for v, w in row["assignment"].items()}
            if not eqs.verify_solution(case.instance, Solution.from_dict(assignment)):
                raise WrongOutput(f"verify_solution rejects row m={m}")
            if row["exp"] < m:
                raise WrongOutput(f"row m={m} reports exponent {row['exp']}")
            check_pumped(case.instance, assignment, m)

    def describe(self, case: PumpCase) -> str:
        return f"{case.name} --m {case.m}"


def call_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = weq.cli.main(argv)
    return code, buf.getvalue()


# ---------------------------------------------------------------------------
# hunt: the exhaustive sweep


HUNT_ARGS = ("b2", 2, 2, 4)  # semigroup, constants, max variables, max |UV|
HUNT_BUDGET = 1_000_000  # above the sweep size, so the sweep is never truncated
HUNT_CLASSES = ("total", "unsatisfiable", "finite", "infinite_certified", "suspects", "discharged")


@dataclass
class HuntCase:
    target: weq.semigroup.FiniteSemigroup
    seed: int
    expected: dict


class Hunt(Workload):
    """``weq hunt --semigroup builtin:b2 --max-len 4``: an operation is one
    instance classified; a run makes whole ``run_hunt`` calls and times each
    ``classify`` call inside them."""

    name = "hunt"

    def setup(self, seed: int) -> list[HuntCase]:
        target = weq.semigroup.resolve_semigroup(f"builtin:{HUNT_ARGS[0]}")
        return [HuntCase(target, seed, load_expected()["hunt"]["totals"])]

    def run(self, case: HuntCase):
        _, n_constants, max_vars, max_len = HUNT_ARGS
        return weq.hunt.run_hunt(case.target, n_constants, max_vars, max_len,
                                 HUNT_BUDGET, case.seed)

    def check(self, case: HuntCase, report) -> None:
        got = {k: v for k, v in report.as_dict().items() if k in HUNT_CLASSES}
        if got != case.expected:
            raise WrongOutput(f"class totals {got} differ from expected {case.expected}")

    def describe(self, case: HuntCase) -> str:
        return f"run_hunt seed {case.seed}"


WORKLOADS = {w.name: w for w in (Battery(), Hard(), Pump(), Hunt())}


# ---------------------------------------------------------------------------
# independent reference checks


def check_solves(ins: Instance, assignment: dict) -> None:
    """Substitute and compare both sides, and fold every variable's word
    through the constraint target's table; raises WrongOutput on a mismatch."""
    syms = ins.symbols
    images = dict(ins.mu.image)
    table = ins.mu.target.table
    for var in syms.variables:
        word = assignment.get(var)
        if not word or any(tok not in syms.constant_set for tok in word):
            raise WrongOutput(f"variable {var} is not a nonempty constant word")
        value = images[word[0]]
        for tok in word[1:]:
            value = table[value][images[tok]]
        if value != images[var]:
            raise WrongOutput(f"word of {var} violates its constraint")
    for eq in ins.equations:
        sides = [[tok for t in side for tok in assignment.get(t, (t,))] for side in (eq.lhs, eq.rhs)]
        if sides[0] != sides[1]:
            raise WrongOutput("assignment does not solve the equation")


def has_power(word, m: int) -> bool:
    """Whether some nonempty p has p^m as a factor: a run of (m-1)|p|
    positions i with word[i] == word[i + |p|]."""
    n = len(word)
    if m <= 1:
        return n > 0
    for p in range(1, n // m + 1):
        run = 0
        for i in range(n - p):
            run = run + 1 if word[i] == word[i + p] else 0
            if run >= (m - 1) * p:
                return True
    return False


def check_pumped(ins: Instance, assignment: dict, m: int) -> None:
    check_solves(ins, assignment)
    if not any(has_power(w, m) for w in assignment.values()):
        raise WrongOutput(f"pumped solution for m={m} has exponent below {m}")
