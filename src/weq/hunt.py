"""Exhaustive sweep over small quadratic instances, classifying each one and
recording the instances that resist both certification and the growing-
exponent heuristic.

The sweep never claims a counterexample: a Suspect entry is an instance with
infinitely many solutions, constraints outside the supported variety, no
pumpable state in any cyclic component, and a maximal observed
exponent that did not grow between two oracle bounds.  Anything in that
bucket is flagged for manual study, nothing more.
"""

from __future__ import annotations

import bisect
import itertools
import json
import random
from array import array
from contextlib import nullcontext
from dataclasses import asdict, dataclass

from . import oracle
from .equations import (
    BudgetExceeded, ConstraintMorphism, Instance, SymbolTable, WordEquation, format_instance,
)
from .periodicity import TheoremViolation, cyclic_components, pumpable_state
from .semigroup import FiniteSemigroup
from .solution_graph import build, has_infinitely_many, is_solvable

CONSTANT_POOL = tuple("abcdefgh")
VARIABLE_POOL = tuple("XYZUVW")


def quadratic_equations(n_constants: int, max_vars: int, max_len: int):
    """The first members of renaming classes (see `canonical_key`): equations
    (U, V) over the token pools with nonempty sides, |UV| <= max_len and no
    variable thrice, in `itertools.product` order over the pools, then by cut,
    each with its symbol table (one per word) and number of constants.  A first
    member's constants and variables first occur in pool order, so its prefixes
    are first members too: each level extends the last one's words, in order."""
    sigma = CONSTANT_POOL[:n_constants]
    variables = VARIABLE_POOL[:max_vars]
    # (word, constants used, pool index of its last new variable)
    level = [((), 0, -1)]
    for total in range(1, max_len + 1):
        longer = []
        for word, n_occ, last in level:
            longer += [(word + (c,), max(n_occ, i + 1), last) for i, c in enumerate(sigma[:n_occ + 1])]
            longer += [(word + (v,), n_occ, last) for v in variables[:last + 1] if word.count(v) == 1]
            longer += [(word + (v,), n_occ, i) for i, v in enumerate(variables) if i > last]
        level = longer
        for word, n_occ, _ in level:
            syms = SymbolTable(sigma, tuple(v for v in variables if v in word))
            for cut in range(1, total):
                yield WordEquation(word[:cut], word[cut:]), syms, n_occ


# no caller in the library; kept because the tracer in perfbench/spans.py wraps it by name
def canonical_key(eq: WordEquation, sigma, variables, image=None):
    """The first member in sweep order of the renaming class of `eq` with
    constraint map `image`, as (lhs, rhs, sorted image items).

    The class: constants are renamed over all of `sigma`, and the variables
    that occur are renamed among themselves, keeping their pool names (so
    `a = b X` and `a = b Y` are different classes); equation reversal and
    side swaps are intentionally not quotiented.  Its first member relabels
    tokens in order of first occurrence in `lhs + rhs`: the k-th distinct
    constant becomes sigma[k] and the k-th distinct variable the k-th
    occurring variable in `variables` order.  The constants that do not
    occur take the remaining names in order of their images."""
    word = eq.lhs + eq.rhs
    constants = frozenset(sigma)
    fresh_constants = iter(sigma)
    fresh_variables = iter([v for v in variables if v in word])
    ren: dict = {}
    for t in word:
        if t not in ren:
            ren[t] = next(fresh_constants if t in constants else fresh_variables)
    absent = [c for c in sigma if c not in ren]
    if image:
        absent.sort(key=image.__getitem__)
    ren.update(zip(absent, fresh_constants))
    return (
        tuple(ren[t] for t in eq.lhs),
        tuple(ren[t] for t in eq.rhs),
        tuple(sorted((ren[s], e) for s, e in image.items())) if image else (),
    )


def sweep_instances(
    sg: FiniteSemigroup, n_constants: int, max_vars: int, max_len: int, seed: int | None = None,
):
    """The first member of each renaming class (see `canonical_key`) in
    enumeration order: by |UV|, word, cut, then constraint images in product
    order.  The equations are made first members, and the images of the
    constants absent from one do not decrease, so no renaming is searched.

    With a seed, the same instances in the order that
    `random.Random(seed).shuffle` gives their list.  Only the instances'
    numbers in enumeration order are listed, as machine integers in an
    array, and shuffled, and each instance is built when it is yielded; a
    shuffle depends only on the length of its list, so the order is the
    same."""
    elements = sg.elements()
    tables: list[tuple[WordEquation, SymbolTable, list[tuple[int, ...]]]] = []
    image_lists: dict[tuple[int, int, int], list[tuple[int, ...]]] = {}
    for eq, syms, n_occ in quadratic_equations(n_constants, max_vars, max_len):
        shape = (n_occ, len(syms.constants) - n_occ, len(syms.variables))
        if shape not in image_lists:
            image_lists[shape] = [
                occurring + absent + var_images
                for occurring, absent, var_images in itertools.product(
                    itertools.product(elements, repeat=shape[0]),
                    itertools.combinations_with_replacement(elements, shape[1]),
                    itertools.product(elements, repeat=shape[2]),
                )
            ]
        tables.append((eq, syms, image_lists[shape]))
    # starts[n] is the number of the first instance of equation n
    starts = list(itertools.accumulate((len(images) for _, _, images in tables), initial=0))
    numbers = range(starts[-1])
    if seed is not None:
        numbers = array("l", numbers)
        random.Random(seed).shuffle(numbers)
    for k in numbers:
        n = bisect.bisect_right(starts, k) - 1
        eq, syms, image_list = tables[n]
        mapping = dict(zip(syms.all_symbols(), image_list[k - starts[n]]))
        yield Instance((eq,), ConstraintMorphism.from_dict(syms, sg, mapping))


@dataclass
class HuntReport:
    parameters: dict
    total: int = 0
    unsatisfiable: int = 0
    finite: int = 0
    infinite_certified: int = 0
    suspects: int = 0
    discharged: int = 0
    truncated: bool = False

    def as_dict(self) -> dict:
        return asdict(self)


def classify(ins: Instance) -> tuple[str, dict]:
    g = build(ins)
    if not is_solvable(g):
        return "Unsatisfiable", {}
    if not has_infinitely_many(g):
        return "FiniteSol", {}
    if pumpable_state(g) is not None:
        return "InfiniteCertified", {}
    eq = ins.equation
    low = len(eq.lhs) + len(eq.rhs)
    detail: dict = {"states_checked": sum(len(c) for c in cyclic_components(g))}
    try:
        e1 = oracle.brute_solutions(ins, low).max_exp_seen
        e2 = oracle.brute_solutions(ins, low + 2).max_exp_seen
        detail["max_exp"] = {"low_bound": low, "low": e1, "high_bound": low + 2, "high": e2}
        stagnant = e2 <= e1
    except BudgetExceeded:
        detail["max_exp"] = None
        stagnant = True  # cannot discharge; stay suspicious
    if stagnant:
        return "Suspect", detail
    return "Discharged", detail


def run_hunt(
    sg: FiniteSemigroup,
    n_constants: int,
    max_vars: int,
    max_len: int,
    budget: int,
    seed: int = 0,
    findings_path: str | None = None,
) -> HuntReport:
    """Classify at most `budget` of the sweep's instances.  An error that stops
    the sweep carries the report of the instances classified as `report`, and
    a `TheoremViolation` the instance that raised it as `instance`."""
    report = HuntReport(parameters={
        "semigroup": sg.spec or sg.label or "custom",
        "constants": n_constants,
        "max_vars": max_vars,
        "max_len": max_len,
        "budget": budget,
        "seed": seed,
    })
    # opened before the sweep starts, so that a bad path fails before any work
    with open(findings_path, "w", encoding="utf-8") if findings_path else nullcontext() as sink:
        try:
            for ins in sweep_instances(sg, n_constants, max_vars, max_len, seed):
                if report.total >= budget:
                    raise BudgetExceeded(f"instance budget {budget} exhausted")
                clazz, detail = classify(ins)
                report.total += 1
                if clazz == "Unsatisfiable":
                    report.unsatisfiable += 1
                elif clazz == "FiniteSol":
                    report.finite += 1
                elif clazz == "InfiniteCertified":
                    report.infinite_certified += 1
                elif clazz == "Discharged":
                    report.discharged += 1
                else:
                    report.suspects += 1
                    if sink:
                        entry = {
                            "class": "Suspect",
                            "instance": format_instance(ins),
                            "length_constraints": None,
                            **detail,
                        }
                        sink.write(json.dumps(entry, sort_keys=True) + "\n")
                        sink.flush()
        except (BudgetExceeded, TheoremViolation) as exc:
            report.truncated = True
            exc.report = report
            if isinstance(exc, TheoremViolation):
                exc.instance = ins
            raise
    return report
