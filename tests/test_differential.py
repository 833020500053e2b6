"""Differential tests over generated valid instances: the automaton's
enumeration against the brute-force oracle, the instance text format and
the certificate JSON as round trips, and pumped solutions as certified.

Instances are quadratic, with at most three variables (a declared variable
may be absent from the equation) and at most eight tokens, over builtin
targets in and outside the supported variety with random images; token
names include separators of the text formats and multi-character names."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from weq.equations import (
    ConstraintMorphism,
    Instance,
    SymbolTable,
    WordEquation,
    exp_solution,
    format_instance,
    parse_instance,
)
from weq.oracle import brute_solutions
from weq.periodicity import certificate_to_json, instantiate, load_certificate, pumping_certificate
from weq.semigroup import builtin
from weq.solution_graph import build, enumerate_solutions

CONSTANTS = ("a", "#", ",", "->", "bc")
VARIABLES = ("X", "Yy", "Z_2")
TARGETS = ("trivial", "z2", "n2", "rz2", "lz2", "b2", "sl2")


@st.composite
def instances(draw):
    constants = tuple(draw(st.lists(st.sampled_from(CONSTANTS), min_size=1, max_size=3, unique=True)))
    variables = tuple(draw(st.lists(st.sampled_from(VARIABLES), max_size=3, unique=True)))
    drawn = draw(st.lists(st.sampled_from(constants + variables), min_size=2, max_size=8))
    word = []
    for tok in drawn:  # each variable at most twice
        if tok in constants or word.count(tok) < 2:
            word.append(tok)
    if len(word) < 2:
        word.append(constants[0])
    cut = draw(st.integers(1, len(word) - 1))
    sg = builtin(draw(st.sampled_from(TARGETS)))
    syms = SymbolTable(constants, variables)
    images = draw(st.lists(st.sampled_from(sg.elements()), min_size=len(syms.all_symbols()),
                           max_size=len(syms.all_symbols())))
    mu = ConstraintMorphism.from_dict(syms, sg, dict(zip(syms.all_symbols(), images)))
    return Instance((WordEquation(tuple(word[:cut]), tuple(word[cut:])),), mu)


@given(instances())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_valid_instances(ins):
    assert parse_instance(format_instance(ins)) == ins
    g = build(ins)
    assert enumerate_solutions(g, 3) == list(brute_solutions(ins, 3).solutions)
    cert = pumping_certificate(ins, graph=g)
    if cert is None:
        return
    data = json.loads(json.dumps(certificate_to_json(cert)))
    assert load_certificate(ins, data, graph=g) == cert
    for m in range(3):
        assert exp_solution(instantiate(cert, ins, m)) >= m
