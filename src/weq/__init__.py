"""Quadratic word equations with regular constraints in finite semigroups.

Satisfiability and infinitude via the solution automaton, plus constructive
pumping certificates for constraint targets whose regular D-classes are
right groups.
"""

from ._text import ParseError
from .equations import (
    BudgetExceeded,
    ConstraintMorphism,
    EquationError,
    Instance,
    NotQuadratic,
    Solution,
    SymbolTable,
    WordEquation,
    WrongConstraintShape,
    brandt_two_constant_guesses,
    equation,
    exp_word,
    format_instance,
    parse_instance,
    periodicity_reduction,
    preimage_infinite,
    preimage_pump,
    singular_guesses,
    system_to_single,
    unconstrained,
)
from .oracle import OracleReport, brute_solutions
from .periodicity import (
    NotDLG,
    PumpingCertificate,
    TheoremViolation,
    certificate_to_json,
    decide_exp_infinite_dlg,
    find_nicely_balanced_on_cycle,
    instantiate,
    is_nicely_balanced,
    load_certificate,
    pumpable_state,
    pumping_certificate,
)
from .semigroup import (
    ONE,
    BadIndex,
    DlgResult,
    FiniteSemigroup,
    GreenData,
    InternalDisagreement,
    NonAssociative,
    OmegaPower,
    SemigroupError,
    VarietyReport,
    adjoin_identity,
    adjoin_zero,
    builtin,
    direct_product,
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
from .solution_graph import (
    GraphState,
    GraphTransition,
    NotAccepting,
    SolutionGraph,
    build,
    dot_lines,
    enumerate_solutions,
    extract_solution,
    has_infinitely_many,
    is_solvable,
)

__version__ = "0.1.0"
