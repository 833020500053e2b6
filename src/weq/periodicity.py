"""Infinitude-of-exponent machinery for quadratic instances.

Detects states that admit pumping (a head variable whose opposite-side
prefix stabilizes its constraint image, or a variable with an infinite
constraint language that is absent from the equation), scans the cyclic
components for the first such state, and assembles reusable certificates
that instantiate to solutions of arbitrarily large exponent of
periodicity.  A certificate's paths are shortest ones: its prefix path leads
from the initial state to the pumpable state, and its base solution
composes a shortest accepting path from that state.  The component
invariants of the paper's proof are not needed for this; the tests check
them against a reference implementation.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .equations import (
    EquationError,
    Instance,
    Solution,
    TheoremViolation,
    Word,
    apply_map,
    preimage_infinite,
    preimage_pump,
    verify_solution,
)
from .semigroup import is_dlg, omega, stab_L
from .solution_graph import GraphState, SolutionGraph, build, compose


class NotDLG(EquationError):
    """The constraint target is outside the supported variety."""


# ---------------------------------------------------------------------------
# nicely balanced states


def is_nicely_balanced(ins: Instance, st: GraphState, var: str) -> Word | None:
    """The word v that pumps the state `st` on its active variable `var`, or
    None when the state does not admit pumping there: the constraint language
    of the variable is infinite and either the variable is absent from the
    equation (v is then empty), or (up to swapping sides) the equation reads
    X u = v X v' with the image of v an L-stabilizer of the image of X.  An
    empty v means the variable is pumped from its constraint language instead."""
    mu_x = dict(st.mu_items)[var]
    if not preimage_infinite(ins.mu, mu_x):
        return None
    if var not in st.lhs + st.rhs:
        return ()
    for this, other in ((st.lhs, st.rhs), (st.rhs, st.lhs)):
        if not this or this[0] != var or var in this[1:]:
            continue
        if other.count(var) != 1:
            continue
        v = other[:other.index(var)]
        if _eval1(ins, st, v) in stab_L(ins.mu.target, mu_x):
            return v
    return None


def _eval1(ins: Instance, st: GraphState, word: Word) -> int:
    """Evaluate a word over the constants and the state's active variables
    in S^1 (empty -> ONE), at the instance's and the state's images."""
    m = {a: ins.mu[a] for a in ins.symbols.constants}
    m.update(st.mu_items)
    return ins.mu.target.fold(m[t] for t in word)


# ---------------------------------------------------------------------------
# cycles


# no caller in the library; kept because the tracer in perfbench/spans.py wraps it by name
def simple_cycles(g: SolutionGraph, max_len: int = 20, max_count: int = 10000) -> list[tuple[int, ...]]:
    """Simple cycles (as state sequences, repetition of the anchor implied),
    grouped by component in topological order, then ordered by length and by
    state ids.  Enumeration is capped at `max_count` per component."""
    out: list[tuple[int, ...]] = []
    for ci, comp in enumerate(g.scc.components):
        if not g.scc.has_transition[ci]:
            continue
        comp_set = set(comp)
        cycles: list[tuple[int, ...]] = []
        for anchor in comp:
            # DFS over states >= anchor so each cycle is found at its least state
            stack = [(anchor, (anchor,))]
            while stack and len(cycles) < max_count:
                node, path = stack.pop()
                for e in g.edges(node):
                    nxt = g.dst[e]
                    if nxt not in comp_set or nxt < anchor:
                        continue
                    if nxt == anchor:
                        cycles.append(path)
                    elif nxt not in path and len(path) < max_len:
                        stack.append((nxt, path + (nxt,)))
        cycles = sorted(set(cycles), key=lambda c: (len(c), c))
        out.extend(cycles)
    return out


def find_nicely_balanced_on_cycle(g: SolutionGraph, states) -> tuple[int, GraphState, str, Word] | None:
    """The first pumpable (state id, decoded state, variable, word v) among
    the given states, walked in order with the active variables in
    declaration order; None on a miss."""
    ins = g.instance
    for sid in states:
        st = g.state(sid)
        active = dict(st.mu_items)
        for var in [x for x in ins.symbols.variables if x in active]:
            v = is_nicely_balanced(ins, st, var)
            if v is not None:
                return sid, st, var, v
    return None


def cyclic_components(g: SolutionGraph) -> list[tuple[int, ...]]:
    """The components that contain a transition, in topological order.  Each
    of their states lies on a cycle."""
    return [c for c, cyclic in zip(g.scc.components, g.scc.has_transition) if cyclic]


def pumpable_state(g: SolutionGraph) -> tuple[int, GraphState, str, Word] | None:
    """The first pumpable state of the cyclic components, scanned in
    topological order and by state id, as `find_nicely_balanced_on_cycle`
    returns it, decoded state included; None when the automaton is acyclic or,
    outside the supported variety, when every state misses.  Under supported
    constraints every cyclic component holds one, so a miss there raises."""
    comps = cyclic_components(g)
    for comp in comps:
        hit = find_nicely_balanced_on_cycle(g, comp)
        if hit is not None:
            return hit
    if comps and is_dlg(g.instance.mu.target).holds:
        raise TheoremViolation(f"no pumpable state in any of {len(comps)} cyclic components")
    return None


# ---------------------------------------------------------------------------
# certificates


@dataclass(frozen=True)
class PumpingCertificate:
    """Reusable witness that solutions of unbounded exponent exist.

    `prefix_labels` label a shortest path from the initial state to the
    pumpable state; `base` solves that state's equation, composed along a
    shortest accepting path from it (both breadth-first in edge order).  In
    the head-balanced case the variable is re-solved as
    base(v)^(m*omega) base(X); in the free-variable case it is re-solved as
    u y^m w from the constraint-language pump.
    """

    state: int
    variable: str
    case: str  # "head_balanced" | "free_variable"
    prefix_labels: tuple[tuple[str, Word] | None, ...]
    base: tuple[tuple[str, Word], ...]
    v: Word | None = None
    omega_exponent: int | None = None
    pump: tuple[Word, Word, Word] | None = None


def _shortest_path(g: SolutionGraph, src: int, goal: set[int] | frozenset[int]) -> list[int]:
    """The edges of a shortest run from src to a state of `goal`,
    breadth-first in edge order; each state reached records its
    (predecessor, edge in)."""
    if src in goal:
        return []
    prev: dict[int, tuple[int, int]] = {src: (-1, -1)}
    queue = deque([src])
    while queue:
        at = queue.popleft()
        for e in g.edges(at):
            target = g.dst[e]
            if target not in prev:
                prev[target] = (at, e)
                if target in goal:
                    path = []
                    while target != src:
                        target, e = prev[target]
                        path.append(e)
                    return path[::-1]
                queue.append(target)
    raise EquationError(f"no goal state is reachable from state {src}")


def _base_fault(ins: Instance, st: GraphState, sid: int, base: dict[str, Word]) -> str | None:
    """What keeps `base` from solving state `sid`, decoded as `st`, under
    the state's constraints, or None.  A base assigns each of the state's
    variables a nonempty word of constants that meets its image; unless the
    state is TRUE, it also solves the state's equation."""
    mu = dict(st.mu_items)
    if base.keys() != mu.keys():
        return "does not cover the state's variables"
    syms = ins.symbols
    for v, w in base.items():
        if not w or not all(syms.is_constant(t) for t in w):
            return f"leaves {v!r} as {w!r}"
    if st.lhs:
        sol = Solution.from_dict(base)
        if sol.apply(st.lhs) != sol.apply(st.rhs):
            return f"does not solve state {sid}"
    for v, w in base.items():
        if ins.mu.eval(w) != mu[v]:
            return f"violates the constraint on {v!r}"
    return None


def _solve_state(g: SolutionGraph, st: GraphState, sid: int, path: list[int]) -> dict[str, Word]:
    """Base solution of a state's own equation, composed along an accepting
    path from it by `g.compose_run`."""
    base = g.compose_run(path, [v for v, _ in st.mu_items])
    fault = _base_fault(g.instance, st, sid, base)
    if fault is not None:
        raise TheoremViolation(f"accepting path from state {sid} {fault}")
    return base


def _certificate(
    ins: Instance, st: GraphState, sid: int, var: str, labels, base: dict[str, Word], v: Word
) -> PumpingCertificate:
    """The certificate pumping `var` at state `sid`, decoded as `st`,
    reached by `labels` and solved by `base`: head-balanced when `v` is
    nonempty, with omega the idempotent exponent of the image of v;
    otherwise free-variable, pumped from the constraint language of the
    variable, which must be infinite."""
    fields = dict(state=sid, variable=var, prefix_labels=labels, base=tuple(sorted(base.items())))
    if v:
        om = omega(ins.mu.target, _eval1(ins, st, v))
        return PumpingCertificate(case="head_balanced", v=v, omega_exponent=om.exponent, **fields)
    pump = preimage_pump(ins.mu, dict(st.mu_items)[var])
    return PumpingCertificate(case="free_variable", pump=pump, **fields)


def pumping_certificate(ins: Instance, graph: SolutionGraph | None = None) -> PumpingCertificate | None:
    """None when the trimmed automaton is acyclic (finitely many solutions);
    otherwise a certificate at the first pumpable state of the cyclic
    components, scanned in topological order and by state id, with its base
    from a shortest accepting path.  Under supported constraints the first
    cyclic component always yields one."""
    g = graph if graph is not None else build(ins)
    hit = pumpable_state(g)
    if hit is None:
        return None
    sid, st, var, v = hit
    labels = tuple(map(g.label, _shortest_path(g, g.initial, {sid})))
    base = _solve_state(g, st, sid, _shortest_path(g, sid, g.finals))
    return _certificate(ins, st, sid, var, labels, base, v)


def instantiate(cert: PumpingCertificate, ins: Instance, m: int) -> Solution:
    """The m-th pumped solution of the original instance; TheoremViolation
    unless it solves the instance with exponent of periodicity at least m."""
    if m < 0:
        raise ValueError("the pump count must be nonnegative")
    local = dict(cert.base)
    if cert.case == "head_balanced":
        base_v = apply_map(cert.v, local)
        if not base_v:
            raise EquationError("certificate word v has an empty image; nothing to pump")
        pumped = base_v * (m * cert.omega_exponent) + local[cert.variable]
    else:
        u, y, w = cert.pump
        reps = m if (u or w) else max(m, 1)
        pumped = u + y * reps + w
    local[cert.variable] = pumped
    # lift through the path prefix back to the original variables
    patterns = compose(ins.symbols.variables, cert.prefix_labels)
    sol = Solution.from_dict({v: apply_map(w, local) for v, w in patterns.items()})
    if not verify_solution(ins, sol):
        raise TheoremViolation(f"pumped solution {sol.assignment} does not solve the instance")
    if sol.exponent < m:
        raise TheoremViolation(f"pumped solution has exponent below {m}")
    return sol


def decide_exp_infinite_dlg(ins: Instance) -> PumpingCertificate | None:
    """For constraint targets in the supported variety: None for finitely
    many solutions, else a certificate of unbounded exponent of periodicity
    (the two cases are exhaustive there)."""
    if not is_dlg(ins.mu.target).holds:
        raise NotDLG("constraint target has a regular D-class that is not a right group")
    return pumping_certificate(ins)


# ---------------------------------------------------------------------------
# certificate (de)serialization


def certificate_to_json(cert: PumpingCertificate) -> dict:
    return {
        "state": cert.state,
        "variable": cert.variable,
        "case": cert.case,
        "v": list(cert.v) if cert.v is not None else None,
        "base": {v: list(w) for v, w in cert.base},
        "omega": cert.omega_exponent,
        # a silent step as null, a substitution as [variable, [token, ...]]
        "prefix_path": [
            None if lab is None else [lab[0], list(lab[1])] for lab in cert.prefix_labels
        ],
    }


def _json_word(w) -> Word:
    """A certificate word: a list of tokens, not a string of characters."""
    if not (isinstance(w, list) and all(isinstance(t, str) for t in w)):
        raise TypeError(f"certificate word {w!r} is not a list of tokens")
    return tuple(w)


def load_certificate(ins: Instance, data: dict, graph: SolutionGraph | None = None) -> PumpingCertificate:
    """Rebuild and re-verify a serialized certificate against the instance."""
    g = graph if graph is not None else build(ins)
    sid = data["state"]
    if type(sid) is not int:  # not a bool, which JSON reads from true and false
        raise TypeError(f"certificate state {sid!r} is not an integer")
    if not 0 <= sid < g.state_count:
        raise EquationError(f"certificate state {sid} does not exist")
    for lab in data["prefix_path"]:
        if lab is not None and not (isinstance(lab, list) and len(lab) == 2):
            raise TypeError(f"prefix_path entry {lab!r} is neither null nor [variable, [token, ...]]")
    labels = tuple(None if lab is None else (lab[0], _json_word(lab[1])) for lab in data["prefix_path"])
    # replay the labels from the initial state; the label sequence must
    # admit a run ending at the certified state
    frontier = {g.initial}
    for lab in labels:
        frontier = {
            g.dst[e]
            for at in frontier
            for e in g.edges(at)
            if g.label(e) == lab
        }
        if not frontier:
            raise EquationError("certificate path prefix does not run in the automaton")
    if sid not in frontier:
        raise EquationError("certificate path prefix does not reach the certified state")
    st = g.state(sid)
    var = data["variable"]
    if var not in dict(st.mu_items):
        raise EquationError(f"variable {var!r} is not active in state {sid}")
    word = is_nicely_balanced(ins, st, var)
    if word is None:
        raise EquationError(f"state {sid} is not pumpable on {var!r}")
    base = {v: _json_word(w) for v, w in data["base"].items()}
    if data["v"] is not None:
        _json_word(data["v"])
    fault = _base_fault(ins, st, sid, base)
    if fault is not None:
        raise EquationError(f"certificate base {fault}")
    # the file must hold the certificate derived at the replayed state, in value and
    # JSON type (true and 1.0 are not 1): the scan's word decides case and v, v omega
    cert = _certificate(ins, st, sid, var, labels, base, word)
    for key, derived in certificate_to_json(cert).items():
        found = data[key]
        if type(found) is not type(derived) or found != derived:
            raise EquationError(f"certificate {key} {found!r} is not {derived!r}, the {key} of "
                                f"state {sid} on {var!r}")
    return cert
