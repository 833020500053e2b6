"""Infinitude-of-exponent machinery for quadratic instances.

Detects states that admit pumping (a head variable whose opposite-side
prefix stabilizes its constraint image, or a variable with an infinite
constraint language that is absent from the equation), scans the cyclic
components for the first such state, and assembles reusable certificates
that instantiate to solutions of arbitrarily large exponent of
periodicity.  The component invariants of the paper's proof are not needed
for this; the tests check them against a reference implementation.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .equations import (
    EquationError,
    Instance,
    Solution,
    Word,
    apply_map,
    exp_solution,
    preimage_infinite,
    preimage_pump,
    require_solution,
)
from .semigroup import is_dlg, omega, stab_L
from .solution_graph import SolutionGraph, build, compose


class NotDLG(EquationError):
    """The constraint target is outside the supported variety."""


class TheoremViolation(AssertionError):
    """A guaranteed search came back empty; indicates an implementation bug."""


# ---------------------------------------------------------------------------
# nicely balanced states


@dataclass(frozen=True)
class BalanceWitness:
    variable: str
    absent: bool
    swapped: bool  # the pumpable side is the right-hand side
    u: Word = ()
    v: Word = ()
    v_prime: Word = ()


def is_nicely_balanced(g: SolutionGraph, sid: int, var: str) -> BalanceWitness | None:
    """Whether the state admits pumping on `var`: the constraint language of
    the variable is infinite and either the variable is absent from the
    equation, or (up to swapping sides) the equation reads X u = v X v' with
    the image of v an L-stabilizer of the image of X."""
    st = g.state(sid)
    if var not in st.varset:
        raise EquationError(f"variable {var!r} is not active in state {sid}")
    mu_x = dict(st.mu_items)[var]
    if not preimage_infinite(g.instance.mu, mu_x):
        return None
    body = st.lhs + st.rhs
    if var not in body:
        return BalanceWitness(var, absent=True, swapped=False)
    for swapped, (this, other) in ((False, (st.lhs, st.rhs)), (True, (st.rhs, st.lhs))):
        if not this or this[0] != var or var in this[1:]:
            continue
        if other.count(var) != 1:
            continue
        i = other.index(var)
        v, v_prime = other[:i], other[i + 1:]
        if g.state_eval1(sid, v) in stab_L(g.instance.mu.target, mu_x):
            return BalanceWitness(var, False, swapped, this[1:], v, v_prime)
    return None


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


def find_nicely_balanced_on_cycle(g: SolutionGraph, states) -> tuple[int, str, BalanceWitness] | None:
    """The first pumpable (state, variable, witness) among the given states,
    walked in order with the active variables in declaration order; None on
    a miss."""
    syms = g.instance.symbols
    for sid in states:
        st = g.state(sid)
        for var in sorted(st.varset, key=syms.variable_order):
            wit = is_nicely_balanced(g, sid, var)
            if wit is not None:
                return sid, var, wit
    return None


def cyclic_components(g: SolutionGraph) -> list[tuple[int, ...]]:
    """The components that contain a transition, in topological order.  Each
    of their states lies on a cycle."""
    return [c for c, cyclic in zip(g.scc.components, g.scc.has_transition) if cyclic]


def pumpable_state(g: SolutionGraph) -> tuple[int, str, BalanceWitness] | None:
    """The first pumpable state of the cyclic components, scanned in
    topological order and by state id; None when the automaton is acyclic or,
    outside the supported variety, when every state misses.  Under supported
    constraints every cyclic component holds one, so a miss there raises."""
    comps = cyclic_components(g)
    for comp in comps:
        hit = find_nicely_balanced_on_cycle(g, comp)
        if hit is not None:
            return hit
    if comps and is_dlg(g.instance.mu.target):
        raise TheoremViolation(f"no pumpable state in any of {len(comps)} cyclic components")
    return None


# ---------------------------------------------------------------------------
# certificates


@dataclass(frozen=True)
class PumpingCertificate:
    """Reusable witness that solutions of unbounded exponent exist.

    `prefix_path` leads from the initial state to the pumpable state; `base`
    solves that state's equation.  In the head-balanced case the variable is
    re-solved as base(v)^(m*omega) base(X); in the free-variable case it is
    re-solved as u y^m w from the constraint-language pump.
    """

    state: int
    variable: str
    case: str  # "head_balanced" | "free_variable"
    prefix_labels: tuple[tuple[str, Word] | None, ...]
    base: tuple[tuple[str, Word], ...]
    v: Word | None = None
    omega_exponent: int | None = None
    pump: tuple[Word, Word, Word] | None = None

    def base_dict(self) -> dict[str, Word]:
        return dict(self.base)


def _shortest_path(g: SolutionGraph, src: int, dst: int) -> list[int]:
    """The edges of a shortest run from src to dst, breadth-first in edge
    order; each state reached records its (predecessor, edge in)."""
    if src == dst:
        return []
    prev: dict[int, tuple[int, int]] = {src: (-1, -1)}
    queue = deque([src])
    while queue:
        at = queue.popleft()
        for e in g.edges(at):
            target = g.dst[e]
            if target not in prev:
                prev[target] = (at, e)
                if target == dst:
                    path = []
                    while target != src:
                        target, e = prev[target]
                        path.append(e)
                    return path[::-1]
                queue.append(target)
    raise EquationError(f"state {dst} unreachable from {src}")


def _first_accepting_path(g: SolutionGraph, start: int) -> list[int]:
    """First accepting path in depth-first order over the deterministic
    transition order, kept as a stack of edge cursors, not recursion;
    exists because the automaton is trim."""
    if start in g.finals:
        return []
    visited = {start}
    stack = [(-1, iter(g.edges(start)))]  # (edge into the state, cursor over its edges)
    while stack:
        for e in stack[-1][1]:
            target = g.dst[e]
            if target not in visited:
                visited.add(target)
                if target in g.finals:
                    return [edge for edge, _ in stack[1:]] + [e]
                stack.append((e, iter(g.edges(target))))
                break
        else:
            stack.pop()
    raise EquationError("trimmed state has no accepting continuation")  # pragma: no cover


def _base_fault(g: SolutionGraph, sid: int, base: dict[str, Word]) -> str | None:
    """What keeps `base` from solving state `sid` under the state's
    constraints, or None.  A base assigns each of the state's variables a
    nonempty word of constants that meets its image; unless the state is
    TRUE, it also solves the state's equation."""
    st = g.state(sid)
    if set(base) != st.varset:
        return "does not cover the state's variables"
    syms = g.instance.symbols
    for v, w in base.items():
        if not w or not all(syms.is_constant(t) for t in w):
            return f"leaves {v!r} as {w!r}"
    if not st.is_true:
        sol = Solution.from_dict(base)
        if sol.apply(st.lhs) != sol.apply(st.rhs):
            return f"does not solve state {sid}"
    mu = g.state_mu(sid)
    for v, w in base.items():
        if g.instance.mu.eval(w) != mu[v]:
            return f"violates the constraint on {v!r}"
    return None


def _solve_state(g: SolutionGraph, sid: int, path: list[int]) -> dict[str, Word]:
    """Base solution of a state's own equation from an accepting path."""
    patterns = compose(g.state(sid).varset, map(g.label, path))
    fault = _base_fault(g, sid, patterns)
    if fault is not None:
        raise TheoremViolation(f"accepting path from state {sid} {fault}")
    return patterns


def _certificate(
    g: SolutionGraph, sid: int, var: str, labels, base: dict[str, Word], v: Word
) -> PumpingCertificate:
    """The certificate pumping `var` at state `sid`, reached by `labels` and
    solved by `base`: head-balanced when `v` is nonempty, with omega the
    idempotent exponent of the image of v; otherwise free-variable, pumped
    from the constraint language of the variable, which must be infinite."""
    fields = dict(state=sid, variable=var, prefix_labels=labels, base=tuple(sorted(base.items())))
    if v:
        om = omega(g.instance.mu.target, g.state_eval1(sid, v))
        return PumpingCertificate(case="head_balanced", v=v, omega_exponent=om.exponent, **fields)
    pump = preimage_pump(g.instance.mu, dict(g.state(sid).mu_items)[var])
    return PumpingCertificate(case="free_variable", pump=pump, **fields)


def pumping_certificate(ins: Instance, graph: SolutionGraph | None = None) -> PumpingCertificate | None:
    """None when the trimmed automaton is acyclic (finitely many solutions);
    otherwise a certificate at the first pumpable state of the cyclic
    components, scanned in topological order and by state id.  Under
    supported constraints the first cyclic component always yields one."""
    g = graph if graph is not None else build(ins)
    hit = pumpable_state(g)
    if hit is None:
        return None
    sid, var, wit = hit
    labels = tuple(map(g.label, _shortest_path(g, g.initial, sid)))
    base = _solve_state(g, sid, _first_accepting_path(g, sid))
    return _certificate(g, sid, var, labels, base, wit.v)


def instantiate(cert: PumpingCertificate, ins: Instance, m: int) -> Solution:
    """The m-th pumped solution of the original instance; checked to solve it
    with exponent of periodicity at least m."""
    if m < 0:
        raise ValueError("the pump count must be nonnegative")
    base = cert.base_dict()
    if cert.case == "head_balanced":
        base_v = apply_map(cert.v, base)
        if not base_v:
            raise EquationError("certificate word v has an empty image; nothing to pump")
        pumped = base_v * (m * cert.omega_exponent) + base[cert.variable]
    else:
        u, y, w = cert.pump
        reps = m if (u or w) else max(m, 1)
        pumped = u + y * reps + w
    local = dict(base)
    local[cert.variable] = pumped
    # lift through the path prefix back to the original variables
    patterns = compose(ins.symbols.variables, cert.prefix_labels)
    sol = Solution.from_dict({v: apply_map(w, local) for v, w in patterns.items()})
    require_solution(ins, sol)
    if exp_solution(sol) < m:
        raise TheoremViolation(f"pumped solution has exponent below {m}")
    return sol


@dataclass(frozen=True)
class ExpDecision:
    infinite: bool
    certificate: PumpingCertificate | None = None


def decide_exp_infinite_dlg(ins: Instance, graph: SolutionGraph | None = None) -> ExpDecision:
    """For constraint targets in the supported variety: finitely many
    solutions, or a certificate of unbounded exponent of periodicity (the two
    cases are exhaustive there)."""
    ins.require_quadratic()
    if not is_dlg(ins.mu.target).holds:
        raise NotDLG("constraint target has a regular D-class that is not a right group")
    cert = pumping_certificate(ins, graph=graph)
    return ExpDecision(cert is not None, cert)


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


def load_certificate(ins: Instance, data: dict, graph: SolutionGraph | None = None) -> PumpingCertificate:
    """Rebuild and re-verify a serialized certificate against the instance."""
    g = graph if graph is not None else build(ins)
    sid = data["state"]
    if not 0 <= sid < g.state_count:
        raise EquationError(f"certificate state {sid} does not exist")
    for lab in data["prefix_path"]:
        if lab is not None and not (isinstance(lab, list) and len(lab) == 2):
            raise TypeError(f"prefix_path entry {lab!r} is neither null nor [variable, [token, ...]]")
    labels = tuple(None if lab is None else (lab[0], tuple(lab[1])) for lab in data["prefix_path"])
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
    var = data["variable"]
    wit = is_nicely_balanced(g, sid, var)
    if wit is None:
        raise EquationError(f"state {sid} is not pumpable on {var!r}")
    # the witness decides the case: head-balanced exactly when its v is nonempty
    case = "head_balanced" if wit.v else "free_variable"
    if data["case"] != case:
        raise EquationError(f"certificate case {data['case']!r} is not {case!r}, the case of "
                            f"state {sid} on {var!r}")
    base = {v: tuple(w) for v, w in data["base"].items()}
    fault = _base_fault(g, sid, base)
    if fault is not None:
        raise EquationError(f"certificate base {fault}")
    if case == "free_variable":
        # the witness above makes the variable's constraint language infinite
        return _certificate(g, sid, var, labels, base, ())
    v_word = tuple(data["v"])
    if not v_word:
        raise EquationError("certificate word v is empty")
    img = g.state_eval1(sid, v_word)  # the image of v under the base
    if img not in stab_L(ins.mu.target, dict(g.state(sid).mu_items)[var]):
        raise EquationError("certificate word does not stabilize the variable image")
    cert = _certificate(g, sid, var, labels, base, v_word)
    if data["omega"] != cert.omega_exponent:
        raise EquationError(
            f"certificate omega {data['omega']!r} is not {cert.omega_exponent}, the idempotent "
            "exponent of the image of v"
        )
    return cert
