"""Reference checker for the component invariants behind the paper's DLG
theorem.  The decision procedure needs only the pumpable-state scan, so
these invariants live here and the tests assert them: every state of a
cyclic component has the same leading J-class, and every state's
playground has the same size and the same players."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from weq.equations import preimage_infinite
from weq.semigroup import green, stab_L


@cache
def _ideals(sg):
    """Per element y: the right ideal y S^1 and the two-sided ideal S^1 y S^1."""
    T, rng = sg.table, sg.elements()
    right = [frozenset({y} | {T[y][v] for v in rng}) for y in rng]
    return right, [frozenset(r | {T[u][z] for u in rng for z in r}) for r in right]


def leq_R(sg, x: int, y: int) -> bool:
    return x in _ideals(sg)[0][y]


def leq_J(sg, x: int, y: int) -> bool:
    return x in _ideals(sg)[1][y]


@dataclass(frozen=True)
class Playground:
    size: int
    players: frozenset[str]
    balanced: frozenset[str]  # players with one occurrence on each side


@dataclass(frozen=True)
class SccInvariants:
    leading_J: frozenset[int]
    leading_stab: frozenset[int]
    per_state: dict[int, Playground]


def _leading_j(g, gr, sid: int) -> int:
    """The least J-class among the images of the state's variable heads; a
    TRUE state reads the variables of its in-component moves instead."""
    st, mu, comp_of = g.state(sid), g.state_mu(sid), g.scc.comp_of
    if st.is_true:
        heads = [g.label(e)[0] for e in g.edges(sid)
                 if comp_of[g.dst[e]] == comp_of[sid] and g.label(e) is not None]
    else:
        heads = [h for h in (st.lhs[0], st.rhs[0]) if h in g.instance.symbols.variable_set]
    assert heads, f"state {sid}: no variable to read a J-class from"
    classes = {gr.indexJ[mu[h]] for h in heads}
    sg, rep = g.instance.mu.target, lambda c: gr.classesJ[c][0]
    least = [c for c in classes if all(leq_J(sg, rep(c), rep(d)) for d in classes)]
    assert least, f"state {sid}: head J-classes {sorted(classes)} are incomparable"
    return least[0]


def _playground(g, gr, sid: int, lead: int, stab: frozenset[int]) -> Playground:
    st, mu = g.state(sid), g.state_mu(sid)

    def prefix(word):
        """The word up to its first token whose image leaves the stabilizer."""
        for i, tok in enumerate(word):
            if mu[tok] not in stab:
                return word[:i + 1]
        return word

    pl, pr = prefix(st.lhs), prefix(st.rhs)
    body = pl + pr
    players = frozenset(
        v for v in st.varset
        if gr.indexJ[mu[v]] == lead and body.count(v) == 2
        and preimage_infinite(g.instance.mu, mu[v])
    )
    return Playground(len(body), players, frozenset(v for v in players if pl.count(v) == 1))


def scc_invariants(g, ci: int) -> SccInvariants:
    """The leading J-class, its L-stabilizer and the playgrounds of cyclic
    component `ci`; asserts that its states agree on all three."""
    assert g.scc.has_transition[ci], f"component {ci} is acyclic"
    comp = g.scc.components[ci]
    gr = green(g.instance.mu.target)
    leading = {_leading_j(g, gr, sid) for sid in comp}
    assert len(leading) == 1, f"leading J-class differs across states: {sorted(leading)}"
    (lead,) = leading
    stab = stab_L(g.instance.mu.target, gr.classesJ[lead][0])
    per_state = {sid: _playground(g, gr, sid, lead, stab) for sid in comp}
    sizes = {p.size for p in per_state.values()}
    assert len(sizes) == 1, f"playground size differs across states: {sorted(sizes)}"
    assert len({p.players for p in per_state.values()}) == 1, "player sets differ across states"
    return SccInvariants(frozenset(gr.classesJ[lead]), stab, per_state)
