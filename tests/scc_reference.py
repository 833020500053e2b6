"""Reference checker for the component invariants behind the paper's DLG
theorem.  The decision procedure needs only the pumpable-state scan, so
these invariants live here and the tests assert them: every state of a
cyclic component has the same leading J-class, and every state's
playground has the same size and the same players."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from conftest import class_of
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


def comp_of(scc) -> list[int]:
    """The index of each state's component, derived from `scc.components`."""
    out = [0] * sum(map(len, scc.components))
    for ci, comp in enumerate(scc.components):
        for s in comp:
            out[s] = ci
    return out


def state_images(g, sid: int) -> dict[str, int]:
    """The images of the constants and of the state's active variables."""
    images = {a: g.instance.mu[a] for a in g.instance.symbols.constants}
    images.update(g.state(sid).mu_items)
    return images


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


def _leading_j(g, gr, sid: int, comp: frozenset[int]) -> tuple[int, ...]:
    """The least J-class among the images of the state's variable heads; a
    TRUE state reads the variables of its moves within `comp`, its
    component, instead."""
    st, mu = g.state(sid), state_images(g, sid)
    if not st.lhs:
        heads = [g.label(e)[0] for e in g.edges(sid)
                 if g.dst[e] in comp and g.label(e) is not None]
    else:
        heads = [h for h in (st.lhs[0], st.rhs[0]) if h in g.instance.symbols.variable_set]
    assert heads, f"state {sid}: no variable to read a J-class from"
    classes = {class_of(gr.classesJ, mu[h]) for h in heads}
    sg = g.instance.mu.target
    least = [c for c in classes if all(leq_J(sg, c[0], d[0]) for d in classes)]
    assert least, f"state {sid}: head J-classes {sorted(classes)} are incomparable"
    return least[0]


def _playground(g, gr, sid: int, lead: tuple[int, ...], stab: frozenset[int]) -> Playground:
    st, mu = g.state(sid), state_images(g, sid)

    def prefix(word):
        """The word up to its first token whose image leaves the stabilizer."""
        for i, tok in enumerate(word):
            if mu[tok] not in stab:
                return word[:i + 1]
        return word

    pl, pr = prefix(st.lhs), prefix(st.rhs)
    body = pl + pr
    players = frozenset(
        v for v, _ in st.mu_items
        if class_of(gr.classesJ, mu[v]) == lead and body.count(v) == 2
        and preimage_infinite(g.instance.mu, mu[v])
    )
    return Playground(len(body), players, frozenset(v for v in players if pl.count(v) == 1))


def scc_invariants(g, ci: int) -> SccInvariants:
    """The leading J-class, its L-stabilizer and the playgrounds of cyclic
    component `ci`; asserts that its states agree on all three."""
    assert g.scc.has_transition[ci], f"component {ci} is acyclic"
    comp = g.scc.components[ci]
    gr = green(g.instance.mu.target)
    leading = {_leading_j(g, gr, sid, frozenset(comp)) for sid in comp}
    assert len(leading) == 1, f"leading J-class differs across states: {sorted(leading)}"
    (lead,) = leading
    stab = stab_L(g.instance.mu.target, lead[0])
    per_state = {sid: _playground(g, gr, sid, lead, stab) for sid in comp}
    sizes = {p.size for p in per_state.values()}
    assert len(sizes) == 1, f"playground size differs across states: {sorted(sizes)}"
    assert len({p.players for p in per_state.values()}) == 1, "player sets differ across states"
    return SccInvariants(frozenset(lead), stab, per_state)
