"""DFAOs over a truncated prime alphabet, generating Witt vectors.

The state set of the canonical machine is the orbit monoid of the generating
vectors: letters are primes of norm <= P, the transition is right
multiplication, and each vector contributes an output map s -> xi_(rep s).
Minimization is Moore partition refinement on joint outputs, preceded by
reachability restriction, followed by a product-construction equivalence
check against the input machine.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import mpmath

from .errors import InsufficientBoundError, UsageError, WittkitError
from .qfield import IdealHNF
from .witt import OrbitMonoid, WittVector, ideal_label, orbit_monoid, pairwise_partition


@dataclass
class Dfao:
    alphabet: list[IdealHNF]
    n_states: int
    initial: int
    transitions: list[list[int]]  # [state][letter index]
    outputs: list[list]  # [output row][state]
    domains: list  # coefficient domain per output row
    bound: int | None = None  # norm range certified by the source vectors
    field_d: int | None = None

    def step(self, state: int, letter_index: int) -> int:
        return self.transitions[state][letter_index]

    def letter_index(self, p: IdealHNF) -> int:
        for i, q in enumerate(self.alphabet):
            if p == q:
                return i
        raise UsageError(f"letter {ideal_label(p)} is not in the alphabet")

    def to_json(self):
        return {
            "schema": "wittkit/dfao/1",
            "d": self.field_d,
            "bound": self.bound,
            "alphabet": [p.to_json() for p in self.alphabet],
            "n_states": self.n_states,
            "initial": self.initial,
            "transitions": self.transitions,
            "outputs": [
                [dom.value_to_json(v) for v in row]
                for dom, row in zip(self.domains, self.outputs)
            ],
        }


def validate_dfao(a: Dfao) -> None:
    """Totality and transition commutation (the index monoid is commutative)."""
    n, m = a.n_states, len(a.alphabet)
    if len(a.transitions) != n or any(len(row) != m for row in a.transitions):
        raise WittkitError("transition table is not total")
    for row in a.transitions:
        for t in row:
            if not 0 <= t < n:
                raise WittkitError(f"transition target {t} out of range")
    for row in a.outputs:
        if len(row) != n:
            raise WittkitError("output map is not total")
    for s in range(n):
        for i in range(m):
            for j in range(i + 1, m):
                if a.step(a.step(s, i), j) != a.step(a.step(s, j), i):
                    raise WittkitError(
                        f"letters {i} and {j} do not commute from state {s}"
                    )


def dfao_from_witt(
    vectors: list[WittVector], prime_norm_bound: int, orbit: OrbitMonoid | None = None
) -> Dfao:
    """The orbit-monoid machine: one shared DFA, one output row per vector."""
    if orbit is None:
        orbit = orbit_monoid(vectors, prime_norm_bound)
    outputs = [[xi.value_at(rep) for rep in orbit.reps] for xi in orbit.vectors]
    a = Dfao(
        alphabet=list(orbit.alphabet),
        n_states=len(orbit.reps),
        initial=orbit.identity,
        transitions=[list(row) for row in orbit.letter_action],
        outputs=outputs,
        domains=[xi.domain for xi in orbit.vectors],
        bound=orbit.bound,
        field_d=orbit.field.d,
    )
    validate_dfao(a)
    return a


def _joint_output_partition(a: Dfao) -> list[int]:
    """Initial Moore blocks: states with equal outputs in every row.

    Union-find over pairwise equality so BigComplex tolerance cannot produce
    an order-dependent partition.
    """
    return pairwise_partition(
        a.n_states, lambda s, t: all(dom.eq(row[s], row[t]) for dom, row in zip(a.domains, a.outputs))
    )


def _first_reach(start: int, successors) -> list[int]:
    """States reachable from start, in breadth-first first-reach order."""
    order, seen = [start], {start}
    for s in order:
        for t in successors[s]:
            if t not in seen:
                seen.add(t)
                order.append(t)
    return order


def minimize(a: Dfao) -> Dfao:
    """Reachable part, Moore refinement, BFS-canonical state order."""
    reach = _first_reach(a.initial, a.transitions)
    index = {s: i for i, s in enumerate(reach)}
    trans = [[index[a.transitions[s][l]] for l in range(len(a.alphabet))] for s in reach]
    sub = Dfao(
        alphabet=a.alphabet,
        n_states=len(reach),
        initial=0,
        transitions=trans,
        outputs=[[row[s] for s in reach] for row in a.outputs],
        domains=a.domains,
        bound=a.bound,
        field_d=a.field_d,
    )
    block = _joint_output_partition(sub)
    while True:
        sig = {}
        nxt = []
        for s in range(sub.n_states):
            key = (block[s], tuple(block[t] for t in sub.transitions[s]))
            nxt.append(sig.setdefault(key, len(sig)))
        if nxt == block:
            break
        block = nxt

    # quotient machine, then renumber blocks in BFS first-reach order
    n_blocks = len(set(block))
    rep_state = {}
    for s in range(sub.n_states):
        rep_state.setdefault(block[s], s)
    q_trans = {
        b: [block[sub.transitions[rep_state[b]][l]] for l in range(len(sub.alphabet))]
        for b in range(n_blocks)
    }
    order = _first_reach(block[sub.initial], q_trans)
    renum = {b: i for i, b in enumerate(order)}
    out = Dfao(
        alphabet=sub.alphabet,
        n_states=n_blocks,
        initial=0,
        transitions=[[renum[t] for t in q_trans[b]] for b in order],
        outputs=[[row[rep_state[b]] for b in order] for row in sub.outputs],
        domains=sub.domains,
        bound=sub.bound,
        field_d=sub.field_d,
    )
    validate_dfao(out)
    if not equivalent(a, out):
        raise WittkitError("internal: minimized machine is not output-equivalent")
    return out


def equivalent(a: Dfao, b: Dfao) -> bool:
    """Output equality on all words, by product-construction reachability."""
    if len(a.alphabet) != len(b.alphabet) or any(
        p != q for p, q in zip(a.alphabet, b.alphabet)
    ):
        return False
    if len(a.outputs) != len(b.outputs):
        return False
    seen = {(a.initial, b.initial)}
    queue = [(a.initial, b.initial)]
    while queue:
        s, t = queue.pop()
        for dom, rowa, rowb in zip(a.domains, a.outputs, b.outputs):
            if not dom.eq(rowa[s], rowb[t]):
                return False
        for l in range(len(a.alphabet)):
            pair = (a.transitions[s][l], b.transitions[t][l])
            if pair not in seen:
                seen.add(pair)
                queue.append(pair)
    return True


def state_complexity(
    vectors: list[WittVector], prime_norm_bound: int, orbit: OrbitMonoid | None = None
) -> int:
    return minimize(dfao_from_witt(vectors, prime_norm_bound, orbit=orbit)).n_states


@dataclass
class BridyReport:
    state_complexity: int
    orbit_dimension: int
    prime_norm_bound: int
    bound: int
    field_d: int
    equal: bool = dc_field(init=False)

    def __post_init__(self):
        self.equal = self.state_complexity == self.orbit_dimension

    def to_json(self):
        return {
            "schema": "wittkit/bridy/1",
            "state_complexity": self.state_complexity,
            "orbit_dimension": self.orbit_dimension,
            "equal": self.equal,
            "prime_norm_bound": self.prime_norm_bound,
            "bound": self.bound,
            "d": self.field_d,
        }


def check_bridy(vectors: list[WittVector], prime_norm_bound: int) -> BridyReport:
    """Both sides of c_Xi = dim_K X_Xi, computed independently and compared."""
    orbit = orbit_monoid(vectors, prime_norm_bound)
    c = state_complexity(vectors, prime_norm_bound, orbit=orbit)
    return BridyReport(
        state_complexity=c,
        orbit_dimension=len(orbit),
        prime_norm_bound=prime_norm_bound,
        bound=orbit.bound,
        field_d=orbit.field.d,
    )


def run(a: Dfao, word: list[IdealHNF]):
    """First output row after reading the word; refuses to leave the certified range."""
    if a.bound is not None:
        norm = 1
        for p in word:
            norm *= int(p.norm())
        if norm > a.bound:
            raise InsufficientBoundError(
                f"word index norm {norm} is out of certified range (bound {a.bound})"
            )
    s = a.initial
    for p in word:
        s = a.step(s, a.letter_index(p))
    return a.outputs[0][s]


def _output_label(dom, value) -> str:
    if dom.kind == "bigcomplex":
        with mpmath.workdps(8):
            return mpmath.nstr(mpmath.mpc(value), 6)
    if dom.kind == "cyclotomic":
        r = dom.as_rational(value)
        if r is not None:
            return str(r)
        items = sorted(value.items())
        return "+".join(f"{c}*e{k}" for k, c in items[:3]) + ("..." if len(items) > 3 else "")
    return str(value)[:24]


def export_dot(a: Dfao) -> str:
    """Graphviz source of the first output row; states in BFS first-reach order."""
    lines = ["digraph dfao {", "  rankdir=LR;", '  start [shape=point, label=""];']
    dom = a.domains[0]
    for s in range(a.n_states):
        lines.append(
            f'  s{s} [shape=circle, label="{s}\\n{_output_label(dom, a.outputs[0][s])}"];'
        )
    lines.append(f"  start -> s{a.initial};")
    for s in range(a.n_states):
        by_target: dict[int, list[str]] = {}
        for l, p in enumerate(a.alphabet):
            by_target.setdefault(a.transitions[s][l], []).append(ideal_label(p))
        for t in sorted(by_target):
            label = ",".join(by_target[t])
            lines.append(f'  s{s} -> s{t} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
