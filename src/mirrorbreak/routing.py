"""Routing to linear nearest-neighbor connectivity, SWAP stripping, and qubit
relabeling.

Layout maps are permutations ``layout[logical] = wire``. Routing runs
forward: it starts from the identity layout and lets the drift accumulate at
the end, so a routed circuit satisfies, as an operator identity,

    U(routed) = P(output_layout) . U(original)

where ``P(pi)`` is the unitary that moves the content of wire i to wire
pi[i]. No restoring SWAPs are appended; callers fold the exported layout
into their own bookkeeping. A circuit to be aligned at its end instead is
routed reversed and its routed gates reversed back.

Every layout is a permutation of the wires 0..n-1, and the image of distinct
qubits under a permutation is distinct and in range. So a gate these
functions move onto other wires, or a routing swap they emit, holds the
checks its source gate passed, and is built without repeating them
(``Gate._moved``, ``Gate._checked``); so is the circuit of such gates
(``Circuit._checked``).
"""

from __future__ import annotations

from dataclasses import dataclass

from .circuit import ORIGIN_ROUTING, Circuit, Gate


@dataclass(frozen=True)
class QubitPermutation:
    """Bijection on wire labels with an adjacent-transposition factorization.

    ``mapping[i]`` is the new label of wire i. ``factorization`` is a list of
    adjacent pairs (i, i+1); applying them in list order as label swaps to
    the identity reproduces ``mapping``.
    """

    mapping: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.mapping) != list(range(len(self.mapping))):
            raise ValueError(f"{self.mapping!r} is not a permutation")

    @classmethod
    def identity(cls, n: int) -> "QubitPermutation":
        return cls(tuple(range(n)))

    @property
    def size(self) -> int:
        return len(self.mapping)

    def is_identity(self) -> bool:
        return all(m == i for i, m in enumerate(self.mapping))

    def inverse(self) -> "QubitPermutation":
        inv = [0] * self.size
        for i, m in enumerate(self.mapping):
            inv[m] = i
        return QubitPermutation(tuple(inv))

    def compose(self, other: "QubitPermutation") -> "QubitPermutation":
        """self after other: (self . other)[i] = self[other[i]].

        Matches operator products: P(a) P(b) = P(a.compose(b)).
        """
        if self.size != other.size:
            raise ValueError("permutation size mismatch")
        return QubitPermutation(tuple(self.mapping[o] for o in other.mapping))

    def swapped(self, pairs) -> "QubitPermutation":
        """self composed on the right with the transposition of each (i, j)
        of ``pairs``, in order: swapping entries i and j of the mapping gives
        ``self . t`` for the transposition t of i and j. The rule for
        crossing a swap, wherever a wire map is carried across one."""
        mapping = list(self.mapping)
        for i, j in pairs:
            mapping[i], mapping[j] = mapping[j], mapping[i]
        return QubitPermutation(tuple(mapping))

    def apply_to_bits(self, bits: str) -> str:
        out = ["0"] * self.size
        for i, b in enumerate(bits):
            out[self.mapping[i]] = b
        return "".join(out)

    @property
    def factorization(self) -> tuple[tuple[int, int], ...]:
        """Adjacent transpositions whose in-order composition equals mapping.

        Bubble sort of the one-line notation; length is at most n(n-1)/2.
        """
        a = list(self.mapping)
        swaps: list[tuple[int, int]] = []
        changed = True
        while changed:
            changed = False
            for x in range(len(a) - 1):
                if a[x] > a[x + 1]:
                    a[x], a[x + 1] = a[x + 1], a[x]
                    swaps.append((x, x + 1))
                    changed = True
        return tuple(swaps)


@dataclass(frozen=True)
class RoutedCircuit:
    circuit: Circuit
    output_layout: QubitPermutation


class _Layout:
    """Mutable logical<->wire map used while routing, from the identity."""

    def __init__(self, n: int):
        self.l2p = list(range(n))
        self.p2l = list(range(n))

    def swap_wires(self, w1: int, w2: int):
        a, b = self.p2l[w1], self.p2l[w2]
        self.p2l[w1], self.p2l[w2] = b, a
        self.l2p[a], self.l2p[b] = w2, w1

    def as_permutation(self) -> QubitPermutation:
        return QubitPermutation(tuple(self.l2p))


def _bring_adjacent(layout: _Layout, a: int, b: int, emit) -> tuple[int, int]:
    """Move the higher wire down next to the lower one, emitting tagged SWAPs."""
    p, q = layout.l2p[a], layout.l2p[b]
    lo, hi = min(p, q), max(p, q)
    for w in range(hi, lo + 1, -1):
        emit(Gate._checked("swap", (w - 1, w), (), ORIGIN_ROUTING))
        layout.swap_wires(w - 1, w)
    return layout.l2p[a], layout.l2p[b]


def route_linear(c: Circuit) -> RoutedCircuit:
    """Insert tagged SWAPs so every two-qubit gate acts on adjacent wires.

    Greedy, no lookahead: for each non-adjacent pair the farther wire is
    walked over to sit next to the nearer one, and the running layout keeps
    the drift instead of swapping back; the drift is the output layout.
    """
    n = c.num_qubits
    layout = _Layout(n)
    emitted: list[Gate] = []
    emit = emitted.append
    for g in c.gates:
        if len(g.qubits) == 1:
            emit(g._moved((layout.l2p[g.qubits[0]],)))
            continue
        a, b = g.qubits
        pa, pb = layout.l2p[a], layout.l2p[b]
        if abs(pa - pb) != 1:
            pa, pb = _bring_adjacent(layout, a, b, emit)
        emit(g._moved((pa, pb)))
    return RoutedCircuit(Circuit._checked(n, tuple(emitted)), layout.as_permutation())


def strip_transpilation_swaps(
    c: Circuit, initial_layout: QubitPermutation | None = None
) -> Circuit:
    """Drop routing SWAPs and rewrite the remaining gates back to the logical
    labels they had before routing.

    ``initial_layout`` is the layout in force at the first gate (identity for
    a complete forward-routed circuit; a routed remainder passes the layout
    at its front). Source gates, including source SWAPs, are kept.

    The one map kept is wire -> logical qubit, the inverse of the layout,
    and a routing swap exchanges its two wires' entries.
    """
    n = c.num_qubits
    if initial_layout is not None and initial_layout.size != n:
        raise ValueError(f"layout on {initial_layout.size} wires, circuit has {n}")
    logical = list(initial_layout.inverse().mapping) if initial_layout else list(range(n))
    out: list[Gate] = []
    for g in c.gates:
        if g.origin == ORIGIN_ROUTING:
            w1, w2 = g.qubits
            logical[w1], logical[w2] = logical[w2], logical[w1]
            continue
        out.append(g._moved(tuple(logical[q] for q in g.qubits)))  # a source gate
    return Circuit._checked(n, tuple(out))


def reindex(c: Circuit, p: QubitPermutation) -> Circuit:
    """Map every gate's qubit indices through ``p``; gate order unchanged.

    Satisfies U(reindex(c, p)) = P(p) U(c) P(p)^{-1}.
    """
    if p.size != c.num_qubits:
        raise ValueError(f"permutation on {p.size} wires, circuit has {c.num_qubits}")
    mapping = p.mapping
    return Circuit._checked(c.num_qubits, tuple(
        g._moved(tuple(mapping[q] for q in g.qubits)) for g in c.gates))
