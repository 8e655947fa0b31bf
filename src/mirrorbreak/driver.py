"""End-to-end contraction pipeline: route, split, absorb layers into a
central operator chain until it crosses the size threshold, extract
permutations, rewire the remaining halves, repeat; finally apply the chain
to |0...0>.

Operator bookkeeping. Each half carries one boundary permutation, taken at
its cut (the inner end of its unconsumed gates), and the driver maintains

    U(circuit) = P(left.boundary) . U(L) . M . U(R) . P(right.boundary)^-1

where ``L`` holds the temporally-second half of the routed circuit
(consumed from its front, absorbed onto the chain's top legs), ``R`` the
first half (consumed from its back, absorbed onto the bottom legs), each
with its routing swaps stripped and its wires labelled as they stand at the
cut. Both boundaries follow one rule: every step composes on the right.
Crossing a routing swap ``t`` at the cut, while a layer is consumed or
while the start boundary is carried in from the half's outer end, gives
``b . t``. Unswap factors ``M = P(left_perm) . M' . P(right_perm)``, and
pushing ``P(e)`` out through a side's gates (``e = left_perm`` for left,
``right_perm^-1`` for right) gives ``b . e``: the gates, read from the
cut, are stripped with ``e`` as the layout there and routed afresh
(:func:`_rewire`). No relabel pass is needed, because stripping absorbs
one:

    reindex(strip(G, L), p) == strip(G, L . p^-1)

At the end both sides are exhausted, and ``left.boundary`` is the output
permutation and ``right.boundary^-1`` the input permutation. The input
permutation fixes |0...0>, so only the output permutation matters at
sampling time, where it is applied as a free bit relabeling.

Side selection. Each side's gate list is peeled once into brick layers from
its inner end. Adaptive mode absorbs the next layer of the side that leaves
the smaller chain. The chain keeps every bond's Schmidt values, and each
two-qubit gate of a layer is split from its own pair and the spectrum of
the bond left of it, which no other gate of the layer touches. So a whole
layer is split against the start chain at once (``chains.split_layer``):
one full SVD per stack of same-shape pair blobs, whose ranks give the
element count of the chain the split would write. The chooser splits the
next layer of every candidate side and writes only the smallest, from its
own factors (``chains.write_layer``); no layer is counted in one pass and
absorbed in another, and none is written and thrown away
(:func:`_choose_side`). An exhausted side and fixed mode's schedule only
narrow the candidates, to one side; the rule that picks among them is the
same.
"""

from __future__ import annotations

import json
import math
import re
import time
from dataclasses import dataclass, field

import numpy as np

from .chains import (
    LayerSplit,
    MatrixProductOperator,
    MatrixProductState,
    apply_to_zero,
    identity_mpo,
    mps_to_dense,
    sample,
    split_layer,
    total_elements,
    write_layer,
)
# unused here; perfbench/run.py wraps these names
from .chains import absorb_gate, compress  # noqa: F401
from .circuit import ORIGIN_ROUTING, Circuit, Gate, split_at_midpoint
from .oracle import permute_statevector
from .routing import QubitPermutation, route_linear, strip_transpilation_swaps
# unused here; perfbench/run.py wraps this name
from .routing import reindex  # noqa: F401
from .unswap import unswap


@dataclass(frozen=True)
class ContractionConfig:
    epsilon: float = 2e-3
    chi_max: int = 8192
    tau: int = 1_000_000
    max_unswap_iterations: int = 20
    side_mode: str = "adaptive"  # or "fixed:<k>"
    stall_limit: int = 3

    def __post_init__(self):
        if not math.isfinite(self.epsilon) or self.epsilon < 0:
            raise ValueError(f"epsilon must be finite and >= 0, got {self.epsilon}")
        if self.chi_max < 1:
            raise ValueError("chi_max must be >= 1")
        if self.stall_limit < 1:
            raise ValueError("stall_limit must be >= 1")
        if self.tau < 1:
            raise ValueError("tau must be >= 1")
        self.fixed_frequency  # validates side_mode
        if self.max_unswap_iterations < 1:
            raise ValueError("max_unswap_iterations must be >= 1")

    @property
    def fixed_frequency(self) -> int | None:
        if self.side_mode == "adaptive":
            return None
        fixed = re.fullmatch(r"fixed:([0-9]+)", self.side_mode)
        if fixed is None:
            raise ValueError(f"side_mode must be adaptive or fixed:<k>, got {self.side_mode!r}")
        k = int(fixed[1])
        if k < 1:
            raise ValueError("fixed side frequency must be >= 1")
        return k


@dataclass(frozen=True)
class TraceRecord:
    """One contraction step. The last three fields say what an unswap did
    (chain size before it, swaps it accepted, largest bond it left) and are
    None on absorb records."""

    phase: str  # "absorb" or "unswap"
    unitaries_consumed: int
    elements: int
    wall_time_s: float
    elements_before: int | None = None
    accepted_swaps: int | None = None
    max_bond: int | None = None


_UNSWAP_FIELDS = ("elements_before", "accepted_swaps", "max_bond")


@dataclass(frozen=True)
class SimulationResult:
    state: MatrixProductState
    output_permutation: QubitPermutation
    input_permutation: QubitPermutation
    trace: tuple[TraceRecord, ...]
    final_elements: int
    chi_saturation_events: int


class StallError(RuntimeError):
    """No exploitable mirror structure: unswapping cannot shrink the chain
    and absorption cannot proceed under the threshold. Carries the partial
    telemetry trace for post-mortem inspection."""

    def __init__(self, elements: int, tau: int, reductions: list[float], trace=()):
        super().__init__(
            "no exploitable mirror structure: "
            f"{len(reductions)} consecutive unswap calls reduced the chain by "
            f"{', '.join(f'{100 * r:.2f}%' for r in reductions)} "
            f"while it holds {elements} elements against a threshold of {tau}"
        )
        self.elements = elements
        self.tau = tau
        self.reductions = reductions
        self.trace = tuple(trace)


def _carry(b: QubitPermutation, gates) -> QubitPermutation:
    """``b`` composed on the right with each routing swap of ``gates``, in
    the order given."""
    mapping = list(b.mapping)
    for g in gates:
        if g.origin == ORIGIN_ROUTING:
            x, y = g.qubits
            mapping[x], mapping[y] = mapping[y], mapping[x]
    return QubitPermutation(tuple(mapping))


@dataclass
class _Side:
    """One remaining half: its physical gate list and its boundary
    permutation ``boundary`` at the cut (module docstring).

    ``boundary`` is given at the inner end of ``gates``. Consuming a layer
    carries it across the layer's routing swaps, each composed on the
    right (:func:`_carry`), so an exhausted side holds the permutation at
    its outer end.

    The list is peeled once into brick layers from its inner end, the front
    for ``left`` and the back for ``right``. A gate's depth is one more than
    the deepest earlier-scanned gate on any of its wires, and layer k holds
    the depth-k gates in scan order. That is the layer the k-th innermost
    extraction would pop: a gate joins it iff no gate left unconsumed and
    scanned before it touches its qubits, which keeps program order on every
    wire. ``taken`` counts the consumed layers.
    """

    which: str  # "left" (consumed from the front) or "right" (from the back)
    gates: list[Gate]
    boundary: QubitPermutation
    taken: int = field(default=0, init=False)
    layers: list[list[Gate]] = field(init=False, repr=False)
    depths: list[int] = field(init=False, repr=False)

    def __post_init__(self):
        n = len(self.gates)
        order = range(n - 1, -1, -1) if self.which == "right" else range(n)
        reached: dict[int, int] = {}  # wire -> depth of its last scanned gate
        self.depths = [0] * n
        self.layers = []
        for idx in order:
            g = self.gates[idx]
            d = 1 + max(reached.get(q, 0) for q in g.qubits)
            for q in g.qubits:
                reached[q] = d
            self.depths[idx] = d
            if d > len(self.layers):
                self.layers.append([])
            self.layers[d - 1].append(g)

    @property
    def exhausted(self) -> bool:
        return self.taken == len(self.layers)

    def layer(self) -> list[Gate] | None:
        """The next unconsumed layer; None past the last."""
        return self.layers[self.taken] if self.taken < len(self.layers) else None

    def remaining(self) -> list[Gate]:
        """The unconsumed gates in list order."""
        return [g for g, d in zip(self.gates, self.depths) if d > self.taken]

    def consume(self) -> list[Gate]:
        """Take the next layer, carrying ``boundary`` across its routing
        swaps."""
        layer = self.layers[self.taken]
        self.taken += 1
        self.boundary = _carry(self.boundary, layer)
        return layer


def _split(m: MatrixProductOperator, side: _Side, cfg: ContractionConfig) -> LayerSplit:
    """The side's next layer split against ``m`` (:func:`chains.split_layer`)."""
    return split_layer(m, side.layer(), side.which, cfg.epsilon, cfg.chi_max)


def _choose_side(left: _Side, right: _Side, m: MatrixProductOperator,
                 cfg: ContractionConfig, step: int) -> tuple[str, MatrixProductOperator]:
    """Pick the side to absorb from next; returns it and the chain with its
    next layer absorbed.

    One rule: split the next layer of each candidate side against ``m`` and
    write the split whose count is smallest, ties going left; a loser is
    never written. The candidates are the sides not yet exhausted, and in
    fixed mode, while both are open, only the one the schedule names (it
    alternates every ``k`` layers). The count of a split is that of the
    chain its write builds, from the same SVD factors, so it cannot disagree
    with it. A layer with no two-qubit gate needs no SVD and counts
    ``total_elements(m)``: against it an entangling layer wins only when it
    shrinks the chain (on the right) or keeps its size (on the left).

    No compression sweep follows a write: each pair is truncated from its
    bond's own Schmidt values, and a local unitary leaves the spectra of all
    other bonds unchanged, so a sweep would trim nothing.
    """
    sides = [s for s in (left, right) if not s.exhausted]
    if not sides:
        raise ValueError("both sides are exhausted")
    k = cfg.fixed_frequency
    if k is not None and len(sides) == 2:
        sides = [sides[(step // k) % 2]]
    side, split = min(((s, _split(m, s, cfg)) for s in sides), key=lambda c: c[1].elements)
    return side.which, write_layer(split)


def _rewire(side: _Side, e: QubitPermutation, n: int) -> _Side:
    """The side with ``P(e)`` pushed out through its unconsumed gates.

    ``e`` is the permutation unswap took out of the chain on this side, in
    boundary form: ``left_perm`` for ``left``, ``right_perm`` inverted for
    ``right``. The unconsumed gates, read from the inner end, are stripped
    of routing swaps with ``e`` as the layout at that end, routed forward
    afresh, and put back in list order; the new cut is the identity layout
    the route starts from, so the new boundary is ``boundary . e``.
    """
    gates = side.remaining()
    if side.which == "right":
        gates.reverse()
    # the unconsumed gates came from a checked circuit on the same n wires
    logical = strip_transpilation_swaps(Circuit._checked(n, tuple(gates)), e)
    routed = list(route_linear(logical).circuit.gates)
    if side.which == "right":
        routed.reverse()
    return _Side(side.which, routed, side.boundary.compose(e))


def run(c: Circuit, cfg: ContractionConfig | None = None) -> SimulationResult:
    """Contract the circuit and return the output state, the terminal bit
    relabeling, and the telemetry trace. Raises :class:`StallError` when
    ``stall_limit`` consecutive unswap calls each shrink the chain by less
    than 1% while it still holds at least ``tau`` elements and more than
    the 4n of a chain with every bond at 1.
    """
    if cfg is None:
        cfg = ContractionConfig()
    if not c.gates:
        raise ValueError("circuit has no gates")
    n = c.num_qubits
    if cfg.tau < 4 * n:
        raise ValueError(f"tau={cfg.tau} is below the identity chain size {4 * n}")

    t0 = time.perf_counter()
    routed = route_linear(c)
    first, second = split_at_midpoint(routed.circuit)
    # each boundary is carried from its half's outer end to the cut: the
    # router's layouts leave out a routing-tagged swap that came with the
    # input, which this walk crosses like any other
    left = _Side("left", list(second.gates),
                 _carry(routed.output_layout.inverse(), reversed(second.gates)))
    right = _Side("right", list(first.gates),
                  _carry(QubitPermutation.identity(n), first.gates))

    m = identity_mpo(n)
    trace: list[TraceRecord] = []
    consumed = 0
    consumed_source = 0
    source_two_qubit = sum(g.is_two_qubit for g in c.gates if g.origin != ORIGIN_ROUTING)
    step = 0
    chi_saturations = 0
    stall_reductions: list[float] = []

    while not (left.exhausted and right.exhausted):
        # every absorption phase must consume at least one source gate:
        # extracted permutations re-enter the circuit as fresh routing swaps
        # at the next rewire, so swap-only phases would ping-pong forever
        source_gate_absorbed = False
        elements = total_elements(m)
        while (elements < cfg.tau or not source_gate_absorbed) and not (
            left.exhausted and right.exhausted
        ):
            which, m = _choose_side(left, right, m, cfg, step)
            layer = (left if which == "left" else right).consume()
            elements = total_elements(m)
            for g in layer:  # one scan for all three counters
                two = g.is_two_qubit
                consumed += two
                if g.origin != ORIGIN_ROUTING:
                    consumed_source += two
                    source_gate_absorbed = True
            step += 1
            if any(d >= cfg.chi_max for d in m.bond_dims()):
                chi_saturations += 1
            trace.append(TraceRecord("absorb", consumed, elements, time.perf_counter() - t0))
        if left.exhausted and right.exhausted:
            break

        result = unswap(m, cfg.epsilon, cfg.chi_max, cfg.max_unswap_iterations)
        # no compression sweep follows: unswap leaves the chain right-canonical
        # with its spectra, and each of its splits truncates a bond at epsilon
        # against a blob whose norm is the chain's norm, the rule the sweep
        # applies. A bond it did not re-split keeps its spectrum up to the
        # weight later truncations dropped, so a sweep could trim only where
        # that drift crosses the cutoff: never on the benchmark instances,
        # and rarely and by little at a cutoff that bites
        m = result.reduced
        before, after = result.elements_before, result.elements_after
        trace.append(TraceRecord("unswap", consumed, after, time.perf_counter() - t0,
                                 before, result.accepted_swaps,
                                 max(m.bond_dims(), default=1)))

        reduction = (before - after) / before if before else 0.0
        # a chain of 4n elements has every bond at 1 and cannot shrink, so
        # it never counts toward a stall (a tau of 4n is accepted)
        if after >= cfg.tau and after > 4 * n and reduction < 0.01:
            stall_reductions.append(reduction)
            if len(stall_reductions) >= cfg.stall_limit:
                raise StallError(after, cfg.tau, stall_reductions, trace)
        else:
            stall_reductions = []

        left = _rewire(left, result.left_perm, n)
        right = _rewire(right, result.right_perm.inverse(), n)

    # routing swaps come and go with each re-transpilation, but every source
    # two-qubit gate must be absorbed exactly once
    if consumed_source != source_two_qubit:
        raise AssertionError(
            f"layer accounting bug: consumed {consumed_source} of "
            f"{source_two_qubit} source gates"
        )
    psi = apply_to_zero(m, cfg.epsilon, cfg.chi_max)
    return SimulationResult(
        state=psi,
        output_permutation=left.boundary,
        input_permutation=right.boundary.inverse(),
        trace=tuple(trace),
        final_elements=total_elements(m),
        chi_saturation_events=chi_saturations,
    )


def sample_output(result: SimulationResult, shots: int, seed: int) -> list[str]:
    """Sample the output state and apply the terminal bit relabeling."""
    perm = result.output_permutation
    return sample(result.state, shots, seed, None if perm.is_identity() else perm.mapping)


def dense_output(result: SimulationResult) -> np.ndarray:
    """Dense output statevector including the terminal relabeling (small n)."""
    vec = mps_to_dense(result.state)
    return permute_statevector(result.output_permutation.mapping, vec)


def emit_trace(trace, sink) -> None:
    """Write trace records as newline-delimited JSON with the fields
    phase, unitaries_consumed, elements, wall_time_s; unswap records add
    elements_before, accepted_swaps and max_bond."""
    for rec in trace:
        d = {
            "phase": rec.phase,
            "unitaries_consumed": rec.unitaries_consumed,
            "elements": rec.elements,
            "wall_time_s": rec.wall_time_s,
        }
        if rec.phase == "unswap":
            d.update((k, getattr(rec, k)) for k in _UNSWAP_FIELDS)
        sink.write(json.dumps(d, separators=(",", ":")) + "\n")


def parse_trace(text: str) -> tuple[TraceRecord, ...]:
    """Records written by :func:`emit_trace`; the unswap fields are read
    where present, so traces written before they existed still parse."""
    records = []
    for line in text.splitlines():
        if not line.strip():
            continue
        d = json.loads(line)
        records.append(
            TraceRecord(d["phase"], d["unitaries_consumed"], d["elements"], d["wall_time_s"],
                        *(d.get(k) for k in _UNSWAP_FIELDS))
        )
    return tuple(records)
