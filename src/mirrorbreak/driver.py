"""End-to-end contraction pipeline: route, split, absorb layers into a
central operator chain until it crosses the size threshold, extract
permutations, rewire the remaining halves, repeat; finally apply the chain
to |0...0>.

Operator bookkeeping. The driver maintains the invariant

    U(circuit) = P(out_perm) . U(left gates) . M . U(right gates) . P(in_perm)

where the left list holds the temporally-second half of the routed circuit
(consumed from its front, absorbed onto the chain's top legs) and the right
list holds the first half (consumed from its back, absorbed onto the bottom
legs). Routing drift and extracted permutations are conjugated outward into
``out_perm``/``in_perm``; the input permutation fixes |0...0>, so only the
output permutation matters at sampling time, where it is applied as a free
bit relabeling.

Side selection. Each side's gate list is peeled once into brick layers from
its inner end. Adaptive mode absorbs the next layer of the side that leaves
the smaller chain. The chain keeps every bond's Schmidt values, and each
two-qubit gate of a layer is split from its own pair and the spectrum of
the bond left of it, which no other gate of the layer touches. So a whole
layer is split against the start chain at once (``chains.split_layer``):
one full SVD per stack of same-shape pair blobs, whose ranks give the
element count of the chain the split would write. The chooser splits both
sides' layers and writes only the winner's, from its own factors
(``chains.write_layer``); no layer is counted in one pass and absorbed in
another, and none is written and thrown away (:func:`_choose_side`).
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
    _with_spectra,
    apply_to_zero,
    compress,
    identity_mpo,
    mps_to_dense,
    sample,
    split_layer,
    total_elements,
    write_layer,
)
from .chains import absorb_gate  # noqa: F401  unused; perfbench/run.py wraps this name
from .circuit import ORIGIN_ROUTING, Circuit, Gate, split_at_midpoint
from .oracle import permute_statevector
from .routing import (
    QubitPermutation,
    advance_layout,
    reindex,
    route_linear,
    strip_transpilation_swaps,
)
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
    phase: str  # "absorb" or "unswap"
    unitaries_consumed: int
    elements: int
    wall_time_s: float


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


@dataclass
class _Side:
    """One remaining half: physical gate list plus the routing layouts in
    force at the list's two ends (layout[logical] = wire).

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
    front: QubitPermutation
    back: QubitPermutation
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
        """Take the next layer, advancing the side's cut layout across the
        routing swaps in it."""
        layer = self.layers[self.taken]
        self.taken += 1
        for g in layer:
            if g.origin == ORIGIN_ROUTING:
                if self.which == "right":
                    self.back = advance_layout(self.back, *g.qubits)
                else:
                    self.front = advance_layout(self.front, *g.qubits)
        return layer


def _split(m: MatrixProductOperator, side: _Side, cfg: ContractionConfig) -> LayerSplit:
    """The side's next layer split against ``m`` (:func:`chains.split_layer`)."""
    return split_layer(m, side.layer(), side.which, cfg.epsilon, cfg.chi_max)


def _choose_side(left: _Side, right: _Side, m: MatrixProductOperator,
                 cfg: ContractionConfig, step: int) -> tuple[str, MatrixProductOperator]:
    """Pick the side to absorb from next; returns it and the chain with its
    next layer absorbed.

    Adaptive mode splits both sides' next layers against ``m`` and writes
    the one whose count is smaller, ties going left; the loser is never
    written. The count of a split is that of the chain its write builds,
    from the same SVD factors, so it cannot disagree with it. A layer with
    no two-qubit gate needs no SVD and counts ``total_elements(m)``: against
    it an entangling layer wins only when it shrinks the chain (on the
    right) or keeps its size (on the left).

    Fixed mode alternates every ``k`` layers. An exhausted side always
    yields to the other; both exhausted is an error. No compression sweep
    follows a write: each pair is truncated from its bond's own Schmidt
    values, and a local unitary leaves the spectra of all other bonds
    unchanged, so a sweep would trim nothing.
    """
    if left.exhausted and right.exhausted:
        raise ValueError("both sides are exhausted")
    if left.exhausted:
        return "right", write_layer(_split(m, right, cfg))
    if right.exhausted:
        return "left", write_layer(_split(m, left, cfg))
    k = cfg.fixed_frequency
    if k is not None:
        which = "left" if (step // k) % 2 == 0 else "right"
        return which, write_layer(_split(m, left if which == "left" else right, cfg))
    m = _with_spectra(m)  # once for both splits
    kept, other = _split(m, left, cfg), _split(m, right, cfg)
    if kept.elements <= other.elements:
        return "left", write_layer(kept)
    return "right", write_layer(other)


def _rewire_left(pi_out: QubitPermutation, side: _Side, extracted: QubitPermutation,
                 n: int) -> tuple[QubitPermutation, _Side]:
    logical = strip_transpilation_swaps(Circuit(n, tuple(side.remaining())), side.front)
    sigma = side.front.inverse().compose(extracted)
    relabeled = reindex(logical, sigma.inverse())
    routed = route_linear(relabeled, "forward")
    drift = routed.output_layout
    pi_out = pi_out.compose(side.back).compose(sigma).compose(drift.inverse())
    new_side = _Side("left", list(routed.circuit.gates), QubitPermutation.identity(n), drift)
    return pi_out, new_side


def _rewire_right(pi_in: QubitPermutation, side: _Side, extracted: QubitPermutation,
                  n: int) -> tuple[QubitPermutation, _Side]:
    logical = strip_transpilation_swaps(Circuit(n, tuple(side.remaining())), side.front)
    sigma = extracted.compose(side.back)
    relabeled = reindex(logical, sigma)
    routed = route_linear(relabeled, "reverse")
    drift = routed.input_layout
    pi_in = drift.compose(sigma).compose(side.front.inverse()).compose(pi_in)
    new_side = _Side("right", list(routed.circuit.gates), drift, QubitPermutation.identity(n))
    return pi_in, new_side


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
    routed = route_linear(c, "forward")
    first, second = split_at_midpoint(routed.circuit)
    cut = QubitPermutation.identity(n)
    for g in first.gates:
        if g.origin == ORIGIN_ROUTING:
            cut = advance_layout(cut, *g.qubits)

    pi_out = routed.output_layout.inverse()
    pi_in = QubitPermutation.identity(n)
    left = _Side("left", list(second.gates), front=cut, back=routed.output_layout)
    right = _Side("right", list(first.gates), front=QubitPermutation.identity(n), back=cut)

    m = identity_mpo(n)
    trace: list[TraceRecord] = []
    consumed = 0
    consumed_source = 0
    source_two_qubit = c.two_qubit_count()
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
            consumed += sum(1 for g in layer if g.is_two_qubit)
            consumed_source += sum(
                1 for g in layer if g.is_two_qubit and g.origin != ORIGIN_ROUTING
            )
            if any(g.origin != ORIGIN_ROUTING for g in layer):
                source_gate_absorbed = True
            step += 1
            if any(d >= cfg.chi_max for d in m.bond_dims()):
                chi_saturations += 1
            trace.append(TraceRecord("absorb", consumed, elements, time.perf_counter() - t0))
        if left.exhausted and right.exhausted:
            break

        before = elements
        result = unswap(m, cfg.epsilon, cfg.chi_max, cfg.max_unswap_iterations)
        m = compress(result.reduced, cfg.epsilon, cfg.chi_max)
        after = total_elements(m)
        trace.append(TraceRecord("unswap", consumed, after, time.perf_counter() - t0))

        reduction = (before - after) / before if before else 0.0
        # a chain of 4n elements has every bond at 1 and cannot shrink, so
        # it never counts toward a stall (a tau of 4n is accepted)
        if after >= cfg.tau and after > 4 * n and reduction < 0.01:
            stall_reductions.append(reduction)
            if len(stall_reductions) >= cfg.stall_limit:
                raise StallError(after, cfg.tau, stall_reductions, trace)
        else:
            stall_reductions = []

        pi_out, left = _rewire_left(pi_out, left, result.left_perm, n)
        pi_in, right = _rewire_right(pi_in, right, result.right_perm, n)

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
        output_permutation=pi_out,
        input_permutation=pi_in,
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
    phase, unitaries_consumed, elements, wall_time_s."""
    for rec in trace:
        sink.write(
            json.dumps(
                {
                    "phase": rec.phase,
                    "unitaries_consumed": rec.unitaries_consumed,
                    "elements": rec.elements,
                    "wall_time_s": rec.wall_time_s,
                },
                separators=(",", ":"),
            )
            + "\n"
        )


def parse_trace(text: str) -> tuple[TraceRecord, ...]:
    records = []
    for line in text.splitlines():
        if not line.strip():
            continue
        d = json.loads(line)
        records.append(
            TraceRecord(d["phase"], d["unitaries_consumed"], d["elements"], d["wall_time_s"])
        )
    return tuple(records)
