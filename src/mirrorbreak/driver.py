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
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass

import numpy as np

from .chains import (
    MatrixProductOperator,
    MatrixProductState,
    absorb_gate,
    apply_to_zero,
    compress,
    identity_mpo,
    mps_to_dense,
    sample,
    total_elements,
)
from .circuit import ORIGIN_ROUTING, Circuit, Gate, split_at_midpoint
from .oracle import permute_statevector
from .routing import (
    QubitPermutation,
    advance_layout,
    reindex,
    route_linear,
    strip_transpilation_swaps,
)
from .unswap import UnswapConfig, unswap


@dataclass(frozen=True)
class ContractionConfig:
    epsilon: float = 2e-3
    chi_max: int = 8192
    tau: int = 1_000_000
    max_unswap_iterations: int = 20
    acceptance: str = "strict"
    unswap_strategy: str = "parity-parallel"
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
        self.unswap_config()  # validates the unswap fields up front

    @property
    def fixed_frequency(self) -> int | None:
        if self.side_mode == "adaptive":
            return None
        if self.side_mode.startswith("fixed:"):
            k = int(self.side_mode.split(":", 1)[1])
            if k < 1:
                raise ValueError("fixed side frequency must be >= 1")
            return k
        raise ValueError(f"side_mode must be adaptive or fixed:<k>, got {self.side_mode!r}")

    def unswap_config(self) -> UnswapConfig:
        return UnswapConfig(
            epsilon=self.epsilon,
            chi_max=self.chi_max,
            acceptance=self.acceptance,
            strategy=self.unswap_strategy,
            max_outer_iterations=self.max_unswap_iterations,
        )


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
    force at the list's two ends (layout[logical] = wire)."""

    gates: list[Gate]
    front: QubitPermutation
    back: QubitPermutation


def _extract_layer(gates: list[Gate], from_back: bool) -> tuple[list[Gate], list[Gate]]:
    """Pop one maximal brick layer of non-overlapping innermost gates.

    Scanning from the innermost end, a gate joins the layer iff none of its
    qubits were touched by an earlier-scanned gate (taken or not), which
    preserves program order on every wire. Returns (layer in absorb order,
    remaining gates in original order).
    """
    order = range(len(gates) - 1, -1, -1) if from_back else range(len(gates))
    blocked: set[int] = set()
    taken: set[int] = set()
    layer: list[Gate] = []
    for idx in order:
        g = gates[idx]
        if blocked.isdisjoint(g.qubits):
            taken.add(idx)
            layer.append(g)
        blocked.update(g.qubits)
    remaining = [g for i, g in enumerate(gates) if i not in taken]
    return layer, remaining


def _consume_layer(side: _Side, layer: list[Gate], from_back: bool) -> None:
    """Advance the side's cut layout across the consumed routing swaps."""
    for g in layer:
        if g.origin == ORIGIN_ROUTING:
            if from_back:
                side.back = advance_layout(side.back, *g.qubits)
            else:
                side.front = advance_layout(side.front, *g.qubits)


@dataclass
class _Trial:
    m: MatrixProductOperator
    layer: list[Gate]
    remaining: list[Gate]
    elements: int
    consumed_2q: int


def _trial_absorb(m: MatrixProductOperator, side: _Side, which: str,
                  cfg: ContractionConfig) -> _Trial:
    """Absorb the side's next brick layer into the chain, in site order.
    No compression sweep follows: each two-qubit gate is re-split at its own
    bond with the center on that bond, and a local unitary leaves the
    Schmidt spectra of all other bonds unchanged, so a sweep would trim
    nothing."""
    from_back = which == "right"
    layer, remaining = _extract_layer(side.gates, from_back)
    # gates of one layer act on disjoint qubits and commute: taking them by
    # site from the end nearer the center moves the center across the chain
    # once
    ordered = sorted(layer, key=lambda g: min(g.qubits))
    if m.center is not None and 2 * m.center > min(ordered[0].qubits) + min(ordered[-1].qubits):
        ordered.reverse()
    for g in ordered:
        m = absorb_gate(m, g, which, cfg.epsilon, cfg.chi_max)
    return _Trial(
        m=m,
        layer=layer,
        remaining=remaining,
        elements=total_elements(m),
        consumed_2q=sum(1 for g in layer if g.is_two_qubit),
    )


def _choose_side(left: _Side, right: _Side, m: MatrixProductOperator,
                 cfg: ContractionConfig, step: int) -> tuple[str, _Trial]:
    """Pick the side to absorb from next, and return it with its trial.

    Adaptive mode trial-absorbs the next layer from each side on copies, in
    site order and without a compression sweep, and keeps the one
    yielding the smaller chain (ties go left). Fixed mode
    alternates every ``k`` layers. An exhausted side always yields to the
    other; both exhausted is an error.
    """
    if not left.gates and not right.gates:
        raise ValueError("both sides are exhausted")
    if not left.gates:
        return "right", _trial_absorb(m, right, "right", cfg)
    if not right.gates:
        return "left", _trial_absorb(m, left, "left", cfg)
    k = cfg.fixed_frequency
    if k is not None:
        which = "left" if (step // k) % 2 == 0 else "right"
        side = left if which == "left" else right
        return which, _trial_absorb(m, side, which, cfg)
    trial_l = _trial_absorb(m, left, "left", cfg)
    trial_r = _trial_absorb(m, right, "right", cfg)
    if trial_l.elements <= trial_r.elements:
        return "left", trial_l
    return "right", trial_r


def _rewire_left(pi_out: QubitPermutation, side: _Side, extracted: QubitPermutation,
                 n: int) -> tuple[QubitPermutation, _Side]:
    logical = strip_transpilation_swaps(Circuit(n, tuple(side.gates)), side.front)
    sigma = side.front.inverse().compose(extracted)
    relabeled = reindex(logical, sigma.inverse())
    routed = route_linear(relabeled, "forward")
    drift = routed.output_layout
    pi_out = pi_out.compose(side.back).compose(sigma).compose(drift.inverse())
    new_side = _Side(list(routed.circuit.gates), QubitPermutation.identity(n), drift)
    return pi_out, new_side


def _rewire_right(pi_in: QubitPermutation, side: _Side, extracted: QubitPermutation,
                  n: int) -> tuple[QubitPermutation, _Side]:
    logical = strip_transpilation_swaps(Circuit(n, tuple(side.gates)), side.front)
    sigma = extracted.compose(side.back)
    relabeled = reindex(logical, sigma)
    routed = route_linear(relabeled, "reverse")
    drift = routed.input_layout
    pi_in = drift.compose(sigma).compose(side.front.inverse()).compose(pi_in)
    new_side = _Side(list(routed.circuit.gates), drift, QubitPermutation.identity(n))
    return pi_in, new_side


def run(c: Circuit, cfg: ContractionConfig | None = None) -> SimulationResult:
    """Contract the circuit and return the output state, the terminal bit
    relabeling, and the telemetry trace. Raises :class:`StallError` when
    ``stall_limit`` consecutive unswap calls each shrink the chain by less
    than 1% while it still exceeds the threshold.
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
    left = _Side(list(second.gates), front=cut, back=routed.output_layout)
    right = _Side(list(first.gates), front=QubitPermutation.identity(n), back=cut)

    m = identity_mpo(n)
    trace: list[TraceRecord] = []
    consumed = 0
    consumed_source = 0
    source_two_qubit = c.two_qubit_count()
    step = 0
    chi_saturations = 0
    stall_reductions: list[float] = []

    while left.gates or right.gates:
        # every absorption phase must consume at least one source gate:
        # extracted permutations re-enter the circuit as fresh routing swaps
        # at the next rewire, so swap-only phases would ping-pong forever
        source_gate_absorbed = False
        while (total_elements(m) < cfg.tau or not source_gate_absorbed) and (
            left.gates or right.gates
        ):
            which, trial = _choose_side(left, right, m, cfg, step)
            side = left if which == "left" else right
            m = trial.m
            _consume_layer(side, trial.layer, from_back=(which == "right"))
            side.gates = trial.remaining
            consumed += trial.consumed_2q
            consumed_source += sum(
                1 for g in trial.layer if g.is_two_qubit and g.origin != ORIGIN_ROUTING
            )
            if any(g.origin != ORIGIN_ROUTING for g in trial.layer):
                source_gate_absorbed = True
            step += 1
            if any(d >= cfg.chi_max for d in m.bond_dims()):
                chi_saturations += 1
            trace.append(
                TraceRecord("absorb", consumed, trial.elements, time.perf_counter() - t0)
            )
        if not (left.gates or right.gates):
            break

        before = total_elements(m)
        result = unswap(m, cfg.unswap_config())
        m = compress(result.reduced, cfg.epsilon, cfg.chi_max)
        after = total_elements(m)
        trace.append(TraceRecord("unswap", consumed, after, time.perf_counter() - t0))

        reduction = (before - after) / before if before else 0.0
        if after >= cfg.tau and reduction < 0.01:
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
