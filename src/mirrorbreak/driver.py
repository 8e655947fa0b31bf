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
the smaller chain. It absorbs each layer once in the common case: while one
side's layer is swept into the chain, the other side's two-qubit gates are
ranked from values-only spectra of their pair blobs wherever the sweep's
center lands next to them, and those ranks are replayed into an element
count (:func:`_choose_side` lists the four cases).
"""

from __future__ import annotations

import json
import math
import re
import time
from dataclasses import dataclass, field

import numpy as np

from .chains import (
    MatrixProductOperator,
    MatrixProductState,
    _bond_dot,
    _gate_op,
    absorb_gate,
    apply_to_zero,
    compress,
    identity_mpo,
    landing_site,
    move_center,
    mps_to_dense,
    pair_site,
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
from .tensor import singular_values, truncation_rank
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

    def layer(self, ahead: int = 0) -> list[Gate] | None:
        """The next unconsumed layer, or the one ``ahead`` layers past it;
        None past the last."""
        k = self.taken + ahead
        return self.layers[k] if k < len(self.layers) else None

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


def _entangles(layer: list[Gate] | None) -> bool:
    """Whether the layer holds a two-qubit gate. A layer without one changes
    no bond extent, so its chain keeps the element count it started with."""
    return layer is not None and any(g.is_two_qubit for g in layer)


def _readable(layer: list[Gate] | None, cfg: ContractionConfig) -> list[Gate] | None:
    """The layer, if a sweep should read its count; else None. Only
    entangling layers need reading. At ``epsilon`` 0 every rounding-noise
    singular value is kept, so a bond's rank is the size of whichever blob it
    is read from, and only the layer's own trial gives its count."""
    return layer if cfg.epsilon > 0 and _entangles(layer) else None


def _absorb_order(layer: list[Gate], center: int | None) -> list[Gate]:
    """The layer by site, from the end nearer the center. Gates of one layer
    act on disjoint qubits and commute, so the center crosses the chain once
    per layer."""
    ordered = sorted(layer, key=lambda g: min(g.qubits))
    if center is not None and 2 * center > min(ordered[0].qubits) + min(ordered[-1].qubits):
        ordered.reverse()
    return ordered


@dataclass
class _Trial:
    """``layer`` absorbed into the chain ``start``, giving ``m`` with
    ``elements`` elements. ``predicted`` is the element count the other
    side's layer read during the same sweep would give on ``start`` (None
    when no layer was read, or when the sweep's center never landed next to
    one of its two-qubit gates)."""

    start: MatrixProductOperator
    m: MatrixProductOperator
    layer: list[Gate]
    elements: int
    predicted: int | None = None


def _replay_elements(m: MatrixProductOperator, layer: list[Gate], ranks: dict[int, int]) -> int:
    """Element count after absorbing ``layer`` into ``m`` in site order, the
    bond of each two-qubit gate re-split to ``ranks[bond]``, without touching
    a tensor. The center walks the path ``absorb_gate`` would walk, each
    split leaving it on the pair's :func:`~mirrorbreak.chains.landing_site`.
    Each QR step on the way trims its bond to min(rows, cols), which matters
    where a bond holds slack, and each split keeps at most min(rows, cols)."""
    n = m.num_sites
    dims = [1, *m.bond_dims(), 1]  # site i is (dims[i], 2, 2, dims[i + 1])
    center = m.center
    for g in _absorb_order(layer, center):
        if not g.is_two_qubit:
            continue
        bond = min(g.qubits)
        if center not in (bond, bond + 1):
            target = pair_site(center, bond)
            if center is None or center < target:
                for i in range(center or 0, target):
                    dims[i + 1] = min(4 * dims[i], dims[i + 1])
            if center is None or center > target:
                for i in range(n - 1 if center is None else center, target, -1):
                    dims[i] = min(dims[i], 4 * dims[i + 1])
        dims[bond + 1] = min(ranks[bond], 4 * dims[bond], 4 * dims[bond + 2])
        center = landing_site(center, bond)
    return 4 * sum(a * b for a, b in zip(dims, dims[1:]))


def _sweep(start: MatrixProductOperator, side: _Side, cfg: ContractionConfig,
           read: list[Gate] | None = None) -> _Trial:
    """Absorb the side's next layer into the chain in site order, one
    ``absorb_gate`` per gate. No compression sweep follows: each two-qubit
    gate is re-split at its own bond with the center on that bond, and a
    local unitary leaves the Schmidt spectra of all other bonds unchanged,
    so a sweep would trim nothing.

    With ``read``, a layer of the other side, the sweep also ranks that
    layer's two-qubit gates. Before each of its own two-qubit gates it moves
    the center onto the gate's pair, as ``absorb_gate`` would, and keeps the
    pair blob of each of the other side's gates on the two bonds at the
    center. Once every such gate has a blob, each gate is applied to its
    blob and the truncation rank of the result's values-only spectrum is
    the rank the other side's own trial splits the bond to, because the
    swept side's gates so far act on one side of that cut and leave its
    spectrum alone. The ranks are replayed into the element count the layer
    would give on ``start`` (:func:`_replay_elements`). When some gate sits
    next to no landing, nothing is ranked and ``predicted`` stays None."""
    layer = side.layer()
    ops = {}
    if read is not None:
        other = "right" if side.which == "left" else "left"
        ops = {min(g.qubits): _gate_op(g, other) for g in read if g.is_two_qubit}
    blobs: dict[int, np.ndarray] = {}
    m = start
    for g in _absorb_order(layer, m.center):
        if len(blobs) < len(ops) and g.is_two_qubit:
            bond = min(g.qubits)
            if m.center not in (bond, bond + 1):
                m = move_center(m, pair_site(m.center, bond))
            for b in (m.center - 1, m.center):
                if b in ops and b not in blobs:
                    blobs[b] = _bond_dot(m.sites[b], m.sites[b + 1])
        m = absorb_gate(m, g, side.which, cfg.epsilon, cfg.chi_max)
    predicted = None
    if read is not None and len(blobs) == len(ops):
        ranks = _blob_ranks({b: ops[b](theta) for b, theta in blobs.items()}, cfg)
        predicted = _replay_elements(start, read, ranks)
    return _Trial(start, m, layer, total_elements(m), predicted)


def _blob_ranks(blobs: dict[int, np.ndarray], cfg: ContractionConfig) -> dict[int, int]:
    """Truncation ranks of (l, t1, b1, t2, b2, r) pair blobs keyed by bond,
    matricized between the (l, t1, b1) and (t2, b2, r) legs: one values-only
    SVD over the stack of each blob shape, and one ranking of its spectra."""
    by_shape: dict[tuple[int, ...], list[int]] = {}
    for b, theta in blobs.items():
        by_shape.setdefault(theta.shape, []).append(b)
    ranks = {}
    for shape, bonds in by_shape.items():
        stack = np.stack([blobs[b] for b in bonds]).reshape(len(bonds), 4 * shape[0], -1)
        spectra = singular_values(stack)
        ranks.update(zip(bonds, truncation_rank(spectra, cfg.epsilon, cfg.chi_max)))
    return ranks


def _choose_side(left: _Side, right: _Side, m: MatrixProductOperator,
                 cfg: ContractionConfig, step: int,
                 carry: _Trial | None = None) -> tuple[str, _Trial, _Trial | None]:
    """Pick the side to absorb from next. Returns it, its trial, and a trial
    of left's next layer to carry into the next decision (or None).

    Adaptive mode keeps the side whose next layer yields the smaller chain
    (ties go left), and absorbs each layer once in the common case. A layer
    with no two-qubit gate ("1q") leaves the count at ``total_elements(m)``
    with no work. Left's trial ranks right's gates where its center lands,
    so right's count comes without absorbing right's layer whenever every
    one of those gates sits next to a landing (see :func:`_sweep` for why
    that count is exact):

    - 1q / 1q: absorb left's layer (the tie goes left).
    - 1q / 2q: sweep right; keep it if its count is smaller, else absorb
      left's layer.
    - 2q / 2q: sweep left while reading right's layer; keep left if its
      count is at most right's, else sweep right. When the read predicted
      no count, compare left's count with right's swept one.
    - 2q / 1q: absorb right's layer, then sweep left on that chain while
      reading right's next layer. A one-qubit layer changes no spectrum, so
      left's count there is its count on ``m``. If left wins, sweep it again
      on ``m`` (rare). Else keep right's layer and return the left trial as
      the carry: it is exactly the sweep the next decision would run, so
      that decision uses it as long as ``m`` and left's layer are the
      chain and layer it was made for.

    At ``epsilon`` 0 nothing is read (:func:`_readable`): a 2q / 2q
    decision sweeps both layers and compares their counts. Fixed mode
    alternates every ``k`` layers. An exhausted side always yields to the
    other; both exhausted is an error.
    """
    if left.exhausted and right.exhausted:
        raise ValueError("both sides are exhausted")
    if carry is not None and (carry.start is not m or carry.layer is not left.layer()):
        carry = None
    if left.exhausted:
        return "right", _sweep(m, right, cfg), None
    if right.exhausted:
        return "left", carry or _sweep(m, left, cfg), None
    k = cfg.fixed_frequency
    if k is not None:
        which = "left" if (step // k) % 2 == 0 else "right"
        return which, _sweep(m, left if which == "left" else right, cfg), None
    size = total_elements(m)
    if not _entangles(left.layer()):
        if _entangles(right.layer()):
            trial = _sweep(m, right, cfg)
            if trial.elements < size:
                return "right", trial, None
        return "left", _sweep(m, left, cfg), None
    if _entangles(right.layer()):
        trial = carry or _sweep(m, left, cfg, read=_readable(right.layer(), cfg))
        if trial.predicted is not None and trial.elements <= trial.predicted:
            return "left", trial, None
        other = _sweep(m, right, cfg)
        if trial.predicted is None and trial.elements <= other.elements:
            return "left", trial, None
        return "right", other, None
    if carry is not None and carry.elements <= size:
        return "left", carry, None
    ones = _sweep(m, right, cfg)
    trial = _sweep(ones.m, left, cfg, read=_readable(right.layer(1), cfg))
    if carry is None and trial.elements <= size:
        again = _sweep(m, left, cfg)
        if again.elements <= size:
            return "left", again, None
    return "right", ones, trial


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

    carry = None
    while not (left.exhausted and right.exhausted):
        # every absorption phase must consume at least one source gate:
        # extracted permutations re-enter the circuit as fresh routing swaps
        # at the next rewire, so swap-only phases would ping-pong forever
        source_gate_absorbed = False
        elements = total_elements(m)
        while (elements < cfg.tau or not source_gate_absorbed) and not (
            left.exhausted and right.exhausted
        ):
            which, trial, carry = _choose_side(left, right, m, cfg, step, carry)
            layer = (left if which == "left" else right).consume()
            m = trial.m
            elements = trial.elements
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
