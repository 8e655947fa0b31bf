"""Independent reference implementations used only to check the package.

Everything here is deliberately naive (loop nests, dense kron products)
and avoids the code paths under test.
"""

from __future__ import annotations

import math
import re

import numpy as np

from mirrorbreak.circuit import QasmError


def embed_unitary(u: np.ndarray, qubits: tuple[int, ...], n: int) -> np.ndarray:
    """Embed a 1- or 2-qubit unitary into the full 2**n space by explicit
    basis-index arithmetic. Little-endian: qubit 0 is the least significant
    bit; two-qubit matrices index as 2*b_first + b_second.
    """
    dim = 2**n
    full = np.zeros((dim, dim), dtype=np.complex128)
    k = len(qubits)
    for col in range(dim):
        if k == 2:
            in_sub = (((col >> qubits[0]) & 1) << 1) | ((col >> qubits[1]) & 1)
        else:
            in_sub = (col >> qubits[0]) & 1
        base = col
        for q in qubits:
            base &= ~(1 << q)
        for out_sub in range(2**k):
            amp = u[out_sub, in_sub]
            if amp == 0:
                continue
            row = base
            if k == 2:
                if out_sub & 2:
                    row |= 1 << qubits[0]
                if out_sub & 1:
                    row |= 1 << qubits[1]
            else:
                if out_sub & 1:
                    row |= 1 << qubits[0]
            full[row, col] += amp
    return full


def circuit_unitary_naive(circuit) -> np.ndarray:
    """Full unitary as an explicit product of embedded gate matrices."""
    from mirrorbreak.circuit import gate_unitary

    n = circuit.num_qubits
    u = np.eye(2**n, dtype=np.complex128)
    for g in circuit.gates:
        u = embed_unitary(gate_unitary(g), g.qubits, n) @ u
    return u


def operator_schmidt_rank(u: np.ndarray, tol: float = 1e-12) -> int:
    """Schmidt rank of a 4x4 two-qubit operator across its qubit cut, by
    brute-force rearrangement and SVD."""
    # u indexed by (2*t1+t2, 2*b1+b2); regroup as ((t1,b1), (t2,b2))
    r = u.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
    s = np.linalg.svd(r, compute_uv=False)
    return int(np.sum(s > tol * s[0]))


def operator_spectrum(u: np.ndarray, bond: int) -> np.ndarray:
    """Singular values of a dense 2**n x 2**n operator (little-endian in
    the qubit number, as ``mpo_to_dense`` gives it) split between qubits
    0..bond and bond+1..n-1, top and bottom legs together."""
    n = u.shape[0].bit_length() - 1
    # axes (t_{n-1}..t_0, b_{n-1}..b_0), reordered t_0, b_0, t_1, b_1, ...
    t = u.reshape([2] * (2 * n))
    t = t.transpose([axis for q in range(n) for axis in (n - 1 - q, 2 * n - 1 - q)])
    return np.linalg.svd(t.reshape(4 ** (bond + 1), -1), compute_uv=False)


def weak_brickwork(n: int, layers: int, rng) -> list:
    """u3-dressed rzz brickwork with weak angles, whose Schmidt spectra are
    skewed enough for a cutoff around 1e-2 to bite."""
    from mirrorbreak.circuit import Gate

    gates = []
    for layer in range(layers):
        for i in range(layer % 2, n - 1, 2):
            for q in (i, i + 1):
                gates.append(Gate("u3", (q,), tuple(float(x) for x in rng.uniform(-np.pi, np.pi, 3))))
            gates.append(Gate("rzz", (i, i + 1), (float(rng.uniform(0.2, 0.6)),)))
    return gates


def random_circuit(n: int, num_two_qubit: int, rng, adjacent_only: bool = False,
                   one_qubit_per_two: int = 1):
    """Random circuit from the native gate set, for property tests."""
    from mirrorbreak.circuit import Circuit, Gate

    gates = []
    one_q_kinds = ["h", "x", "rx", "ry", "rz", "u3"]
    two_q_kinds = ["cx", "rzz", "swap"]
    for _ in range(num_two_qubit):
        for _ in range(one_qubit_per_two):
            kind = one_q_kinds[rng.integers(len(one_q_kinds))]
            q = int(rng.integers(n))
            nparams = {"h": 0, "x": 0, "rx": 1, "ry": 1, "rz": 1, "u3": 3}[kind]
            params = tuple(float(x) for x in rng.uniform(-np.pi, np.pi, nparams))
            gates.append(Gate(kind, (q,), params))
        kind = two_q_kinds[rng.integers(len(two_q_kinds))]
        if adjacent_only:
            a = int(rng.integers(n - 1))
            pair = (a, a + 1) if rng.random() < 0.5 else (a + 1, a)
        else:
            a, b = rng.choice(n, size=2, replace=False)
            pair = (int(a), int(b))
        params = (float(rng.uniform(-np.pi, np.pi)),) if kind == "rzz" else ()
        gates.append(Gate(kind, pair, params))
    return Circuit(n, tuple(gates))


def reference_truncation_rank(s: np.ndarray, epsilon: float, chi_max: int) -> int:
    """Reference rank of one descending spectrum: scan k = 1, 2, ... for the
    first whose suffix weight fits the budget, then extend over ties.
    ``tensor.truncation_rank`` and ``tensor.svd_truncate`` must agree."""
    from mirrorbreak.tensor import TIE_TOLERANCE

    weights = s * s
    total = float(weights.sum())
    suffix = np.concatenate([np.cumsum(weights[::-1])[::-1], [0.0]])
    budget = (epsilon * epsilon) * total
    r = len(s)
    for k in range(1, len(s) + 1):
        if suffix[k] <= budget:
            r = k
            break
    boundary = s[r - 1]
    while r < len(s) and s[r] >= boundary - TIE_TOLERANCE:
        r += 1
    return min(r, chi_max)


def per_shot_sample_bits(psi, shots: int, seed: int) -> np.ndarray:
    """Reference sampler: the left-to-right conditional sweep with one
    environment row per shot. Takes the same right-canonical sites and draws
    the same uniforms as ``chains._sample_bits``, so at a fixed seed the two
    must give identical bits."""
    from mirrorbreak.chains import _right_canonicalize

    sites, _ = _right_canonicalize(psi)
    rng = np.random.default_rng(seed)
    n = len(sites)
    envs = np.ones((shots, 1), dtype=np.complex128)
    bits = np.empty((shots, n), dtype=np.int8)
    for i in range(n):
        amps = np.einsum("sl,lpr->spr", envs, sites[i])
        probs = np.sum(np.abs(amps) ** 2, axis=2)  # (shots, 2)
        totals = probs.sum(axis=1)
        p_one = probs[:, 1] / totals
        draw = (rng.random(shots) < p_one).astype(np.int8)
        bits[:, i] = draw
        chosen = amps[np.arange(shots), draw, :]
        chosen_p = probs[np.arange(shots), draw]
        envs = chosen / np.sqrt(chosen_p)[:, None]
    return bits


def two_svd_unswap_parallel(m, epsilon, chi_max, max_iterations=20):
    """Reference parity-parallel unswap: every visit of every batch, and
    each visit re-truncating its bond with a full U/S/V split before ranking
    its candidate, the pair blob weighted by the spectrum of the bond left
    of it, with a second, values-only SVD. ``unswap.unswap`` skips idle
    revisits and ranks the bond and all three sides' candidates with one
    SVD. Its decisions match where truncation drops no weight (the chains
    compared at epsilon 1e-10); at a cutoff that bites, the spectra each
    visit reads differ by up to the weight dropped elsewhere, and the two
    can accept different swaps.

    The outer permutations are tracked as plain mapping lists, apart from
    ``QubitPermutation.compose``: a swap S taken on the top legs leaves
    M = S.(S.M), so the left factor becomes P_left.S, which exchanges two of
    its entries; one on the bottom legs leaves M = (M.S).S, so the right
    factor becomes S.P_right, which exchanges two of its values."""
    from mirrorbreak.chains import (
        SWAP_LEGS,
        _bond_dot,
        _update_pair,
        apply_swap_boundary,
        total_elements,
    )
    from mirrorbreak.routing import QubitPermutation
    from mirrorbreak.tensor import truncation_rank
    from mirrorbreak.unswap import _PARALLEL_CYCLE, UnswapResult

    before = total_elements(m)
    n = m.num_sites
    left, right = list(range(n)), list(range(n))
    accepted = 0
    for _ in range(max_iterations):
        reduced_any = False
        for side, parity in _PARALLEL_CYCLE:
            for bond in range(parity, n - 1, 2):
                dims_before = m.bond_dims()[bond]
                m = _update_pair(m, bond, None, epsilon, chi_max)
                baseline = m.sites[bond].shape[3]
                theta = _bond_dot(m.sites[bond], m.sites[bond + 1]).transpose(SWAP_LEGS[side])
                if bond > 0:
                    theta = m.spectra[bond - 1][:, None, None, None, None, None] * theta
                s = np.linalg.svd(theta.reshape(theta.shape[0] * 4, -1), compute_uv=False)
                if truncation_rank(s, epsilon, chi_max) >= baseline:
                    continue
                m = apply_swap_boundary(m, bond, side, epsilon, chi_max)
                accepted += 1
                if side != "right":
                    left[bond], left[bond + 1] = left[bond + 1], left[bond]
                if side != "left":
                    swap = {bond: bond + 1, bond + 1: bond}
                    right = [swap.get(w, w) for w in right]
                if m.bond_dims()[bond] < dims_before:
                    reduced_any = True
    return UnswapResult(
        reduced=m,
        left_perm=QubitPermutation(tuple(left)),
        right_perm=QubitPermutation(tuple(right)),
        accepted_swaps=accepted,
        elements_before=before,
        elements_after=total_elements(m),
    )


def extract_layer(gates, from_back: bool):
    """Reference layer peeling: pop one maximal brick layer of
    non-overlapping innermost gates by rescanning the whole list.

    Scanning from the innermost end, a gate joins the layer iff none of its
    qubits were touched by an earlier-scanned gate (taken or not). Returns
    (layer in scan order, remaining gates in original order)."""
    order = range(len(gates) - 1, -1, -1) if from_back else range(len(gates))
    blocked: set[int] = set()
    taken: set[int] = set()
    layer = []
    for idx in order:
        g = gates[idx]
        if blocked.isdisjoint(g.qubits):
            taken.add(idx)
            layer.append(g)
        blocked.update(g.qubits)
    remaining = [g for i, g in enumerate(gates) if i not in taken]
    return layer, remaining


def two_trial_absorb(m, gates, which: str, cfg):
    """Reference trial: extract the next layer of ``gates`` from the
    ``which`` side's inner end and absorb it gate by gate. Returns the
    chain."""
    from mirrorbreak.chains import absorb_gate

    layer, _ = extract_layer(gates, from_back=(which == "right"))
    for g in layer:
        m = absorb_gate(m, g, which, cfg.epsilon, cfg.chi_max)
    return m


def two_trial_choose_side(left, right, m, cfg, step):
    """Reference side chooser with the signature of ``driver._choose_side``:
    adaptive mode absorbs the next layer of both sides, each re-extracted
    from the side's remaining gates, and keeps the smaller chain (ties go
    left). ``driver._choose_side`` splits both layers and writes only the
    winner's; its decisions must match."""
    from mirrorbreak.chains import total_elements

    lg, rg = left.remaining(), right.remaining()
    if not lg and not rg:
        raise ValueError("both sides are exhausted")
    if not lg:
        return "right", two_trial_absorb(m, rg, "right", cfg)
    if not rg:
        return "left", two_trial_absorb(m, lg, "left", cfg)
    k = cfg.fixed_frequency
    if k is not None:
        which = "left" if (step // k) % 2 == 0 else "right"
        return which, two_trial_absorb(m, lg if which == "left" else rg, which, cfg)
    trial_l = two_trial_absorb(m, lg, "left", cfg)
    trial_r = two_trial_absorb(m, rg, "right", cfg)
    if total_elements(trial_l) <= total_elements(trial_r):
        return "left", trial_l
    return "right", trial_r

# --------------------------------------------------------------------------
# Reference OpenQASM parser: tokenize the whole program, then recursive
# descent over the token list.
# --------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>//[^\n]*)
  | (?P<float>\d+\.\d*(?:[eE][-+]?\d+)?|\.\d+(?:[eE][-+]?\d+)?|\d+[eE][-+]?\d+)
  | (?P<int>\d+)
  | (?P<name>[A-Za-z_][A-Za-z0-9_.]*)
  | (?P<string>"[^"]*")
  | (?P<arrow>->)
  | (?P<punct>[;,\[\]()*/+-])
    """,
    re.VERBOSE,
)


def _tokenize(text: str):
    tokens = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        pos = 0
        while pos < len(line):
            m = _TOKEN_RE.match(line, pos)
            if m is None:
                raise QasmError(f"unexpected character {line[pos]!r}", lineno, pos + 1)
            kind = m.lastgroup
            pos = m.end()
            if kind in ("ws", "comment"):
                continue
            tokens.append((kind, m.group(), lineno, m.start() + 1))
    return tokens


class _TokenStream:
    def __init__(self, tokens):
        self._tokens = tokens
        self._i = 0

    def peek(self):
        return self._tokens[self._i] if self._i < len(self._tokens) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            last = self._tokens[-1] if self._tokens else ("", "", 1, 1)
            raise QasmError("unexpected end of input", last[2], last[3])
        self._i += 1
        return tok

    def expect(self, value: str):
        tok = self.next()
        if tok[1] != value:
            raise QasmError(f"expected {value!r}, found {tok[1]!r}", tok[2], tok[3])
        return tok


def _parse_angle(ts: _TokenStream) -> float:
    """Arithmetic over numbers and pi with + - * / and parentheses."""

    def parse_expr():
        val = parse_term()
        while True:
            tok = ts.peek()
            if tok and tok[1] in "+-":
                ts.next()
                rhs = parse_term()
                val = val + rhs if tok[1] == "+" else val - rhs
            else:
                return val

    def parse_term():
        val = parse_factor()
        while True:
            tok = ts.peek()
            if tok and tok[1] in "*/":
                ts.next()
                rhs = parse_factor()
                if tok[1] == "*":
                    val = val * rhs
                else:
                    val = val / rhs
            else:
                return val

    def parse_factor():
        tok = ts.next()
        if tok[1] == "-":
            return -parse_factor()
        if tok[1] == "+":
            return parse_factor()
        if tok[1] == "(":
            val = parse_expr()
            ts.expect(")")
            return val
        if tok[0] in ("float", "int"):
            return float(tok[1])
        if tok[1] == "pi":
            return math.pi
        raise QasmError(f"bad angle expression near {tok[1]!r}", tok[2], tok[3])

    return parse_expr()


def _parse_qubit_operand(ts: _TokenStream, qreg: str, size: int) -> int:
    tok = ts.next()
    if tok[0] != "name" or tok[1] != qreg:
        raise QasmError(f"expected qubit register {qreg!r}, found {tok[1]!r}", tok[2], tok[3])
    ts.expect("[")
    idx_tok = ts.next()
    if idx_tok[0] != "int":
        raise QasmError("expected qubit index", idx_tok[2], idx_tok[3])
    idx = int(idx_tok[1])
    if idx >= size:
        raise QasmError(f"qubit index {idx} out of register bounds [0, {size})", idx_tok[2], idx_tok[3])
    ts.expect("]")
    return idx


def _parse_register_name(ts: _TokenStream):
    tok = ts.next()
    if tok[0] != "name":
        raise QasmError(f"expected register name, found {tok[1]!r}", tok[2], tok[3])
    return tok


def reference_parse_qasm(text: str):
    """Reference OpenQASM 2.0 subset parser: the whole program is tokenized
    first, then read by recursive descent over the token list. Errors are
    ``QasmError`` with the line and column of the token at fault, except
    that a non-integer register size, a division by zero and a non-finite
    angle escape as ``ValueError``/``ZeroDivisionError``. ``parse_qasm``
    must return an equal ``Circuit`` wherever this one does (or reject a
    non-finite angle), and the same error wherever this one raises
    ``QasmError``.
    """
    from mirrorbreak.circuit import GATE_ARITY, Circuit, Gate

    ts = _TokenStream(_tokenize(text))
    tok = ts.next()
    if tok[1] != "OPENQASM":
        raise QasmError("program must start with 'OPENQASM 2.0;'", tok[2], tok[3])
    ver = ts.next()
    if ver[1] != "2.0":
        raise QasmError(f"unsupported OPENQASM version {ver[1]!r}", ver[2], ver[3])
    ts.expect(";")

    qreg_name = None
    qreg_size = 0
    creg_names: set[str] = set()
    gates: list[Gate] = []

    while True:
        tok = ts.peek()
        if tok is None:
            break
        kind, value, line, col = ts.next()

        if value == "include":
            fname = ts.next()
            if fname[0] != "string":
                raise QasmError("expected include file name", fname[2], fname[3])
            ts.expect(";")
            continue

        if value == "qreg":
            if qreg_name is not None:
                raise QasmError("multiple quantum registers are not supported", line, col)
            name_tok = _parse_register_name(ts)
            qreg_name = name_tok[1]
            ts.expect("[")
            size_tok = ts.next()
            qreg_size = int(size_tok[1])
            if qreg_size < 1:
                raise QasmError("register size must be positive", size_tok[2], size_tok[3])
            ts.expect("]")
            ts.expect(";")
            continue

        if value == "creg":
            name_tok = _parse_register_name(ts)
            creg_names.add(name_tok[1])
            ts.expect("[")
            size_tok = ts.next()
            if size_tok[0] != "int":
                raise QasmError(f"register size must be an integer, found {size_tok[1]!r}",
                                size_tok[2], size_tok[3])
            ts.expect("]")
            ts.expect(";")
            continue

        if value in ("measure", "barrier"):
            # skip to the terminating semicolon; measurements are dropped
            while True:
                t = ts.next()
                if t[1] == ";":
                    break
            continue

        if value in GATE_ARITY:
            if qreg_name is None:
                raise QasmError("gate before qreg declaration", line, col)
            nq, nparams = GATE_ARITY[value]
            params: tuple[float, ...] = ()
            if nparams:
                ts.expect("(")
                vals = [_parse_angle(ts)]
                while ts.peek() and ts.peek()[1] == ",":
                    ts.next()
                    vals.append(_parse_angle(ts))
                ts.expect(")")
                if len(vals) != nparams:
                    raise QasmError(
                        f"{value} takes {nparams} parameter(s), got {len(vals)}", line, col
                    )
                params = tuple(vals)
            qubits = [_parse_qubit_operand(ts, qreg_name, qreg_size)]
            while ts.peek() and ts.peek()[1] == ",":
                ts.next()
                qubits.append(_parse_qubit_operand(ts, qreg_name, qreg_size))
            ts.expect(";")
            if len(qubits) != nq:
                raise QasmError(
                    f"{value} acts on {nq} qubit(s), got {len(qubits)}", line, col
                )
            if nq == 2 and qubits[0] == qubits[1]:
                raise QasmError(f"{value} needs distinct qubits", line, col)
            gates.append(Gate(value, tuple(qubits), params))
            continue

        raise QasmError(f"unsupported construct {value!r}", line, col)

    if qreg_name is None:
        raise QasmError("program declares no quantum register", 1, 1)
    return Circuit(qreg_size, tuple(gates))
