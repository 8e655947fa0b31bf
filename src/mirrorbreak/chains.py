"""Matrix product operator and state chains: identity construction, gate
absorption from either side, canonical-form compression, application to the
all-zero state, dense materialization for small systems, and exact
conditional sampling.

Site tensor axes are (left bond, top physical, bottom physical, right bond)
for operators and (left bond, physical, right bond) for states; site i holds
qubit i. The top legs are the operator's output index, so absorbing a gate
from the left realizes G.M and from the right M.G. Chains carry a scalar
``log_norm``: the represented object is exp(log_norm) times the contraction
of the stored tensors.

Operator chains are kept right-canonical with their spectra: site 0 holds
the norm, sites 1..n-1 are right-isometric, and ``spectra`` holds the
Schmidt values of every internal bond (Vidal, PRL 91, 147902). The
spectrum of any pair (b, b+1) is then that of one blob, the pair's sites
contracted and weighted on their left leg by the spectrum of bond b-1
(:func:`_pair_blob`), wherever the chain was last touched. Every two-qubit
update (two-qubit ``absorb_gate``, ``apply_swap_boundary`` and the unswap
module's bond re-truncation) is one split of that blob in ``_update_pair``
that needs neither a center move nor an inverse spectrum (Hastings, J. Math.
Phys. 50, 095207), and one-qubit gates leave every spectrum alone. A layer
of gates on disjoint sites is split at once (``split_layer``), one SVD per
stack of same-shape blobs, and written by the same rule (``write_layer``).
``compress`` returns the spectra its truncation sweep finds. The spectra
are the only record of a chain's gauge: a chain without them (the public
constructor, ``move_center``) is in an unknown gauge, and is made canonical
by one exact sweep (``_with_spectra``) at its first update.

Operations are functional: they return new chains and never mutate inputs.
Site arrays may be shared between chains, so callers must not write into
them either. The public constructors validate every site; a chain derived
from an already validated one re-checks only the sites it rewrote, the
bonds at their edges and the boundary extents, since the sites it shares
with its parent passed validation when the parent was built and cannot
change.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .circuit import Gate, gate_unitary
from .tensor import svd_stack, svd_truncate, truncation_rank

DENSE_GUARD_QUBITS = 12


def _check_sites(sites: tuple[np.ndarray, ...], physical: tuple[int, ...],
                 lo: int, hi: int) -> None:
    """Check the shapes of sites [lo, hi) (bond, *physical, bond), the bonds
    that touch them, and the extent-1 boundary bonds of the chain."""
    ndim = len(physical) + 2
    for i in range(lo, hi):
        s = sites[i]
        if s.ndim != ndim or s.shape[1:-1] != physical:
            raise ValueError(f"site {i} has bad shape {s.shape}")
    if sites[0].shape[0] != 1 or sites[-1].shape[-1] != 1:
        raise ValueError("boundary bonds must have extent 1")
    for i in range(max(lo - 1, 0), min(hi, len(sites) - 1)):
        if sites[i].shape[-1] != sites[i + 1].shape[0]:
            raise ValueError(f"bond mismatch between sites {i} and {i + 1}")


@dataclass(frozen=True)
class MatrixProductOperator:
    sites: tuple[np.ndarray, ...]
    log_norm: float = 0.0
    # Schmidt values of each internal bond of the stored chain (without the
    # log_norm factor), set only by chain operations that keep the chain
    # right-canonical with its norm on site 0; None when the gauge is unknown
    spectra: tuple[np.ndarray, ...] | None = field(default=None, init=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "sites", tuple(self.sites))
        _check_sites(self.sites, (2, 2), 0, len(self.sites))

    @classmethod
    def _derived(cls, sites, log_norm: float, lo: int, hi: int,
                 spectra=None) -> "MatrixProductOperator":
        """Chain whose sites outside [lo, hi) are those of an already
        validated chain; only the rewritten range is checked again."""
        m = object.__new__(cls)
        object.__setattr__(m, "sites", tuple(sites))
        object.__setattr__(m, "log_norm", log_norm)
        object.__setattr__(m, "spectra", None if spectra is None else tuple(spectra))
        _check_sites(m.sites, (2, 2), lo, hi)
        return m

    @property
    def num_sites(self) -> int:
        return len(self.sites)

    def bond_dims(self) -> tuple[int, ...]:
        """Extents of the N-1 internal bonds."""
        return tuple(s.shape[3] for s in self.sites[:-1])


@dataclass(frozen=True)
class MatrixProductState:
    sites: tuple[np.ndarray, ...]
    log_norm: float = 0.0
    # 0 when the state is right-canonical with its norm on site 0 (as
    # apply_to_zero returns it); any other value, None included, is read as
    # an unknown gauge
    center: int | None = field(default=None, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "sites", tuple(self.sites))
        _check_sites(self.sites, (2,), 0, len(self.sites))

    @property
    def num_sites(self) -> int:
        return len(self.sites)

    def bond_dims(self) -> tuple[int, ...]:
        return tuple(s.shape[2] for s in self.sites[:-1])


def identity_mpo(n: int) -> MatrixProductOperator:
    """Identity operator with all bond extents 1, right-canonical with its
    spectra: sites 1..n-1 hold I/sqrt(2) and site 0 holds the whole
    Frobenius norm 2**(n/2), which is also every bond's one Schmidt value."""
    if n < 1:
        raise ValueError("need at least one site")
    eye = np.eye(2, dtype=np.complex128).reshape(1, 2, 2, 1)
    sites = [eye * 2 ** ((n - 1) / 2)] + [eye / math.sqrt(2) for _ in range(n - 1)]
    norm = np.array([np.linalg.norm(sites[0])])
    return MatrixProductOperator._derived(sites, 0.0, 0, n, [norm] * (n - 1))


def total_elements(m: MatrixProductOperator) -> int:
    return sum(s.size for s in m.sites)


# --------------------------------------------------------------------------
# canonical-form plumbing
# --------------------------------------------------------------------------


def _bond_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Contract the last axis of ``a`` with the first axis of ``b``.

    This is the single matrix product ``np.tensordot(a, b, axes=(-1, 0))``
    reduces to, without its axis bookkeeping, so the result is bit-identical.
    """
    k = b.shape[0]
    return np.dot(a.reshape(-1, k), b.reshape(k, -1)).reshape(a.shape[:-1] + b.shape[1:])


def _qr_right(sites: list[np.ndarray], i: int) -> None:
    """Left-orthogonalize site i, pushing the remainder into site i+1. Sites
    are (l, ..., r) with any physical legs, so MPO and MPS chains share it."""
    s = sites[i]
    q, rem = np.linalg.qr(s.reshape(-1, s.shape[-1]))
    sites[i] = q.reshape(s.shape[:-1] + (q.shape[1],))
    sites[i + 1] = _bond_dot(rem, sites[i + 1])


def _qr_left(sites: list[np.ndarray], i: int) -> None:
    """Right-orthogonalize site i, pushing the remainder into site i-1."""
    s = sites[i]
    q, rem = np.linalg.qr(s.reshape(s.shape[0], -1).T)
    sites[i] = q.T.reshape((q.shape[1],) + s.shape[1:])
    sites[i - 1] = _bond_dot(sites[i - 1], rem.T)


def _orthogonalize(sites: list[np.ndarray], target: int) -> None:
    """Exact (QR-based) move of the chain's norm onto site ``target``, in
    place on the site list, whatever the gauge was: QR steps rightward up to
    ``target`` leave the sites left of it left-isometric, and steps leftward
    down to it leave the sites right of it right-isometric."""
    n = len(sites)
    if not (0 <= target < n):
        raise ValueError(f"center target {target} out of range")
    for i in range(target):
        _qr_right(sites, i)
    for i in range(n - 1, target, -1):
        _qr_left(sites, i)


def _truncate_sweep(sites: list[np.ndarray], epsilon: float,
                    chi_max: int) -> tuple[float, list[np.ndarray]]:
    """Canonical truncation, in place: a QR pass from site 0 to the right
    end, then an SVD pass back that truncates every bond at the relative
    cutoff. Leaves sites 1..n-1 right-isometric with the norm on site 0, and
    returns that norm and the kept singular values of every bond. Each
    bond's values are its Schmidt values when its SVD runs; truncating
    bonds left of it later moves them by at most the weight that truncation
    drops."""
    _orthogonalize(sites, len(sites) - 1)
    spectra = [None] * (len(sites) - 1)
    for i in range(len(sites) - 1, 0, -1):
        s = sites[i]
        dec = svd_truncate(s, split=1, epsilon=epsilon, chi_max=chi_max)
        sites[i] = dec.v.reshape((dec.rank,) + s.shape[1:])
        sites[i - 1] = _bond_dot(sites[i - 1], dec.u * dec.s[None, :])
        spectra[i - 1] = dec.s
    return float(np.linalg.norm(sites[0])), spectra


def move_center(m: MatrixProductOperator, target: int) -> MatrixProductOperator:
    """The same operator with its norm moved onto site ``target`` by exact
    QR steps over the whole chain. The result carries no spectra, so its
    gauge is unknown to every later chain operation."""
    sites = list(m.sites)
    _orthogonalize(sites, target)
    return MatrixProductOperator._derived(sites, m.log_norm, 0, len(sites))


def _with_spectra(m: MatrixProductOperator) -> MatrixProductOperator:
    """``m`` itself when its spectra are known; else the same operator made
    right-canonical by one exact sweep (epsilon 0, no rank cap), with the
    spectra that sweep finds."""
    if m.spectra is not None:
        return m
    sites = list(m.sites)
    _, spectra = _truncate_sweep(sites, 0.0, sys.maxsize)
    return MatrixProductOperator._derived(sites, m.log_norm, 0, len(sites), spectra)


def _pair_blob(
    m: MatrixProductOperator,
    bond: int,
    op: Callable[[np.ndarray], np.ndarray] | None,
) -> tuple[np.ndarray, np.ndarray]:
    """The (l, t1, b1, t2, b2, r) blob of sites (bond, bond+1) of a chain
    with spectra, with ``op`` applied (None: identity), and that blob with
    its left leg weighted by the spectrum of bond-1. Bond 0 takes no weight:
    its left leg is the chain's open end, and site 0 holds the norm. The
    sites left of the pair contract to an isometry times that spectrum and
    the sites right of it are right-isometric, so the weighted blob's
    singular values are the bond's Schmidt values after ``op``. Every split
    and every rank of a pair goes through here, so a count ranks the very
    values the split truncates."""
    theta = _bond_dot(m.sites[bond], m.sites[bond + 1])
    if op is not None:
        theta = op(theta)
    if bond == 0:
        return theta, theta
    return theta, m.spectra[bond - 1].reshape(-1, 1, 1, 1, 1, 1) * theta


def _update_pair(
    m: MatrixProductOperator,
    bond: int,
    op: Callable[[np.ndarray], np.ndarray] | None,
    epsilon: float,
    chi_max: int,
) -> MatrixProductOperator:
    """The two-site update every local step goes through: apply ``op``
    (None: identity) to the pair blob of sites (bond, bond+1) and split its
    weighted form (:func:`_pair_blob`) with a truncated SVD U.s.V, which is
    the locally optimal truncation of that bond. Site bond+1 becomes V,
    site bond becomes blob.V^dagger, which needs no inverse spectrum, and
    the bond's spectrum becomes s. No other site or spectrum changes, and
    the norm stays on site 0."""
    m = _with_spectra(m)
    theta, weighted = _pair_blob(m, bond, op)
    dec = svd_truncate(weighted, split=3, epsilon=epsilon, chi_max=chi_max)
    sites = list(m.sites)
    spectra = list(m.spectra)
    _write_pair(sites, spectra, bond, theta, dec.s, dec.v)
    return MatrixProductOperator._derived(sites, m.log_norm, bond, bond + 2, spectra)


def _write_pair(sites: list[np.ndarray], spectra: list[np.ndarray], bond: int,
                theta: np.ndarray, s: np.ndarray, v: np.ndarray) -> None:
    """Write the split U.s.V of the pair blob ``theta``'s weighted form, in
    place on the site and spectrum lists: site bond+1 becomes V, site bond
    becomes theta.V^dagger (no inverse spectrum), and the bond's spectrum
    becomes s."""
    l, t1, b1, t2, b2, r = theta.shape
    rank = len(s)
    sites[bond] = np.dot(theta.reshape(l * t1 * b1, -1), v.conj().T).reshape(l, t1, b1, rank)
    sites[bond + 1] = v.reshape(rank, t2, b2, r)
    spectra[bond] = s


def _gate_tensor(g: Gate) -> np.ndarray:
    """Gate as (out_lo, out_hi, in_lo, in_hi) with the pair ordered by site
    index, regardless of the order the qubits were listed on the gate."""
    u4 = gate_unitary(g).reshape(2, 2, 2, 2)
    if g.qubits[0] > g.qubits[1]:
        u4 = u4.transpose(1, 0, 3, 2)
    return u4


def _gate_op(g: Gate, side: str) -> Callable[[np.ndarray], np.ndarray]:
    """Map of a two-qubit gate on the (l, t1, b1, t2, b2, r) blob of its
    pair: G on the top legs (``side="left"``, G.M) or on the bottom legs
    (``side="right"``, M.G)."""
    u4 = _gate_tensor(g)  # (x, y, t, u): G[(x,y),(t,u)]
    if side == "left":
        def op(theta):  # (G.M): new tops x,y contract gate inputs with old tops
            return np.einsum("xytu,ltbuar->lxbyar", u4, theta)
    else:
        def op(theta):  # (M.G): old bottoms b,a are G's outputs; new bottoms x,y
            return np.einsum("ltbuar,baxy->ltxuyr", theta, u4)
    return op


def absorb_gate(
    m: MatrixProductOperator,
    g: Gate,
    side: str,
    epsilon: float,
    chi_max: int,
) -> MatrixProductOperator:
    """Contract a gate into the chain. ``side="left"`` multiplies on the top
    (output) legs so the result represents G.M; ``side="right"`` multiplies
    on the bottom legs giving M.G. Two-qubit gates must act on adjacent
    sites, and re-split their bond from its Schmidt values, which is the
    locally optimal truncation (:func:`_update_pair`). Single-qubit gates
    are a plain contraction with no SVD.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be left or right, got {side!r}")
    if len(g.qubits) == 1:
        q = g.qubits[0]
        sites = list(m.sites)
        sites[q] = _one_site(sites[q], g, side)
        # a unitary on one site's leg keeps the canonical form and every spectrum
        return MatrixProductOperator._derived(sites, m.log_norm, q, q + 1, m.spectra)
    return _update_pair(m, _pair_bond(g), _gate_op(g, side), epsilon, chi_max)


def _one_site(site: np.ndarray, g: Gate, side: str) -> np.ndarray:
    """A one-qubit gate contracted into one (l, t, b, r) site: on the top
    leg (``side="left"``, G.M) or on the bottom leg (``side="right"``, M.G)."""
    u = gate_unitary(g)
    if side == "left":
        return np.einsum("tk,lkbr->ltbr", u, site)
    return np.einsum("ltkr,kb->ltbr", site, u)


def _pair_bond(g: Gate) -> int:
    """The bond between the two adjacent sites of a two-qubit gate."""
    a, b = g.qubits
    if abs(a - b) != 1:
        raise ValueError(f"two-qubit gate on non-adjacent sites {g.qubits}")
    return min(a, b)


@dataclass(frozen=True)
class LayerSplit:
    """A layer of gates on disjoint sites split against one chain, before
    any site is written. ``chain`` is the start chain with its spectra;
    ``pairs`` maps the bond of each two-qubit gate to its pair blob and the
    kept factors s and V of its weighted blob's SVD; ``elements`` is the
    element count of the chain :func:`write_layer` builds from them."""

    chain: MatrixProductOperator
    gates: tuple[Gate, ...]
    side: str
    pairs: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]]
    elements: int


def split_layer(m: MatrixProductOperator, gates, side: str, epsilon: float,
                chi_max: int) -> LayerSplit:
    """Split every two-qubit gate of a layer against ``m`` at once. The
    gates act on disjoint sites, and each pair's split reads only its own
    two sites and the spectrum of the bond left of it, which no other gate
    of the layer touches. So the weighted blobs (:func:`_pair_blob`) of one
    shape are split by one SVD of their stack, whose factors are bit for
    bit those of each blob alone, and the stack's spectra are ranked as
    ``svd_truncate`` ranks one. One-qubit gates need no split; the write
    applies them. Raises as ``svd_truncate`` does on a non-finite or
    all-zero blob and when the SVD fails after its retry."""
    if side not in ("left", "right"):
        raise ValueError(f"side must be left or right, got {side!r}")
    gates = tuple(gates)
    touched = [q for g in gates for q in g.qubits]
    if len(set(touched)) != len(touched):
        raise ValueError("the gates of a layer must act on disjoint sites")
    m = _with_spectra(m)
    by_shape: dict[tuple[int, ...], list[tuple[int, np.ndarray, np.ndarray]]] = {}
    for g in gates:
        if g.is_two_qubit:
            b = _pair_bond(g)
            theta, weighted = _pair_blob(m, b, _gate_op(g, side))
            by_shape.setdefault(theta.shape, []).append((b, theta, weighted))
    pairs = {}
    dims = [1, *m.bond_dims(), 1]  # site i is (dims[i], 2, 2, dims[i + 1])
    for (l, *_), group in by_shape.items():
        stack = np.stack([weighted for _, _, weighted in group])
        _, s, v = svd_stack(stack.reshape(len(group), 4 * l, -1))
        for (b, theta, _), sb, vb, rank in zip(group, s, v,
                                               truncation_rank(s, epsilon, chi_max)):
            pairs[b] = (theta, sb[:rank], vb[:rank])
            dims[b + 1] = rank
    return LayerSplit(m, gates, side, pairs, 4 * sum(a * b for a, b in zip(dims, dims[1:])))


def write_layer(split: LayerSplit) -> MatrixProductOperator:
    """The chain with the split layer absorbed: each pair written from its
    kept factors as ``absorb_gate`` writes it, each one-qubit gate
    contracted into its site. Only the sites the layer touches are checked
    again."""
    m = split.chain
    sites = list(m.sites)
    spectra = list(m.spectra)
    for g in split.gates:
        if not g.is_two_qubit:
            q = g.qubits[0]
            sites[q] = _one_site(sites[q], g, split.side)
    for bond, (theta, s, v) in split.pairs.items():
        _write_pair(sites, spectra, bond, theta, s, v)
    touched = [q for g in split.gates for q in g.qubits]
    return MatrixProductOperator._derived(sites, m.log_norm, min(touched, default=0),
                                          max(touched, default=-1) + 1, spectra)


# axis orders of the (l, t1, b1, t2, b2, r) pair blob that exchange the top
# legs (left), the bottom legs (right) or both across the bond
SWAP_LEGS = {
    "left": (0, 3, 2, 1, 4, 5),
    "right": (0, 1, 4, 3, 2, 5),
    "both": (0, 3, 4, 1, 2, 5),
}


def apply_swap_boundary(
    m: MatrixProductOperator,
    bond: int,
    side: str,
    epsilon: float,
    chi_max: int,
) -> MatrixProductOperator:
    """Apply a SWAP on sites (bond, bond+1) to the top legs (``left``), the
    bottom legs (``right``), or both, then re-truncate that bond locally.
    """
    if side not in SWAP_LEGS:
        raise ValueError(f"side must be left, right or both, got {side!r}")
    if not (0 <= bond <= m.num_sites - 2):
        raise ValueError(f"bond {bond} out of range")
    axes = SWAP_LEGS[side]
    return _update_pair(m, bond, lambda theta: theta.transpose(axes), epsilon, chi_max)


def compress(
    m: MatrixProductOperator, epsilon: float, chi_max: int
) -> MatrixProductOperator:
    """Two-sided sweep: left-to-right orthogonalization from site 0, then
    right-to-left truncation at the relative cutoff. The chain comes back
    right-canonical (norm on site 0) with unit stored norm and the spectra
    of the truncation sweep; the scale moves to log_norm.
    """
    sites = list(m.sites)
    f, spectra = _truncate_sweep(sites, epsilon, chi_max)
    if f == 0.0:
        raise ValueError("compress reached an all-zero chain")
    sites[0] = sites[0] / f
    return MatrixProductOperator._derived(sites, m.log_norm + math.log(f), 0, len(sites),
                                          [s / f for s in spectra])


# --------------------------------------------------------------------------
# application to |0...0> and sampling
# --------------------------------------------------------------------------


def apply_to_zero(
    m: MatrixProductOperator, epsilon: float, chi_max: int
) -> MatrixProductState:
    """Select the all-zero input column of the operator, compress, and
    normalize; the state norm is recorded in log_norm. Raises if the column
    norm collapses relative to the operator's scale (catastrophic
    truncation upstream). The operator's scale is read from site 0 of its
    canonical form.
    """
    m = _with_spectra(m)
    mpo_scale = float(np.linalg.norm(m.sites[0]))
    sites = [s[:, :, 0, :] for s in m.sites]
    f, _ = _truncate_sweep(sites, epsilon, chi_max)
    expected = mpo_scale / (2 ** (len(sites) / 2))
    if f < 1e-12 * expected:
        raise ValueError(
            f"all-zero column norm {f:.3e} collapsed below 1e-12 of the expected "
            f"scale {expected:.3e}; upstream truncation destroyed the state"
        )
    sites[0] = sites[0] / f
    return MatrixProductState(tuple(sites), m.log_norm + math.log(f), 0)


def _right_canonicalize(psi: MatrixProductState) -> tuple[list[np.ndarray], float]:
    """Sites with the norm moved to site 0 (sites 1..n-1 right-isometric),
    and that norm. A state recorded with its norm on site 0 is taken as it
    is; any other is orthogonalized over the whole chain."""
    sites = list(psi.sites)
    if psi.center != 0:
        _orthogonalize(sites, 0)
    return sites, float(np.linalg.norm(sites[0]))


def _sample_bits(psi: MatrixProductState, shots: int, seed: int) -> np.ndarray:
    """Draw i.i.d. outcomes from |<x|psi>|^2 as a (shots, n) int8 array of
    0/1, column i holding qubit i.

    Sweeps the sites left to right, sampling each qubit conditioned on the
    previous ones. Shots that share a sampled prefix share one conditional
    environment row, so the contraction at each site costs one row per
    distinct prefix (a handful on a peaked state) rather than one per shot;
    every shot still draws its own uniform against its row's probability.
    While every shot sits on one row (a peaked state until its first
    uncertain qubit), each uniform is compared with that row's one
    probability and a single count tells whether the row splits; the
    shots' row indices stay 0 until it does.
    """
    if shots < 1:
        raise ValueError("shots must be positive")
    sites, norm = _right_canonicalize(psi)
    if abs(norm - 1.0) > 1e-6:
        raise ValueError(f"state is not normalized (stored norm {norm:.6g})")
    rng = np.random.default_rng(seed)
    n = len(sites)
    envs = np.ones((1, 1), dtype=np.complex128)  # one row per distinct prefix
    node = np.zeros(shots, dtype=np.intp)  # each shot's row in envs
    bits = np.empty((shots, n), dtype=np.int8)
    for i in range(n):
        amps = np.einsum("sl,lpr->spr", envs, sites[i])
        probs = np.sum(np.abs(amps) ** 2, axis=2)  # (rows, 2)
        totals = probs.sum(axis=1)
        p_one = probs[:, 1] / totals
        one_row = len(envs) == 1
        draw = rng.random(shots) < (p_one[0] if one_row else p_one[node])
        bits[:, i] = draw
        if one_row and np.count_nonzero(draw) in (0, shots):
            bit = int(draw[0])  # every shot takes this child, so stays on row 0
            envs = amps[:, bit] / np.sqrt(probs[:, bit])[:, None]
            continue
        # children are numbered 2*row + bit; keep the ones some shot reached
        child = 2 * node + draw
        reached = np.bincount(child, minlength=2 * len(envs)) > 0
        node = (np.cumsum(reached) - 1)[child]
        kept = np.flatnonzero(reached)
        chosen = amps.reshape(-1, amps.shape[2])[kept]
        chosen_p = probs.reshape(-1)[kept]
        envs = chosen / np.sqrt(chosen_p)[:, None]
    return bits


def sample(psi: MatrixProductState, shots: int, seed: int,
           mapping: tuple[int, ...] | None = None) -> list[str]:
    """Draw i.i.d. bitstrings from |<x|psi>|^2, qubit 0 leftmost. With a
    ``mapping``, the bit of qubit i is written at position mapping[i]."""
    bits = _sample_bits(psi, shots, seed)
    if mapping is not None:
        bits = bits[:, np.argsort(mapping)]
    # one newline-terminated line of ASCII digits per shot, cut by one split
    lines = np.empty((shots, bits.shape[1] + 1), dtype=np.uint8)
    np.add(bits, ord("0"), out=lines[:, :-1], casting="unsafe")
    lines[:, -1] = ord("\n")
    del bits  # each buffer is freed before the next copy is made
    text = lines.tobytes().decode("ascii")
    del lines
    strings = text.split("\n")
    strings.pop()  # the empty string after the last newline
    return strings


# --------------------------------------------------------------------------
# dense materialization (test bridge, small n only)
# --------------------------------------------------------------------------


def _dense_product(sites, log_norm: float) -> np.ndarray:
    """The sites contracted over their bonds left to right and scaled by
    ``exp(log_norm)``: one array whose axes are the sites' physical legs, in
    site order."""
    if len(sites) > DENSE_GUARD_QUBITS:
        raise ValueError(f"dense materialization capped at {DENSE_GUARD_QUBITS} sites")
    cur = sites[0][0]
    for s in sites[1:]:
        cur = np.tensordot(cur, s, axes=(-1, 0))
    return cur[..., 0] * math.exp(log_norm)


def mpo_to_dense(m: MatrixProductOperator) -> np.ndarray:
    """Exact 2**n x 2**n matrix, row/column indices little-endian in the
    qubit number (qubit 0 = least significant bit)."""
    n = m.num_sites
    cur = _dense_product(m.sites, m.log_norm)  # axes: t0, b0, t1, b1, ...
    tops = [2 * i for i in range(n)]
    bots = [2 * i + 1 for i in range(n)]
    order = tops[::-1] + bots[::-1]
    return cur.transpose(order).reshape(2**n, 2**n)


def mps_to_dense(psi: MatrixProductState) -> np.ndarray:
    """Exact 2**n amplitude vector, little-endian in the qubit number."""
    cur = _dense_product(psi.sites, psi.log_norm)  # axes: p0, p1, ...
    return cur.transpose(tuple(range(psi.num_sites))[::-1]).reshape(-1)
