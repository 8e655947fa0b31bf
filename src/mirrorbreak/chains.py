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

Operators and states are one chain type that differs only in its physical
legs, with one gauge rule: a chain is kept right-canonical with its spectra,
so site 0 holds the norm, sites 1..n-1 are right-isometric, and ``spectra``
holds the Schmidt values of every internal bond (Vidal, PRL 91, 147902). The
spectrum of any operator pair (b, b+1) is then that of one blob, the pair's
sites contracted and weighted on their left leg by the spectrum of bond b-1
(:func:`_pair_blobs`), wherever the chain was last touched. Every two-qubit
update is a split of that blob by one kernel (``_split_pairs``) that needs
neither a center move nor an inverse spectrum (Hastings, J. Math. Phys. 50,
095207), and one-qubit gates leave every spectrum alone. Its unit of work is
a stack: the pairs whose bonds b-1, b and b+1 have the same extents are
contracted, operated on, weighted, split and ranked by one array operation
each. A layer is split a stack at a time (``split_layer``, then
``write_layer``; ``absorb_gate`` on one gate), and a swap or unswap's
re-truncation is the kernel on one bond (``_update_pair``). One contraction
applies the one-qubit gates on same-shape sites. A stack of one is a view of
its array, not a copy, and no gate tensor outlives the layer that built it.
``compress`` returns the spectra its truncation sweep finds, for either
type, and ``apply_to_zero`` is ``compress`` of the operator's all-zero input
column, so the state it returns carries its spectra. The spectra are the
only record of a chain's gauge: a chain without them (either public
constructor, ``move_center``) is in an unknown gauge, and is made canonical
by one exact sweep (``_with_spectra``) at its first update or draw.

Sampling reads a state with spectra as it is, and works by rows, not by
shots: shots that share a sampled prefix share one row, so its cost and
memory follow the distinct outcomes, and ``sample`` returns one string
object per distinct outcome, shared by every shot that drew it.

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
from typing import ClassVar, TypeVar

import numpy as np

from .circuit import Gate, gate_unitary
from .tensor import ZeroTensorError, check_cutoffs, svd_stack, svd_truncate, truncation_rank

DENSE_GUARD_QUBITS = 12
# identity_mpo puts the norm 2**(n/2) on site 0, whose square must stay a
# finite float: 2**1024 is past the largest one
MAX_SITES = 1023


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
class _Chain:
    """A chain of (bond, *physical, bond) site tensors; subclasses name the
    physical legs."""

    physical: ClassVar[tuple[int, ...]]
    sites: tuple[np.ndarray, ...]
    log_norm: float = 0.0
    # Schmidt values of each internal bond of the stored chain (without the
    # log_norm factor), set only by chain operations that keep the chain
    # right-canonical with its norm on site 0; None when the gauge is unknown
    spectra: tuple[np.ndarray, ...] | None = field(default=None, init=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "sites", tuple(self.sites))
        _check_sites(self.sites, self.physical, 0, len(self.sites))

    @classmethod
    def _derived(cls, sites, log_norm: float, lo: int, hi: int, spectra=None):
        """Chain whose sites outside [lo, hi) are those of an already
        validated chain; only the rewritten range is checked again."""
        m = object.__new__(cls)
        object.__setattr__(m, "sites", tuple(sites))
        object.__setattr__(m, "log_norm", log_norm)
        object.__setattr__(m, "spectra", None if spectra is None else tuple(spectra))
        _check_sites(m.sites, cls.physical, lo, hi)
        return m

    @property
    def num_sites(self) -> int:
        return len(self.sites)

    def bond_dims(self) -> tuple[int, ...]:
        """Extents of the N-1 internal bonds."""
        return tuple(s.shape[-1] for s in self.sites[:-1])


class MatrixProductOperator(_Chain):
    physical = (2, 2)  # top (output) and bottom (input) legs


class MatrixProductState(_Chain):
    physical = (2,)


def identity_mpo(n: int) -> MatrixProductOperator:
    """Identity operator with all bond extents 1, right-canonical with its
    spectra: sites 1..n-1 hold I/sqrt(2) and site 0 holds the whole
    Frobenius norm 2**(n/2), which is also every bond's one Schmidt value."""
    if n < 1:
        raise ValueError("need at least one site")
    if n > MAX_SITES:
        raise ValueError(f"at most {MAX_SITES} qubits are supported, got {n}: the identity "
                         f"chain's norm 2**(n/2) squared overflows a float past that")
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


_C = TypeVar("_C", bound=_Chain)


def _with_spectra(m: _C) -> _C:
    """``m`` itself when its spectra are known; else the same operator or
    state made right-canonical by one exact sweep (epsilon 0, no rank cap),
    with the spectra that sweep finds. The stored scale stays on site 0:
    unlike ``compress``, this does not normalize."""
    if m.spectra is not None:
        return m
    sites = list(m.sites)
    _, spectra = _truncate_sweep(sites, 0.0, sys.maxsize)
    return type(m)._derived(sites, m.log_norm, 0, len(sites), spectra)


def _stack(arrays: list[np.ndarray]) -> np.ndarray:
    """Same-shape arrays as one (k, ...) array; a single one as a view."""
    return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)


_NO_WEIGHT = np.ones(1)


def _pair_blobs(
    m: MatrixProductOperator,
    bonds: list[int],
    op: Callable[[np.ndarray], np.ndarray] | None,
) -> tuple[np.ndarray, np.ndarray]:
    """The (k, l, t1, b1, t2, b2, r) stack of the pair blobs of sites
    (b, b+1) of a chain with spectra, for k bonds b whose bonds b-1, b and
    b+1 have the same extents, with ``op`` applied to the stack (None:
    identity), and that stack with each blob's left leg weighted by the
    spectrum of bond b-1. One matmul contracts the pairs and one multiply
    weights them. Bond 0 takes no weight: its left leg is the chain's open
    end, and site 0 holds the norm. The sites left of a pair contract to an
    isometry times that spectrum and the sites right of it are
    right-isometric, so a weighted blob's singular values are the bond's
    Schmidt values after ``op``. Every split and rank of a pair goes
    through here: the splits through :func:`_split_pairs`, the unswap
    module's ranks directly."""
    sites, k = m.sites, len(bonds)
    l, _, _, c = sites[bonds[0]].shape
    r = sites[bonds[0] + 1].shape[3]
    theta = np.matmul(_stack([sites[b] for b in bonds]).reshape(k, 4 * l, c),
                      _stack([sites[b + 1] for b in bonds]).reshape(k, c, 4 * r))
    theta = theta.reshape(k, l, 2, 2, 2, 2, r)
    if op is not None:
        theta = op(theta)
    if bonds == [0]:
        return theta, theta
    # in a stack with other bonds, bond 0 takes weight 1: the complex
    # multiply keeps every finite entry but the sign of a zero, and the gate
    # einsum of a layer, the one op such stacks take, sums into +0.0
    weights = _stack([m.spectra[b - 1] if b else _NO_WEIGHT for b in bonds])
    return theta, weights.reshape(k, l, 1, 1, 1, 1, 1) * theta


def _split_pairs(m: MatrixProductOperator, bonds: list[int],
                 op: Callable[[np.ndarray], np.ndarray] | None, epsilon: float,
                 chi_max: int) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The one pair split: ``op`` (None: identity) on the stack of the pair
    blobs of ``bonds``, whose bonds b-1, b and b+1 have the same extents
    (:func:`_pair_blobs`), and each weighted blob's truncated SVD U.s.V, its
    bond's locally optimal truncation, by one stacked SVD and one ranking.
    Returns each pair's blob and its kept s and V. Raises as ``svd_stack``
    does; its callers have checked the cutoffs."""
    theta, weighted = _pair_blobs(m, bonds, op)
    _, s, v = svd_stack(weighted.reshape(len(bonds), 4 * theta.shape[1], -1))
    return [(theta_b, s_b[:rank], v_b[:rank])
            for theta_b, s_b, v_b, rank in zip(theta, s, v, truncation_rank(s, epsilon, chi_max))]


def _update_pair(
    m: MatrixProductOperator,
    bond: int,
    op: Callable[[np.ndarray], np.ndarray] | None,
    epsilon: float,
    chi_max: int,
) -> MatrixProductOperator:
    """:func:`_split_pairs` on the one bond (bond, bond+1), with ``op``
    taking the (1, l, t1, b1, t2, b2, r) stack of its blob, written by
    :func:`_write_pair`. No other site or spectrum changes, and the norm
    stays on site 0."""
    check_cutoffs(epsilon, chi_max)
    m = _with_spectra(m)
    [(theta, s, v)] = _split_pairs(m, [bond], op, epsilon, chi_max)
    sites = list(m.sites)
    spectra = list(m.spectra)
    _write_pair(sites, spectra, bond, theta, s, v)
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
    locally optimal truncation. Single-qubit gates are a plain contraction
    with no SVD. This is the layer kernel on a layer of one gate.
    """
    return write_layer(split_layer(m, (g,), side, epsilon, chi_max))


def _pair_bond(g: Gate) -> int:
    """The bond between the two adjacent sites of a two-qubit gate."""
    a, b = g.qubits
    if abs(a - b) != 1:
        raise ValueError(f"two-qubit gate on non-adjacent sites {g.qubits}")
    return min(a, b)


def _unitaries(gates: list[Gate]) -> np.ndarray:
    """The gates' unitaries as one (k, d, d) stack, in the gates' order."""
    return _stack([gate_unitary(g) for g in gates])


# a stack of gates contracted into a stack of (k, l, t1, b1, t2, b2, r) pair
# blobs, G[(x,y),(t,u)] with the pair ordered by site, or of (k, l, t, b, r)
# sites: on the top legs (G.M, the old tops are G's inputs) or on the bottom
# legs (M.G, the old bottoms are G's outputs)
_PAIR_GATE = {"left": "kxytu,kltbuar->klxbyar", "right": "kbaxy,kltbuar->kltxuyr"}
_SITE_GATE = {"left": "ktj,kljbr->kltbr", "right": "kjb,kltjr->kltbr"}


def _pair_gates(gates: list[Gate]) -> np.ndarray:
    """Two-qubit gates as a (k, out_lo, out_hi, in_lo, in_hi) stack, each
    pair ordered by site index whatever the order its qubits were listed."""
    u4 = _unitaries(gates).reshape(-1, 2, 2, 2, 2)
    flipped = [i for i, g in enumerate(gates) if g.qubits[0] > g.qubits[1]]
    if len(flipped) == len(gates):
        return u4.transpose(0, 2, 1, 4, 3)
    if flipped:
        u4[flipped] = u4[flipped].transpose(0, 2, 1, 4, 3)
    return u4


@dataclass(frozen=True)
class LayerSplit:
    """A layer of gates on disjoint sites split against one chain, before
    any site is written. ``chain`` is the start chain, with its spectra
    when the layer has a two-qubit gate; ``pairs`` maps the bond of each
    two-qubit gate to its pair blob and the kept factors s and V of its
    weighted blob's SVD; ``elements`` is the element count of the chain
    :func:`write_layer` builds from them."""

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
    of the layer touches. So the pairs whose bonds b-1, b and b+1 have the
    same extents form one stack, split by one :func:`_split_pairs` call
    whose ``op`` is one einsum of the stack's gates. One-qubit gates need
    no split; the write applies them. Raises on bad cutoffs, even for a
    layer that needs no split, and as ``_split_pairs`` does on a non-finite
    or all-zero blob and when the SVD fails after its retry."""
    if side not in ("left", "right"):
        raise ValueError(f"side must be left or right, got {side!r}")
    check_cutoffs(epsilon, chi_max)
    gates = tuple(gates)
    touched = [q for g in gates for q in g.qubits]
    if len(set(touched)) != len(touched):
        raise ValueError("the gates of a layer must act on disjoint sites")
    two = [(_pair_bond(g), g) for g in gates if g.is_two_qubit]
    if not two:
        return LayerSplit(m, gates, side, {}, total_elements(m))
    m = _with_spectra(m)
    dims = [1, *m.bond_dims(), 1]  # site i is (dims[i], 2, 2, dims[i + 1])
    stacks: dict[tuple[int, int, int], list[tuple[int, Gate]]] = {}
    for b, g in two:
        stacks.setdefault((dims[b], dims[b + 1], dims[b + 2]), []).append((b, g))
    pairs = {}
    for group in stacks.values():
        bonds = [b for b, _ in group]
        u4 = _pair_gates([g for _, g in group])
        split = _split_pairs(m, bonds, lambda t: np.einsum(_PAIR_GATE[side], u4, t),
                             epsilon, chi_max)
        for b, pair in zip(bonds, split):
            pairs[b] = pair
            dims[b + 1] = len(pair[1])
    return LayerSplit(m, gates, side, pairs, 4 * sum(a * b for a, b in zip(dims, dims[1:])))


def _write_sites(sites: list[np.ndarray], gates: list[Gate], side: str) -> None:
    """Contract one-qubit gates into their (l, t, b, r) sites, in place on
    the site list: on the top legs (``side="left"``, G.M) or on the bottom
    legs (``side="right"``, M.G), one einsum per stack of same-shape sites."""
    stacks: dict[tuple[int, ...], list[Gate]] = {}
    for g in gates:
        stacks.setdefault(sites[g.qubits[0]].shape, []).append(g)
    for group in stacks.values():
        qs = [g.qubits[0] for g in group]
        out = np.einsum(_SITE_GATE[side], _unitaries(group), _stack([sites[q] for q in qs]))
        for q, site in zip(qs, out):
            sites[q] = site


def write_layer(split: LayerSplit) -> MatrixProductOperator:
    """The chain with the split layer absorbed: each pair written from its
    kept factors as :func:`_update_pair` writes it, each one-qubit gate
    contracted into its site. Only the sites the layer touches are checked
    again; a one-qubit layer keeps the chain's spectra, known or not, since
    a unitary on one site's leg changes none."""
    m = split.chain
    sites = list(m.sites)
    ones = [g for g in split.gates if not g.is_two_qubit]
    if ones:
        _write_sites(sites, ones, split.side)
    spectra = m.spectra
    if split.pairs:
        spectra = list(spectra)
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
    axes = (0, *(a + 1 for a in SWAP_LEGS[side]))  # the stack axis stays first
    return _update_pair(m, bond, lambda theta: theta.transpose(axes), epsilon, chi_max)


def compress(m: _C, epsilon: float, chi_max: int) -> _C:
    """Two-sided sweep over an operator or a state, whatever its gauge:
    left-to-right orthogonalization from site 0, then right-to-left
    truncation at the relative cutoff. The chain comes back, of the same
    type, right-canonical (norm on site 0) with unit stored norm and the
    spectra of the truncation sweep; the scale moves to log_norm. Raises
    :class:`tensor.ZeroTensorError` on an all-zero chain.
    """
    check_cutoffs(epsilon, chi_max)
    sites = list(m.sites)
    f, spectra = _truncate_sweep(sites, epsilon, chi_max)
    if f == 0.0:
        raise ZeroTensorError("compress reached an all-zero chain")
    sites[0] = sites[0] / f
    return type(m)._derived(sites, m.log_norm + math.log(f), 0, len(sites),
                            [s / f for s in spectra])


# --------------------------------------------------------------------------
# application to |0...0> and sampling
# --------------------------------------------------------------------------


def apply_to_zero(
    m: MatrixProductOperator, epsilon: float, chi_max: int
) -> MatrixProductState:
    """The operator's all-zero input column as a state, through
    :func:`compress`: right-canonical with unit stored norm and the spectra
    of every bond, the column norm recorded in log_norm. Raises
    :class:`tensor.ZeroTensorError` if the column norm collapses relative
    to the operator's scale (catastrophic truncation upstream). The
    operator's scale is read from site 0 of its canonical form.
    """
    check_cutoffs(epsilon, chi_max)
    m = _with_spectra(m)
    mpo_scale = float(np.linalg.norm(m.sites[0]))
    psi = compress(MatrixProductState(tuple(s[:, :, 0, :] for s in m.sites), m.log_norm),
                   epsilon, chi_max)
    f = math.exp(psi.log_norm - m.log_norm)
    expected = mpo_scale / (2 ** (m.num_sites / 2))
    if f < 1e-12 * expected:
        raise ZeroTensorError(
            f"all-zero column norm {f:.3e} collapsed below 1e-12 of the expected "
            f"scale {expected:.3e}; upstream truncation destroyed the state"
        )
    return psi


def _sample_bits(psi: MatrixProductState, shots: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Draw i.i.d. outcomes from |<x|psi>|^2 by rows: each shot's row index
    ``node`` and a (rows, n) int8 array of each row's bits (column i holds
    qubit i), so shot k drew ``rows[node[k]]``.

    Reads the right-canonical sites of ``_with_spectra(psi)``: the state
    itself when it carries spectra (as ``apply_to_zero`` returns it), else
    the state after one exact sweep; the stored norm must be 1 either way.
    Sweeps the sites left to right, sampling each qubit conditioned on the
    previous ones. Shots that share a sampled prefix share one row (one
    conditional environment and one prefix of bits), so the work and memory
    per site follow the distinct prefixes (a handful on a peaked state), not
    the shots; every shot still draws its own uniform against its row's
    probability. While every shot sits on one row, the uniforms are compared
    with that row's one probability and a single count tells whether the
    row splits; the shots' row indices stay 0 until it does.
    """
    if shots < 1:
        raise ValueError("shots must be positive")
    sites = _with_spectra(psi).sites
    norm = float(np.linalg.norm(sites[0]))
    if abs(norm - 1.0) > 1e-6:
        raise ValueError(f"state is not normalized (stored norm {norm:.6g})")
    rng = np.random.default_rng(seed)
    n = len(sites)
    envs = np.ones((1, 1), dtype=np.complex128)  # one row per distinct prefix
    rows = np.zeros((1, n), dtype=np.int8)  # each row's bits
    node = np.zeros(shots, dtype=np.intp)  # each shot's row
    for i in range(n):
        amps = np.einsum("sl,lpr->spr", envs, sites[i])
        probs = np.sum(np.abs(amps) ** 2, axis=2)  # (rows, 2)
        totals = probs.sum(axis=1)
        p_one = probs[:, 1] / totals
        one_row = len(envs) == 1
        draw = rng.random(shots) < (p_one[0] if one_row else p_one[node])
        if one_row and np.count_nonzero(draw) in (0, shots):
            bit = int(draw[0])  # every shot takes this child, so stays on row 0
            rows[0, i] = bit
            envs = amps[:, bit] / np.sqrt(probs[:, bit])[:, None]
            continue
        # children are numbered 2*row + bit; keep the ones some shot reached
        child = 2 * node + draw
        reached = np.bincount(child, minlength=2 * len(envs)) > 0
        node = (np.cumsum(reached) - 1)[child]
        kept = np.flatnonzero(reached)
        rows = rows[kept // 2]
        rows[:, i] = kept % 2
        envs = amps.reshape(-1, amps.shape[2])[kept] / np.sqrt(probs.reshape(-1)[kept])[:, None]
    return node, rows


def sample(psi: MatrixProductState, shots: int, seed: int,
           mapping: tuple[int, ...] | None = None) -> list[str]:
    """Draw i.i.d. bitstrings from |<x|psi>|^2, qubit 0 leftmost. With a
    ``mapping``, the bit of qubit i is written at position mapping[i]. One
    string is built per distinct outcome (row), and every shot that drew it
    refers to that one object. A state without spectra is made canonical by
    one exact sweep first; one with them, as ``apply_to_zero`` returns it,
    is sampled as it is. Raises ValueError unless ``mapping`` is a
    permutation of the qubits."""
    if mapping is not None and sorted(mapping) != list(range(psi.num_sites)):
        raise ValueError(f"mapping {mapping} is not a permutation of {psi.num_sites} qubits")
    node, rows = _sample_bits(psi, shots, seed)
    if mapping is not None:
        rows = rows[:, np.argsort(mapping)]
    # one newline-terminated line of ASCII digits per row, cut by one split
    lines = np.empty((len(rows), rows.shape[1] + 1), dtype=np.uint8)
    np.add(rows, ord("0"), out=lines[:, :-1], casting="unsafe")
    lines[:, -1] = ord("\n")
    strings = lines.tobytes().decode("ascii").split("\n")[:-1]
    if len(strings) == 1:
        return strings * shots
    return np.array(strings, dtype=object)[node].tolist()


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
