"""Independent oracles used by the test suite.

Forms are represented here as dense fully antisymmetric tensors of shape
``(n,)*p`` (the library uses lex-ranked coefficient vectors and sign tables;
this file intentionally shares no code with it).  Conventions:

* for a strictly increasing multi-index ``I``, the tensor entry ``T[I-1]``
  equals the form coefficient ``g_I``; other entries follow by
  antisymmetry;
* the Euclidean pairing of two p-forms is ``(Ta * Tb).sum() / p!``;
* the wedge is the alternation of the outer product scaled by
  ``(p+q)! / (p! q!)``;
* contraction with a vector acts on the first slot with no extra factor.

The CSR weighted adjoint and the spectral harmonic rank at the end are the
exception: both are assembled from the library's own coboundaries and
masses.  The adjoint is the sparse-matrix reference whose products the
library's gathered adjoint keeps bit for bit; the rank counts the kernel
of the weighted cochain Laplacian, so it checks the library's
combinatorial Betti count by an independent method on the same complex.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from pconvex.discrete import CubicalComplex, coboundary, mass


def perm_sign(perm) -> int:
    inv = sum(1 for a in range(len(perm)) for b in range(a + 1, len(perm))
              if perm[a] > perm[b])
    return -1 if inv % 2 else 1


def lex_indices(n: int, p: int):
    return list(itertools.combinations(range(1, n + 1), p))


def t_zero(n: int, p: int) -> np.ndarray:
    return np.zeros((n,) * p)


def t_from_lex(n: int, p: int, coeffs) -> np.ndarray:
    """Dense antisymmetric tensor from lex-ordered increasing coefficients."""
    coeffs = np.asarray(coeffs, dtype=float)
    T = t_zero(n, p)
    for c, idx in zip(coeffs, lex_indices(n, p)):
        if c == 0.0:
            continue
        base = tuple(i - 1 for i in idx)
        for perm in itertools.permutations(range(p)):
            pos = tuple(base[q] for q in perm)
            T[pos] = perm_sign(perm) * c
    return T


def t_to_lex(n: int, p: int, T: np.ndarray) -> np.ndarray:
    return np.array([T[tuple(i - 1 for i in idx)] for idx in lex_indices(n, p)])


def t_alt(T: np.ndarray) -> np.ndarray:
    """Full antisymmetrization (average over signed permutations of slots)."""
    p = T.ndim
    out = np.zeros_like(T)
    for perm in itertools.permutations(range(p)):
        out += perm_sign(perm) * np.transpose(T, perm)
    return out / math.factorial(p)


def t_wedge(Ta: np.ndarray, Tb: np.ndarray) -> np.ndarray:
    p, q = Ta.ndim, Tb.ndim
    outer = np.multiply.outer(Ta, Tb)
    scale = math.factorial(p + q) / (math.factorial(p) * math.factorial(q))
    return t_alt(outer) * scale


def t_interior(v: np.ndarray, T: np.ndarray) -> np.ndarray:
    return np.tensordot(np.asarray(v, dtype=float), T, axes=(0, 0))


def t_inner(Ta: np.ndarray, Tb: np.ndarray) -> float:
    p = Ta.ndim
    return float((Ta * Tb).sum() / math.factorial(p))


def t_quadform_apply(theta: np.ndarray, T: np.ndarray, n: int) -> np.ndarray:
    """sum_{j,k} theta[j,k] * omega^k ^ (e_j _| T), all via oracle ops."""
    p = T.ndim
    out = t_zero(n, p)
    for j in range(n):
        ej = np.zeros(n)
        ej[j] = 1.0
        contracted = t_interior(ej, T)
        for k in range(n):
            if theta[j, k] == 0.0:
                continue
            wk = np.zeros(n)
            wk[k] = 1.0
            out = out + theta[j, k] * t_wedge(wk, contracted)
    return out


def t_quadform_matrix(theta: np.ndarray, n: int, p: int) -> np.ndarray:
    """Dense matrix of the induced operator, assembled entirely via oracle ops."""
    m = len(lex_indices(n, p))
    M = np.zeros((m, m))
    for r in range(m):
        e = np.zeros(m)
        e[r] = 1.0
        M[:, r] = t_to_lex(n, p, t_quadform_apply(theta, t_from_lex(n, p, e), n))
    return M


def scatter_induced_matrices(thetas: np.ndarray, p: int) -> np.ndarray:
    """Induced matrices of the symmetric stack ``thetas`` (m, n, n) as one
    sparse product: a CSR map from theta's n² entries (row-major) to the
    C(n,p)² entries of its induced matrix.  Entry ``(K+k, K+j)`` gains
    ``sgn(k,K) sgn(j,K) theta[k,j]`` for each (p-1)-index K avoiding j and
    k, with ``sgn(k,K) = (-1)^#{i in K : i < k}``.  The CSR's canonical
    form adds the terms of an entry in ascending source order."""
    m, n = thetas.shape[:2]
    idx = lex_indices(n, p)
    d = len(idx)
    if p == 0:
        return np.zeros((m, d, d))
    rank = {I: r for r, I in enumerate(idx)}
    rows, cols, data = [], [], []
    for K in lex_indices(n, p - 1):
        free = [k for k in range(1, n + 1) if k not in K]
        for k, j in itertools.product(free, free):
            sign = (-1) ** sum(i < k for i in K) * (-1) ** sum(i < j for i in K)
            rows.append(rank[tuple(sorted(K + (k,)))] * d
                        + rank[tuple(sorted(K + (j,)))])
            cols.append((k - 1) * n + j - 1)
            data.append(float(sign))
    scatter = sp.csr_matrix((data, (rows, cols)), shape=(d * d, n * n))
    return (scatter @ thetas.reshape(m, n * n).T).T.reshape(m, d, d)


def fd_jet(f, x: np.ndarray, h: float = 1e-5):
    """Central-difference value/gradient/Hessian oracle for a scalar callable."""
    x = np.asarray(x, dtype=float)
    n = x.size
    val = f(x)
    grad = np.zeros(n)
    hess = np.zeros((n, n))
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = h
        grad[i] = (f(x + ei) - f(x - ei)) / (2 * h)
        hess[i, i] = (f(x + ei) - 2 * val + f(x - ei)) / h**2
    for i in range(n):
        for j in range(i + 1, n):
            ei = np.zeros(n)
            ej = np.zeros(n)
            ei[i] = h
            ej[j] = h
            hess[i, j] = hess[j, i] = (
                f(x + ei + ej) - f(x + ei - ej) - f(x - ei + ej) + f(x - ei - ej)
            ) / (4 * h**2)
    return val, grad, hess


def dense_min_norm(D: np.ndarray, msrc: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Minimum-``msrc``-norm least-squares solution of ``D u = f``.

    ``msrc`` is the diagonal of the source-side mass matrix.  Substituting
    ``w = sqrt(msrc) u`` turns the problem into a plain minimum-norm least
    squares solve, which ``numpy.linalg.lstsq`` returns exactly.
    """
    root = np.sqrt(msrc)
    B = D / root[None, :]
    w, *_ = np.linalg.lstsq(B, f, rcond=None)
    return w / root


def _facets(anchor, axes):
    """The facets of a cell ``(anchor, axes)``: for each spanned axis in
    order, the back facet at ``anchor`` and the front one a step along it."""
    out = []
    for a in axes:
        sub = tuple(b for b in axes if b != a)
        out += [(anchor, sub),
                (tuple(v + (i == a) for i, v in enumerate(anchor)), sub)]
    return out


def reference_complex(dom):
    """Per-cell reference of ``build_complex``: tuple cells, dict indices
    and coboundaries, built one cell at a time.

    Cells are pairs ``(anchor, axes)``, listed by axes combination, then by
    anchor in C order.  A cell is listed iff every facet was listed and its
    barycenter satisfies ``r < 0``, with ``r`` evaluated at one point at a
    time.  Returns ``(cells, index, cob)``: per degree the list of cells and
    the dict from cell to row, and per degree p the coboundary matrix from
    p-cells to (p+1)-cells, its columns looked up in the dicts.
    """
    n, s = dom.n, dom.spacings
    lo = [a for a, _ in dom.box]
    cells, index = [], []
    for p in range(n + 1):
        lvl = []
        for axes in itertools.combinations(range(n), p):
            ranges = [range(m if i in axes else m + 1)
                      for i, m in enumerate(dom.counts)]
            for anchor in itertools.product(*ranges):
                if not all(f in index[p - 1] for f in _facets(anchor, axes)):
                    continue
                x = np.array([lo[i] + anchor[i] * s[i]
                              + (0.5 * s[i] if i in axes else 0.0)
                              for i in range(n)])
                if dom.r is None or dom.r.value(x) < 0.0:
                    lvl.append((anchor, axes))
        cells.append(lvl)
        index.append({c: i for i, c in enumerate(lvl)})
    cob = []
    for p in range(n):
        rows, cols, data = [], [], []
        for row, cell in enumerate(cells[p + 1]):
            facets = _facets(*cell)
            for j, (back, front) in enumerate(zip(facets[::2], facets[1::2])):
                sign = 1 if j % 2 == 0 else -1
                rows += [row, row]
                cols += [index[p][front], index[p][back]]
                data += [sign, -sign]
        cob.append(sp.csr_matrix(
            (np.array(data, dtype=np.int64), (rows, cols)),
            shape=(len(cells[p + 1]), len(cells[p]))))
    return cells, index, cob


def reference_node_components(dom, cells, index, p: int,
                              values: np.ndarray) -> np.ndarray:
    """Per-node lex-ordered components of a p-cochain on the cells of
    :func:`reference_complex`: each cell's value over its spanned volume is
    averaged onto its corner nodes, one cell and one corner at a time."""
    rank = {axes: k for k, axes in
            enumerate(itertools.combinations(range(dom.n), p))}
    G = np.zeros((len(cells[0]), len(rank)))
    hits = np.zeros_like(G)
    for i, (anchor, axes) in enumerate(cells[p]):
        vol = 1.0
        for a in axes:
            vol *= dom.spacings[a]
        k = rank[axes]
        for pick in itertools.product((0, 1), repeat=p):
            node = list(anchor)
            for j, a in enumerate(axes):
                node[a] += pick[j]
            row = index[0][(tuple(node), ())]
            G[row, k] += values[i] / vol
            hits[row, k] += 1.0
    np.divide(G, hits, out=G, where=hits > 0)
    return G


# ---------------------------------------------------------------------------
# harmonic ranks from the spectrum of the weighted Laplacian
# ---------------------------------------------------------------------------

class GapAmbiguous(RuntimeError):
    """No clear spectral gap separates the near-zero eigenvalue cluster."""


@dataclass(frozen=True)
class SpectralReport:
    """Dimension and basis of the weighted harmonic space in one degree."""

    p: int
    rank: int
    basis: np.ndarray        # columns are harmonic cochains, M-orthonormal
    eigenvalues: np.ndarray  # the head inspected: 6 from one symmetric
                             # shift-invert factor, n_eigs if 6 were harmonic
    floor: float             # floor_factor times the largest |row sum|


def weighted_adjoint_csr(cx: CubicalComplex, phi, p: int) -> sp.csr_matrix:
    """The weighted adjoint ``M_{p-1}⁻¹ dᵀ M_p`` as the CSR product
    ``diags(1/m_{p−1}) @ d_{p−1}ᵀ @ diags(m_p)``."""
    if not 1 <= p <= cx.n:
        raise ValueError(f"degree must satisfy 1 <= p <= {cx.n}, got {p}")
    a, b = 1.0 / mass(cx, phi, p - 1).diag, mass(cx, phi, p).diag
    return sp.csr_matrix(sp.diags(a) @ coboundary(cx, p - 1).T.astype(
        np.float64) @ sp.diags(b))


def laplacian_matrix(cx: CubicalComplex, phi, p: int) -> Tuple[sp.csr_matrix,
                                                               np.ndarray]:
    """Symmetrized weighted Laplacian on p-cochains: similar to
    ``dδ + δd`` via conjugation with ``sqrt(M_p)``."""
    m_p = mass(cx, phi, p).diag
    w = np.sqrt(m_p)
    n_p = cx.num_cells(p)
    lap = sp.csr_matrix((n_p, n_p))
    if p < cx.n:
        d = coboundary(cx, p).astype(np.float64) @ sp.diags(1.0 / w)
        lap = lap + d.T @ sp.diags(mass(cx, phi, p + 1).diag) @ d
    if p > 0:
        d = coboundary(cx, p - 1).astype(np.float64)
        inner = d @ sp.diags(1.0 / mass(cx, phi, p - 1).diag) @ d.T
        lap = lap + sp.diags(w) @ inner @ sp.diags(w)
    lap = (lap + lap.T) * 0.5
    return lap.tocsr(), w


def spectral_rank(cx: CubicalComplex, p: int, phi=0.0, *,
                  n_eigs: int = 30, floor_factor: float = 1e-7,
                  check_weights: Sequence = ()) -> SpectralReport:
    """Dimension of the degree-p harmonic space (the p-th Betti number).

    Counts eigenvalues of the weighted cochain Laplacian below
    ``floor_factor`` times its largest absolute row sum; any eigenvalue in
    the ambiguity band between the floor and ten times the floor raises
    :class:`GapAmbiguous` rather than guessing.  The head comes from
    shift-invert Lanczos on one symmetric factor from a fixed start vector:
    six eigenvalues, grown to ``n_eigs`` when all six are harmonic, or the
    dense spectrum with at most ``2·n_eigs`` cells.  ``check_weights``
    re-runs the count under alternative weights and demands the same rank
    (the harmonic dimension is a topological invariant; the basis is not).
    """
    if not 0 <= p <= cx.n:
        raise ValueError(f"degree must satisfy 0 <= p <= {cx.n}")
    lap, w = laplacian_matrix(cx, phi, p)
    n_p = lap.shape[0]
    scale = float(abs(lap).sum(axis=1).max()) if n_p else 0.0
    floor = floor_factor * max(scale, 1e-300)
    if n_p <= 2 * n_eigs:
        eigvals, eigvecs = np.linalg.eigh(lap.toarray())
    else:
        shift = -1e-3 * float(lap.diagonal().max())
        lu = spla.splu((lap - shift * sp.identity(n_p)).tocsc(),
                       permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                       options={"SymmetricMode": True})
        op_inv = spla.LinearOperator(lap.shape, lu.solve, dtype=np.float64)
        v0 = np.random.default_rng(0).standard_normal(n_p)
        for k in sorted({min(6, n_eigs, n_p - 2), min(n_eigs, n_p - 2)}):
            eigvals, eigvecs = spla.eigsh(lap, k=k, sigma=shift, which="LM",
                                          OPinv=op_inv, v0=v0)
            if eigvals.max() > floor:
                break
        order = np.argsort(eigvals)
        eigvals, eigvecs = eigvals[order], eigvecs[:, order]
    in_band = (eigvals > floor) & (eigvals < 10.0 * floor)
    if np.any(in_band):
        raise GapAmbiguous(
            f"eigenvalue {float(eigvals[in_band][0]):.3e} sits in the "
            f"ambiguity band ({floor:.3e}, {10.0 * floor:.3e}); "
            "no clear spectral gap")
    tiny = eigvals <= floor
    rank = int(tiny.sum())
    if rank == eigvals.size < n_p:
        raise GapAmbiguous(
            "every computed eigenvalue is below the floor; raise n_eigs")
    basis = eigvecs[:, tiny] / w[:, None]
    report = SpectralReport(p=p, rank=rank, basis=basis,
                            eigenvalues=eigvals[:n_eigs], floor=floor)
    for other in check_weights:
        alt = spectral_rank(cx, p, other, n_eigs=n_eigs,
                            floor_factor=floor_factor)
        if alt.rank != rank:
            raise GapAmbiguous(
                f"harmonic rank changed under reweighting: {rank} vs "
                f"{alt.rank}; spectral split is not trustworthy")
    return report
