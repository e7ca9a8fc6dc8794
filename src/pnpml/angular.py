"""Real spherical harmonics, sphere quadrature, and angular coupling data.

The angular discretization splits spherical harmonics by parity: harmonics of
even degree span the "even" space, odd degree the "odd" space.  Direction
multiplication s_i * Y couples the two spaces through sparse transfer matrices
that are computed here by quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.special import eval_legendre, gammaln, lpmv, roots_legendre

__all__ = [
    "AngularBasis",
    "SphereQuadrature",
    "AngularCouplings",
    "real_sph_harm",
    "build_basis",
    "degree_groups",
    "sphere_quadrature",
    "quadrature_for_order",
    "coupling_matrices",
    "scattering_eigenvalues",
    "kernel_coefficients",
    "kernel_function",
]

# the largest truncation order build_basis accepts; angular setup grows about
# as N^4.5 (0.37 s at N = 27), so a mistyped order fails before any table
MAX_ORDER = 31


def real_sph_harm(l: int, m: int, s) -> np.ndarray | float:
    """Evaluate the real, L2(S^2)-orthonormal spherical harmonic of degree l,
    order m at unit direction(s) ``s`` (shape (..., 3)).

    Convention: no Condon-Shortley phase; m > 0 are cosine modes, m < 0 sine
    modes.  Parity is Y(-s) = (-1)^l Y(s).
    """
    if l < 0 or abs(m) > l:
        raise ValueError(f"invalid spherical harmonic indices (l={l}, m={m})")
    s = np.asarray(s, dtype=float)
    if s.shape[-1] != 3:
        raise ValueError("directions must have 3 components")
    norms = np.sqrt(np.sum(s * s, axis=-1))
    if not np.all(np.abs(norms - 1.0) <= 1e-12):
        raise ValueError("directions must be unit vectors (|s| = 1 within 1e-12)")

    am = abs(m)
    ct = np.clip(s[..., 2], -1.0, 1.0)
    phi = np.arctan2(s[..., 1], s[..., 0])

    # orthonormal normalization; log-gamma keeps factorial ratios stable
    lognorm = 0.5 * (np.log(2 * l + 1) - np.log(4 * np.pi)
                     + gammaln(l - am + 1) - gammaln(l + am + 1))
    # scipy's lpmv carries the Condon-Shortley phase; strip it
    plm = (-1.0) ** am * lpmv(am, l, ct)
    val = np.exp(lognorm) * plm
    if m > 0:
        val = np.sqrt(2.0) * val * np.cos(am * phi)
    elif m < 0:
        val = np.sqrt(2.0) * val * np.sin(am * phi)
    return val if val.ndim else float(val)


@dataclass(frozen=True)
class AngularBasis:
    """Index sets of the parity-split spherical-harmonic basis of order N."""

    order: int
    even_indices: tuple[tuple[int, int], ...]
    odd_indices: tuple[tuple[int, int], ...]

    @property
    def n_plus(self) -> int:
        return len(self.even_indices)

    @property
    def n_minus(self) -> int:
        return len(self.odd_indices)

    def even_degrees(self) -> np.ndarray:
        """Degree l of each even basis function."""
        return np.array([l for l, _ in self.even_indices], dtype=int)

    def odd_degrees(self) -> np.ndarray:
        return np.array([l for l, _ in self.odd_indices], dtype=int)

    def z_even(self) -> "AngularBasis":
        """The same-order basis restricted to the modes with l + |m| even,
        i.e. the harmonics unchanged by the reflection s_z -> -s_z.

        T_x and T_y never couple this class to its complement, so for
        z-invariant problems each class is an independent system."""
        return self._z_class(0)

    def z_odd(self) -> "AngularBasis":
        """The complement of :meth:`z_even`: modes with l + |m| odd."""
        return self._z_class(1)

    def positions(self, sub: "AngularBasis") -> tuple[np.ndarray, np.ndarray]:
        """Positions in this basis of the even and of the odd modes of a
        sub-basis such as :meth:`z_even`."""
        return (_positions(self.even_indices, sub.even_indices),
                _positions(self.odd_indices, sub.odd_indices))

    def _z_class(self, parity: int) -> "AngularBasis":
        keep = lambda idx: tuple((l, m) for l, m in idx if (l + abs(m)) % 2 == parity)
        return AngularBasis(order=self.order, even_indices=keep(self.even_indices),
                            odd_indices=keep(self.odd_indices))

    def evaluate_even(self, directions: np.ndarray) -> np.ndarray:
        """Table of even basis values, shape (n_dirs, n_plus)."""
        return np.column_stack([real_sph_harm(l, m, directions)
                                for l, m in self.even_indices])

    def evaluate_odd(self, directions: np.ndarray) -> np.ndarray:
        return np.column_stack([real_sph_harm(l, m, directions)
                                for l, m in self.odd_indices])


def _positions(full, sub) -> np.ndarray:
    where = {idx: k for k, idx in enumerate(full)}
    missing = [idx for idx in sub if idx not in where]
    if missing:
        raise ValueError(f"modes {missing} are not in the basis")
    return np.array([where[idx] for idx in sub], dtype=int)


def build_basis(N: int) -> AngularBasis:
    """Build the order-N basis index sets.  N must be odd (the parity-coupling
    property s * even ⊂ odd^3 requires it) and at most MAX_ORDER."""
    if N < 1 or N % 2 == 0:
        raise ValueError(f"unsupported truncation order N={N}: N must be odd and >= 1")
    if N > MAX_ORDER:
        raise ValueError(f"truncation order N={N} exceeds MAX_ORDER = {MAX_ORDER}")
    even = tuple((l, m) for l in range(0, N + 1, 2) for m in range(-l, l + 1))
    odd = tuple((l, m) for l in range(1, N + 1, 2) for m in range(-l, l + 1))
    return AngularBasis(order=N, even_indices=even, odd_indices=odd)


def degree_groups(degrees: np.ndarray) -> list[tuple[int, np.ndarray]]:
    """Positions of the modes of each degree, as (l, positions) pairs in
    increasing l.  Weights that depend only on the degree are applied once
    per group."""
    return [(int(l), np.flatnonzero(degrees == l)) for l in np.unique(degrees)]


@dataclass(frozen=True)
class SphereQuadrature:
    """Quadrature on the unit sphere: tensor Gauss-Legendre in the polar cosine
    times a uniform rule in azimuth.  Weights sum to 4*pi."""

    nodes: np.ndarray    # (n, 3) unit vectors
    weights: np.ndarray  # (n,) positive

    def __post_init__(self):
        object.__setattr__(self, "nodes", np.ascontiguousarray(self.nodes, dtype=float))
        object.__setattr__(self, "weights", np.ascontiguousarray(self.weights, dtype=float))

    def integrate(self, values: np.ndarray) -> np.ndarray | float:
        """Integrate sampled values (first axis = nodes) over the sphere."""
        return np.tensordot(self.weights, values, axes=(0, 0))


def sphere_quadrature(n_polar: int, n_azimuth: int) -> SphereQuadrature:
    """Product rule with ``n_polar`` Gauss points in cos(theta) and
    ``n_azimuth`` equispaced azimuths."""
    if n_polar < 1 or n_azimuth < 1:
        raise ValueError("quadrature orders must be positive")
    ct, wt = roots_legendre(n_polar)
    st = np.sqrt(1.0 - ct**2)
    phi = 2.0 * np.pi * np.arange(n_azimuth) / n_azimuth
    wphi = 2.0 * np.pi / n_azimuth

    cp, sp = np.cos(phi), np.sin(phi)
    nodes = np.empty((n_polar * n_azimuth, 3))
    nodes[:, 0] = np.outer(st, cp).ravel()
    nodes[:, 1] = np.outer(st, sp).ravel()
    nodes[:, 2] = np.outer(ct, np.ones(n_azimuth)).ravel()
    weights = np.outer(wt * wphi, np.ones(n_azimuth)).ravel()
    return SphereQuadrature(nodes=nodes, weights=weights)


def quadrature_for_order(N: int) -> SphereQuadrature:
    """Rule exact for all spherical-harmonic products up to total degree
    2N + 2 (Gauss order ceil((2N+3)/2) in polar, 2N+3 azimuths)."""
    return sphere_quadrature((2 * N + 3 + 1) // 2, 2 * N + 3)


# couplings below this magnitude are round-off of exact zeros
_DROP_TOL = 1e-12


@dataclass(frozen=True)
class AngularCouplings:
    """Transfer matrices (T_i)[o, e] = int_S s_i * Y_odd_o * Y_even_e ds."""

    t_x: csr_matrix
    t_y: csr_matrix
    t_z: csr_matrix

    def component(self, i: int) -> csr_matrix:
        return (self.t_x, self.t_y, self.t_z)[i]


def coupling_matrices(basis: AngularBasis, quad: SphereQuadrature) -> AngularCouplings:
    """Compute the direction-coupling matrices by quadrature.

    The quadrature must be exact to total degree 2N+2 so that, for odd N,
    s_i times any even basis function lies exactly in the odd span.
    """
    even_tab = basis.evaluate_even(quad.nodes)   # (n, n_plus)
    odd_tab = basis.evaluate_odd(quad.nodes)     # (n, n_minus)
    mats = []
    for i in range(3):
        weighted = odd_tab * (quad.weights * quad.nodes[:, i])[:, None]
        dense = weighted.T @ even_tab
        dense[np.abs(dense) < _DROP_TOL] = 0.0
        mats.append(csr_matrix(dense))
    return AngularCouplings(t_x=mats[0], t_y=mats[1], t_z=mats[2])


def _as_coeff_array(kernel) -> np.ndarray:
    coeffs = np.atleast_1d(np.asarray(kernel, dtype=float))
    if coeffs.ndim != 1:
        raise ValueError("kernel must be a scalar or a 1-d Legendre coefficient list")
    return coeffs


def kernel_function(kernel) -> "np.vectorize":
    """Reconstruct the scattering phase function k(t), t = s.s', from its
    eigenvalue list: k(t) = sum_l (2l+1)/(4 pi) * sigma_l * P_l(t)."""
    coeffs = _as_coeff_array(kernel)

    def k(t):
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        for l, c in enumerate(coeffs):
            out += (2 * l + 1) / (4.0 * np.pi) * c * eval_legendre(l, t)
        return out

    return k


def scattering_eigenvalues(kernel, basis: AngularBasis) -> dict[int, float]:
    """Eigenvalues sigma_l of the scattering operator for degrees l <= N.

    ``kernel`` is the truncated Legendre-eigenvalue list (a single number for
    an isotropic kernel, in which case sigma_0 equals the total scattering
    cross-section and all higher eigenvalues vanish).
    """
    coeffs = kernel_coefficients(kernel)
    return {l: float(coeffs[l]) if l < coeffs.size else 0.0
            for l in range(basis.order + 1)}


def kernel_coefficients(kernel) -> np.ndarray:
    """``kernel`` as a 1-d array, checked finite with a nonnegative phase function."""
    coeffs = _as_coeff_array(kernel)
    if np.any(~np.isfinite(coeffs)):
        raise ValueError("kernel coefficients must be finite")
    # nonnegativity of the reconstructed phase function, sampled on [-1, 1];
    # a 1% dip relative to the spherical mean is tolerated as truncation ripple
    if coeffs.size and np.any(coeffs != 0.0):
        t = np.linspace(-1.0, 1.0, 2001)
        kmin = kernel_function(coeffs)(t).min()
        if kmin < -0.01 * abs(coeffs[0]) / (4.0 * np.pi):
            raise ValueError(
                f"scattering kernel is negative (min {kmin:.3e}); "
                "nonnegativity of the phase function is required")
    return coeffs
