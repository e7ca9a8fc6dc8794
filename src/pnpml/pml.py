"""Extended transport coefficients on the layered domain, the exponential
extension of solutions into the layer, and the boundary reflection rule.

The inner coefficients are extended by a purely absorbing, non-scattering,
source-free layer of absorption ``a``.  The reflection rule at the outer
boundary maps the outgoing value at (r, -s) to the inflow value at (r, s)
with factor (s.n + 1)/(s.n - 1), whose magnitude never exceeds one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from pnpml.angular import kernel_coefficients
from pnpml.mesh import INTERIOR, LAYER, GeometrySpec, Mesh2D, ray_exit_distance

__all__ = [
    "TransportCoefficients",
    "ModelError",
    "extend_coefficients",
    "extension_apply",
    "reflect",
    "reflect_factor",
]


class ModelError(ValueError):
    """Raised when input data violate the structural model assumptions."""


@dataclass
class TransportCoefficients:
    """Per-triangle coefficients on the extended mesh.

    ``sigma`` holds scattering eigenvalues per triangle and degree (columns
    0..K-1); degrees beyond the table have eigenvalue zero.  Scattering and
    source vanish on LAYER triangles by construction.
    """

    mu: np.ndarray      # (nt,) absorption, = a on the layer
    sigma: np.ndarray   # (nt, K) scattering eigenvalues, zero rows on the layer
    source: np.ndarray  # (nt,) isotropic source density, zero on the layer
    a: float            # layer absorption

    def collision(self, order: int) -> np.ndarray:
        """The P_N collision weights w[:, l] = mu - sigma_l for l = 0..order,
        shape (n_triangles, order + 1); sigma_l = 0 beyond the kernel list."""
        w = np.repeat(self.mu[:, None], order + 1, axis=1)
        w[:, :self.sigma.shape[1]] -= self.sigma[:, :order + 1]
        return w

    @property
    def gamma(self) -> float:
        """Min over triangles and degrees of mu - sigma_l."""
        return float(self.collision(self.sigma.shape[1]).min())

    @property
    def big_gamma(self) -> float:
        """Max over triangles of mu."""
        return float(self.mu.max())

    @property
    def a5_satisfied(self) -> bool:
        """Uniform coercivity of the collision operator."""
        return self.gamma > 0


def _sample(value, points: np.ndarray) -> np.ndarray:
    if callable(value):
        out = np.asarray(value(points), dtype=float)
        if out.shape != (points.shape[0],):
            raise ModelError("coefficient callables must return one value per point")
        return out
    return np.full(points.shape[0], float(value))


def extend_coefficients(mesh: Mesh2D, mu, kernel, source, a: float) -> TransportCoefficients:
    """Sample the inner-region data at triangle centroids and extend them by
    the absorbing layer (absorption ``a``, no scattering, no source).

    ``kernel`` is a Legendre eigenvalue list (scalar = isotropic), or a
    callable returning the isotropic eigenvalue per point.
    """
    if not (np.isfinite(a) and a >= 0):
        raise ModelError(f"layer absorption must be nonnegative and finite, got {a}")
    cent = mesh.centroids
    interior = mesh.tags == INTERIOR

    mu_tri = _sample(mu, cent)
    if np.any(mu_tri < 0) or np.any(~np.isfinite(mu_tri)):
        raise ModelError("absorption must be nonnegative and bounded")

    if callable(kernel):
        sig0 = _sample(kernel, cent)
        if np.any(sig0 < 0) or np.any(~np.isfinite(sig0)):
            raise ModelError("scattering kernel must be nonnegative and finite")
        sigma = sig0[:, None].copy()
    else:
        try:
            coeffs = kernel_coefficients(kernel)
        except ValueError as exc:
            raise ModelError(str(exc)) from exc
        if coeffs.size == 0:
            raise ModelError("scattering kernel needs at least one Legendre coefficient")
        sigma = np.tile(coeffs, (mesh.n_triangles, 1))

    src = _sample(source, cent)
    if np.any(~np.isfinite(src)):
        raise ModelError("source must be finite")

    mu_tri = np.where(interior, mu_tri, a)
    sigma[~interior, :] = 0.0
    src = np.where(interior, src, 0.0)

    if np.any(sigma[interior, 0] > mu_tri[interior] + 1e-12):
        raise ModelError("subcriticality violated: sigma_0 must not exceed mu")

    return TransportCoefficients(mu=mu_tri, sigma=sigma, source=src, a=float(a))


def extension_apply(spec: GeometrySpec, a: float, u_boundary_trace, r, s) -> float:
    """Value of the exponentially extended solution at a layer point (r, s)
    for layer absorption ``a``: e^{-a * travel} times the outgoing trace at
    the inner-boundary hit point, or zero when the backward ray misses the
    inner region."""
    dist = ray_exit_distance(spec, r, s)
    if not np.isfinite(dist):
        return 0.0
    s = np.asarray(s, dtype=float)
    r = np.asarray(r, dtype=float)
    hit = r - dist * s[:2]
    return float(np.exp(-a * dist) * u_boundary_trace(hit, s))


def reflect_factor(s_dot_n) -> np.ndarray | float:
    """Reflection gain (s.n + 1)/(s.n - 1) for inflow incidences in [-1, 0)."""
    sn = np.asarray(s_dot_n, dtype=float)
    if np.any(sn >= 0.0) or np.any(sn < -1.0 - 1e-12):
        raise ValueError("reflection requires inflow incidence s.n in [-1, 0)")
    out = (sn + 1.0) / (sn - 1.0)
    return out if out.ndim else float(out)


def reflect(g_outgoing, s_dot_n):
    """Inflow value produced by the outgoing value at the opposite direction."""
    return reflect_factor(s_dot_n) * g_outgoing
