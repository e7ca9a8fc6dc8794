"""Assembly of the mixed discrete system.

Unknowns are tensor-product fields: the even component lives on P1 vertices
times the even angular modes, the odd component on P0 triangles times the odd
modes.  The four system blocks are

  M: block-diagonal over even modes, P1 mass weighted by (mu - sigma_l)
  R: the P1 boundary mass on the outer boundary, identical for every mode
  B: sum over i in {x, y} of (P1 -> P0 directional stiffness) kron T_i
  C: diagonal, |T| * (mu_T - sigma_l) per (triangle, odd mode)

All operator applications are matrix-free over the Kronecker factors; explicit
sparse assembly exists for small-instance verification only.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix, diags, identity, kron

from pnpml.angular import AngularBasis, AngularCouplings, degree_groups, quadrature_for_order
from pnpml.mesh import INTERIOR, Mesh2D, boundary_mass_matrix
from pnpml.pml import TransportCoefficients

__all__ = [
    "Field",
    "BlockOperator",
    "assemble_even_mass",
    "assemble_odd_diag",
    "project_source",
    "build_operator",
    "explicit_matrices",
    "p1_mass",
    "even_l2_norm2",
    "odd_l2_norm2",
    "transport_seminorm2",
]

_LOCAL_MASS = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0


@dataclass
class Field:
    """Coefficient pair: even (n_vertices, n_plus), odd (n_triangles, n_minus)."""

    even: np.ndarray
    odd: np.ndarray

    @staticmethod
    def zeros(mesh: Mesh2D, basis: AngularBasis) -> "Field":
        return Field(np.zeros((mesh.n_vertices, basis.n_plus)),
                     np.zeros((mesh.n_triangles, basis.n_minus)))


def p1_mass(mesh: Mesh2D, weight: np.ndarray | None = None,
            triangles: np.ndarray | None = None) -> csr_matrix:
    """Exact P1 mass matrix with a piecewise-constant weight, optionally
    restricted to a subset of triangles."""
    tri_ids = np.arange(mesh.n_triangles) if triangles is None else triangles
    tris = mesh.triangles[tri_ids]
    areas = mesh.areas[tri_ids]
    w = areas if weight is None else areas * weight[tri_ids]

    local = _LOCAL_MASS.ravel()
    rows = np.repeat(tris, 3, axis=1).ravel()
    cols = np.tile(tris, (1, 3)).ravel()
    vals = np.outer(w, local).ravel()
    nv = mesh.n_vertices
    return csr_matrix((vals, (rows, cols)), shape=(nv, nv))


def assemble_even_mass(mesh: Mesh2D, coeffs: TransportCoefficients,
                       basis: AngularBasis) -> dict[int, csr_matrix]:
    """One weighted P1 mass block per even degree; the block of mode (l, m)
    depends on l only."""
    if coeffs.gamma <= 0:
        warnings.warn("collision coercivity gamma <= 0: the even mass block "
                      "may be singular", stacklevel=2)
    blocks = {}
    for l, _ in degree_groups(basis.even_degrees()):
        weight = coeffs.mu - coeffs.sigma_for_degree(l)
        blocks[l] = p1_mass(mesh, weight=weight)
    return blocks


def gradient_matrices(mesh: Mesh2D) -> tuple[csr_matrix, csr_matrix]:
    """Sparse (n_triangles, n_vertices) maps with entries |T| * d_i(phi_j):
    integrals of P1 gradients against the P0 indicator of each triangle."""
    a, b, c = mesh.corner_coords()
    # integral of the gradient over T: (y_j - y_k)/2 and (x_k - x_j)/2, cyclic
    gx = 0.5 * np.column_stack([b[:, 1] - c[:, 1], c[:, 1] - a[:, 1], a[:, 1] - b[:, 1]])
    gy = 0.5 * np.column_stack([c[:, 0] - b[:, 0], a[:, 0] - c[:, 0], b[:, 0] - a[:, 0]])
    rows = np.repeat(np.arange(mesh.n_triangles), 3)
    cols = mesh.triangles.ravel()
    shape = (mesh.n_triangles, mesh.n_vertices)
    g_x = csr_matrix((gx.ravel(), (rows, cols)), shape=shape)
    g_y = csr_matrix((gy.ravel(), (rows, cols)), shape=shape)
    return g_x, g_y


def assemble_odd_diag(mesh: Mesh2D, coeffs: TransportCoefficients,
                      basis: AngularBasis) -> np.ndarray:
    """Diagonal of the odd collision block, shape (n_triangles, n_minus)."""
    odd_l = basis.odd_degrees()
    weights = np.column_stack([coeffs.mu - coeffs.sigma_for_degree(int(l)) for l in odd_l])
    c = mesh.areas[:, None] * weights
    if coeffs.gamma > 0 and np.any(c <= 0):
        raise RuntimeError("internal error: nonpositive odd-block entry despite gamma > 0")
    return c


@dataclass
class BlockOperator:
    """Matrix-free representation of the four system blocks."""

    mesh: Mesh2D
    basis: AngularBasis
    mass_blocks: dict[int, csr_matrix]
    boundary: csr_matrix
    g_x: csr_matrix
    g_y: csr_matrix
    t_x: csr_matrix
    t_y: csr_matrix
    c_diag: np.ndarray  # (nt, n_minus)

    def __post_init__(self):
        self.mode_groups = degree_groups(self.basis.even_degrees())
        # CSR .T is a CSC view of the same arrays: no copy, built once
        self._transposed = (self.g_x.T, self.g_y.T, self.t_x.T, self.t_y.T)

    @property
    def n_even(self) -> int:
        return self.mesh.n_vertices * self.basis.n_plus

    @property
    def n_odd(self) -> int:
        return self.mesh.n_triangles * self.basis.n_minus

    def apply_mass(self, u_even: np.ndarray) -> np.ndarray:
        out = np.empty_like(u_even)
        for l, cols in self.mode_groups:
            out[:, cols] = self.mass_blocks[l] @ u_even[:, cols]
        return out

    def apply_boundary(self, u_even: np.ndarray) -> np.ndarray:
        return self.boundary @ u_even

    def apply_transport(self, u_even: np.ndarray) -> np.ndarray:
        """B u: (nv, n_plus) -> (nt, n_minus)."""
        return ((self.t_x @ (self.g_x @ u_even).T).T
                + (self.t_y @ (self.g_y @ u_even).T).T)

    def apply_transport_t(self, v_odd: np.ndarray) -> np.ndarray:
        """B^T v: (nt, n_minus) -> (nv, n_plus)."""
        g_x_t, g_y_t, t_x_t, t_y_t = self._transposed
        return g_x_t @ (t_x_t @ v_odd.T).T + g_y_t @ (t_y_t @ v_odd.T).T

    def solve_odd_diag(self, v_odd: np.ndarray) -> np.ndarray:
        if np.any(self.c_diag == 0):
            raise ZeroDivisionError("odd collision block has zero diagonal entries; "
                                    "the elimination is singular")
        return v_odd / self.c_diag

    def restrict(self, sub_basis: AngularBasis) -> "BlockOperator":
        """The operator on a subset of the angular modes, such as one z-parity
        class (:meth:`AngularBasis.z_even`).  Mesh, mass blocks, boundary and
        gradient factors are shared; the rows and columns of T_x, T_y and the
        columns of the odd diagonal are sliced."""
        even, odd = self.basis.positions(sub_basis)
        return BlockOperator(
            mesh=self.mesh, basis=sub_basis, mass_blocks=self.mass_blocks,
            boundary=self.boundary, g_x=self.g_x, g_y=self.g_y,
            t_x=self.t_x[odd][:, even], t_y=self.t_y[odd][:, even],
            c_diag=self.c_diag[:, odd])

    def nnz_counts(self) -> dict[str, int]:
        """Stored entries of each block in assembled (Kronecker) form."""
        nnz_m = sum(self.mass_blocks[l].nnz * cols.size for l, cols in self.mode_groups)
        nnz_r = int(self.boundary.nnz) * self.basis.n_plus
        nnz_b = self.g_x.nnz * self.t_x.nnz + self.g_y.nnz * self.t_y.nnz
        return {"mass": nnz_m, "boundary": nnz_r, "transport": nnz_b,
                "odd": int(np.count_nonzero(self.c_diag))}


def build_operator(mesh: Mesh2D, basis: AngularBasis, couplings: AngularCouplings,
                   coeffs: TransportCoefficients) -> BlockOperator:
    """The four blocks; the transport block is B = sum_i G_i kron T_i over
    i in {x, y}: the z factor drops out because fields do not vary along the
    invariant axis."""
    g_x, g_y = gradient_matrices(mesh)
    return BlockOperator(
        mesh=mesh,
        basis=basis,
        mass_blocks=assemble_even_mass(mesh, coeffs, basis),
        boundary=boundary_mass_matrix(mesh),
        g_x=g_x, g_y=g_y, t_x=couplings.t_x, t_y=couplings.t_y,
        c_diag=assemble_odd_diag(mesh, coeffs, basis),
    )


def project_source(mesh: Mesh2D, basis: AngularBasis, q, isotropic: bool = True,
                   quad=None) -> tuple[np.ndarray, np.ndarray]:
    """Load vectors (q_plus, q_minus) for a source supported on the inner
    region (the extension zeroes the source in the layer).

    Isotropic sources load only the constant angular mode, with weight
    sqrt(4 pi) times the spatial density; their odd load vanishes.  For
    anisotropic sources ``q(r, s)`` the angular moments are computed by
    sphere quadrature.
    """
    interior = np.flatnonzero(mesh.tags == INTERIOR)
    q_plus = np.zeros((mesh.n_vertices, basis.n_plus))
    q_minus = np.zeros((mesh.n_triangles, basis.n_minus))
    mass_int = p1_mass(mesh, triangles=interior)

    if isotropic:
        if callable(q):
            vertex_vals = np.asarray(q(mesh.vertices), dtype=float)
        else:
            vertex_vals = np.full(mesh.n_vertices, float(q))
        mode0 = basis.even_indices.index((0, 0))
        q_plus[:, mode0] = np.sqrt(4 * np.pi) * (mass_int @ vertex_vals)
        return q_plus, q_minus

    quad = quad or quadrature_for_order(basis.order)
    even_tab = basis.evaluate_even(quad.nodes)
    odd_tab = basis.evaluate_odd(quad.nodes)

    def moments(points, tab):
        vals = np.array([[q(p, s) for s in quad.nodes] for p in points])
        return vals @ (quad.weights[:, None] * tab)

    q_plus[:] = mass_int @ moments(mesh.vertices, even_tab)
    cents = mesh.centroids[interior]
    q_minus[interior] = mesh.areas[interior, None] * moments(cents, odd_tab)
    return q_plus, q_minus


def explicit_matrices(op: BlockOperator):
    """Fully assembled sparse blocks for small-instance verification.

    Flattening is row-major over (spatial, angular): even dof (j, e) maps to
    j * n_plus + e, odd dof (T, o) to T * n_minus + o.
    """
    basis = op.basis
    m_expl = csr_matrix((op.n_even, op.n_even))
    for l, cols in op.mode_groups:
        sel = np.zeros(basis.n_plus)
        sel[cols] = 1.0
        m_expl = m_expl + kron(op.mass_blocks[l], diags(sel), format="csr")
    r_expl = kron(op.boundary, identity(basis.n_plus), format="csr")
    b_expl = (kron(op.g_x, op.t_x, format="csr")
              + kron(op.g_y, op.t_y, format="csr"))
    c_expl = diags(op.c_diag.ravel(), format="csr")
    return m_expl, r_expl, b_expl, c_expl


def even_l2_norm2(mesh: Mesh2D, u_even: np.ndarray, interior_only: bool = False) -> float:
    """Squared L2(domain x sphere) norm of an even field."""
    tri = np.flatnonzero(mesh.tags == INTERIOR) if interior_only else None
    m0 = p1_mass(mesh, triangles=tri)
    return float(np.sum(u_even * (m0 @ u_even)))


def odd_l2_norm2(mesh: Mesh2D, v_odd: np.ndarray, interior_only: bool = False) -> float:
    mask = mesh.tags == INTERIOR if interior_only else slice(None)
    return float(np.sum(mesh.areas[mask, None] * v_odd[mask] ** 2))


def transport_seminorm2(op: BlockOperator, u_even: np.ndarray,
                        interior_only: bool = False) -> float:
    """Squared L2 norm of s.grad(u) for an even field, evaluated through the
    odd-space representation of the directional gradient."""
    bu = op.apply_transport(u_even)
    mask = op.mesh.tags == INTERIOR if interior_only else slice(None)
    return float(np.sum(bu[mask] ** 2 / op.mesh.areas[mask, None]))
