"""Assembly of the mixed discrete system.

Unknowns are tensor-product fields: the even component lives on P1 vertices
times the even angular modes, the odd component on P0 triangles times the odd
modes.  The four system blocks are

  M: block-diagonal over even modes, P1 mass weighted by w_l
  R: the P1 boundary mass on the outer boundary, identical for every mode
  B: sum over i in {x, y} of (P1 -> P0 directional stiffness) kron T_i
  C: diagonal, |T| * w_l per (triangle, odd mode)

with w_l = mu - sigma_l.  The weights depend on the degree only, and one
table, ``BlockOperator.collision`` = [w_0 .. w_N], holds them.  Even degrees
with bitwise equal columns (w_l, k_l) of it and of the diffusion table (see
:meth:`BlockOperator.class_blocks`) share a coefficient class (isotropic
kernel: {0} and every l >= 2).  ``BlockOperator`` forms each table from its
inputs (mesh, basis, T_x, T_y, collision) once, on first use, with one mass
block per class, and the mass products and both preconditioners run one
block per class.  A solve (:func:`pnpml.solver.solve_system`) forms the
tables of the restricted operator of each loaded z-parity class only, and
allocates the full-shape :class:`Field` after the class solves.

Spatial matrices are assembled on the mesh's one P1 pattern
(:meth:`Mesh2D.assemble`): the mass blocks, R, the class blocks and the
terms G_i^T D G_j of the Schur operator PCG applies, each stiffness term
from one bincount (:func:`p1_stiffness_terms`).  B, B^T and C^{-1} serve the
right-hand side, odd recovery, norms and residuals, matrix-free on (space,
mode) arrays in C order: a sparse spatial product, then a product with a
dense copy of T_i.  Explicit sparse assembly is for small-instance tests.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
from scipy.sparse import csr_matrix, diags, identity, kron

from pnpml.angular import AngularBasis, AngularCouplings, degree_groups, quadrature_for_order
from pnpml.mesh import INTERIOR, Mesh2D, boundary_mass_matrix
from pnpml.pml import TransportCoefficients

__all__ = [
    "Field",
    "BlockOperator",
    "NumericalError",
    "project_source",
    "build_operator",
    "explicit_matrices",
    "p1_mass",
    "p1_stiffness_terms",
    "even_l2_norm2",
    "odd_l2_norm2",
    "transport_seminorm2",
]

_LOCAL_MASS = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0


class NumericalError(RuntimeError):
    """A system that cannot be solved: a singular odd collision block, or
    loss of positive definiteness during the iteration."""


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
    restricted to a subset of triangles, on the mesh's P1 pattern."""
    tri = slice(None) if triangles is None else triangles
    w = mesh.areas[tri] if weight is None else mesh.areas[tri] * weight[tri]
    return mesh.pattern_matrix(mesh.assemble(w[:, None, None] * _LOCAL_MASS, triangles))


def p1_stiffness_terms(mesh: Mesh2D, terms: list) -> list[np.ndarray]:
    """The data on the mesh's P1 pattern of the sum over (i, j) in ``pairs``
    (0 = x, 1 = y) of G_i^T diag(weight) G_j, G_i of
    :attr:`Mesh2D.gradient_matrices`, for each (weight, pairs) of ``terms``:
    one :meth:`Mesh2D.assemble` per term, so each entry sums its triangles
    pair by pair, in the order of the sparse products."""
    # the products run with the triangles innermost, as the gradients are
    # stored, (2, 3, nt), and land in the (pair, nt, 3, 3) values through a
    # transposed view of them
    g = mesh.gradients
    data = []
    for w, pairs in terms:
        i, j = np.array(pairs).T
        local = np.empty((len(pairs), mesh.n_triangles, 3, 3))
        np.multiply((g[i] * w)[:, :, None], g[j][:, None], out=local.transpose(0, 2, 3, 1))
        data.append(mesh.assemble(local))
    return data


def _coefficient_classes(w: np.ndarray, k: np.ndarray, degrees: np.ndarray) -> list:
    """(l, cols) per coefficient class of the modes of degrees ``degrees``:
    degrees with bitwise equal columns w_l of the collision table ``w`` and
    k_l of the diffusion table ``k`` form one class, led by its lowest degree
    l, with the positions of all its modes in ``cols``.  The two columns are
    all a class block depends on; at odd l, where k_l = 0, the class shares
    the odd diagonal |T| w_l."""
    members = {}
    for l, cols in degree_groups(degrees):
        members.setdefault((w[:, l].tobytes(), k[:, l].tobytes()), []).append((l, cols))
    return [(group[0][0], np.concatenate([cols for _, cols in group]))
            for group in members.values()]


@dataclass
class BlockOperator:
    """The four system blocks on ``mesh`` and ``basis`` from T_x, T_y and the
    collision table; M, B and B^T apply matrix-free on (space, mode) arrays.

    The fields are the inputs.  Each derived table is a cached property,
    formed once, on first use, so an operator whose blocks a solve never
    reads (the full basis, when only a z-parity class carries load) stays
    as small as its inputs, and ``dataclasses.replace(op, collision=w)``
    regroups the classes and forms the mass blocks anew for the weights w."""

    mesh: Mesh2D
    basis: AngularBasis
    t_x: csr_matrix
    t_y: csr_matrix
    collision: np.ndarray  # (nt, N + 1): w[:, l] = mu - sigma_l

    def __post_init__(self):
        """Reject a singular odd block, |T| w_l = 0 at some triangle and odd
        degree l of the basis, before any table is formed.  Every other table
        is formed once, on first use, from the inputs."""
        odd = np.unique(self.basis.odd_degrees())
        if np.any(self.mesh.areas[:, None] * self.collision[:, odd] == 0):
            raise NumericalError("odd collision block has zero diagonal entries; "
                                 "the elimination is singular")

    @cached_property
    def c_diag(self) -> np.ndarray:
        """The odd diagonal |T| w_l, shape (nt, n_minus)."""
        return self.mesh.areas[:, None] * self.collision[:, self.basis.odd_degrees()]

    @cached_property
    def diffusion(self) -> np.ndarray:
        """The diffusion table k (zero at odd l), shaped as ``collision``;
        see :meth:`class_blocks`."""
        w = self.collision
        a = 1.0 / w[:, 1::2]  # 1/w_{l+1} at l = 0, 2, .., N - 1
        b = np.concatenate([a[:, :1], a[:, :-1]], axis=1)  # 1/w_{l-1}, a at l = 0
        l = np.arange(0, w.shape[1], 2)
        k = np.zeros_like(w)
        k[:, ::2] = (a + l * (b - a) / (2 * l + 1)) / 3.0
        return k

    @cached_property
    def classes(self) -> list:
        """The coefficient classes of the even modes (:func:`_coefficient_classes`)."""
        return _coefficient_classes(self.collision, self.diffusion, self.basis.even_degrees())

    @cached_property
    def odd_classes(self) -> list:
        """The coefficient classes of the odd modes."""
        return _coefficient_classes(self.collision, self.diffusion, self.basis.odd_degrees())

    @cached_property
    def mass_blocks(self) -> dict:
        """One P1 mass per even class, keyed by each of its degrees."""
        even, blocks = self.basis.even_degrees(), {}
        for l, cols in self.classes:
            mass = p1_mass(self.mesh, weight=self.collision[:, l])
            blocks.update(dict.fromkeys(even[cols].tolist(), mass))
        return blocks

    @cached_property
    def boundary(self) -> csr_matrix:
        """R, the P1 boundary mass (:func:`boundary_mass_matrix`)."""
        return boundary_mass_matrix(self.mesh)

    @property
    def g_x(self) -> csr_matrix:
        return self.mesh.gradient_matrices[0]

    @property
    def g_y(self) -> csr_matrix:
        return self.mesh.gradient_matrices[1]

    @cached_property
    def _t_dense(self) -> tuple[np.ndarray, np.ndarray]:
        # dense angular factors (55 x 45 at N = 9) keep B and B^T in C order
        return self.t_x.toarray(), self.t_y.toarray()

    @property
    def n_even(self) -> int:
        return self.mesh.n_vertices * self.basis.n_plus

    @property
    def n_odd(self) -> int:
        return self.mesh.n_triangles * self.basis.n_minus

    def apply_mass(self, u_even: np.ndarray) -> np.ndarray:
        out = np.empty_like(u_even)
        for l, cols in self.classes:
            out[:, cols] = self.mass_blocks[l] @ u_even[:, cols]
        return out

    def apply_transport(self, u_even: np.ndarray) -> np.ndarray:
        """B u = (G_x u) T_x^T + (G_y u) T_y^T: (nv, n_plus) -> (nt, n_minus)."""
        t_x, t_y = self._t_dense
        return (self.g_x @ u_even) @ t_x.T + (self.g_y @ u_even) @ t_y.T

    def apply_transport_t(self, v_odd: np.ndarray) -> np.ndarray:
        """B^T v = G_x^T (v T_x) + G_y^T (v T_y): (nt, n_minus) -> (nv, n_plus)."""
        t_x, t_y = self._t_dense
        return self.g_x.T @ (v_odd @ t_x) + self.g_y.T @ (v_odd @ t_y)

    def class_blocks(self) -> list:
        """(cols, block) per coefficient class (l, cols): the mean over the
        2l+1 orders of the diagonal blocks of S at degree l, the P_N diffusion
        block M_l + R + G_x^T K_l G_x + G_y^T K_l G_y with, per triangle,

            K_l = ((l+1)/c_{l+1} + l/c_{l-1}) / (3(2l+1)) = k_l / |T|,

        c_l' = |T| w_l' (no c_{-1} term at l = 0): averaged over m, T_x and T_y
        reach degrees l+1 and l-1 with these weights and do not mix x with y.
        ``diffusion`` holds k_l = (a + l (b - a)/(2l+1)) / 3, a = 1/w_{l+1},
        b = 1/w_{l-1} (b = a at l = 0): exactly a/3 where b = a.  The block
        depends on w_l and k_l only, so it is that of every degree of its class.
        Each block is CSR on the P1 pattern, zero sums stored."""
        mesh = self.mesh
        k = p1_stiffness_terms(mesh, [(self.diffusion[:, l] / mesh.areas, ((0, 0), (1, 1)))
                                      for l, _ in self.classes])
        return [(cols, mesh.pattern_matrix(self.mass_blocks[l].data + self.boundary.data + k_l))
                for (l, cols), k_l in zip(self.classes, k)]

    def restrict(self, sub_basis: AngularBasis) -> "BlockOperator":
        """The operator on a subset of the angular modes, such as one z-parity
        class (:meth:`AngularBasis.z_even`): T_x and T_y sliced to the
        sub-basis, and every other table formed anew on first use."""
        even, odd = self.basis.positions(sub_basis)
        return replace(self, basis=sub_basis, t_x=self.t_x[odd][:, even],
                       t_y=self.t_y[odd][:, even])

    def nnz_counts(self) -> dict[str, int]:
        """Stored entries of each block in assembled (Kronecker) form; R counts
        its nonzeros, not the pattern zeros it stores."""
        nnz_m = sum(self.mass_blocks[l].nnz * cols.size for l, cols in self.classes)
        nnz_r = int(np.count_nonzero(self.boundary.data)) * self.basis.n_plus
        nnz_b = self.g_x.nnz * self.t_x.nnz + self.g_y.nnz * self.t_y.nnz
        return {"mass": nnz_m, "boundary": nnz_r, "transport": nnz_b,
                "odd": int(np.count_nonzero(self.c_diag))}


def build_operator(mesh: Mesh2D, basis: AngularBasis, couplings: AngularCouplings,
                   coeffs: TransportCoefficients) -> BlockOperator:
    """The four blocks; the transport block is B = sum_i G_i kron T_i over
    i in {x, y}: the z factor drops out because fields do not vary along the
    invariant axis."""
    if coeffs.gamma <= 0:
        warnings.warn("collision coercivity gamma <= 0: the even mass block "
                      "may be singular", stacklevel=2)
    return BlockOperator(mesh, basis, couplings.t_x, couplings.t_y,
                         collision=coeffs.collision(basis.order))


def project_source(mesh: Mesh2D, basis: AngularBasis, q,
                   isotropic: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """Load vectors (q_plus, q_minus) for a source supported on the inner
    region (the extension zeroes the source in the layer).

    Isotropic sources load only the constant angular mode, with weight
    sqrt(4 pi) times the spatial density; their odd load vanishes.  For
    anisotropic sources ``q(r, s)`` the angular moments are computed by
    sphere quadrature, from one call of ``q`` over every (point, node) pair:
    ``r`` has shape (2, m, 1) and ``s`` shape (3, 1, k), components first, so
    ``r[0] * s[2]`` is the (m, k) table of x s_z; a result that broadcasts to
    (m, k), a constant included, is accepted.
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

    quad = quadrature_for_order(basis.order)
    even_tab = basis.evaluate_even(quad.nodes)
    odd_tab = basis.evaluate_odd(quad.nodes)

    def moments(points, tab):
        vals = q(points.T[:, :, None], quad.nodes.T[:, None, :])
        vals = np.broadcast_to(np.asarray(vals, dtype=float), (len(points), len(quad.nodes)))
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
    for l, cols in op.classes:
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
