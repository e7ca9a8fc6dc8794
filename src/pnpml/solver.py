"""Schur-complement solution of the mixed system.

The odd unknowns are eliminated through the diagonal collision block, leaving
the symmetric positive definite operator S = M + R + B^T C^{-1} B on the even
unknowns.  S is applied matrix-free; the system is solved by preconditioned
conjugate gradients with either a point-Jacobi or a per-mode spatial
block preconditioner.

For z-invariant problems the system splits exactly into two independent
z-parity classes (angular modes with l + |m| even or odd).  ``solve_system``
solves each class that carries load on its own restricted operator and leaves
the other class at its exact solution, zero.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import diags
from scipy.sparse.linalg import splu

from pnpml.angular import degree_groups
from pnpml.assembly import (
    BlockOperator,
    Field,
    even_l2_norm2,
    odd_l2_norm2,
    transport_seminorm2,
)

__all__ = [
    "JACOBI",
    "BLOCK_SPATIAL",
    "SchurOperator",
    "SolveReport",
    "NumericalError",
    "ConvergenceError",
    "schur_rhs",
    "pcg_solve",
    "recover_odd",
    "build_preconditioner",
    "solve_system",
    "triple_norm2",
    "galerkin_residuals",
]

JACOBI = "jacobi"
BLOCK_SPATIAL = "block_spatial"


class NumericalError(RuntimeError):
    """Loss of positive definiteness during the iteration."""


class ConvergenceError(RuntimeError):
    """Iteration budget exhausted before reaching the tolerance.  ``report``
    is the partial SolveReport of the failed solve (``converged=False``)."""

    def __init__(self, message: str, report: "SolveReport"):
        super().__init__(message)
        self.report = report


@dataclass
class SchurOperator:
    """Matrix-free S = M + R + B^T C^{-1} B on flattened even vectors."""

    blocks: BlockOperator

    @property
    def n(self) -> int:
        return self.blocks.n_even

    def _unflatten(self, x: np.ndarray) -> np.ndarray:
        return x.reshape(self.blocks.mesh.n_vertices, self.blocks.basis.n_plus)

    def apply(self, x: np.ndarray) -> np.ndarray:
        u = self._unflatten(x)
        b = self.blocks
        bu = b.apply_transport(u)
        out = b.apply_mass(u) + b.apply_boundary(u) + b.apply_transport_t(b.solve_odd_diag(bu))
        return out.ravel()

    __call__ = apply


def schur_rhs(blocks: BlockOperator, q_plus: np.ndarray, q_minus: np.ndarray) -> np.ndarray:
    """Right-hand side of the eliminated system: q+ + B^T C^{-1} q-."""
    rhs = q_plus + blocks.apply_transport_t(blocks.solve_odd_diag(q_minus))
    return rhs.ravel()


def recover_odd(blocks: BlockOperator, q_minus: np.ndarray, u_plus: np.ndarray) -> np.ndarray:
    """Back-substitution for the odd component: C^{-1} (q- - B u+)."""
    return blocks.solve_odd_diag(q_minus - blocks.apply_transport(u_plus))


def _transport_weight_tables(blocks: BlockOperator):
    """Per-triangle 2x2 Gram weights S_ab[T, e] = sum_o T_a[o,e] T_b[o,e] / C[T,o],
    split over odd degrees so the triangle dependence stays rank-one."""
    basis = blocks.basis
    if np.any(blocks.c_diag == 0):
        raise NumericalError("odd collision block is singular; cannot form "
                             "the Schur preconditioner")
    tx = blocks.t_x.toarray()
    ty = blocks.t_y.toarray()
    nt = blocks.mesh.n_triangles
    sxx = np.zeros((nt, basis.n_plus))
    sxy = np.zeros_like(sxx)
    syy = np.zeros_like(sxx)
    for _, rows in degree_groups(basis.odd_degrees()):
        inv_c = 1.0 / blocks.c_diag[:, rows[0]]  # same weight for all m of this l
        pxx = np.sum(tx[rows] ** 2, axis=0)
        pxy = np.sum(tx[rows] * ty[rows], axis=0)
        pyy = np.sum(ty[rows] ** 2, axis=0)
        sxx += np.outer(inv_c, pxx)
        sxy += np.outer(inv_c, pxy)
        syy += np.outer(inv_c, pyy)
    return sxx, sxy, syy


class JacobiPreconditioner:
    """Exact diagonal of S, inverted entrywise."""

    kind = JACOBI

    def __init__(self, blocks: BlockOperator):
        basis = blocks.basis
        nv = blocks.mesh.n_vertices
        diag = np.zeros((nv, basis.n_plus))
        for l, cols in blocks.mode_groups:
            diag[:, cols] = blocks.mass_blocks[l].diagonal()[:, None]
        diag += blocks.boundary.diagonal()[:, None]

        sxx, sxy, syy = _transport_weight_tables(blocks)
        gx2 = blocks.g_x.copy()
        gx2.data = gx2.data**2
        gy2 = blocks.g_y.copy()
        gy2.data = gy2.data**2
        gxy = blocks.g_x.copy()
        gxy.data = blocks.g_x.data * blocks.g_y.data  # same sparsity pattern
        diag += gx2.T @ sxx + 2.0 * (gxy.T @ sxy) + gy2.T @ syy

        if np.any(diag <= 0):
            raise NumericalError("nonpositive diagonal entry in the Schur operator")
        self._inv_diag = (1.0 / diag).ravel()

    def apply(self, r: np.ndarray) -> np.ndarray:
        return self._inv_diag * r


class BlockSpatialPreconditioner:
    """Per-even-mode spatial solve of the exact diagonal block of S.

    For mode e the block is M_l + R + A_e, where A_e is the anisotropic
    diffusion-like matrix contributed by B^T C^{-1} B on that mode; each block
    is factorized sparsely once and solved exactly per application.
    """

    kind = BLOCK_SPATIAL

    def __init__(self, blocks: BlockOperator):
        basis = blocks.basis
        self._nv = blocks.mesh.n_vertices
        self._n_plus = basis.n_plus
        sxx, sxy, syy = _transport_weight_tables(blocks)
        gx, gy = blocks.g_x.tocsc(), blocks.g_y.tocsc()
        degrees = basis.even_degrees()
        self._solvers = []
        for e in range(basis.n_plus):
            a_e = (gx.T @ diags(sxx[:, e]) @ gx
                   + gx.T @ diags(sxy[:, e]) @ gy
                   + gy.T @ diags(sxy[:, e]) @ gx
                   + gy.T @ diags(syy[:, e]) @ gy)
            block = blocks.mass_blocks[int(degrees[e])] + blocks.boundary + a_e
            self._solvers.append(splu(block.tocsc()))

    def apply(self, r: np.ndarray) -> np.ndarray:
        u = r.reshape(self._nv, self._n_plus)
        out = np.empty_like(u)
        for e, lu in enumerate(self._solvers):
            out[:, e] = lu.solve(u[:, e])
        return out.ravel()


def build_preconditioner(blocks: BlockOperator, kind: str = JACOBI):
    if kind == JACOBI:
        return JacobiPreconditioner(blocks)
    if kind == BLOCK_SPATIAL:
        return BlockSpatialPreconditioner(blocks)
    raise ValueError(f"unknown preconditioner kind: {kind!r}")


@dataclass
class SolveReport:
    iterations: int
    residual_history: list[float]
    wall_time: float
    dofs_even: int
    dofs_odd: int
    converged: bool
    parameters: dict = field(default_factory=dict)

    @property
    def final_residual(self) -> float:
        return self.residual_history[-1] if self.residual_history else 0.0

    def to_record(self) -> str:
        lines = [
            f"iterations = {self.iterations}",
            f"final_residual = {self.final_residual:.6e}",
            f"wall_time = {self.wall_time:.6f}",
            f"dofs_even = {self.dofs_even}",
            f"dofs_odd = {self.dofs_odd}",
            f"converged = {self.converged}",
        ]
        for key in sorted(self.parameters):
            lines.append(f"{key} = {self.parameters[key]}")
        return "\n".join(lines) + "\n"

    def append_to(self, path) -> None:
        with open(path, "a") as f:
            f.write(self.to_record())
            f.write("\n")


def pcg_solve(apply_s, rhs: np.ndarray, preconditioner=None, tol: float = 1e-7,
              max_iter: int = 10000, params: dict | None = None,
              dofs_odd: int = 0) -> tuple[np.ndarray, SolveReport]:
    """Preconditioned conjugate gradients for an SPD operator.

    Stops when the relative 2-norm of the residual falls below ``tol``; the
    recurrence residual is replaced by the true residual every 50 iterations
    to guard against drift.  Reductions run in fixed order, so repeated solves
    are bit-identical.
    """
    if callable(getattr(apply_s, "apply", None)):
        matvec = apply_s.apply
    else:
        matvec = apply_s
    psolve = preconditioner.apply if preconditioner is not None else (lambda r: r)

    rhs = np.asarray(rhs, dtype=float).ravel()
    t0 = time.perf_counter()
    rhs_norm = float(np.linalg.norm(rhs))
    report = SolveReport(iterations=0, residual_history=[], wall_time=0.0,
                         dofs_even=rhs.size, dofs_odd=dofs_odd, converged=True,
                         parameters=dict(params or {}))
    x = np.zeros_like(rhs)
    if rhs_norm == 0.0:
        report.wall_time = time.perf_counter() - t0
        return x, report

    r = rhs.copy()
    z = psolve(r)
    p = z.copy()
    rz = float(r @ z)
    for k in range(1, max_iter + 1):
        sp = matvec(p)
        curvature = float(p @ sp)
        if not curvature > 0.0:  # also trips on NaN
            raise NumericalError(
                f"curvature {curvature} at iteration {k}: operator is not SPD "
                "or the data are not finite")
        alpha = rz / curvature
        x += alpha * p
        if k % 50 == 0:
            r = rhs - matvec(x)
        else:
            r -= alpha * sp
        rel = float(np.linalg.norm(r)) / rhs_norm
        report.residual_history.append(rel)
        report.iterations = k
        if rel <= tol:
            # confirm with the true residual before declaring success
            r_true = rhs - matvec(x)
            rel_true = float(np.linalg.norm(r_true)) / rhs_norm
            if rel_true <= tol:
                report.residual_history[-1] = rel_true
                report.wall_time = time.perf_counter() - t0
                return x, report
            r = r_true
            rel = rel_true
            report.residual_history[-1] = rel_true
        z = psolve(r)
        rz_new = float(r @ z)
        beta = rz_new / rz
        rz = rz_new
        p = z + beta * p

    report.converged = False
    report.wall_time = time.perf_counter() - t0
    raise ConvergenceError(
        f"PCG did not reach tol={tol:g} in {max_iter} iterations "
        f"(final relative residual {report.residual_history[-1]:.3e})", report)


def _add_class(report: SolveReport, part: SolveReport) -> SolveReport:
    """Fold the PCG report of one z-parity class into the combined report."""
    report.iterations += part.iterations
    report.residual_history += part.residual_history
    report.wall_time += part.wall_time
    report.converged = report.converged and part.converged
    return report


def solve_system(blocks: BlockOperator, q_plus: np.ndarray, q_minus: np.ndarray,
                 precond: str | None = None, tol: float = 1e-7, max_iter: int = 10000,
                 params: dict | None = None) -> tuple[Field, SolveReport]:
    """End-to-end solve of the mixed system: eliminate, run PCG, recover.

    Each z-parity class with a nonzero load is solved on its own restricted
    operator, with a preconditioner of kind ``precond`` (None, JACOBI or
    BLOCK_SPATIAL) built for that class.  A class without load is skipped:
    its solution is exactly zero.  The returned field has the full shape.
    The report sums iterations and PCG wall time over the solved classes,
    concatenates their residual histories, and counts the dofs of the full
    P_N system.  A ConvergenceError carries this report, with the classes
    solved before the failure merged in.
    """
    if precond not in (None, JACOBI, BLOCK_SPATIAL):
        raise ValueError(f"unknown preconditioner kind: {precond!r}")
    basis = blocks.basis
    fld = Field.zeros(blocks.mesh, basis)
    report = SolveReport(iterations=0, residual_history=[], wall_time=0.0,
                         dofs_even=blocks.n_even, dofs_odd=blocks.n_odd,
                         converged=True, parameters=dict(params or {}))
    for sub_basis in (basis.z_even(), basis.z_odd()):
        even, odd = basis.positions(sub_basis)
        qp, qm = q_plus[:, even], q_minus[:, odd]
        if not (qp.any() or qm.any()):
            continue
        sub = blocks.restrict(sub_basis)
        pre = None if precond is None else build_preconditioner(sub, precond)
        try:
            x, part = pcg_solve(SchurOperator(sub), schur_rhs(sub, qp, qm),
                                preconditioner=pre, tol=tol, max_iter=max_iter)
        except ConvergenceError as exc:
            exc.report = _add_class(report, exc.report)
            raise
        _add_class(report, part)
        u_plus = x.reshape(blocks.mesh.n_vertices, sub_basis.n_plus)
        fld.even[:, even] = u_plus
        fld.odd[:, odd] = recover_odd(sub, qm, u_plus)
    return fld, report


def triple_norm2(blocks: BlockOperator, fld: Field) -> float:
    """Squared natural norm of the mixed pair: transport seminorm, boundary
    trace, and both L2 components."""
    u, v = fld.even, fld.odd
    return (transport_seminorm2(blocks, u)
            + float(np.sum(u * (blocks.boundary @ u)))
            + even_l2_norm2(blocks.mesh, u)
            + odd_l2_norm2(blocks.mesh, v))


def galerkin_residuals(blocks: BlockOperator, fld: Field,
                       q_plus: np.ndarray, q_minus: np.ndarray) -> tuple[float, float]:
    """Euclidean norms of the residuals of the two discrete variational
    equations for a candidate solution pair."""
    u, v = fld.even, fld.odd
    res1 = (blocks.apply_mass(u) + blocks.apply_boundary(u)
            - blocks.apply_transport_t(v) - q_plus)
    res2 = blocks.apply_transport(u) + blocks.c_diag * v - q_minus
    return float(np.linalg.norm(res1)), float(np.linalg.norm(res2))
