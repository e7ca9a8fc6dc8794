"""Schur-complement solution of the mixed system.

The odd unknowns are eliminated through the diagonal collision block, leaving
the symmetric positive definite operator S = M + R + B^T C^{-1} B on the even
unknowns.  PCG applies S as a sum of K Kronecker terms A_t kron W_t
(:class:`SchurOperator`), each A_t on the mesh's one P1 pattern and each W_t
a small dense angular matrix, stacked so that one apply is one GEMM and one
sparse product (K = 4 for an isotropic kernel); B, B^T and C^{-1} serve the
right-hand side, the odd recovery, the norms and the residuals.  Both
preconditioners come from one block per coefficient class, the even degrees
with bitwise equal columns (w_l, k_l): the P_N diffusion block of
:meth:`BlockOperator.class_blocks`, on the P1 pattern.  ``jacobi`` inverts
its diagonal.  ``block_spatial`` approximates its inverse by one symmetric
Galerkin V-cycle over the mesh's refinement chain, damped-Jacobi smoothed
through one stored iteration matrix per level, with one sparse LU per class
on the coarsest mesh; on a mesh that was not refined the cycle is that exact
LU solve.  The hierarchy is formed in float64 but stored, factorized and run
in float32; PCG, the Schur operator, the right-hand side and the odd
recovery stay in float64.  On the disk-scatter benchmark case (N = 9,
9,577 vertices) that leaves the iteration count at 51 and moves the even and
odd fields by 3e-14 and 6e-13 relative L2 against a float64 hierarchy.

The class blocks keep the whole P1 pattern, zero sums stored, but every
sparse matrix PCG applies stores only its nonzero entries, formed once at
build time: the stacked terms and the class gathers of the Schur operator,
and each level's A and J and the coarse block of the LU, whose zeros are
dropped after the float32 cast so that underflow goes too.  On the
right-triangle mesh of the lattice preset that drops 45% of the stacked
entries; skipping a product with an exact zero only drops an added zero, so
the Schur apply is bitwise that of the full pattern.  The coarse LU takes a
symmetric minimum-degree ordering and diagonal pivots.

For z-invariant problems the system splits exactly into two independent
z-parity classes (angular modes with l + |m| even or odd).  ``solve_system``
solves each class that carries load on its own restricted operator and leaves
the other class at its exact solution, zero.  Only the restricted operators'
tables are formed (each :class:`BlockOperator` table is formed on first use),
and the full-shape :class:`Field` is allocated after the class solves, when
their preconditioners and Schur operators are freed.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix, issparse
from scipy.sparse.linalg import splu

from pnpml.assembly import (
    BlockOperator,
    Field,
    NumericalError,
    even_l2_norm2,
    odd_l2_norm2,
    p1_stiffness_terms,
    transport_seminorm2,
)

__all__ = [
    "JACOBI",
    "BLOCK_SPATIAL",
    "PRECONDITIONERS",
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


class ConvergenceError(RuntimeError):
    """Iteration budget exhausted before reaching the tolerance.  ``report``
    is the partial SolveReport of the failed solve (``converged=False``)."""

    def __init__(self, message: str, report: "SolveReport"):
        super().__init__(message)
        self.report = report


def _columns(cols: np.ndarray):
    """``cols`` as a slice if they are one run of consecutive columns, as a
    class of consecutive degrees is in a basis listed by ascending degree,
    else as is."""
    start, stop = int(cols[0]), int(cols[0]) + cols.size
    return slice(start, stop) if np.array_equal(cols, np.arange(start, stop)) else cols


def _nonzero(a: csr_matrix) -> csr_matrix:
    """A copy of ``a`` that stores only its nonzero entries.  ``a`` itself
    may share the mesh's read-only P1 pattern, so it is not compacted in
    place."""
    a = a.copy()
    a.eliminate_zeros()
    return a


@dataclass
class SchurOperator:
    """S = M + R + B^T C^{-1} B on flattened even vectors, as K terms
    A_t kron W_t applied to the (space, mode) array u in one stacked product

        S u = [A_1 | ... | A_K] (u [W_1 ... W_K]).reshape(nv K, n),

    one GEMM and one sparse product: the (nv, K nv) CSR matrix holds term t
    of pattern column j in column j K + t, every A_t on the mesh's P1
    pattern, and stores only the nonzero entries.  The terms:

    - (M_c* + R) kron I, c* the even class with the most columns and R
      the boundary mass ``blocks.boundary``, on the pattern as built by
      :func:`boundary_mass_matrix`; every other even class c adds
      (M_c - M_c*) u[:, cols_c] as a column gather, a zero-free copy of the
      difference with cols_c a slice where they are one run;
    - per odd class k of ``blocks.odd_classes``, with P_k its mode selector
      and D_k = diag(1/(|T| w_k)) its block of C^{-1},
      (G_i^T D_k G_i) kron (T_i^T P_k T_i) for i in {x, y} and the cross
      pair (G_x^T D_k G_y) kron (T_y^T P_k T_x) plus its transpose.  A class holding every odd mode of the basis merges the
      pair into (G_x^T D_k G_y + G_y^T D_k G_x) kron (T_y^T T_x + T_x^T T_y)/2:
      then T_y^T T_x = T_x^T T_y exactly, both the even projection of
      multiplication by s_x s_y, since at odd N neither T_x nor T_y
      truncates.  A partial class keeps both cross terms.

    An isotropic kernel gives K = 4, kernel ``10 3 1`` K = 9.

    The GEMM writes into one C-contiguous (nv, K n) buffer the operator
    keeps, so ``apply`` is not reentrant: each solve builds its own
    operator.  The returned vector is fresh on every call."""

    blocks: BlockOperator

    def __post_init__(self):
        b = self.blocks
        mesh, n = b.mesh, b.basis.n_plus
        data, weights = [], []  # per stacked term: A_t on the pattern, W_t
        self._gathers = []      # (cols, M_c - M_c*) per other even class
        odd = []                # (D_k, pairs) per odd term
        if b.classes:
            l_base, _ = max(b.classes, key=lambda c: c[1].size)
            base = b.mass_blocks[l_base].data
            data.append(base + b.boundary.data)
            weights.append(np.eye(n))
            self._gathers = [(_columns(cols),
                              _nonzero(mesh.pattern_matrix(b.mass_blocks[l].data - base)))
                             for l, cols in b.classes if l != l_base]
        for _, cols in b.odd_classes:
            d = 1.0 / b.c_diag[:, cols[0]]
            t_x, t_y = b.t_x[cols].toarray(), b.t_y[cols].toarray()
            pairs = [[(0, 0)], [(1, 1)]]
            weights += [t_x.T @ t_x, t_y.T @ t_y]
            if cols.size == b.basis.n_minus:
                pairs.append([(0, 1), (1, 0)])
                weights.append(0.5 * (t_y.T @ t_x + t_x.T @ t_y))
            else:
                pairs += [[(0, 1)], [(1, 0)]]
                weights += [t_y.T @ t_x, t_x.T @ t_y]
            odd += [(d, p) for p in pairs]
        data += p1_stiffness_terms(mesh, odd)
        k = len(data)
        indptr, indices = b.boundary.indptr, b.boundary.indices  # the P1 pattern
        self._a = csr_matrix((np.column_stack(data).ravel(),
                              (indices[:, None] * k + np.arange(k, dtype=indices.dtype)).ravel(),
                              indptr * k), shape=(mesh.n_vertices, k * mesh.n_vertices))
        self._a.eliminate_zeros()  # in place: the stacked matrix owns its index arrays
        self._w = np.hstack(weights)

    @property
    def n(self) -> int:
        return self.blocks.n_even

    @functools.cached_property
    def _product(self) -> np.ndarray:
        """The (nv, K n) buffer of u @ W, allocated on the first apply: one
        allocated at construction, before the right-hand side and PCG's
        vectors, left the study-desk benchmark's peak RSS 1.2 MB higher
        (medians of 10 fresh-process passes)."""
        return np.empty((self.blocks.mesh.n_vertices, self._w.shape[1]))

    def record(self, parameters: dict) -> None:
        """Add the entries the operator stores, the stacked terms' and the
        gathers', to a run's parameters as ``schur_nnz``, summed with those
        of earlier classes of the run."""
        parameters["schur_nnz"] = (parameters.get("schur_nnz", 0) + int(self._a.nnz)
                                   + sum(int(a.nnz) for _, a in self._gathers))

    def apply(self, x: np.ndarray) -> np.ndarray:
        nv, n = self.blocks.mesh.n_vertices, self.blocks.basis.n_plus
        u = x.reshape(nv, n)
        np.matmul(u, self._w, out=self._product)
        out = self._a @ self._product.reshape(self._a.shape[1], n)
        for cols, a in self._gathers:
            out[:, cols] += a @ u[:, cols]
        return out.ravel()


def schur_rhs(blocks: BlockOperator, q_plus: np.ndarray, q_minus: np.ndarray) -> np.ndarray:
    """Right-hand side of the eliminated system: q+ + B^T C^{-1} q-, a copy
    of q+ when q- is zero (as for every isotropic source), where the second
    term is exactly zero."""
    if not q_minus.any():
        return q_plus.flatten()
    rhs = q_plus + blocks.apply_transport_t(q_minus / blocks.c_diag)
    return rhs.ravel()


def recover_odd(blocks: BlockOperator, q_minus: np.ndarray, u_plus: np.ndarray) -> np.ndarray:
    """Back-substitution for the odd component: C^{-1} (q- - B u+)."""
    return (q_minus - blocks.apply_transport(u_plus)) / blocks.c_diag


class JacobiPreconditioner:
    """Inverse diagonal of the class blocks of S (``blocks.class_blocks()``);
    a diagonal that is not positive and finite raises NumericalError."""

    def __init__(self, blocks: BlockOperator):
        diag = np.empty((blocks.mesh.n_vertices, blocks.basis.n_plus))
        for cols, block in blocks.class_blocks():
            diag[:, cols] = block.diagonal()[:, None]
        if not np.all(np.isfinite(diag) & (diag > 0)):
            raise NumericalError("nonpositive or nonfinite diagonal entry in the "
                                 "Schur operator")
        self._inv_diag = (1.0 / diag).ravel()

    def apply(self, r: np.ndarray) -> np.ndarray:
        return self._inv_diag * r


_OMEGA = 0.8   # damped-Jacobi weight of the V-cycle smoother
_SWEEPS = 2    # smoothing sweeps before and after each coarse correction
_PRECISION = np.float32  # storage and arithmetic of the V-cycle hierarchy


def _smoother(a: csr_matrix) -> tuple[csr_matrix, np.ndarray]:
    """The damped-Jacobi iteration matrix J = I - omega D^{-1} A of ``a`` on
    its own pattern, which holds the diagonal D, and omega D^{-1} as a
    column.  A diagonal that is not positive and finite raises."""
    d = a.diagonal()
    if not np.all(np.isfinite(d) & (d > 0)):
        raise NumericalError("nonpositive or nonfinite diagonal entry in a "
                             "block_spatial level")
    w = _OMEGA / d
    rows = np.repeat(np.arange(a.shape[0]), np.diff(a.indptr))
    data = -w[rows] * a.data
    data[a.indices == rows] += 1.0
    return csr_matrix((data, a.indices, a.indptr), shape=a.shape), w[:, None]


def _lowered(*arrays) -> list:
    """``arrays`` (sparse or dense) cast to _PRECISION, each sparse one
    storing only its nonzero entries, so that zero sums and entries that
    underflow _PRECISION are both dropped.  An entry beyond the range of
    _PRECISION raises NumericalError instead of entering the cycle as inf."""
    with np.errstate(over="ignore"):
        out = [a.astype(_PRECISION) for a in arrays]  # copies, index arrays too
    if not all(np.all(np.isfinite(getattr(a, "data", a))) for a in out):
        raise NumericalError(f"a block_spatial level overflows {np.dtype(_PRECISION).name}")
    for a in out:
        if issparse(a):
            a.eliminate_zeros()
    return out


def _factor(block: csr_matrix):
    """Sparse LU of the symmetric positive definite coarse ``block``, in its
    dtype: a minimum-degree ordering of A^T + A applied to rows and columns
    alike, and pivots taken from the diagonal."""
    return splu(block.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                options={"SymmetricMode": True})


def _v_cycle(levels: list, lu, b: np.ndarray) -> np.ndarray:
    """One V-cycle from x = 0 for A x = b on the finest of ``levels``, a list
    of (A, J, omega / diag(A), P, Pᵀ) from fine to coarse with J the smoother
    of :func:`_smoother`; ``lu`` solves the coarsest system exactly.  Each
    damped-Jacobi sweep is x <- J x + c with c = omega D^{-1} b formed once,
    so the first sweep from zero is x = c.  The cycle runs in the dtype of
    its inputs."""
    if not levels:
        return lu.solve(b)
    (a, j, w, p, pt), coarser = levels[0], levels[1:]
    x = c = w * b
    for _ in range(_SWEEPS - 1):
        x = j @ x
        x += c
    # a new array: with a single sweep x is still c
    x = x + p @ _v_cycle(coarser, lu, pt @ (b - a @ x))
    for _ in range(_SWEEPS):
        x = j @ x
        x += c
    return x


class BlockSpatialPreconditioner:
    """Multigrid solve of the class blocks of S (``blocks.class_blocks()``).

    Per coefficient class the block A is carried down the mesh's refinement
    chain (``Mesh2D.parent``) as the Galerkin product Pᵀ A P, with P the P1
    prolongation, and factorized once by a sparse LU on the coarsest mesh.
    Each finer level also stores its damped-Jacobi iteration matrix
    J = I - omega D^{-1} A (weight _OMEGA) on A's pattern; a diagonal that is
    not positive and finite raises NumericalError.  The hierarchy is formed
    in float64 and then stored, factorized and run in _PRECISION (a level
    that overflows it raises NumericalError); PCG sees a float64 operator.
    Each stored A and J, and the coarse block, keep only the entries that
    are nonzero in _PRECISION; the coarse LU (:func:`_factor`) orders A^T + A.
    ``apply`` runs one V-cycle per class, its columns gathered into one
    contiguous multi-column right-hand side: on each finer level, _SWEEPS
    sweeps x <- J x + c, c = omega D^{-1} b, before the coarse correction and
    as many after, so the cycle is a symmetric operator.  A mesh without a
    parent is a chain of one, where the cycle is the exact LU solve of the
    block."""

    def __init__(self, blocks: BlockOperator):
        self._shape = (blocks.mesh.n_vertices, blocks.basis.n_plus)
        chain, mesh = [], blocks.mesh  # (P, Pᵀ) per level, fine to coarse
        self._vertices = [mesh.n_vertices]
        while mesh.parent is not None:
            mesh = mesh.parent
            self._vertices.append(mesh.n_vertices)
            # Pᵀ stored as CSR: a transposed view costs more per product
            chain.append((mesh.prolongation, mesh.prolongation.T.tocsr()))
        lowered = [_lowered(p, pt) for p, pt in chain]  # shared by every class
        self._cols, self._levels, self._solvers = [], [], []
        for cols, block in blocks.class_blocks():
            levels = []
            for (p, pt), p_pt in zip(chain, lowered):
                levels.append((*_lowered(block, *_smoother(block)), *p_pt))
                block = pt @ block @ p
            self._cols.append(_columns(cols))
            self._levels.append(levels)
            self._solvers.append(_factor(*_lowered(block)))

    def record(self, parameters: dict) -> None:
        """Add the hierarchy to a run's parameters: vertices per level, fine
        to coarse; L + U nonzeros of the coarse LUs, summed with those of
        earlier preconditioners of the run; the precision it runs in."""
        parameters["precond_levels"] = " ".join(map(str, self._vertices))
        parameters["precond_factor_nnz"] = (parameters.get("precond_factor_nnz", 0)
                                            + sum(int(lu.nnz) for lu in self._solvers))
        parameters["precond_precision"] = np.dtype(_PRECISION).name

    def apply(self, r: np.ndarray) -> np.ndarray:
        u = r.reshape(self._shape)
        out = np.empty_like(u)
        for cols, levels, lu in zip(self._cols, self._levels, self._solvers):
            out[:, cols] = _v_cycle(levels, lu, u[:, cols].astype(_PRECISION, order="C"))
        return out.ravel()


# preconditioner kind -> class; the one list of valid kinds
PRECONDITIONERS = {JACOBI: JacobiPreconditioner, BLOCK_SPATIAL: BlockSpatialPreconditioner}


def build_preconditioner(blocks: BlockOperator, kind: str = JACOBI):
    if kind not in PRECONDITIONERS:
        raise ValueError(f"unknown preconditioner kind: {kind!r}")
    return PRECONDITIONERS[kind](blocks)


@dataclass
class SolveReport:
    residual_history: list[float]  # one relative residual per PCG iteration
    wall_time: float
    dofs_even: int
    dofs_odd: int
    converged: bool
    parameters: dict = field(default_factory=dict)

    @property
    def iterations(self) -> int:
        return len(self.residual_history)

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
              max_iter: int = 10000) -> tuple[np.ndarray, SolveReport]:
    """Preconditioned conjugate gradients for an SPD operator.

    Stops when the relative 2-norm of the residual falls below ``tol``; the
    recurrence residual is replaced by the true residual every 50 iterations
    to guard against drift.  Reductions run in fixed order, so repeated solves
    are bit-identical.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if callable(getattr(apply_s, "apply", None)):
        matvec = apply_s.apply
    else:
        matvec = apply_s
    psolve = preconditioner.apply if preconditioner is not None else (lambda r: r)

    rhs = np.asarray(rhs, dtype=float).ravel()
    t0 = time.perf_counter()
    rhs_norm = float(np.linalg.norm(rhs))
    report = SolveReport(residual_history=[], wall_time=0.0, dofs_even=rhs.size, dofs_odd=0,
                         converged=True)
    x = np.zeros_like(rhs)
    converged = rhs_norm == 0.0  # x = 0 solves a zero right-hand side
    if not converged:
        r = rhs.copy()
        z = psolve(r)  # r itself without a preconditioner
        p = z.copy()
        scratch = np.empty_like(rhs)
        rz = float(r @ z)
        for k in range(1, max_iter + 1):
            sp = matvec(p)
            curvature = float(p @ sp)
            if not curvature > 0.0:  # also trips on NaN
                raise NumericalError(
                    f"curvature {curvature} at iteration {k}: operator is not SPD "
                    "or the data are not finite")
            alpha = rz / curvature
            x += np.multiply(p, alpha, out=scratch)
            if k % 50 == 0:
                r = rhs - matvec(x)
            else:
                r -= np.multiply(sp, alpha, out=scratch)
            rel = float(np.linalg.norm(r)) / rhs_norm
            if rel <= tol:
                # confirm with the true residual before declaring success
                r = rhs - matvec(x)
                rel = float(np.linalg.norm(r)) / rhs_norm
            report.residual_history.append(rel)
            if rel <= tol:
                converged = True
                break
            z = psolve(r)
            rz_new = float(r @ z)
            beta = rz_new / rz
            rz = rz_new
            p *= beta
            p += z

    report.converged = converged
    report.wall_time = time.perf_counter() - t0
    if not converged:
        raise ConvergenceError(
            f"PCG did not reach tol={tol:g} in {max_iter} iterations "
            f"(final relative residual {report.residual_history[-1]:.3e})", report)
    return x, report


def _add_class(report: SolveReport, part: SolveReport) -> SolveReport:
    """Fold the PCG report of one z-parity class into the combined report."""
    report.residual_history += part.residual_history
    report.wall_time += part.wall_time
    report.converged = report.converged and part.converged
    return report


def _solve_class(sub: BlockOperator, q_plus: np.ndarray, q_minus: np.ndarray,
                 precond: str | None, tol: float, max_iter: int,
                 report: SolveReport) -> tuple[np.ndarray, np.ndarray]:
    """(u+, v-) of one z-parity class on its restricted operator ``sub``,
    its PCG report folded into ``report``.  The preconditioner and the Schur
    operator are freed on return."""
    pre = None if precond is None else build_preconditioner(sub, precond)
    if isinstance(pre, BlockSpatialPreconditioner):
        pre.record(report.parameters)
    schur = SchurOperator(sub)
    schur.record(report.parameters)
    try:
        x, part = pcg_solve(schur, schur_rhs(sub, q_plus, q_minus),
                            preconditioner=pre, tol=tol, max_iter=max_iter)
    except ConvergenceError as exc:
        exc.report = _add_class(report, exc.report)
        raise
    _add_class(report, part)
    u_plus = x.reshape(sub.mesh.n_vertices, sub.basis.n_plus)
    return u_plus, recover_odd(sub, q_minus, u_plus)


def solve_system(blocks: BlockOperator, q_plus: np.ndarray, q_minus: np.ndarray,
                 precond: str | None = None, tol: float = 1e-7, max_iter: int = 10000,
                 params: dict | None = None) -> tuple[Field, SolveReport]:
    """End-to-end solve of the mixed system: eliminate, run PCG, recover.

    Each z-parity class with a nonzero load is solved on its own restricted
    operator, with a preconditioner of kind ``precond`` (None or a key of
    PRECONDITIONERS) built for that class; only the restricted operators'
    tables are formed.  A class without load is skipped: its solution is
    exactly zero.  An all-zero ``q_minus`` (as for every isotropic source)
    is passed to each class as a zero view, not copied.  The returned field
    has the full shape and is allocated after the class solves.  The report
    sums iterations and PCG wall time over the solved classes, concatenates
    their residual histories, and counts the dofs of the full P_N system.  A
    ConvergenceError carries this report, with the classes solved before
    the failure merged in.
    """
    if precond is not None and precond not in PRECONDITIONERS:
        raise ValueError(f"unknown preconditioner kind: {precond!r}")
    basis = blocks.basis
    report = SolveReport(residual_history=[], wall_time=0.0, dofs_even=blocks.n_even,
                         dofs_odd=blocks.n_odd, converged=True, parameters=dict(params or {}))
    odd_load = q_minus.any()
    solved = []  # (even, odd, u+, v-) per solved class
    for sub_basis in (basis.z_even(), basis.z_odd()):
        even, odd = basis.positions(sub_basis)
        qp = q_plus[:, even]
        qm = q_minus[:, odd] if odd_load else np.broadcast_to(0.0, (q_minus.shape[0], odd.size))
        if not (qp.any() or qm.any()):
            continue
        solved.append((even, odd, *_solve_class(blocks.restrict(sub_basis), qp, qm,
                                                precond, tol, max_iter, report)))
    fld = Field.zeros(blocks.mesh, basis)
    for even, odd, u_plus, v_minus in solved:
        fld.even[:, even] = u_plus
        fld.odd[:, odd] = v_minus
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
    res1 = (blocks.apply_mass(u) + blocks.boundary @ u
            - blocks.apply_transport_t(v) - q_plus)
    res2 = blocks.apply_transport(u) + blocks.c_diag * v - q_minus
    return float(np.linalg.norm(res1)), float(np.linalg.norm(res2))
