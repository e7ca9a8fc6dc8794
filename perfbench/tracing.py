"""Span recording for the traced benchmark run.

The tracer wraps, from outside the package, the public functions and methods
of every pnpml module, and rebinds the names other pnpml modules imported
(for example the ``build_mesh`` that ``pnpml.cli`` calls).  Each call through
a wrapped name appends one span (name, layer, start, end, parent) to an
in-memory list; spans of one pass share the pass id.  Wrappers exist only
between ``install`` and ``uninstall`` of a traced pass, so untraced passes run
the package untouched.

Per-layer metrics are derived from the spans afterwards: a span's self time
is its duration minus the time covered by its children.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import inspect
import time
import weakref

LAYERS = ("mesh", "angular", "pml", "assembly", "solver", "oracle", "cli")
BENCH = "bench"

# Schur-apply children, in the order of S = M + R + B^T C^-1 B
SCHUR_PARTS = {
    "assembly.mass_s": "assembly.BlockOperator.apply_mass",
    "assembly.boundary_s": "assembly.BlockOperator.apply_boundary",
    "assembly.transport_s": "assembly.BlockOperator.apply_transport",
    "assembly.odd_solve_s": "assembly.BlockOperator.solve_odd_diag",
    "assembly.transport_t_s": "assembly.BlockOperator.apply_transport_t",
}
SCHUR_APPLY = "solver.SchurOperator.apply"
PRECOND_BUILD = ("solver.JacobiPreconditioner.__init__",
                 "solver.BlockSpatialPreconditioner.__init__")
PRECOND_APPLY = ("solver.JacobiPreconditioner.apply",
                 "solver.BlockSpatialPreconditioner.apply")
NORMS = ("assembly.even_l2_norm2", "assembly.odd_l2_norm2",
         "assembly.transport_seminorm2")

# Per-layer metric -> (unit, the end-to-end metric and workload it should move)
PER_LAYER = {
    "mesh.build_s": ("s", "setup_s on lattice-jacobi; total_s on study-desk"),
    "mesh.refine_calls": ("count", "total_s on study-desk (error evaluation refines cached meshes again)"),
    "mesh.prolong_s": ("s", "total_s on study-desk"),
    "mesh.vertices": ("count", "scales every time metric"),
    "mesh.triangles": ("count", "scales every time metric"),
    "mesh.self_s": ("s", "setup_s"),
    "angular.build_s": ("s", "setup_s on all PN workloads"),
    "angular.n_plus": ("count", "scales solve_s on all PN workloads"),
    "angular.n_minus": ("count", "scales solve_s on all PN workloads"),
    "angular.self_s": ("s", "setup_s"),
    "pml.extend_s": ("s", "setup_s (small everywhere)"),
    "pml.self_s": ("s", "setup_s"),
    "assembly.build_s": ("s", "setup_s on disk-scatter and study-desk"),
    "assembly.load_s": ("s", "setup_s on disk-scatter and study-desk"),
    "assembly.mass_s": ("s", "solve_s on lattice-jacobi, about 1/3 of it on disk-scatter"),
    "assembly.boundary_s": ("s", "solve_s on lattice-jacobi, about 1/3 of it on disk-scatter"),
    "assembly.transport_s": ("s", "solve_s on lattice-jacobi, about 1/3 of it on disk-scatter"),
    "assembly.odd_solve_s": ("s", "solve_s on lattice-jacobi, about 1/3 of it on disk-scatter"),
    "assembly.transport_t_s": ("s", "solve_s on lattice-jacobi, about 1/3 of it on disk-scatter"),
    "assembly.schur_applies": ("count", "solve_s on all PN workloads"),
    "assembly.schur_apply_ms": ("ms", "solve_s on lattice-jacobi"),
    "assembly.apply_flops": ("flop", "solve_s and cpu_s (computed per Schur apply)"),
    "assembly.apply_bytes": ("B", "solve_s (computed per Schur apply)"),
    "assembly.dofs_even": ("count", "scales every time metric"),
    "assembly.dofs_odd": ("count", "scales every time metric"),
    "assembly.self_s": ("s", "solve_s"),
    "solver.precond_build_s": ("s", "setup_s on disk-scatter and study-desk; ~0 on lattice-jacobi"),
    "solver.precond_apply_s": ("s", "solve_s on disk-scatter and study-desk; ~0 on lattice-jacobi"),
    "solver.precond_applies": ("count", "solve_s on disk-scatter and study-desk"),
    "solver.factor_nnz": ("count", "setup_s and peak_rss_mb on disk-scatter"),
    "solver.pcg_self_s": ("s", "solve_s and cpu_s on lattice-jacobi"),
    "solver.recover_s": ("s", "solve_s (small)"),
    "solver.extra_matvecs": ("count", "solve_s (residual replacement and confirmation)"),
    "solver.failures": ("count", "failed passes"),
    "solver.self_s": ("s", "solve_s"),
    "oracle.sweep_build_s": ("s", "solve_s and total_s on oracle-reflect"),
    "oracle.rays": ("count", "solve_s and total_s on oracle-reflect"),
    "oracle.sweep_apply_s": ("s", "solve_s on oracle-reflect"),
    "oracle.sweeps": ("count", "solve_s on oracle-reflect"),
    "oracle.self_s": ("s", "solve_s on oracle-reflect"),
    "cli.self_s": ("s", "total_s on study-desk"),
    "cli.error_eval_s": ("s", "total_s on study-desk"),
    "cli.cases": ("count", "total_s on study-desk"),
    "bench.self_s": ("s", "none (benchmark glue between calls)"),
    "trace.total_s": ("s", "traced total_s"),
    "trace.overhead_s": ("s", "none (traced minus untraced total_s)"),
    "trace.coverage": ("ratio", "none (layer self times over traced total_s)"),
    "trace.spans": ("count", "none"),
}

# counts that must repeat exactly between passes of the same code and inputs
EXACT = ("mesh.refine_calls", "mesh.vertices", "mesh.triangles", "angular.n_plus",
         "angular.n_minus", "assembly.schur_applies", "assembly.apply_flops",
         "assembly.apply_bytes", "assembly.dofs_even", "assembly.dofs_odd",
         "solver.precond_applies", "solver.factor_nnz", "solver.extra_matvecs",
         "solver.failures", "oracle.rays", "oracle.sweeps", "cli.cases")

# a traced pass must attribute at least this share of its wall time to layers
COVERAGE_SLACK = 0.05


@dataclasses.dataclass
class Span:
    id: int
    parent: int | None
    name: str
    layer: str
    start: float
    end: float = 0.0
    error: str | None = None
    counts: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def schur_apply_cost(blocks) -> dict:
    """Computed flops and bytes of one S = M + R + B^T C^-1 B apply.

    Model: every sparse factor and every dense operand of each product is
    touched once; temporaries, transposes and cache misses are ignored.
    """
    nv, nt = blocks.mesh.n_vertices, blocks.mesh.n_triangles
    n_plus, n_minus = blocks.basis.n_plus, blocks.basis.n_minus
    f8 = 8

    def sparse_bytes(m):
        return (m.nnz * (m.data.itemsize + m.indices.itemsize)
                + m.indptr.size * m.indptr.itemsize)

    flops = nbytes = 0
    degrees = blocks.basis.even_degrees().tolist()
    for l, m in blocks.mass_blocks.items():
        cols = degrees.count(l)
        flops += 2 * m.nnz * cols
        nbytes += sparse_bytes(m) + 2 * f8 * nv * cols
    r = blocks.boundary
    flops += 2 * r.nnz * n_plus
    nbytes += sparse_bytes(r) + 2 * f8 * nv * n_plus
    for g, t in ((blocks.g_x, blocks.t_x), (blocks.g_y, blocks.t_y)):
        # B and B^T each: G (x) T as a spatial then an angular product
        flops += 2 * (2 * g.nnz * n_plus + 2 * t.nnz * nt)
        nbytes += 2 * (sparse_bytes(g) + sparse_bytes(t)
                       + f8 * (nv * n_plus + 2 * nt * n_plus + nt * n_minus))
    flops += nt * n_minus                       # C^-1
    nbytes += 3 * f8 * nt * n_minus
    flops += nt * n_minus + nv * n_plus         # x/y sums in B and B^T
    flops += 2 * nv * n_plus                    # M u + R u + B^T ...
    nbytes += 4 * f8 * nv * n_plus
    return {"apply_flops": int(flops), "apply_bytes": int(nbytes)}


class Tracer:
    """In-memory span recorder that wraps pnpml's public callables."""

    def __init__(self, pass_id: str):
        self.pass_id = pass_id
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._costs: dict[int, tuple[weakref.ref, dict]] = {}
        self._hooks = {
            "mesh.build_mesh": self._mesh_counts,
            "mesh.uniform_refine": self._mesh_counts,
            "angular.build_basis": lambda args, res: {
                "n_plus": res.n_plus, "n_minus": res.n_minus},
            "assembly.build_operator": lambda args, res: {
                "dofs_even": res.n_even, "dofs_odd": res.n_odd},
            SCHUR_APPLY: lambda args, res: self._cost(args[0].blocks),
            "solver.BlockSpatialPreconditioner.__init__": lambda args, res: {
                "factor_nnz": sum(int(lu.nnz) for lu in args[0]._solvers)},
            "oracle.SweepOperator.__init__": lambda args, res: {
                "rays": args[0].n_rays * args[0].ordinates.n_dirs},
            "cli.convergence_study": lambda args, res: {"cases": len(res[0])},
        }

    @staticmethod
    def _mesh_counts(args, res) -> dict:
        return {"vertices": res.n_vertices, "triangles": res.n_triangles}

    def _cost(self, blocks) -> dict:
        ref, cost = self._costs.get(id(blocks), (None, None))
        if ref is None or ref() is not blocks:
            cost = schur_apply_cost(blocks)
            self._costs[id(blocks)] = (weakref.ref(blocks), cost)
        return cost

    # -- spans -------------------------------------------------------------

    def _open(self, name: str, layer: str) -> Span:
        span = Span(id=len(self.spans), parent=self._stack[-1] if self._stack else None,
                    name=name, layer=layer, start=time.perf_counter())
        self.spans.append(span)
        self._stack.append(span.id)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A benchmark-side span (layer ``bench``)."""
        span = self._open(f"{BENCH}.{name}", BENCH)
        try:
            yield span
        except BaseException as exc:
            span.error = type(exc).__name__
            raise
        finally:
            self._close(span)

    def _wrap(self, fn, name: str, layer: str):
        hook = self._hooks.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                self._close(span)
            if hook is not None:
                try:
                    span.counts = hook(args, result)
                except (AttributeError, TypeError):
                    pass  # the package changed shape; the count reads as 0
            return result

        return wrapper

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, extra_namespaces=()) -> None:
        """Wrap every public function and method defined in a pnpml module,
        and rebind each module-level name that refers to one of them."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [importlib.import_module(f"pnpml.{layer}") for layer in LAYERS]
        wrapped = {}
        for layer, mod in zip(LAYERS, modules):
            for name, obj in vars(mod).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[obj] = self._wrap(obj, f"{layer}.{name}", layer)
                elif inspect.isclass(obj):
                    for attr, member in list(vars(obj).items()):
                        public = not attr.startswith("_") or (
                            attr == "__init__" and not dataclasses.is_dataclass(obj))
                        if public and inspect.isfunction(member):
                            self._patch(obj, attr, self._wrap(
                                member, f"{layer}.{name}.{attr}", layer))
        namespaces = [importlib.import_module("pnpml"), *modules, *extra_namespaces]
        for ns in namespaces:
            for name, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patch(ns, name, wrapped[obj])

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def records(self) -> list[dict]:
        return [{"pass": self.pass_id, **dataclasses.asdict(s)} for s in self.spans]


# -- metrics from spans -------------------------------------------------------

def self_times(spans: list[Span]) -> list[float]:
    """Duration minus the children's durations (children never overlap:
    one thread, strictly nested calls)."""
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.duration
    return own


def layer_metrics(spans: list[Span], iterations: int) -> dict:
    """Per-layer metrics of one traced pass (root span first)."""
    own = self_times(spans)
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def total(*names, parent=None) -> float:
        return sum(s.duration for n in names for s in by_name.get(n, ())
                   if parent is None or (s.parent is not None
                                         and parent(spans[s.parent])))

    def count(*names) -> int:
        return sum(len(by_name.get(n, ())) for n in names)

    def counted(key, *names, agg=max) -> int:
        vals = [s.counts[key] for n in names for s in by_name.get(n, ()) if s.counts]
        return int(agg(vals)) if vals else 0

    def entered(layer) -> float:
        # inclusive time of calls entering the layer from outside it
        return sum(s.duration for s in spans if s.layer == layer
                   and (s.parent is None or spans[s.parent].layer != layer))

    layer_self = {layer: 0.0 for layer in (*LAYERS, BENCH)}
    for s, t in zip(spans, own):
        layer_self[s.layer] += t

    in_schur = lambda p: p.name == SCHUR_APPLY
    from_cli = lambda p: p.layer == "cli"
    applies = count(SCHUR_APPLY)
    pcg = by_name.get("solver.pcg_solve", ())
    root = spans[0].duration
    m = {
        "mesh.build_s": total("mesh.build_mesh", "mesh.uniform_refine"),
        "mesh.refine_calls": count("mesh.uniform_refine"),
        "mesh.prolong_s": total("mesh.p1_prolong", "mesh.p0_prolong"),
        "mesh.vertices": counted("vertices", "mesh.build_mesh", "mesh.uniform_refine"),
        "mesh.triangles": counted("triangles", "mesh.build_mesh", "mesh.uniform_refine"),
        "angular.build_s": entered("angular"),
        "angular.n_plus": counted("n_plus", "angular.build_basis"),
        "angular.n_minus": counted("n_minus", "angular.build_basis"),
        "pml.extend_s": entered("pml"),
        "assembly.build_s": total("assembly.build_operator"),
        "assembly.load_s": total("assembly.project_source"),
        **{key: total(name, parent=in_schur) for key, name in SCHUR_PARTS.items()},
        "assembly.schur_applies": applies,
        "assembly.schur_apply_ms": 1e3 * total(SCHUR_APPLY) / applies if applies else 0.0,
        "assembly.apply_flops": counted("apply_flops", SCHUR_APPLY, agg=sum) // max(applies, 1),
        "assembly.apply_bytes": counted("apply_bytes", SCHUR_APPLY, agg=sum) // max(applies, 1),
        "assembly.dofs_even": counted("dofs_even", "assembly.build_operator"),
        "assembly.dofs_odd": counted("dofs_odd", "assembly.build_operator"),
        "solver.precond_build_s": total(*PRECOND_BUILD),
        "solver.precond_apply_s": total(*PRECOND_APPLY),
        "solver.precond_applies": count(*PRECOND_APPLY),
        "solver.factor_nnz": counted("factor_nnz", PRECOND_BUILD[1], agg=sum),
        "solver.pcg_self_s": sum(own[s.id] for s in pcg),
        "solver.recover_s": total("solver.recover_odd"),
        "solver.extra_matvecs": applies - iterations if applies else 0,
        "solver.failures": sum(1 for s in pcg if s.error),
        "oracle.sweep_build_s": total("oracle.SweepOperator.__init__"),
        "oracle.rays": counted("rays", "oracle.SweepOperator.__init__", agg=sum),
        "oracle.sweep_apply_s": total("oracle.SweepOperator.apply"),
        "oracle.sweeps": count("oracle.SweepOperator.apply"),
        "cli.error_eval_s": total(*NORMS, parent=from_cli),
        "cli.cases": counted("cases", "cli.convergence_study"),
        "trace.total_s": root,
        "trace.coverage": 1.0 - layer_self[BENCH] / root if root > 0 else 0.0,
        "trace.spans": len(spans),
    }
    for layer, t in layer_self.items():
        m[f"{layer}.self_s"] = t
    return m

