import numpy as np
import pytest

from pnpml.mesh import (
    INTERIOR,
    LAYER,
    Disk,
    GeometrySpec,
    build_mesh,
    ray_exit_distance,
)
from pnpml.pml import (
    ModelError,
    extend_coefficients,
    extension_apply,
    reflect,
    reflect_factor,
)

RNG = np.random.default_rng(99)


def example1_spec():
    return GeometrySpec(inner=Disk(0.0, 0.0, 1.0), outer=Disk(0.0, 0.0, 1.2))


def gaussian_source(points):
    r0 = np.array([0.75, 0.0])
    return np.exp(-5.0 * np.sum((points - r0) ** 2, axis=1))


class TestExtendCoefficients:
    def test_example1_values(self):
        spec = example1_spec()
        mesh = build_mesh(spec, 0.1)
        # damping target e^{-a l} = 1/2 with l = 0.2 gives a = 5 ln 2
        a = -np.log(0.5) / spec.layer_depth
        coeffs = extend_coefficients(mesh, mu=10.1, kernel=10.0,
                                     source=gaussian_source, a=a)
        assert a == pytest.approx(5 * np.log(2))
        assert coeffs.a == pytest.approx(3.4657, abs=1e-4)
        layer = mesh.tags == LAYER
        assert np.allclose(coeffs.mu[layer], coeffs.a)
        assert np.allclose(coeffs.mu[~layer], 10.1)
        assert coeffs.gamma == pytest.approx(0.1, abs=1e-12)
        assert coeffs.big_gamma == pytest.approx(10.1)
        assert coeffs.a5_satisfied

    def test_layer_scattering_and_source_vanish(self):
        mesh = build_mesh(example1_spec(), 0.1)
        coeffs = extend_coefficients(mesh, 10.1, 10.0, gaussian_source, a=2.0)
        layer = mesh.tags == LAYER
        assert np.all(coeffs.sigma[layer, :] == 0.0)
        assert np.all(coeffs.source[layer] == 0.0)
        assert np.any(coeffs.sigma[~layer, 0] > 0)

    def test_zero_layer_absorption_flagged(self):
        mesh = build_mesh(example1_spec(), 0.1)
        coeffs = extend_coefficients(mesh, 10.1, 10.0, gaussian_source, a=0.0)
        assert coeffs.gamma == 0.0
        assert not coeffs.a5_satisfied

    def test_zero_kernel_gamma_is_min_mu(self):
        mesh = build_mesh(example1_spec(), 0.1)
        coeffs = extend_coefficients(mesh, 2.5, 0.0, 1.0, a=3.0)
        assert coeffs.gamma == pytest.approx(2.5)

    def test_supercritical_kernel_rejected(self):
        mesh = build_mesh(example1_spec(), 0.1)
        with pytest.raises(ModelError):
            extend_coefficients(mesh, 1.0, 2.0, 1.0, a=1.0)

    def test_negative_absorption_rejected(self):
        mesh = build_mesh(example1_spec(), 0.1)
        with pytest.raises(ModelError):
            extend_coefficients(mesh, -1.0, 0.0, 1.0, a=1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_layer_absorption_rejected(self, bad):
        mesh = build_mesh(example1_spec(), 0.1)
        with pytest.raises(ModelError):
            extend_coefficients(mesh, 10.1, 10.0, 1.0, a=bad)

    def test_empty_kernel_rejected(self):
        mesh = build_mesh(example1_spec(), 0.1)
        with pytest.raises(ModelError):
            extend_coefficients(mesh, 10.1, [], 1.0, a=1.0)

    @pytest.mark.parametrize("kernel, message", [([1.0, np.nan], "must be finite"),
                                                 ([1.0, 5.0], "kernel is negative")],
                             ids=["nan", "negative-phase-function"])
    def test_bad_kernel_list_rejected(self, kernel, message):
        mesh = build_mesh(example1_spec(), 0.1)
        with pytest.raises(ModelError, match=message):
            extend_coefficients(mesh, 10.1, kernel, 1.0, a=1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_source_rejected(self, bad):
        mesh = build_mesh(example1_spec(), 0.1)
        with pytest.raises(ModelError):
            extend_coefficients(mesh, 1.0, 0.0, bad, a=1.0)
        with pytest.raises(ModelError):
            extend_coefficients(mesh, 1.0, 0.0,
                                lambda p: np.where(p[:, 0] > 0.5, bad, 1.0), a=1.0)

    def test_non_finite_kernel_callable_rejected(self):
        mesh = build_mesh(example1_spec(), 0.1)
        with pytest.raises(ModelError):
            extend_coefficients(mesh, 1.0, lambda p: np.full(p.shape[0], np.nan), 1.0, a=1.0)

    def test_spatially_varying_isotropic_kernel(self):
        mesh = build_mesh(example1_spec(), 0.1)

        def sig0(points):
            return np.where(points[:, 0] > 0, 0.5, 0.0)

        coeffs = extend_coefficients(mesh, 1.0, sig0, 1.0, a=1.0)
        interior = mesh.tags == INTERIOR
        cent = mesh.centroids
        right = interior & (cent[:, 0] > 0)
        assert np.allclose(coeffs.sigma[right, 0], 0.5)
        assert coeffs.gamma == pytest.approx(0.5)


class TestExtensionApply:
    def test_missing_ray_gives_zero(self):
        spec = example1_spec()
        val = extension_apply(spec, 5.0, lambda hit, s: 1.0,
                              r=(1.2, 0.0), s=(0.0, 1.0, 0.0))
        assert val == 0.0

    def test_no_damping(self):
        spec = example1_spec()
        val = extension_apply(spec, 0.0, lambda hit, s: 1.0,
                              r=(1.2, 0.0), s=(1.0, 0.0, 0.0))
        assert val == pytest.approx(1.0, abs=1e-14)

    def test_exponential_damping(self):
        spec = example1_spec()
        val = extension_apply(spec, 5.0, lambda hit, s: 1.0,
                              r=(1.2, 0.0), s=(1.0, 0.0, 0.0))
        assert val == pytest.approx(np.exp(-1.0), abs=1e-10)
        assert val == pytest.approx(0.3679, abs=1e-4)

    def test_trace_bound_on_outer_boundary(self):
        spec = example1_spec()
        a, ell = 4.0, spec.layer_depth
        pts, _ = spec.outer.boundary_points(50)
        for r in pts:
            for _ in range(20):
                v = RNG.normal(size=3)
                s = v / np.linalg.norm(v)
                if not np.isfinite(ray_exit_distance(spec, r, s)):
                    continue
                val = extension_apply(spec, a, lambda hit, s: 1.0, r, s)
                assert abs(val) <= np.exp(-a * ell) + 1e-12

    def test_directional_derivative_in_layer(self):
        # along the characteristic the extension satisfies s.grad E = -a E
        spec = example1_spec()
        a = 3.0
        trace = lambda hit, s: 1.0 + 0.0 * hit[0]
        delta = 1e-6
        checked = 0
        for _ in range(200):
            v = RNG.normal(size=3)
            s = v / np.linalg.norm(v)
            rad = RNG.uniform(1.02, 1.18)
            ang = RNG.uniform(0, 2 * np.pi)
            r = rad * np.array([np.cos(ang), np.sin(ang)])
            d = ray_exit_distance(spec, r, s)
            if not np.isfinite(d) or d < 0.02:
                continue
            # keep both finite-difference evaluation points inside the layer
            rp = r + delta * s[:2]
            rm = r - delta * s[:2]
            if spec.inner.distance(rp[None])[0] <= 0 or spec.outer.distance(rp[None])[0] >= 0:
                continue
            if spec.inner.distance(rm[None])[0] <= 0 or spec.outer.distance(rm[None])[0] >= 0:
                continue
            fp = extension_apply(spec, a, trace, rp, s)
            fm = extension_apply(spec, a, trace, rm, s)
            f0 = extension_apply(spec, a, trace, r, s)
            deriv = (fp - fm) / (2 * delta)
            assert deriv == pytest.approx(-a * f0, rel=1e-4, abs=1e-8)
            checked += 1
        assert checked > 50


class TestReflect:
    def test_normal_incidence_absorbed(self):
        assert reflect(3.0, -1.0) == 0.0

    def test_partial_reflection(self):
        assert reflect(1.0, -0.6) == pytest.approx(-0.25, abs=1e-14)

    def test_grazing_limit(self):
        assert reflect(1.0, -1e-12) == pytest.approx(-1.0, rel=1e-9)

    def test_outflow_rejected(self):
        with pytest.raises(ValueError):
            reflect(1.0, 0.0)
        with pytest.raises(ValueError):
            reflect(1.0, 0.3)

    def test_contraction(self):
        sn = -RNG.uniform(1e-9, 1.0, size=1000)
        g = RNG.normal(size=1000)
        assert np.all(np.abs(reflect(g, sn)) <= np.abs(g) + 1e-15)

    def test_factor_bounded_by_grazing_sine(self):
        # in-plane directions reaching the boundary from the inner region have
        # |s.n| >= eta, so the reflection gain stays below 1 - eta
        spec = example1_spec()
        eta = spec.grazing_sine
        pts, nrms = spec.outer.boundary_points(200)
        count = 0
        for r, n in zip(pts, nrms):
            for _ in range(20):
                ang = RNG.uniform(0, 2 * np.pi)
                s = np.array([np.cos(ang), np.sin(ang), 0.0])
                # inflow point whose reversed ray came from the inner region
                if s @ np.array([n[0], n[1], 0.0]) >= 0:
                    continue
                if not np.isfinite(ray_exit_distance(spec, r, -s)):
                    continue
                fac = reflect_factor(float(s[:2] @ n))
                assert abs(fac) <= 1.0 - eta + 1e-9
                count += 1
        assert count > 200
