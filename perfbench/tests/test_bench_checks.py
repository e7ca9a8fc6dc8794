"""Each correctness check of the benchmark accepts a true result and rejects
a perturbed one.  Run with ``python3 -m pytest perfbench/tests``."""

import math

import numpy as np
import pytest

import run
import workloads as wl

SMALL_DISK = wl.DISK_CONFIG.format(cx=0.75, cy=0.0) + """
disc.base_h = 0.2
disc.n = 3
disc.level = 0
pml.exp_al = 0.125
"""

SMALL_STUDY = wl.DISK_CONFIG.format(cx=0.75, cy=0.0) + """
disc.base_h = 0.25
pml.exp_al = 0.5 0.125
study.n = 3
study.levels = 0
study.ref_n = 3
study.ref_level = 1
study.ref_exp_al = 0.125
"""


@pytest.fixture(scope="module")
def small_pn():
    result = wl.pn_pass({"config": SMALL_DISK}, wl.Clock())
    blocks, q_plus, q_minus, fld, basis, tol = wl.pn_check_inputs(result)
    ref = wl.mean_integral(fld, basis, blocks.mesh)
    return result, ref


def _pn_check(result, ref, rel_tol=1e-6, field=None):
    blocks, q_plus, q_minus, fld, basis, tol = wl.pn_check_inputs(result)
    return wl.check_pn(blocks, q_plus, q_minus, field or fld, basis, tol, ref, rel_tol)[0]


def test_pn_check_accepts_the_solve(small_pn):
    result, ref = small_pn
    assert _pn_check(result, ref) == []


def test_pn_check_rejects_a_scaled_even_field(small_pn):
    result, ref = small_pn
    fld = wl.pn_check_inputs(result)[3]
    bad = type(fld)(fld.even * (1 + 1e-4), fld.odd)
    fails = _pn_check(result, None, field=bad)
    assert any("true relative residual" in f for f in fails)
    assert any("even Galerkin residual" in f for f in fails)


def test_pn_check_rejects_a_perturbed_odd_field(small_pn):
    result, ref = small_pn
    fld = wl.pn_check_inputs(result)[3]
    bad = type(fld)(fld.even, fld.odd + 1e-6 * np.abs(fld.odd).max())
    assert any("odd Galerkin residual" in f for f in _pn_check(result, None, field=bad))


def test_pn_check_rejects_a_wrong_mean_integral(small_pn):
    result, ref = small_pn
    fails = _pn_check(result, ref * (1 + 1e-5))
    assert len(fails) == 1 and "angular-mean integral" in fails[0]


def test_only_the_lattice_gamma_warning_is_expected(small_pn, monkeypatch):
    result, ref = small_pn
    message = wl.EXPECTED_GAMMA_WARNING + ": the even mass block may be singular"
    warned = dict(result, warnings=[message])
    monkeypatch.setitem(wl.REFERENCE, "lattice-jacobi", {"mean_integral": ref})
    monkeypatch.setitem(wl.REFERENCE, "disk-scatter", {"mean_integral": ref})
    assert wl.check("lattice-jacobi", 0, warned)[0] == []
    assert wl.check("disk-scatter", 0, warned)[0] == [f"unexpected warning: {message}"]


ELL = 0.2
ABSORPTIONS = [-math.log(t) / ELL for t in wl.ORACLE_DAMPING]
NORMS = wl.REFERENCE["oracle-reflect"]["trace_norms"]


def test_oracle_check_accepts_the_reference():
    fails, values = wl.check_oracle(NORMS, ABSORPTIONS, ELL, NORMS, 1e-6)
    assert fails == [] and abs(values["fitted_depth"] - ELL) <= 0.25 * ELL


def test_oracle_check_rejects_a_perturbed_trace_norm():
    bad = [NORMS[0] * (1 + 1e-5), NORMS[1]]
    fails, _ = wl.check_oracle(bad, ABSORPTIONS, ELL, NORMS, 1e-6)
    assert len(fails) == 1 and "boundary-trace norm 0" in fails[0]


def test_oracle_check_rejects_a_wrong_decay_depth():
    # a layer that damps half as fast in the log doubles the fitted depth
    bad = [NORMS[0], NORMS[0] * math.sqrt(NORMS[1] / NORMS[0])]
    fails, values = wl.check_oracle(bad, ABSORPTIONS, ELL, [None, None], 1e-6)
    assert values["fitted_depth"] > 1.25 * ELL or values["fitted_depth"] < 0.75 * ELL
    assert any("fitted decay depth" in f for f in fails)


@pytest.fixture(scope="module")
def small_study():
    result = wl.study_pass({"config": SMALL_STUDY}, wl.Clock())
    rows, csv_text = result["_check"]
    return rows, csv_text


def test_study_check_accepts_the_study(small_study):
    rows, csv_text = small_study
    ref = [r["e_h"] for r in rows]
    assert wl.check_study(rows, csv_text, ref, 1e-4)[0] == []


def test_study_check_rejects_a_changed_header(small_study):
    rows, csv_text = small_study
    bad = csv_text.replace("e_h", "err", 1)
    fails = wl.check_study(rows, bad, None, 1e-4)[0]
    assert len(fails) == 1 and "CSV header" in fails[0]


def test_study_check_rejects_iterations_rising_with_damping(small_study):
    rows, csv_text = small_study
    bad = [dict(r) for r in rows]
    strongest = min(range(len(bad) - 1), key=lambda k: bad[k]["exp_al"])
    bad[strongest]["iters"] = max(r["iters"] for r in rows) + 1
    fails = wl.check_study(bad, csv_text, None, 1e-4)[0]
    assert len(fails) == 1 and "iterations rise" in fails[0]


def test_study_check_rejects_a_perturbed_error(small_study):
    rows, csv_text = small_study
    ref = [r["e_h"] for r in rows]
    bad = [dict(r) for r in rows]
    bad[0]["e_h"] *= 1 + 1e-3
    fails = wl.check_study(bad, csv_text, ref, 1e-4)[0]
    assert len(fails) == 1 and "e_h of row 0" in fails[0]


def test_seed_zero_is_the_roadmap_case_and_seeds_stay_inside():
    assert wl.source_centre(0) == (0.75, 0.0)
    for seed in (1, 2, 17, 12345):
        cx, cy = wl.source_centre(seed)
        assert wl.source_centre(seed) == (cx, cy)
        assert math.isclose(math.hypot(cx, cy), wl.SOURCE_RADIUS) and wl.SOURCE_RADIUS < 1.0
    assert wl.inputs("lattice-jacobi", 5) == wl.inputs("lattice-jacobi", 0)


def test_count_self_check_flags_a_differing_count():
    same = [{"traced": False, "counts": {"iterations": 56, "dofs_even": 10}} for _ in range(2)]
    assert run.count_mismatches(same) == []
    differ = [same[0], {"traced": False, "counts": {"iterations": 57, "dofs_even": 10}}]
    assert run.count_mismatches(differ) == ["count iterations differs between passes: [56, 57]"]
