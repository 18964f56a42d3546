"""Acceptance suite: one criterion per test, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""
import numpy as np

from qybe import (RATIONAL, CyclicRepSpec, ProductSpace, ToleranceConfig, assemble_R,
                  closed_form_R, build_spin_rep, eigenvalue_sequence, normalize_global)
from qybe.cli import GOLDEN_PAIRS
from qybe.qcore import _nan_max, sample_generic_q
from qybe.verify import (_regular_point, check_casimir_spectrum, check_cyclic_centrality,
                         check_cyclic_r_ratio, check_decomposed_ybe, check_fundamental_ybe,
                         check_phi_identity, check_rll, check_shift_laws,
                         check_unitarity)

SEED = 20250810


def _criterion(num: int, desc: str, worst: float, tol: float):
    ok = worst < tol
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {desc}: "
          f"max residual {worst:.3e} (tol {tol:g})")
    assert ok, f"criterion {num} failed: {worst:.3e} >= {tol:g}"


def _golden_deviation(pair, seed=SEED, points=10):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(points):
        q, u = _regular_point(*pair, rng)
        built = assemble_R(*pair, u, q)
        table = closed_form_R(*pair, u, q)
        worst = _nan_max(worst, np.abs(normalize_global(built.matrix)
                                       - normalize_global(table.matrix)).max())
    return worst


def test_criterion_1_golden_4x4():
    _criterion(1, "assembled vs tabulated 4x4, 10 seeded points", _golden_deviation((0.5, 0.5)), 1e-9)


def test_criterion_2_golden_6x6():
    _criterion(2, "assembled vs tabulated 6x6, 10 seeded points", _golden_deviation((0.5, 1.0)), 1e-9)


def test_criterion_3_golden_9x9():
    _criterion(3, "assembled vs tabulated 9x9, 10 seeded points", _golden_deviation((1.0, 1.0)), 1e-9)


def test_criterion_4_recurrence_vs_product():
    """Points are redrawn while any |R_n| exceeds 50: large eigenvalues mean
    u is close to a pole of the operator, where an absolute gate is
    meaningless."""
    rng = np.random.default_rng(SEED)
    worst = 0.0
    pairs = [(0.5, 0.5), (1.5, 1.0), (2.0, 2.5), (3.0, 3.0)]
    for ell1, ell2 in pairs:
        done = 0
        while done < 10:
            q, u = _regular_point(ell1, ell2, rng)
            seqs = [eigenvalue_sequence(ell1, ell2, u, q),
                    eigenvalue_sequence(ell1, ell2, u, RATIONAL)]
            if max(abs(v) for e in seqs for v in e.values) > 50:
                continue
            done += 1
            for eig in seqs:
                worst = _nan_max(worst, *(abs(a - b) for a, b in
                                          zip(eig.values, eig.product_values)))
    _criterion(4, "eigenvalue recurrence vs closed product, spins <= 3", worst, 1e-12)


def test_criterion_5_ybe_suites():
    cfg = ToleranceConfig(sample_count=10, rng_seed=SEED)
    worst = check_fundamental_ybe(cfg, mode="xxz").max_residual
    for ell in (0.5, 1.0, 1.5):
        worst = _nan_max(worst, check_rll(ell, cfg).max_residual)
    for pair in GOLDEN_PAIRS:
        worst = _nan_max(worst, *(r.max_residual for r in check_decomposed_ybe(*pair, cfg)))
    cyc = check_rll(CyclicRepSpec(0.31 + 0.11j, -0.42 + 0.2j, 0.17 - 0.23j, 3), cfg)
    assert cyc.max_residual < 1e-9, "cyclic quantum-space RLL exceeded 1e-9"
    _criterion(5, "fundamental YBE, spin RLL, 8 decomposed relations "
                  f"(cyclic RLL {cyc.max_residual:.1e} < 1e-9)", worst, 1e-10)


def test_criterion_6_unitarity():
    cfg = ToleranceConfig(sample_count=10, rng_seed=SEED)
    worst = 0.0
    for pair in GOLDEN_PAIRS:
        worst = _nan_max(worst, check_unitarity(*pair, cfg).max_residual)
    worst = _nan_max(worst, check_unitarity(0.5, 0.5, cfg, mode="xxx").max_residual)
    _criterion(6, "R(u) R(-u) = 1 on golden pairs and rational mode", worst, 1e-9)


def test_criterion_7_casimir_spectrum():
    cfg = ToleranceConfig(sample_count=10, rng_seed=SEED)
    worst = 0.0
    for pair in GOLDEN_PAIRS:
        worst = _nan_max(worst, check_casimir_spectrum(*pair, cfg).max_residual)
    _criterion(7, "tensor Casimir sector eigenvalues with m-degeneracy", worst, 1e-10)


def test_criterion_8_root_of_unity_centrality():
    cfg = ToleranceConfig(sample_count=10, rng_seed=SEED)
    worst = 0.0
    for n in (3, 5, 7):
        worst = _nan_max(worst, check_cyclic_centrality(n, cfg).max_residual,
                         check_phi_identity(n, cfg, count=20).max_residual)
    _criterion(8, "extended-center scalars and full-period q-number products",
               worst, 1e-10)


def test_criterion_9_cyclic_eigenstates():
    cfg = ToleranceConfig(sample_count=10, rng_seed=SEED)
    worst = 0.0
    for n in (3, 5):
        worst = _nan_max(worst, check_shift_laws(n, cfg).max_residual,
                         check_cyclic_r_ratio(n, cfg).max_residual)
    _criterion(9, "cyclic shift relations (exact prefactors) and eigenvalue ratio",
               worst, 1e-9)


def test_criterion_10_property_suite():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    # q <-> 1/q invariance of the eigenvalues
    for _ in range(5):
        q, u = _regular_point(1.0, 1.5, rng)
        a = eigenvalue_sequence(1.0, 1.5, u, q).values
        b = eigenvalue_sequence(1.0, 1.5, u, q.inverse()).values
        worst = _nan_max(worst, *(abs(x - y) for x, y in zip(a, b)))
    # u = 0 alternating signs
    q0 = sample_generic_q(rng)
    vals = eigenvalue_sequence(2.0, 2.0, 0.0, q0).values
    worst = _nan_max(worst, *(abs(v - (-1.0) ** n) for n, v in enumerate(vals)))
    # product-formula lowest weights against the SVD null-space oracle
    for pair in GOLDEN_PAIRS:
        q, u = _regular_point(*pair, rng)
        r1 = build_spin_rep(pair[0], q)
        r2 = build_spin_rep(pair[1], q)
        space = ProductSpace(r1, r2)
        sm = space.coproduct("delta", u).sm
        for n, chain in enumerate(space.sectors(u)):
            cols = [j * r2.dim + k for j in range(r1.dim) for k in range(r2.dim)
                    if j + k == n]
            rows = [j * r2.dim + k for j in range(r1.dim) for k in range(r2.dim)
                    if j + k == n - 1]
            if rows:
                block = sm[np.ix_(rows, cols)]
            else:
                block = np.zeros((1, len(cols)))
            null = np.linalg.svd(block)[2][-1].conj()
            v = chain[0, cols]
            cos = abs(np.vdot(null, v)) / (np.linalg.norm(null) * np.linalg.norm(v))
            worst = _nan_max(worst, 1 - cos)
    _criterion(10, "q-inverse invariance, u=0 signs, null-space oracle", worst, 1e-10)
    # negative control: a perturbed matrix must fail the YBE and unitarity gates
    cfg = ToleranceConfig(sample_count=2, rng_seed=SEED)
    assert not check_unitarity(0.5, 0.5, cfg, perturb=1e-3).passed
    assert any(not r.passed for r in check_decomposed_ybe(0.5, 0.5, cfg, perturb=1e-3))
    print("[PASS] criterion 10: negative control (perturbed matrix) fails gates 5-6")
