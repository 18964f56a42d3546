import dataclasses
import json
import sys
from collections import Counter

import numpy as np
import pytest

from conftest import assert_close
from qybe import (CyclicRepSpec, ToleranceConfig, assemble_R, build_cyclic_rep, build_lax,
                  build_spin_rep, casimir_matrix, closed_form_R, eigenvalue_sequence,
                  fundamental_r, qnum)
from qybe import cli, cyclic, rep, rop, tensorrep, verify
from qybe.cli import main
from qybe.errors import ParameterDomainError, PoleAtSector, SamplerExhausted
from qybe.qcore import (MAX_DRAWS, RATIONAL, DeformationParameter, _QStack, residual,
                        sample_generic_q, sample_u)
from qybe.tensorrep import ProductSpace
from qybe.verify import (ResidualReport, _on_slots, _regular_point,
                         check_branch_independence,
                         check_casimir_spectrum, check_cyclic_centrality,
                         check_cyclic_r_ratio, check_decomposed_ybe,
                         check_fundamental_ybe, check_partial_r, check_phi_identity,
                         check_rll, check_shift_laws, check_unitarity,
                         decomposed_residuals)

FAST = ToleranceConfig(sample_count=3, rng_seed=7)
# the fixed q of the xxz suites (None: q is drawn) and of the xxx ones
FIXED_QS = [pytest.param(None, id="xxz"), pytest.param(RATIONAL, id="xxx")]

SYMMETRY_IDS = ("qs_commute", "lower_twisted", "raise_twisted",
                "lower_twisted_bar", "raise_twisted_bar")
K_IDS = ("k_plus_minus", "k_minus_plus")


def test_report_verdict():
    r = ResidualReport("x", (), 1e-12, 1e-10)
    assert r.passed and r.verdict == "pass"
    r = ResidualReport("x", (), 1e-8, 1e-10)
    assert not r.passed and r.verdict == "fail"
    assert "max_residual" in r.to_dict()


def test_nonfinite_residual_fails():
    assert not ResidualReport("x", (), float("nan"), 1e-10).passed
    assert not ResidualReport("x", (), float("inf"), 1e-10).passed


def _at(monkeypatch, point):
    """check_fundamental_ybe at the one (q, u, v) ``point``: its draw
    gives that point."""
    monkeypatch.setattr(verify, "_quv", lambda rng, i, q: point)
    return ToleranceConfig(sample_count=1)


def test_nan_point_is_not_dropped(q_generic, monkeypatch):
    rep = check_fundamental_ybe(_at(monkeypatch, (q_generic, float("nan"), 0.3)))
    assert np.isnan(rep.max_residual)
    assert not rep.passed and rep.line().startswith("[FAIL]")


def test_fundamental_ybe_trigonometric():
    rep = check_fundamental_ybe(FAST)
    assert rep.passed and rep.max_residual < 1e-10


def test_fundamental_ybe_rational():
    rep = check_fundamental_ybe(FAST, q=RATIONAL)
    assert rep.passed and rep.max_residual < 1e-12


@pytest.mark.parametrize("q", ["xxx", "xxz", 1.0, DeformationParameter.generic(np.exp(0.3j)),
                               RATIONAL.with_branch_shift(1),
                               DeformationParameter.root_of_unity(3)])
@pytest.mark.parametrize("check", [lambda cfg, q: check_fundamental_ybe(cfg, q=q),
                                   lambda cfg, q: check_unitarity(0.5, 0.5, cfg, q=q)],
                         ids=["fundamental_ybe", "unitarity"])
def test_a_suite_runs_at_a_drawn_q_or_at_rational_alone(check, q):
    """q is None (drawn) or RATIONAL; any other q, a mode string included,
    is rejected before anything is drawn."""
    with pytest.raises(ParameterDomainError, match="RATIONAL"):
        check(FAST, q)


def test_mode_is_no_keyword():
    with pytest.raises(TypeError):
        check_fundamental_ybe(FAST, mode="xxx")
    with pytest.raises(TypeError):
        check_unitarity(0.5, 0.5, FAST, mode="xxx")


def test_fundamental_ybe_equal_arguments(rng, monkeypatch):
    q = sample_generic_q(rng)
    u = sample_u(rng)
    rep = check_fundamental_ybe(_at(monkeypatch, (q, u, u)))
    assert rep.max_residual < 1e-12
    # at zero argument the matrix is the flip itself, exactly so at q = 1
    swap = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
    assert np.allclose(fundamental_r(0.0, q), swap, atol=1e-12)
    assert np.array_equal(fundamental_r(0.0, RATIONAL), swap)


def test_embedding_slots_consistent(rng):
    m = np.arange(16, dtype=float).reshape(4, 4)
    for slots in ((0, 1), (0, 2), (1, 2)):
        e = _on_slots(m, (2, 2, 2), slots)
        assert e.shape == (8, 8)
    # slot 13 must reduce to slot 12 when the middle factor is trivial
    assert np.allclose(_on_slots(np.kron(np.eye(2), np.eye(2)), (2, 2, 2), (0, 2)), np.eye(8))
    # a product a x b lands as a x 1 x b, 1 x a x b or a x b x 1, on unequal factors too
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    ab = np.kron(a, b)
    assert np.array_equal(_on_slots(ab, (2, 4, 3), (0, 2)), np.kron(np.kron(a, np.eye(4)), b))
    assert np.array_equal(_on_slots(ab, (4, 2, 3), (1, 2)), np.kron(np.eye(4), ab))
    assert np.array_equal(_on_slots(ab, (2, 3, 4), (0, 1)), np.kron(ab, np.eye(4)))


def _embed_lax_by_krons(lax, slot, dim):
    """Reference: the aux-slot embedding as a sum of four Kronecker products."""
    out = np.zeros((4 * dim, 4 * dim), complex)
    for a in range(2):
        for b in range(2):
            blk = lax[a * dim:(a + 1) * dim, b * dim:(b + 1) * dim]
            e = np.zeros((2, 2))
            e[a, b] = 1
            if slot == 1:
                out += np.kron(np.kron(e, np.eye(2)), blk)
            else:
                out += np.kron(np.kron(np.eye(2), e), blk)
    return out


@pytest.mark.parametrize("slot", [1, 2])
def test_embed_lax_matches_kron_sum(slot, q_generic, rng):
    reps = [build_spin_rep(ell, q_generic) for ell in (0.5, 1.0, 1.5, 3.0)]
    reps.append(build_cyclic_rep(CyclicRepSpec(0.31 + 0.11j, -0.42 + 0.2j, 0.17 - 0.23j, 3)))
    for rep in reps:
        lax = build_lax(rep, sample_u(rng))
        slots = (0, 2) if slot == 1 else (1, 2)
        assert np.array_equal(_on_slots(lax, (2, 2, rep.dim), slots),
                              _embed_lax_by_krons(lax, slot, rep.dim))


@pytest.mark.parametrize("ell", [0.5, 1.0, 1.5])
def test_rll_spin(ell):
    rep = check_rll(ell, FAST)
    assert rep.max_residual < 1e-10


@pytest.mark.parametrize("ell", [0.5, 1.0, 1.5, 2.0])
def test_rll_at_the_rational_point(ell, rng):
    """At q = 1 the Lax matrix is the classical [[u+S, S-], [S+, u-S]] and RLL
    holds with the rational six-vertex matrix; a 1e-6 change to R12 breaks it."""
    rep = build_spin_rep(ell, RATIONAL)
    eye = np.eye(rep.dim)
    dims = (2, 2, rep.dim)
    s = np.diag(rep.weights)
    for _ in range(5):
        u, v = sample_u(rng), sample_u(rng)
        lax_u = build_lax(rep, u)
        assert np.array_equal(lax_u, np.block([[u * eye + s, rep.sm], [rep.sp, u * eye - s]]))
        l1 = _on_slots(lax_u, dims, (0, 2))
        l2 = _on_slots(build_lax(rep, v), dims, (1, 2))

        def rll(r):
            r12 = _on_slots(r, dims, (0, 1))
            return residual(r12 @ l1 @ l2, l2 @ l1 @ r12, r12, l1, l2)

        r = fundamental_r(u - v, RATIONAL)
        assert rll(r) < 1e-13
        r[0, 1] += 1e-6
        assert rll(r) > 1e-8


def test_rll_cyclic():
    spec = CyclicRepSpec(0.31 + 0.11j, -0.42 + 0.2j, 0.17 - 0.23j, 3)
    rep = check_rll(spec, FAST)
    assert rep.max_residual < 1e-9


@pytest.mark.parametrize("pair", [(0.5, 0.5), (0.5, 1.0), (1.0, 1.0)])
def test_decomposed_relations(pair):
    reports = check_decomposed_ybe(*pair, FAST)
    assert len(reports) == 8
    for rep in reports:
        assert rep.max_residual < 1e-10, rep.identity_id
    # linear-dependence structure: whenever the symmetry relations hold, the
    # K-type relations must follow
    by_id = {r.identity_id.split("[")[1].split("]")[0]: r for r in reports}
    if max(by_id[i].max_residual for i in SYMMETRY_IDS) < 1e-10:
        assert max(by_id[i].max_residual for i in K_IDS) < 1e-9


def test_decomposed_residuals_on_tabulated_matrix(rng):
    q = sample_generic_q(rng)
    u = 0.41 - 0.17j
    table = closed_form_R(0.5, 0.5, u, q)
    assert table.basis_tag == "monomial"
    res = decomposed_residuals(table)
    assert max(res.values()) < 1e-10
    assert res["qs_commute"] < 1e-14


@pytest.mark.parametrize("pair", [(0.5, 0.5), (0.5, 1.0), (1.0, 1.0)])
def test_unitarity(pair):
    rep = check_unitarity(*pair, FAST)
    assert rep.max_residual < 1e-9


def test_unitarity_rational():
    rep = check_unitarity(0.5, 0.5, FAST, q=RATIONAL)
    assert rep.max_residual < 1e-9


def test_branch_independence_integer_spins():
    rep = check_branch_independence(1.0, 1.0, FAST)
    assert rep.max_residual < 1e-14     # only integer powers of q in the ratios


def test_branch_independence_half_integer():
    rep = check_branch_independence(0.5, 1.0, FAST)
    assert rep.max_residual < 1e-10
    assert any(s["on_circle"] for s in rep.samples)
    assert any(not s["on_circle"] for s in rep.samples)


def test_casimir_spectrum_suite():
    rep = check_casimir_spectrum(0.5, 1.0, FAST)
    assert rep.max_residual < 1e-10


def test_cyclic_suites():
    assert check_cyclic_centrality(3, FAST).max_residual < 1e-10
    assert check_phi_identity(3, FAST, count=5).max_residual < 1e-10
    assert check_shift_laws(3, FAST).max_residual < 1e-9
    assert check_cyclic_r_ratio(3, FAST).max_residual < 1e-10
    assert check_partial_r(3, FAST).max_residual < 1e-9


def test_reports_reproducible():
    a = check_fundamental_ybe(ToleranceConfig(sample_count=4, rng_seed=11))
    b = check_fundamental_ybe(ToleranceConfig(sample_count=4, rng_seed=11))
    assert a.to_dict() == b.to_dict()
    c = check_fundamental_ybe(ToleranceConfig(sample_count=4, rng_seed=12))
    assert c.samples != a.samples


def test_residual_scales_linearly_with_perturbation(rng, monkeypatch):
    cfg = _at(monkeypatch, (sample_generic_q(rng), 0.3 - 0.2j, -0.4 + 0.1j))
    levels = {}
    for eps in (1e-8, 1e-6, 1e-4):
        levels[eps] = check_fundamental_ybe(cfg, perturb=eps).max_residual
    assert levels[1e-6] / levels[1e-8] == pytest.approx(100, rel=0.2)
    assert levels[1e-4] / levels[1e-6] == pytest.approx(100, rel=0.2)


def test_perturbation_fails_suites():
    bad = check_unitarity(0.5, 0.5, FAST, perturb=1e-3)
    assert not bad.passed
    reports = check_decomposed_ybe(0.5, 0.5, FAST, perturb=1e-3)
    assert any(not r.passed for r in reports)


def test_residual_normalization():
    a = np.array([[1e6, 0.0], [0.0, 1e6]])
    assert residual(a, a * (1 + 1e-12), a) < 1e-10


@pytest.mark.parametrize("pair", [(0.5, 0.5), (0.5, 1.0), (1.0, 1.0), (1.5, 1.0)])
def test_shared_space_path_matches_separate_builds(pair):
    rng = np.random.default_rng(5)
    for basis in ("orthonormal", "monomial"):
        q, u = _regular_point(*pair, rng)
        space = ProductSpace.of_spins(*pair, q, basis)
        rm = assemble_R(*pair, u, q, basis=basis)
        warm = decomposed_residuals(rm)
        assert ProductSpace.of_spins(*pair, q, basis) is space
        tensorrep._spin_space.cache_clear()
        assert np.array_equal(rm.matrix, assemble_R(*pair, u, q, basis=basis).matrix)
        tensorrep._spin_space.cache_clear()
        assert decomposed_residuals(rm) == warm


def test_regular_point_gives_up_after_max_draws():
    with pytest.raises(SamplerExhausted, match=f"{MAX_DRAWS} draws"):
        _regular_point(0.5, 0.5, np.random.default_rng(0), min_gap=1e9)


def test_branch_independence_gives_up_after_max_draws(monkeypatch):
    """Every candidate has a pole on one of its branches, since every
    denominator is below an infinite tolerance: the draw gives up after
    MAX_DRAWS candidates, each tested once."""
    monkeypatch.setattr(verify, "POLE_TOL", float("inf"))
    tested = []
    real = verify._pole_gaps
    monkeypatch.setattr(verify, "_pole_gaps",
                        lambda offsets, points: tested.append(points) or real(offsets, points))
    with pytest.raises(SamplerExhausted, match=f"{MAX_DRAWS} draws"):
        check_branch_independence(0.5, 1.0, FAST)
    assert len(tested) == MAX_DRAWS


def test_rational_unitarity_gives_up_after_max_draws(monkeypatch):
    # u = 1 sits on the pole of the (1/2, 1/2) rational eigenvalues
    monkeypatch.setattr(verify, "sample_u", lambda rng: 1 + 0j)
    with pytest.raises(SamplerExhausted, match=f"{MAX_DRAWS} draws"):
        check_unitarity(0.5, 0.5, FAST, q=RATIONAL)


def _spy_on_draws(monkeypatch, failing: tuple = ()) -> Counter:
    """Count the _regular_point draws by (ell1, ell2, q), q None where it is
    drawn; a draw at a q of ``failing`` raises SamplerExhausted."""
    drawn = Counter()
    real = verify._regular_point

    def spy(ell1, ell2, rng, *args, q=None, **kwargs):
        if q in failing:
            raise SamplerExhausted("test point", 1)
        drawn[ell1, ell2, q] += 1
        return real(ell1, ell2, rng, *args, q=q, **kwargs)

    monkeypatch.setattr(verify, "_regular_point", spy)
    return drawn


GOLDEN_STREAMS = [(0.5, 0.5, None), (0.5, 1.0, None), (1.0, 1.0, None), (0.5, 0.5, RATIONAL)]


def test_one_run_draws_each_pair_and_mode_once(monkeypatch, capsys):
    """The decomposed, unitarity and Casimir suites of a pair sample one
    stream: a run of verify all draws it once, not three times, and the
    suites share its record dicts.  A suite called afterwards draws afresh."""
    monkeypatch.delenv("QYBE_SEED", raising=False)
    monkeypatch.delenv("QYBE_PERTURB", raising=False)
    drawn = _spy_on_draws(monkeypatch)
    assert main(["verify", "all", "--samples", "5"]) == 0
    assert drawn == dict.fromkeys(GOLDEN_STREAMS, 5)

    reports = cli._run_suite("all", ToleranceConfig(sample_count=5, rng_seed=3), 3, 0.0)
    by_id = {report.identity_id: report for report in reports}
    records = by_id["decomposed[qs_commute](1.0,1.0)"].samples
    for name in ("unitarity[xxz](1.0,1.0)", "casimir_spectrum(1.0,1.0)"):
        assert all(a is b for a, b in zip(by_id[name].samples, records, strict=True))

    before = drawn[0.5, 0.5, None]
    monkeypatch.setattr(verify, "sample_u", lambda rng: 0.125 + 0.25j)
    report = check_unitarity(0.5, 0.5, ToleranceConfig(sample_count=5, rng_seed=42))
    assert drawn[0.5, 0.5, None] == before + 5
    assert {tuple(record["u"]) for record in report.samples} == {(0.125, 0.25)}


def test_a_run_that_raises_leaves_no_draws_behind(monkeypatch, capsys):
    """A run that ends in SamplerExhausted after the xxz draws leaves none of
    them for the next run, which draws afresh and reports as a clean run."""
    monkeypatch.delenv("QYBE_PERTURB", raising=False)
    argv = ["verify", "all", "--samples", "3", "--seed", "6"]
    assert main(argv) == 0
    clean = capsys.readouterr().out
    with monkeypatch.context() as patched:
        failing = _spy_on_draws(patched, failing=(RATIONAL,))
        assert main(argv) == 2
        assert "no admissible test point" in capsys.readouterr().err
    assert failing == dict.fromkeys(GOLDEN_STREAMS[:3], 3)
    drawn = _spy_on_draws(monkeypatch)
    assert main(argv) == 0
    assert drawn == dict.fromkeys(GOLDEN_STREAMS, 3)
    assert capsys.readouterr().out == clean


@pytest.mark.parametrize("suite,phases", [("all", 12), ("cyclic", 3)])
def test_one_run_draws_each_stream_once(suite, phases, monkeypatch, capsys):
    """Every stream of a run is drawn in one draw phase, from the one
    generator of the run's seed: verify all reads 23 suites' samples from 12
    streams, verify cyclic 5 suites' from 3.  The (q, u, v) streams at
    RATIONAL and at the cyclic rll's root of unity are two streams of the
    same (u, v) values."""
    seeded = []
    real = ToleranceConfig.rng
    monkeypatch.setattr(ToleranceConfig, "rng", lambda cfg: seeded.append(cfg) or real(cfg))
    timings = {}
    cli._run_suite(suite, ToleranceConfig(sample_count=5, rng_seed=3), 3, 0.0, timings)
    assert len(seeded) == 1
    assert len(timings["streams"]) == phases
    assert sum(len(row["suites"]) for row in timings["streams"]) == (23 if suite == "all" else 5)


def test_a_run_builds_one_generator_per_seed(monkeypatch):
    """Streams of one seed share a generator, reset to its seeded state
    before each further stream; each suite's report is the one it gives
    alone, from a fresh generator."""
    suites = [check_unitarity.suite(0.5, 0.5, ToleranceConfig(sample_count=3, rng_seed=seed))
              for seed in (3, 4)]
    suites += [check_casimir_spectrum.suite(1.0, 1.0, ToleranceConfig(sample_count=3,
                                                                      rng_seed=seed))
               for seed in (4, 3)]
    suites.append(check_phi_identity.suite(5, ToleranceConfig(rng_seed=3), count=4))
    alone = [verify._run([suite])[0].to_dict() for suite in suites]
    built = []
    real = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda seed: built.append(seed) or real(seed))
    assert [report.to_dict() for report in verify._run(suites)] == alone
    assert built == [3, 4]


@pytest.mark.parametrize("samples", [5, 17, 33])
def test_each_suite_alone_reports_as_inside_verify_all(samples):
    """Sharing streams within a run changes no report: each suite run alone
    gives the report dicts of its ids inside verify all."""
    for seed in range(12):
        cfg = ToleranceConfig(sample_count=samples, rng_seed=seed)
        inside = {report.identity_id: report.to_dict()
                  for report in cli._run_suite("all", cfg, 3, 0.0)}
        for suite in ("ybe", "rll", "unitarity", "casimir", "cyclic"):
            for report in cli._run_suite(suite, cfg, 3, 0.0):
                assert report.to_dict() == inside[report.identity_id], (seed, suite)


class _ForcedBranchDraws:
    """sample_generic_q and sample_u, except that the 2nd u puts its
    candidate's base branch on the sector-1 pole [l1 + l2 + u] = 0 of spins
    (1/2, 1), the 4th its shifted branch (the shift only flips the sign of
    a half-integer sector's denominator, so the base is at the pole too),
    and the 6th, at ``overflow``, makes a power of q overflow."""

    def __init__(self, overflow: complex | None = None):
        self.calls, self.q, self.overflow = 0, None, overflow

    def sample_generic_q(self, rng, on_circle=False):
        self.q = sample_generic_q(rng, on_circle)
        return self.q

    def sample_u(self, rng, scale=1.2):
        u = sample_u(rng, scale)
        self.calls += 1
        lb = self.q.log_branch
        forced = {2: -1.5 + 0j, 4: -1.5 * (lb + 2j * np.pi) / lb, 6: self.overflow}
        return forced.get(self.calls) or u


class _Candidates:
    """sample_generic_q and sample_u that give the listed (q, u) candidates
    in turn, q ignored at a fixed q."""

    def __init__(self, candidates):
        self.qs = iter([q for q, _ in candidates])
        self.us = iter([u for _, u in candidates])

    def sample_generic_q(self, rng, on_circle=False):
        return next(self.qs)

    def sample_u(self, rng, scale=1.2):
        return next(self.us)


def _at_gap(q, offset: float, gap: float) -> complex:
    """A u with |[offset + u]| = gap at q, to rounding: the w near 0 with
    q^w - q^-w = gap (q - 1/q), less the offset."""
    if q.log_branch == 0:
        return gap - offset + 0j
    c = gap * (q.value - 1 / q.value)
    return complex(np.log((c + np.sqrt(c * c + 4)) / 2) / q.log_branch) - offset


def _array_regular(ell1, ell2, q, u, min_gap=0.05) -> bool:
    """The pole test of _regular_point as one array expression."""
    sectors = ell1 + ell2 + 1 - np.arange(1, rop._top_sector(ell1, ell2) + 1)
    with np.errstate(all="ignore"):
        return bool((np.abs(qnum(np.add.outer(sectors, (u, -u)), q)) > min_gap).all())


def _array_branch(ell1, ell2, q, u) -> bool:
    """The pole test of _branch_point as the pole test of one two-row _eigenvalues call."""
    shifted_q = q.with_branch_shift(1)
    shifted_u = u * q.log_branch / shifted_q.log_branch
    try:
        rop._eigenvalues(ell1, ell2, (u, shifted_u), _QStack.of((q, shifted_q)))
    except PoleAtSector:
        return False
    return True


POLE_QS = [verify.RATIONAL, verify.DeformationParameter.generic(np.exp(0.1 + 0.9j)),
           verify.DeformationParameter.generic(np.exp(1.1j))]
OVERFLOWING_US = [1e5j, 800 + 0j, -800 + 3j, 3e2 - 2e2j]


@pytest.mark.parametrize("q", POLE_QS)
@pytest.mark.parametrize("pair", [(0.5, 0.5), (0.5, 1.0), (1.0, 1.5)])
def test_scalar_pole_tests_decide_as_the_array_tests(pair, q, monkeypatch):
    """_regular_point and _branch_point accept and reject each candidate as
    the array tests did, and as its gap says: candidates whose gap at u or
    at -u is 0.05 +- 1e-9 or POLE_TOL +- 1e-12, and candidates whose powers
    of q overflow."""
    safe = (q, 0.013 + 0.017j)
    # [x + u] (sign 1) or [x - u] (sign -1) of one pole offset x at the gap
    cases = [(sign, gap, sign * _at_gap(q, x, gap)) for x in verify._pole_offsets(*pair)
             for sign in (1, -1) for gap in (0.05 - 1e-9, 0.05 + 1e-9, rop.POLE_TOL - 1e-12,
                                             rop.POLE_TOL + 1e-12)]
    cases += [(None, None, u) for u in OVERFLOWING_US]
    for sign, gap, u in cases:
        for draw, array_test in ((_regular_point, _array_regular),
                                 (verify._branch_point, _array_branch)):
            if draw is verify._branch_point and q is verify.RATIONAL:
                continue
            sampler = _Candidates([(q, u), safe])
            monkeypatch.setattr(verify, "sample_generic_q", sampler.sample_generic_q)
            monkeypatch.setattr(verify, "sample_u", sampler.sample_u)
            if draw is _regular_point:
                accepted = draw(*pair, None, q=q if q is verify.RATIONAL else None)[1] == u
            else:
                accepted = draw(None, 1, *pair)[1] == u
            assert accepted == array_test(*pair, q, u), (draw.__name__, gap, u)
            if gap is not None:
                # the base branch's denominators are the [x + u]
                expected = (gap > 0.05 if draw is _regular_point
                            else sign != 1 or gap > rop.POLE_TOL)
                assert accepted == expected, (draw.__name__, gap, u)


def _reference_branch_independence(ell1, ell2, cfg, sampler):
    """check_branch_independence as a loop that draws one sample, computes
    its eigenvalue sequences and draws again at a pole; its records, its max
    residual and the number of candidates it drew again."""
    rng = cfg.rng()
    records, worst, redrawn = [], 0.0, 0
    for i in range(cfg.sample_count):
        while True:
            q = sampler.sample_generic_q(rng, on_circle=(i % 2 == 0))
            u = sampler.sample_u(rng)
            shifted_q = q.with_branch_shift(1)
            try:
                base = np.array(eigenvalue_sequence(ell1, ell2, u, q))
                shifted = np.array(eigenvalue_sequence(
                    ell1, ell2, u * q.log_branch / shifted_q.log_branch, shifted_q))
                break
            except PoleAtSector:
                redrawn += 1
        records.append({"q": [q.value.real, q.value.imag], "u": [u.real, u.imag],
                        "on_circle": bool(abs(abs(q.value) - 1) < 1e-12)})
        worst = max(worst, residual(base, shifted, base))
    return records, worst, redrawn


def test_a_branch_candidate_at_a_pole_is_drawn_again_as_one_sample_at_a_time(monkeypatch):
    cfg = ToleranceConfig(sample_count=5, rng_seed=11)
    records, worst, redrawn = _reference_branch_independence(0.5, 1.0, cfg, _ForcedBranchDraws())
    assert redrawn == 2
    sampler = _ForcedBranchDraws()
    monkeypatch.setattr(verify, "sample_generic_q", sampler.sample_generic_q)
    monkeypatch.setattr(verify, "sample_u", sampler.sample_u)
    report = check_branch_independence(0.5, 1.0, cfg)
    assert list(report.samples) == records and report.max_residual == worst


def test_branch_independence_computes_each_candidate_eigenvalues_once(monkeypatch):
    """The draw tests the poles of every candidate once, on both branches,
    in scalar arithmetic, and computes no eigenvalue; the evaluation
    computes those of the accepted samples in one call over both branches
    of each: 5 samples, 2 of whose candidates were at a pole, take 7 pole
    tests of two points each and one call of 10 rows."""
    rows, tested = [], []
    real, gaps = verify._eigenvalues, verify._pole_gaps

    def counting(ell1, ell2, us, qs):
        rows.append(len(us))
        return real(ell1, ell2, us, qs)

    sampler = _ForcedBranchDraws()
    monkeypatch.setattr(verify, "sample_generic_q", sampler.sample_generic_q)
    monkeypatch.setattr(verify, "sample_u", sampler.sample_u)
    monkeypatch.setattr(verify, "_eigenvalues", counting)
    monkeypatch.setattr(verify, "_pole_gaps",
                        lambda offsets, points: tested.append(len(points)) or gaps(offsets, points))
    assert check_branch_independence(0.5, 1.0, ToleranceConfig(sample_count=5, rng_seed=11)).passed
    assert tested == [2] * 7
    assert rows == [10]


def test_a_branch_draw_computes_no_eigenvalue(monkeypatch):
    def forbidden(*args):
        raise AssertionError("the draw computed eigenvalues")

    monkeypatch.setattr(verify, "_eigenvalues", forbidden)
    rng = np.random.default_rng(4)
    for i in range(20):
        q, u, shifted_q, shifted_u = verify._branch_point(rng, i, 1.0, 1.0)
        assert shifted_q.value == q.value and shifted_u == u * q.log_branch / shifted_q.log_branch


def test_a_non_finite_branch_eigenvalue_raises_for_its_sample(monkeypatch):
    """u = 1e5 i makes a power of q overflow on the 6th candidate, which is
    sample 3 (two candidates before it were at a pole): the error is the
    one that eigenvalue_sequence raises there."""
    cfg = ToleranceConfig(sample_count=5, rng_seed=11)
    with pytest.raises(ParameterDomainError) as expected:
        _reference_branch_independence(0.5, 1.0, cfg, _ForcedBranchDraws(1e5j))
    assert "u = 100000j" in str(expected.value)
    sampler = _ForcedBranchDraws(1e5j)
    monkeypatch.setattr(verify, "sample_generic_q", sampler.sample_generic_q)
    monkeypatch.setattr(verify, "sample_u", sampler.sample_u)
    with pytest.raises(ParameterDomainError) as got:
        check_branch_independence(0.5, 1.0, cfg)
    assert str(got.value) == str(expected.value)


def _sample_us(report) -> tuple:
    return tuple(complex(*record["u"]) for record in report.samples)


@pytest.mark.parametrize("q", FIXED_QS)
def test_unitarity_solves_both_signs_on_one_space_per_sample(q, monkeypatch):
    """R(u) and R(-u) of every sample are solved in one call from one
    spectral form: a stack of the samples' own q values, orthonormal, at a
    sampled q, and the one monomial space at q = 1, which every sample
    shares, so the suite's one stack is built here."""
    stacks, solved = [], []
    init = ProductSpace.__init__
    solve = verify._solve

    def counting_init(self, *args):
        stacks.append(self)
        init(self, *args)

    def spying_solve(ell1, ell2, us, qs, eig, form):
        solved.append((tuple(us), form))
        return solve(ell1, ell2, us, qs, eig, form)

    monkeypatch.setattr(ProductSpace, "__init__", counting_init)
    monkeypatch.setattr(verify, "_solve", spying_solve)
    report = check_unitarity(1.0, 1.0, FAST, q=q)
    assert report.passed
    (stack,) = stacks
    form = stack.spectral_form()
    us = _sample_us(report)
    assert solved == [(us + tuple(-u for u in us), form)]
    if q is RATIONAL:
        assert tuple(stack.qs) == (RATIONAL,)
        assert ProductSpace.of_spins(1.0, 1.0, RATIONAL, "monomial") is stack
    else:
        assert [q.value for q in stack.qs] == [complex(*r["q"]) for r in report.samples]
    basis = "monomial" if q is RATIONAL else "orthonormal"
    assert {factor.basis_tag for factor in stack.factors} == {basis}


def test_casimir_spectrum_builds_one_chain_family_per_sample(monkeypatch):
    """One stacked pass raises the unbarred chains of every sample at its u."""
    calls = []
    chains = ProductSpace.chains

    def counting_chains(self, families, gens=None):
        calls.append([(kind, tuple(us)) for kind, us in families])
        return chains(self, families, gens)

    monkeypatch.setattr(ProductSpace, "chains", counting_chains)
    report = check_casimir_spectrum(1.0, 1.0, FAST)
    assert report.passed
    assert calls == [[("delta", _sample_us(report))]]


def test_each_golden_pair_run_raises_its_chains_and_solves_r_once(monkeypatch, capsys):
    """verify all --samples 5 makes one ProductSpace.chains call and one
    rop._solve call per xxz golden-pair run: its three chain families, and
    R(u) and R(-u) of its five samples; verify casimir alone raises the
    Casimir sectors and builds no spectral form.

    Each run derives its q arrays once: one q stack, which its factors,
    Casimir diagonal and Casimir sectors read, and which the eigenvalues of
    R(u) and R(-u) read repeated; its chains are cut into weight blocks
    once; and its six coproduct families, Delta and Delta-bar at 0, Delta
    at u and -u and Delta-bar at u and -u, come from one call of the
    coproduct kernel."""
    chains, solve = ProductSpace.chains, verify._solve
    calls, forms, stacks, reads, cuts, terms = [], [], [], [], [], []

    def counting_chains(self, families, gens=None):
        if not self.rational:
            calls.append(("chains", [kind for kind, _ in families]))
        return chains(self, families, gens)

    def counting_solve(ell1, ell2, us, qs, eig, form):
        if qs[0] is not RATIONAL:
            calls.append(("solve", len(us)))
        return solve(ell1, ell2, us, qs, eig, form)

    post_init = tensorrep.SpectralForm.__post_init__

    def counting_form(form):
        forms.append(form)
        post_init(form)

    of = _QStack.of.__func__

    def counting_of(cls, qs):
        stacks.append(of(cls, qs))
        return stacks[-1]

    def reading(module):
        real = module._qnums

        def qnums(n, qs):
            reads.append((sys._getframe(1).f_code.co_name, qs))
            return real(n, qs)
        return qnums

    cut, twisted_terms = tensorrep._BlockLayout.cut, tensorrep._twisted_terms

    def counting_terms(f1, f2, kinds, us):
        if not f1.qs.rational:
            terms.append(kinds.tolist())
        return twisted_terms(f1, f2, kinds, us)

    monkeypatch.setattr(ProductSpace, "chains", counting_chains)
    monkeypatch.setattr(verify, "_solve", counting_solve)
    monkeypatch.setattr(tensorrep.SpectralForm, "__post_init__", counting_form)
    monkeypatch.setattr(_QStack, "of", classmethod(counting_of))
    for module in (rep, rop, tensorrep):
        monkeypatch.setattr(module, "_qnums", reading(module))
    monkeypatch.setattr(tensorrep._BlockLayout, "cut",
                        lambda self, chains: cuts.append(chains.shape[1]) or cut(self, chains))
    monkeypatch.setattr(tensorrep, "_twisted_terms", counting_terms)
    assert main(["verify", "all", "--samples", "5", "--seed", "5"]) == 0
    assert calls == [("chains", ["delta", "deltabar", "delta"]), ("solve", 10)] * 3
    runs = [qs for kernel, qs in reads if kernel == "_casimir_sectors"]
    assert len(runs) == 3
    # R(u) and R(-u) of each run, the three xxz ones and the xxx one, read its stack
    # repeated; each branch-independence run reads the base and shifted q of its samples
    eigenvalue_stacks = [qs for kernel, qs in reads if kernel == "_eigenvalues"]
    repeated = [qs for qs in eigenvalue_stacks if qs.params[:5] == qs.params[5:]]
    assert len(repeated) == 4 and not any(stack is qs for qs in repeated for stack in stacks)
    branches = [qs for qs in eigenvalue_stacks if qs not in repeated]
    assert [len(qs) for qs in branches] == [10, 10]
    assert all(qs[2 * s + 1] == qs[2 * s].with_branch_shift(1)
               for qs in branches for s in range(5))
    for run in runs:
        assert sum(stack is run for stack in stacks) == 1
        assert {kernel for kernel, qs in reads if qs is run} == {
            "_spin_factors", "_casimir_diagonals", "_casimir_sectors"}
        assert any(tuple(qs) == tuple(run) * 2
                   and qs.log_branch.tobytes() == np.tile(run.log_branch, 2).tobytes()
                   for qs in repeated)
    # the xxz passes cut their three families once each; the xxx form its one
    assert sorted(cuts) == [1, 3, 3, 3]
    assert terms == [[0, 1, 0, 0, 1, 1]] * 3
    calls.clear()
    forms.clear()
    assert main(["verify", "casimir", "--samples", "5", "--seed", "5"]) == 0
    assert calls == [("chains", ["delta"])] * 3
    assert forms == []
    capsys.readouterr()


SPEC3 = CyclicRepSpec(0.31 + 0.11j, -0.42 + 0.2j, 0.17 - 0.23j, 3)
SUITES = {
    "fundamental_ybe[xxz]": lambda cfg: check_fundamental_ybe(cfg),
    "fundamental_ybe[xxx]": lambda cfg: check_fundamental_ybe(cfg, q=RATIONAL),
    "rll[spin]": lambda cfg: check_rll(1.0, cfg),
    "rll[cyclic]": lambda cfg: check_rll(SPEC3, cfg),
    "decomposed": lambda cfg: check_decomposed_ybe(0.5, 1.0, cfg),
    "unitarity[xxz]": lambda cfg: check_unitarity(0.5, 1.0, cfg),
    "unitarity[xxx]": lambda cfg: check_unitarity(0.5, 0.5, cfg, q=RATIONAL),
    "branch_independence": lambda cfg: check_branch_independence(0.5, 1.0, cfg),
    "casimir_spectrum": lambda cfg: check_casimir_spectrum(0.5, 1.0, cfg),
    "cyclic_centrality": lambda cfg: check_cyclic_centrality(3, cfg),
    "phi_product": lambda cfg: check_phi_identity(3, cfg, count=5),
    "shift_laws": lambda cfg: check_shift_laws(3, cfg),
    "cyclic_r_ratio": lambda cfg: check_cyclic_r_ratio(3, cfg),
    "partial_r": lambda cfg: check_partial_r(3, cfg),
}
ON_RESIDUAL = ("fundamental_ybe[xxz]", "fundamental_ybe[xxx]", "rll[spin]", "rll[cyclic]",
               "decomposed", "unitarity[xxz]", "unitarity[xxx]")


def _reports(result):
    return result if isinstance(result, list) else [result]


@pytest.mark.parametrize("suite", list(SUITES))
def test_suite_reports_carry_every_sample_and_the_seed(suite, monkeypatch):
    cfg = ToleranceConfig(sample_count=2, rng_seed=13)
    expected = 5 if suite == "phi_product" else cfg.sample_count
    for rep in _reports(SUITES[suite](cfg)):
        assert rep.passed, rep.identity_id
        assert len(rep.samples) == expected and rep.seed == cfg.rng_seed
    if suite in ON_RESIDUAL:
        monkeypatch.setattr(verify, "_relative", lambda gaps, scales: np.full(gaps.shape, np.nan))
        for rep in _reports(SUITES[suite](cfg)):
            assert np.isnan(rep.max_residual) and rep.line().startswith("[FAIL]")


def test_suites_need_a_sample():
    with pytest.raises(ParameterDomainError):
        check_phi_identity(3, FAST, count=0)


def test_regular_point_rational_mode_draws_u_alone():
    q, u = _regular_point(0.5, 1.0, np.random.default_rng(3), q=RATIONAL)
    assert q is RATIONAL
    # spins (1/2, 1): the only denominators are 3/2 + u and 3/2 - u
    ref = np.random.default_rng(3)
    first = next(v for v in iter(lambda: sample_u(ref), None)
                 if min(abs(1.5 + v), abs(1.5 - v)) > 0.05)
    assert u == first


def test_cyclic_centrality_nan_residual_fails_the_report(monkeypatch, capsys):
    # the guards in central_elements and tensor_power_scalars raise on NaN
    monkeypatch.setattr(cyclic, "_scalar_part", lambda m: (np.zeros(m.shape[:-3], complex),
                                                           np.full(m.shape[:-3], np.nan)))
    rep = check_cyclic_centrality(3, FAST)
    assert np.isnan(rep.max_residual) and len(rep.samples) == FAST.sample_count
    assert main(["verify", "cyclic", "--samples", "2", "--seed", "5"]) == 1
    assert "[FAIL] cyclic_centrality[N=3]: max residual nan" in capsys.readouterr().out


def _count_cyclic_reps(monkeypatch) -> list:
    """The specs of each cyclic band stack built."""
    built = []
    real = cyclic._rep_bands
    monkeypatch.setattr(cyclic, "_rep_bands",
                        lambda specs: built.append(list(specs)) or real(specs))
    return built


def test_cyclic_centrality_builds_two_reps_per_sample(monkeypatch):
    """Two representations per sample, in one stack of 2 S per run of
    samples; the central elements and the tensor powers share them instead
    of building their own."""
    built = []
    real = cyclic._rep_bands
    monkeypatch.setattr(cyclic, "_rep_bands", lambda specs: built.append(len(specs)) or real(specs))
    assert check_cyclic_centrality(3, FAST).passed
    assert built == [2 * FAST.sample_count]


@pytest.mark.parametrize("suite", [check_cyclic_centrality, check_shift_laws])
@pytest.mark.parametrize("n", [3, 7])
def test_cyclic_tensor_suites_build_no_dense_coproduct(suite, n, monkeypatch):
    """The tensor checks run on the sector bands: no dense twisted generator
    and no Kronecker product is formed."""
    calls = []
    for owner, name in ((ProductSpace, "coproduct"), (ProductSpace, "coproducts"), (np, "kron")):
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name,
                            lambda *a, _real=real, _name=name, **k: calls.append(_name)
                            or _real(*a, **k))
    assert suite(n, FAST).passed
    assert calls == []


def test_rll_builds_its_cyclic_rep_once(monkeypatch):
    spec = CyclicRepSpec(0.31 + 0.11j, -0.42 + 0.2j, 0.17 - 0.23j, 3)
    built = _count_cyclic_reps(monkeypatch)
    assert check_rll(spec, FAST).passed
    assert built == [[spec]]


def _conflicting_sample(n, rng, q=None):
    """Coinciding families at u with distinct images at -u: partial_R's
    relations conflict with residual sqrt(3)/2 at N = 3."""
    return (CyclicRepSpec(0.3 + 0.1j, 0.3 + 0.1j, 0.3j, n, q),
            CyclicRepSpec(-0.2 + 0.4j, -0.2 + 0.4j, 0.3j, n, q), 2.0)


def test_conflicting_partial_r_sample_fails_its_report(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(cyclic, "sample_compatible_params", _conflicting_sample)
    rep = check_partial_r(3, FAST)
    assert not rep.passed and rep.max_residual == pytest.approx(np.sqrt(3) / 2)
    assert all(s["span_rank"] == 3 for s in rep.samples)
    # the suite's tolerance decides the verdict, not partial_R's own
    assert check_partial_r(3, ToleranceConfig(rel_tol=1.0, sample_count=2)).passed
    report = tmp_path / "cyclic.json"
    assert main(["verify", "cyclic", "--samples", "2", "--seed", "5",
                 "--json", str(report)]) == 1
    fails = [line for line in capsys.readouterr().out.splitlines() if line.startswith("[FAIL]")]
    assert fails == ["[FAIL] partial_r[N=3]: max residual 8.660e-01 (tol 1e-09)"]
    verdicts = {r["identity_id"]: r["verdict"] for r in json.loads(report.read_text())["reports"]}
    assert verdicts.pop("partial_r[N=3]") == "fail"
    assert set(verdicts.values()) == {"pass"}


# ---------------------------------------------------------------------------
# the stacked paths against their per-item references

def _reference_decomposed(rm):
    """The eight relations of decomposed_residuals, one qcore.residual each."""
    q, u, r = rm.q, rm.u, rm.matrix
    space = ProductSpace.of_spins(rm.ell1, rm.ell2, q, rm.basis_tag)
    rep1, rep2 = (build_spin_rep(ell, q, rm.basis_tag) for ell in (rm.ell1, rm.ell2))
    cop_u, cop_mu = space.coproduct("delta", u), space.coproduct("delta", -u)
    bar_u, bar_mu = space.coproduct("deltabar", u), space.coproduct("deltabar", -u)
    qs = cop_u.qs(1)
    out = {"qs_commute": residual(r @ qs, qs @ r, r, qs)}
    for name, a, b in (("lower_twisted", cop_u.sm, bar_mu.sm),
                       ("raise_twisted", cop_u.sp, bar_mu.sp),
                       ("lower_twisted_bar", bar_u.sm, cop_mu.sm),
                       ("raise_twisted_bar", bar_u.sp, cop_mu.sp)):
        out[name] = residual(r @ a, b @ r, r, a, b)
    qu, c2 = q.pow(u), (q.value - 1 / q.value) ** 2
    kron = np.kron
    qpm = qu * kron(rep1.qs(1), rep2.qs(-1)) + kron(rep1.qs(-1), rep2.qs(1)) / qu
    qmp = qu * kron(rep1.qs(-1), rep2.qs(1)) + kron(rep1.qs(1), rep2.qs(-1)) / qu
    k_pm = qpm - c2 * kron(rep1.sm, rep2.sp)
    k_mp = qmp - c2 * kron(rep1.sp, rep2.sm)
    out["k_plus_minus"] = residual(r @ k_pm, (qpm - c2 * kron(rep1.sp, rep2.sm)) @ r, r, k_pm)
    out["k_minus_plus"] = residual(r @ k_mp, (qmp - c2 * kron(rep1.sm, rep2.sp)) @ r, r, k_mp)
    c_mu, c_bar_u = casimir_matrix(cop_mu), casimir_matrix(bar_u)
    out["casimir_intertwine"] = residual(c_mu @ r, r @ c_bar_u, r, c_mu, c_bar_u)
    return out


def test_decomposed_residuals_equal_one_residual_per_relation():
    rng = np.random.default_rng(5)
    for ell1, ell2 in ((0.5, 0.5), (0.5, 1.0), (1.0, 1.0), (1.5, 1.0)):
        for fixed, basis in ((None, "orthonormal"), (None, "monomial"), (RATIONAL, "monomial")):
            q, u = _regular_point(ell1, ell2, rng, q=fixed)
            rm = assemble_R(ell1, ell2, u, q, basis=basis)
            # a small R leaves the scale of each residual to its other inputs
            for scale in (1.0, 1e-3):
                scaled = dataclasses.replace(rm, matrix=scale * rm.matrix)
                got = decomposed_residuals(scaled)
                want = _reference_decomposed(scaled)
                assert list(got) == list(want)
                assert_close(list(got.values()), list(want.values()))


def _reference_on_slots(op, dims, slots):
    a, b = slots
    c = 3 - a - b
    t = np.einsum("ikjl,mn->ikmjln", op.reshape(dims[a], dims[b], dims[a], dims[b]),
                  np.eye(dims[c]))
    perm = [(a, b, c).index(s) for s in range(3)]
    d = dims[0] * dims[1] * dims[2]
    return t.transpose(*perm, *(p + 3 for p in perm)).reshape(d, d)


@pytest.mark.parametrize("slots", [(0, 1), (0, 2), (1, 2), (1, 0), (2, 0), (2, 1)])
def test_on_slots_equals_the_einsum_reference(slots, rng):
    dims = (2, 3, 4)
    n = dims[slots[0]] * dims[slots[1]]
    op = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    assert np.array_equal(_on_slots(op, dims, slots), _reference_on_slots(op, dims, slots))


def _reference_regular_point(ell1, ell2, rng, min_gap=0.05, q=None):
    big_l = ell1 + ell2 + 1
    top = int(round(2 * min(ell1, ell2)))
    for _ in range(MAX_DRAWS):
        point_q = sample_generic_q(rng) if q is None else q
        u = sample_u(rng)
        if all(abs(qnum(big_l - n + s * u, point_q)) > min_gap
               for n in range(1, top + 1) for s in (1, -1)):
            return point_q, u
    raise AssertionError("no regular point")


@pytest.mark.parametrize("q", FIXED_QS)
def test_regular_point_accepts_what_the_per_gap_test_accepts(q):
    for ell1, ell2 in ((0.0, 1.0), (0.5, 0.5), (1.0, 1.0), (2.5, 2.0)):
        for min_gap in (0.05, 0.6):
            got, ref = np.random.default_rng(17), np.random.default_rng(17)
            for _ in range(25):
                assert (_regular_point(ell1, ell2, got, min_gap, q)
                        == _reference_regular_point(ell1, ell2, ref, min_gap, q))
            assert got.bit_generator.state == ref.bit_generator.state
