import dataclasses
import json

import numpy as np
import pytest

from qybe import (CyclicRepSpec, ToleranceConfig, assemble_R, build_cyclic_rep, build_lax,
                  build_spin_rep, casimir_matrix, closed_form_R, fundamental_r, qnum)
from qybe import cyclic, tensorrep, verify
from qybe.cli import main
from qybe.errors import ParameterDomainError, PoleAtSector, SamplerExhausted
from qybe.qcore import MAX_DRAWS, RATIONAL, residual, sample_generic_q, sample_u
from qybe.tensorrep import ProductSpace
from qybe.verify import (ResidualReport, _on_slots, _regular_point,
                         check_branch_independence,
                         check_casimir_spectrum, check_cyclic_centrality,
                         check_cyclic_r_ratio, check_decomposed_ybe,
                         check_fundamental_ybe, check_partial_r, check_phi_identity,
                         check_rll, check_shift_laws, check_unitarity,
                         decomposed_residuals)

FAST = ToleranceConfig(sample_count=3, rng_seed=7)

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


def test_nan_point_is_not_dropped(q_generic):
    rep = check_fundamental_ybe(points=[(q_generic, float("nan"), 0.3)])
    assert np.isnan(rep.max_residual)
    assert not rep.passed and rep.line().startswith("[FAIL]")


def test_fundamental_ybe_trigonometric():
    rep = check_fundamental_ybe(FAST, mode="xxz")
    assert rep.passed and rep.max_residual < 1e-10


def test_fundamental_ybe_rational():
    rep = check_fundamental_ybe(FAST, mode="xxx")
    assert rep.passed and rep.max_residual < 1e-12


def test_fundamental_ybe_equal_arguments(rng):
    q = sample_generic_q(rng)
    u = sample_u(rng)
    rep = check_fundamental_ybe(points=[(q, u, u)])
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
    rep = check_unitarity(0.5, 0.5, FAST, mode="xxx")
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


def test_residual_scales_linearly_with_perturbation(rng):
    q = sample_generic_q(rng)
    pts = [(q, 0.3 - 0.2j, -0.4 + 0.1j)]
    levels = {}
    for eps in (1e-8, 1e-6, 1e-4):
        levels[eps] = check_fundamental_ybe(points=pts, perturb=eps).max_residual
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
    def always_pole(*args, **kwargs):
        raise PoleAtSector(1)

    monkeypatch.setattr(verify, "eigenvalue_sequence", always_pole)
    with pytest.raises(SamplerExhausted, match=f"{MAX_DRAWS} draws"):
        check_branch_independence(0.5, 1.0, FAST)


def test_rational_unitarity_gives_up_after_max_draws(monkeypatch):
    # u = 1 sits on the pole of the (1/2, 1/2) rational eigenvalues
    monkeypatch.setattr(verify, "sample_u", lambda rng: 1 + 0j)
    with pytest.raises(SamplerExhausted, match=f"{MAX_DRAWS} draws"):
        check_unitarity(0.5, 0.5, FAST, mode="xxx")


@pytest.mark.parametrize("mode", ["xxz", "xxx"])
def test_unitarity_solves_both_signs_on_one_space_per_sample(mode, monkeypatch):
    """R(u) and R(-u) share one space per sample: orthonormal at a sampled q,
    monomial at q = 1, where every sample shares the one space."""
    spaces, solved_on = [], []
    init = ProductSpace.__init__
    form = ProductSpace.spectral_form

    def counting_init(self, *args):
        spaces.append(self)
        init(self, *args)

    def spying_form(self):
        solved_on.append(self)
        return form(self)

    monkeypatch.setattr(ProductSpace, "__init__", counting_init)
    monkeypatch.setattr(ProductSpace, "spectral_form", spying_form)
    assert check_unitarity(1.0, 1.0, FAST, mode=mode).passed
    per_sample = spaces * FAST.sample_count if mode == "xxx" else spaces
    assert len(per_sample) == FAST.sample_count
    assert solved_on == [space for space in per_sample for _ in (1, -1)]
    basis = "monomial" if mode == "xxx" else "orthonormal"
    assert {rep.basis_tag for space in spaces for rep in space.parents} == {basis}


def test_casimir_spectrum_builds_one_chain_family_per_sample(monkeypatch):
    kinds = []
    chains = ProductSpace._chains

    def counting_chains(self, u, requested):
        kinds.append(requested)
        return chains(self, u, requested)

    monkeypatch.setattr(ProductSpace, "_chains", counting_chains)
    assert check_casimir_spectrum(1.0, 1.0, FAST).passed
    assert kinds == [("delta",)] * FAST.sample_count


SPEC3 = CyclicRepSpec(0.31 + 0.11j, -0.42 + 0.2j, 0.17 - 0.23j, 3)
SUITES = {
    "fundamental_ybe[xxz]": lambda cfg: check_fundamental_ybe(cfg),
    "fundamental_ybe[xxx]": lambda cfg: check_fundamental_ybe(cfg, mode="xxx"),
    "rll[spin]": lambda cfg: check_rll(1.0, cfg),
    "rll[cyclic]": lambda cfg: check_rll(SPEC3, cfg),
    "decomposed": lambda cfg: check_decomposed_ybe(0.5, 1.0, cfg),
    "unitarity[xxz]": lambda cfg: check_unitarity(0.5, 1.0, cfg),
    "unitarity[xxx]": lambda cfg: check_unitarity(0.5, 0.5, cfg, mode="xxx"),
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
        monkeypatch.setattr(verify, "residual", lambda *args: float("nan"))
        for rep in _reports(SUITES[suite](cfg)):
            assert np.isnan(rep.max_residual) and rep.line().startswith("[FAIL]")


def test_suites_need_a_sample():
    with pytest.raises(ParameterDomainError):
        check_phi_identity(3, FAST, count=0)


def test_regular_point_rational_mode_draws_u_alone():
    q, u = _regular_point(0.5, 1.0, np.random.default_rng(3), mode="xxx")
    assert q is RATIONAL
    # spins (1/2, 1): the only denominators are 3/2 + u and 3/2 - u
    ref = np.random.default_rng(3)
    first = next(v for v in iter(lambda: sample_u(ref), None)
                 if min(abs(1.5 + v), abs(1.5 - v)) > 0.05)
    assert u == first


def test_cyclic_centrality_nan_residual_fails_the_report(monkeypatch, capsys):
    # the guards in central_elements and tensor_power_scalars raise on NaN
    monkeypatch.setattr(cyclic, "_scalar_part", lambda m: (0j, float("nan")))
    rep = check_cyclic_centrality(3, FAST)
    assert np.isnan(rep.max_residual) and len(rep.samples) == FAST.sample_count
    assert main(["verify", "cyclic", "--samples", "2", "--seed", "5"]) == 1
    assert "[FAIL] cyclic_centrality[N=3]: max residual nan" in capsys.readouterr().out


def _count_cyclic_reps(monkeypatch) -> list:
    built = []
    real = cyclic.build_cyclic_rep
    monkeypatch.setattr(cyclic, "build_cyclic_rep", lambda spec: built.append(spec) or real(spec))
    return built


def test_cyclic_centrality_builds_two_reps_per_sample(monkeypatch):
    """Two representations per sample; central_elements and
    tensor_power_scalars share them instead of building their own."""
    built = _count_cyclic_reps(monkeypatch)
    assert check_cyclic_centrality(3, FAST).passed
    assert len(built) == 2 * FAST.sample_count


@pytest.mark.parametrize("suite", [check_cyclic_centrality, check_shift_laws])
@pytest.mark.parametrize("n", [3, 7])
def test_cyclic_tensor_suites_build_no_dense_coproduct(suite, n, monkeypatch):
    """The tensor checks run on the sector bands: no dense twisted generator
    and no Kronecker product is formed."""
    calls = []
    for owner, name in ((ProductSpace, "coproduct"), (tensorrep, "kron"), (np, "kron")):
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
    assert built == [spec]


def _conflicting_sample(n, rng):
    """Coinciding families at u with distinct images at -u: partial_R's
    relations conflict with residual sqrt(3)/2 at N = 3."""
    return (CyclicRepSpec(0.3 + 0.1j, 0.3 + 0.1j, 0.3j, n),
            CyclicRepSpec(-0.2 + 0.4j, -0.2 + 0.4j, 0.3j, n), 2.0)


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
    rep1, rep2 = space.parents
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
    kron = tensorrep.kron
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
        for mode, basis in (("xxz", "orthonormal"), ("xxz", "monomial"), ("xxx", "monomial")):
            q, u = _regular_point(ell1, ell2, rng, mode=mode)
            rm = assemble_R(ell1, ell2, u, q, basis=basis)
            # a small R leaves the scale of each residual to its other inputs
            for scale in (1.0, 1e-3):
                scaled = dataclasses.replace(rm, matrix=scale * rm.matrix)
                got = decomposed_residuals(scaled)
                assert list(got.items()) == list(_reference_decomposed(scaled).items())


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


def _reference_regular_point(ell1, ell2, rng, min_gap=0.05, mode="xxz"):
    big_l = ell1 + ell2 + 1
    top = int(round(2 * min(ell1, ell2)))
    for _ in range(MAX_DRAWS):
        q = RATIONAL if mode == "xxx" else sample_generic_q(rng)
        u = sample_u(rng)
        if all(abs(qnum(big_l - n + s * u, q)) > min_gap
               for n in range(1, top + 1) for s in (1, -1)):
            return q, u
    raise AssertionError("no regular point")


@pytest.mark.parametrize("mode", ["xxz", "xxx"])
def test_regular_point_accepts_what_the_per_gap_test_accepts(mode):
    for ell1, ell2 in ((0.0, 1.0), (0.5, 0.5), (1.0, 1.0), (2.5, 2.0)):
        for min_gap in (0.05, 0.6):
            got, ref = np.random.default_rng(17), np.random.default_rng(17)
            for _ in range(25):
                assert (_regular_point(ell1, ell2, got, min_gap, mode)
                        == _reference_regular_point(ell1, ell2, ref, min_gap, mode))
            assert got.bit_generator.state == ref.bit_generator.state
