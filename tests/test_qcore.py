import warnings

import numpy as np
import pytest

from conftest import q_inverse
from qybe import (RATIONAL, DeformationParameter, PhiProduct, ToleranceConfig, phi_product,
                  qnum)
from qybe.errors import DegenerateDenominator, ParameterDomainError, SamplerExhausted
from qybe.qcore import MAX_DRAWS, residual, sample_generic_q


def test_qnum_one_is_one(q_generic):
    assert qnum(1, q_generic) == pytest.approx(1.0)


def test_qnum_two_at_q_two():
    q = DeformationParameter.generic(2.0)
    assert qnum(2, q) == pytest.approx(2.5)
    assert qnum(2, q) == pytest.approx(q.value + 1 / q.value)


def test_qnum_order_vanishes_at_root_of_unity():
    for n in (3, 5, 7):
        q = DeformationParameter.root_of_unity(n)
        assert abs(qnum(n, q)) < 1e-12


def test_qnum_period_shift_at_root_of_unity(rng):
    q = DeformationParameter.root_of_unity(5)
    for _ in range(20):
        n = complex(rng.normal(), rng.normal())
        for k in (-2, -1, 1, 2):
            assert qnum(n + k * 5, q) == pytest.approx(qnum(n, q), abs=1e-10)


def test_qnum_odd_in_n(rng, q_generic):
    for _ in range(10):
        n = complex(rng.normal(), rng.normal())
        assert qnum(-n, q_generic) == pytest.approx(-qnum(n, q_generic))


def test_qnum_q_inverse_symmetry(rng, q_generic):
    inv = q_inverse(q_generic)
    for _ in range(10):
        n = complex(rng.normal(), rng.normal())
        assert qnum(n, inv) == pytest.approx(qnum(n, q_generic))


def test_qpow_basics(q_generic):
    assert q_generic.pow(0) == pytest.approx(1.0)
    assert q_generic.pow(1) == pytest.approx(q_generic.value)
    assert q_generic.pow(0.5) ** 2 == pytest.approx(q_generic.value, abs=1e-10)


def test_qpow_uses_fixed_branch(q_generic):
    shifted = q_generic.with_branch_shift(1)
    assert shifted.value == pytest.approx(q_generic.value)
    # half-integer powers flip sign across the branch shift
    assert shifted.pow(0.5) == pytest.approx(-q_generic.pow(0.5))


def test_degenerate_denominator():
    near_one = DeformationParameter(value=1 + 1e-13, log_branch=np.log(1 + 1e-13))
    with pytest.raises(DegenerateDenominator):
        qnum(2, near_one)


def test_qnum_at_rational_point_is_its_limit(rng):
    ns = rng.normal(size=5) + 1j * rng.normal(size=5)
    for n in (3, 2.5, complex(ns[0])):
        assert qnum(n, RATIONAL) == n
    assert np.array_equal(qnum(ns, RATIONAL), ns)
    assert RATIONAL.pow(complex(ns[1])) == 1
    assert np.array_equal(RATIONAL.pow(ns), np.ones(5))
    # another branch of log 1 is not the rational point: q^n is not 1 there
    with pytest.raises(DegenerateDenominator):
        qnum(0.5, RATIONAL.with_branch_shift(1))
    assert RATIONAL.order is None
    with pytest.raises(ParameterDomainError):
        phi_product(0.3, RATIONAL)


def test_generic_guard_rejects_roots_of_unity():
    for bad in (1.0, -1.0, 1j, np.exp(2j * np.pi / 8), np.exp(2j * np.pi / 64)):
        with pytest.raises(ParameterDomainError):
            DeformationParameter.generic(bad)


def test_root_of_unity_validation():
    with pytest.raises(ParameterDomainError):
        DeformationParameter.root_of_unity(4)
    q = DeformationParameter.root_of_unity(5)
    assert abs(q.value**5 - 1) < 1e-12
    assert q.order == 5
    for bad in (0, 1, -3):
        with pytest.raises(ParameterDomainError, match="at least 3"):
            DeformationParameter.root_of_unity(bad)


def test_direct_construction_checks_the_order():
    """order is validated wherever q is built: odd, at least 3, and q^N = 1."""
    root5 = np.exp(2j * np.pi / 5)
    with pytest.raises(ParameterDomainError, match="N must be odd"):
        DeformationParameter(value=1j, order=4, log_branch=0.5j * np.pi)
    with pytest.raises(ParameterDomainError, match="at least 3"):
        DeformationParameter(value=1 + 0j, order=1, log_branch=0j)
    with pytest.raises(ParameterDomainError, match="not a root of unity of order 5"):
        DeformationParameter(value=root5 * 1.01, order=5, log_branch=np.log(root5 * 1.01))
    q = DeformationParameter(value=root5, order=5, log_branch=2j * np.pi / 5)
    assert q == DeformationParameter.root_of_unity(5)
    assert DeformationParameter.generic(0.3 + 0.4j).order is None


def test_inverse_and_branch_shift_keep_the_order():
    q = DeformationParameter.root_of_unity(5)
    inv, shifted = q_inverse(q), q.with_branch_shift(1)
    assert inv.order == shifted.order == 5
    assert inv.value == 1 / q.value and inv.log_branch == -q.log_branch
    assert shifted.value == q.value and shifted.log_branch == q.log_branch + 2j * np.pi


def test_phi_product_example():
    q = DeformationParameter.root_of_unity(3)
    res = phi_product(0.3 + 0.1j, q)
    assert isinstance(res, PhiProduct)
    assert res.residual < 1e-10
    assert res.product == pytest.approx(res.closed_form, abs=1e-10)


def test_phi_product_periodicity(rng):
    q = DeformationParameter.root_of_unity(5)
    for _ in range(5):
        alpha = complex(rng.normal(0, 0.5), rng.normal(0, 0.5))
        assert phi_product(alpha + 1, q).product == pytest.approx(
            phi_product(alpha, q).product, abs=1e-10)


def test_phi_product_vanishes_on_half_integers():
    q = DeformationParameter.root_of_unity(3)
    for alpha in (0.0, 1.0, 2.0, 0.5):
        res = phi_product(alpha, q)
        assert abs(res.product) < 1e-10
        assert abs(res.closed_form) < 1e-10


@pytest.mark.parametrize("n", [3, 5, 7])
def test_phi_product_closed_form_random(n, rng):
    q = DeformationParameter.root_of_unity(n)
    for _ in range(20):
        alpha = complex(rng.normal(0, 0.6), rng.normal(0, 0.6))
        assert phi_product(alpha, q).residual < 1e-10


@pytest.mark.parametrize("at", [0, 3, 5])
def test_residual_keeps_a_nan_anywhere_in_the_difference(at):
    lhs = np.arange(6, dtype=complex)
    lhs[at] = complex("nan")
    assert np.isnan(residual(lhs, np.arange(6), np.arange(6)))
    assert np.isnan(residual(complex("nan"), 1.0, 1.0))
    assert np.isnan(residual(2.0, float("nan")))


def test_residual_of_a_scalar_equals_that_of_a_one_element_array(rng):
    for _ in range(200):
        a, b, c = (complex(*rng.normal(size=2)) * 10.0 ** rng.uniform(-3, 3)
                   for _ in range(3))
        got = residual(a, b, c)
        assert type(got) is float and got == abs(a - b) / max(1.0, abs(c))
        assert got == residual(np.array([a]), np.array([b]), np.array([[c]]))
        assert got == residual(np.complex128(a), np.complex128(b), np.complex128(c))


def test_residual_scale_never_drops_below_one():
    assert residual(0.5, 0.25) == 0.25
    assert residual(0.5, 0.25, 1e-3, np.full(3, 1e-9)) == 0.25
    assert residual(np.array([3.0, 0.0]), np.zeros(2), np.array([-4.0, 2.0])) == 0.75
    assert residual(1j, 0, 2j) == 0.5


def test_phi_product_wrong_mode(q_generic):
    with pytest.raises(ParameterDomainError, match="root of unity"):
        phi_product(0.3, q_generic)


def test_tolerance_config_validation():
    with pytest.raises(ParameterDomainError):
        ToleranceConfig(abs_tol=-1)
    with pytest.raises(ParameterDomainError):
        ToleranceConfig(sample_count=0)


def test_tolerance_config_rejects_a_negative_seed():
    with pytest.raises(ParameterDomainError, match="rng_seed must be nonnegative"):
        ToleranceConfig(rng_seed=-1)
    assert ToleranceConfig(rng_seed=0).rng_seed == 0


@pytest.mark.parametrize("field", ["abs_tol", "rel_tol"])
@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
def test_tolerance_config_rejects_nonfinite(field, value):
    with pytest.raises(ParameterDomainError, match="finite"):
        ToleranceConfig(**{field: value})


def test_sampler_avoids_degenerate_q(rng):
    for _ in range(25):
        q = sample_generic_q(rng)
        assert abs(q.value - 1 / q.value) > 1e-3
        assert min(abs(q.value**n - 1) for n in range(1, 65)) > 1e-8


class _RejectedRng:
    """Every draw gives log q = 0, so q = 1, which generic() always rejects."""

    def __init__(self):
        self.draws = 0

    def uniform(self, low, high):
        return 0.0

    def integers(self, low, high):
        self.draws += 1
        return high - 1


@pytest.mark.parametrize("on_circle", [False, True])
def test_generic_q_sign_reads_the_stream_of_choice(on_circle):
    """The sign draw integers(0, 2) takes what choice([-1, 1]) took from the stream."""
    got, ref = np.random.default_rng(29), np.random.default_rng(29)
    for _ in range(2000):
        re = 0.0 if on_circle else ref.uniform(-0.25, 0.25)
        im = ref.uniform(0.15, np.pi - 0.15) * ref.choice([-1.0, 1.0])
        assert sample_generic_q(got, on_circle=on_circle).value == np.exp(complex(re, im))
    assert got.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("on_circle", [False, True])
def test_generic_q_sampler_stops_after_max_draws(on_circle):
    rng = _RejectedRng()
    with pytest.raises(SamplerExhausted) as info:
        sample_generic_q(rng, on_circle=on_circle)
    assert info.value.draws == rng.draws == MAX_DRAWS


def test_branch_consistency_invariant(q_generic):
    assert abs(np.exp(q_generic.log_branch) - q_generic.value) < 1e-12
    with pytest.raises(ParameterDomainError):
        DeformationParameter(value=2.0, log_branch=1j)


def _pow_params():
    generic = DeformationParameter.generic(np.exp(0.17 + 0.59j))
    return (generic, generic.with_branch_shift(1), generic.with_branch_shift(-2),
            q_inverse(generic), DeformationParameter.generic(2.0),
            DeformationParameter.root_of_unity(5),
            DeformationParameter.root_of_unity(7).with_branch_shift(1))


def test_scalar_pow_and_qnum_are_bit_identical_to_numpy():
    rng = np.random.default_rng(11)
    zs = [0, 1, -3, 7, 0.5, -2.25, 1e-300, 0.3 - 0.2j, -1.5 + 2j, complex(0, -0.0),
          np.float64(0.7), np.complex128(-0.4 + 0.9j)]
    zs += [complex(a, b) for a, b in rng.normal(0, 4, (500, 2))]
    zs += [float(a) for a in rng.normal(0, 4, 200)]
    for q in _pow_params():
        lb = q.log_branch
        den = q.value - 1 / q.value
        for z in zs:
            got = q.pow(z)
            assert type(got) is np.complex128
            assert got.tobytes() == np.exp(z * lb).tobytes()
            ref = (np.exp(z * lb) - np.exp(-z * lb)) / den
            assert qnum(z, q).tobytes() == ref.tobytes()


def test_scalar_pow_overflow_falls_back_to_numpy():
    q = DeformationParameter.generic(2.0)
    with np.errstate(over="ignore", invalid="ignore"):
        for z in (1e5, -1e5 + 3j, 1e308):
            assert q.pow(z).tobytes() == np.exp(z * q.log_branch).tobytes()


@pytest.mark.parametrize("value,log_branch", [
    (float("nan"), None), (float("inf"), None), (complex(1, float("nan")), None),
    (complex(float("-inf"), 1), None), (0.5, complex("nan")), (0.5, complex("inf"))])
def test_nonfinite_q_rejected(value, log_branch):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterDomainError, match="finite"):
            if log_branch is None:
                DeformationParameter.generic(value)
            else:
                DeformationParameter(value=complex(value), log_branch=log_branch)


def test_nonfinite_q_rejected_on_direct_construction():
    with pytest.raises(ParameterDomainError, match="finite"):
        DeformationParameter(value=complex("nan"))
