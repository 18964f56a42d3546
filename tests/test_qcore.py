import itertools
import warnings

import numpy as np
import pytest

import qybe
from conftest import q_inverse
from qybe import (RATIONAL, DeformationParameter, PhiProduct, ToleranceConfig, phi_product,
                  qnum)
from qybe.errors import DegenerateDenominator, ParameterDomainError, SamplerExhausted
from qybe.qcore import (GENERIC_GUARD_BOUND, MAX_DRAWS, _qnums, _QStack, residual,
                        sample_generic_q, sample_params, sample_u)


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


def _old_generic_guard(value: complex) -> bool:
    """Whether the loop over every power q^n, n <= 64, rejects q."""
    w = value
    for _ in range(GENERIC_GUARD_BOUND):
        if abs(w - 1) < 1e-8:
            return True
        w *= value
    return False


def test_generic_guard_skip_off_the_circle_keeps_every_verdict():
    """Off the unit circle by 2e-8 generic() checks no power; on a grid of
    |q| straddling both edges of that band, and of angles at and near
    roots of unity, it rejects exactly the q that the loop over all powers
    rejects."""
    radii = 1 + np.array([0.0, 1e-9, 5e-9, 9e-9, 1.1e-8, 1.5e-8, 1.99e-8, 2e-8, 2.01e-8,
                          3e-8, 1e-7, 1e-3, 0.2])
    angles = [2 * np.pi * j / n for n in (1, 2, 3, 5, 7, 19, 63, 64) for j in range(n)]
    angles += [a + d for a in angles[:20] for d in (-1e-8, 3e-9, 0.37)]
    rejected = 0
    for r, a in itertools.product(np.concatenate([radii, 2 - radii]), angles):
        value = complex(r * np.exp(1j * a))
        try:
            DeformationParameter.generic(value)
            got = False
        except ParameterDomainError:
            got = True
        assert got == _old_generic_guard(value), value
        rejected += got
    assert rejected > 100
    # inside the band the powers are still checked: |q| = 1 + 1e-9, q^5 within 1e-8 of 1
    with pytest.raises(ParameterDomainError, match="order 5"):
        DeformationParameter.generic(np.exp(1e-9) * np.exp(2j * np.pi / 5))


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
        assert type(got) is float and got == np.abs(a - b) / max(1.0, np.abs(c))
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
    """Every draw takes the middle of both ranges, log q = i pi / 2 to
    rounding, so q = i, a root of unity of order 4, which generic() always
    rejects."""

    def __init__(self):
        self.draws = 0

    def random(self, size=None):
        return 0.5 if size is None else np.full(size, 0.5)

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


def _scalar_generic_q(rng, on_circle=False):
    """sample_generic_q as one uniform call per part of log q."""
    for _ in range(MAX_DRAWS):
        re = 0.0 if on_circle else rng.uniform(-0.25, 0.25)
        im = rng.uniform(0.15, np.pi - 0.15) * (1.0 if rng.integers(0, 2) else -1.0)
        try:
            return DeformationParameter.generic(np.exp(complex(re, im)))
        except ParameterDomainError:
            continue
    raise SamplerExhausted("generic q", MAX_DRAWS)


def _scalar_u(rng, scale=1.2):
    return complex(rng.uniform(-scale, scale), rng.uniform(-scale, scale))


def _scalar_params(rng, count=1):
    return [complex(rng.normal(0, 0.5), rng.normal(0, 0.5)) for _ in range(count)]


def _bits(values) -> bytes:
    return np.array(values, complex).tobytes()


@pytest.mark.parametrize("seed", range(12))
def test_each_sampler_gives_the_stream_of_its_scalar_calls(seed):
    """Each sampler takes a sample's numbers in one generator call; its
    values, q's log branch among them, and the generator's state after 200
    draws of each kind are those of one scalar call per number."""
    got, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    for i in range(200):
        for on_circle in (False, True):
            q, expected = sample_generic_q(got, on_circle), _scalar_generic_q(ref, on_circle)
            assert _bits([q.value, q.log_branch]) == _bits([expected.value, expected.log_branch])
        for scale in (1.2, 0.6):
            assert _bits([sample_u(got, scale)]) == _bits([_scalar_u(ref, scale)])
        count = 1 + i % 4
        assert _bits(sample_params(got, count)) == _bits(_scalar_params(ref, count))
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


def _qnums_from_params(n, qs):
    """qcore._qnums as it derived log q and q - 1/q from the parameters of
    the stack on each call, and its test of the rational point."""
    n = np.asarray(n)
    if all(q.log_branch == 0 for q in qs):
        return np.broadcast_to(n, (len(qs), *n.shape[1:])).astype(complex)
    dens = [q.value - 1 / q.value for q in qs]
    if any(abs(den) < 1e-10 for den in dens):
        raise DegenerateDenominator("q - 1/q below tolerance")
    shape = (len(qs), *(1,) * (n.ndim - 1))
    x = n * np.array([q.log_branch for q in qs]).reshape(shape)
    return (np.exp(x) - np.exp(-x)) / np.reshape(dens, shape)


def _q_stacks():
    rng = np.random.default_rng(12)
    generic = [sample_generic_q(rng) for _ in range(4)]
    on_circle = [sample_generic_q(rng, on_circle=True) for _ in range(4)]
    return {
        "generic": generic,
        "on_circle": on_circle,
        "branch_shifted": [q.with_branch_shift(k) for q, k in zip(generic + on_circle,
                                                                   (1, -1, 2, -3) * 2)],
        "mixed_branches": [generic[0], generic[0].with_branch_shift(1), on_circle[0]],
        "root_of_unity": [DeformationParameter.root_of_unity(7)] * 2,
        "rational": [RATIONAL] * 3,
        "one": [generic[1]],
    }


_DEGENERATE = {
    "rational_and_generic": lambda stacks: [RATIONAL, stacks["generic"][0]],
    "generic_and_rational": lambda stacks: stacks["generic"] + [RATIONAL],
    "shifted_rational": lambda stacks: [RATIONAL.with_branch_shift(1)] * 2,
    "near_one": lambda stacks: [stacks["generic"][0],
                                DeformationParameter(value=1 + 1e-13,
                                                     log_branch=np.log(1 + 1e-13))],
}


@pytest.mark.parametrize("name", sorted(_q_stacks()))
def test_stacked_qnums_equal_qnum_sample_by_sample(name):
    """_qnums over a q stack is, bit for bit, _qnums as it read the
    parameters on each call, and qnum at each q of the stack; n shared by
    every sample or one row per sample, integer, real or complex, zero
    included.  A q-number that is zero compares with qnum's as a value: at
    an integer n = 0, qnum's -n is an unsigned 0 while _qnums negates the
    product n log q, so the signs of the zero parts can differ."""
    qs = _q_stacks()[name]
    stack = _QStack.of(qs)
    rng = np.random.default_rng(len(qs))
    shared = np.stack([np.arange(-2.0, 3.0), 2 * np.arange(5) - 4.5])[None]
    rows = rng.normal(0, 3, (len(qs), 6)) + 1j * rng.normal(0, 3, (len(qs), 6))
    rows[:, 0] = 0
    for n in (shared, rows, np.arange(4)[None]):
        got = _qnums(n, stack)
        assert got.shape == (len(qs), *n.shape[1:]) and got.dtype == complex
        assert got.tobytes() == _qnums_from_params(n, qs).tobytes()
        for s, q in enumerate(qs):
            want = np.asarray(qnum(n[s if len(n) > 1 else 0], q), complex)
            assert np.array_equal(got[s], want), (name, s)
            assert got[s][want != 0].tobytes() == want[want != 0].tobytes(), (name, s)


@pytest.mark.parametrize("name", sorted(_DEGENERATE))
def test_stacked_qnums_reject_the_stacks_they_rejected(name):
    """A stack with q - 1/q below tolerance, a mix of the rational point
    and a generic q among them, raises, as _qnums did when it read the
    parameters on each call; the error is raised when a q-number is asked
    for, not when the stack is built."""
    qs = _DEGENERATE[name](_q_stacks())
    stack = _QStack.of(qs)
    assert stack.degenerate and not stack.rational
    with pytest.raises(DegenerateDenominator):
        _qnums_from_params(np.ones((1, 2)), qs)
    with pytest.raises(DegenerateDenominator):
        _qnums(np.ones((1, 2)), stack)


def test_a_q_stack_repeats_and_reads_as_its_parameters():
    qs = _q_stacks()["mixed_branches"]
    stack = _QStack.of(qs)
    assert list(stack) == qs and len(stack) == 3 and stack[1] is qs[1]
    twice = stack * 2
    assert tuple(twice) == tuple(qs) * 2
    n = np.arange(6.0)[:, None] - 2.5
    assert _qnums(n, twice).tobytes() == _qnums_from_params(n, qs * 2).tobytes()
    for arr in (stack.log_branch, stack.den, twice.log_branch, twice.den):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0
    with pytest.raises(ParameterDomainError):
        _QStack.of([qs[0], None])


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


# ---------------------------------------------------------------------------
# non-finite inputs: one typed error, raised at the boundary

_Q = DeformationParameter.generic(np.exp(0.17 + 0.59j))
_SPECS = (qybe.CyclicRepSpec(0.1, 0.2, 0.3, 3), qybe.CyclicRepSpec(0.2, 0.1, 0.3, 3))
NON_FINITE_CALLS = {
    "alpha": lambda z: qybe.CyclicRepSpec(z, 0.1, 0.2, 3),
    "beta": lambda z: qybe.CyclicRepSpec(0.1, z, 0.2, 3),
    "lam": lambda z: qybe.CyclicRepSpec(0.1, 0.2, z, 3),
    "build_lax": lambda z: qybe.build_lax(qybe.build_spin_rep(0.5, _Q), z),
    "fundamental_r": lambda z: qybe.fundamental_r(z, _Q),
    "eigenvalue_sequence": lambda z: qybe.eigenvalue_sequence(0.5, 1, z, _Q),
    "assemble_R": lambda z: qybe.assemble_R(0.5, 0.5, z, _Q),
    "closed_form_R": lambda z: qybe.closed_form_R(0.5, 1, z, _Q),
    "tensor_casimir": lambda z: qybe.tensor_casimir(qybe.ProductSpace.of_spins(0.5, 1, _Q), z),
    "tensor_power_scalars": lambda z: qybe.tensor_power_scalars(*_SPECS, z),
    "family_ratio": lambda z: qybe.family_ratio(*_SPECS, z),
    "family_closure_defect": lambda z: qybe.family_closure_defect(*_SPECS, z),
    "shift_prefactor": lambda z: qybe.shift_prefactor("lower", *_SPECS, z, 1),
    "eigenstate_family": lambda z: qybe.eigenstate_family(*_SPECS, z),
    "cyclic_R_eigenvalues": lambda z: qybe.cyclic_R_eigenvalues(*_SPECS, z),
    "partial_R": lambda z: qybe.partial_R(*_SPECS, z),
}


@pytest.mark.parametrize("value", [complex("nan"), float("inf"), complex(0.3, float("-inf"))])
@pytest.mark.parametrize("call", NON_FINITE_CALLS.values(), ids=NON_FINITE_CALLS)
def test_a_non_finite_parameter_raises_a_domain_error_naming_it(call, value):
    """A NaN or infinite alpha, beta or lam of a cyclic spec, or u of any
    public function, is refused with ParameterDomainError, not a raw numpy
    error, a NaN matrix or an overflow message."""
    with pytest.raises(ParameterDomainError, match=r"(u|alpha|beta|lam) must be finite \(got "):
        call(value)
