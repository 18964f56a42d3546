import ast
import inspect
import re
import types
from pathlib import Path

import numpy as np
import pytest

import qybe
from conftest import algebra_residual
from qybe import (RATIONAL, CyclicRepSpec, OperatorTriple, build_cyclic_rep, build_lax,
                  build_spin_rep, casimir_matrix, fundamental_r, qnum, weight_reversed)
from qybe.errors import BadSpin
from qybe.qcore import sample_generic_q, sample_params, sample_u

SWAP2 = np.array([[0.0, 1.0], [1.0, 0.0]])


def _casimir_deviation(rep):
    """Max deviation of the Casimir from the scalar [l][l+1]."""
    expected = qnum(rep.ell, rep.q) * qnum(rep.ell + 1, rep.q)
    return np.abs(casimir_matrix(rep) - expected * np.eye(rep.dim)).max()


def test_public_names_resolve():
    for name in qybe.__all__:
        assert hasattr(qybe, name), name


def _readme_python_blocks() -> list[str]:
    readme = Path(__file__).resolve().parents[1] / "README.md"
    return re.findall(r"```python\n(.*?)```", readme.read_text(encoding="utf-8"), re.S)


def _called_names(source: str) -> set[str]:
    """The names that ``source`` calls, as f(...) or obj.f(...)."""
    return {getattr(node.func, "id", getattr(node.func, "attr", None))
            for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Call)}


def _callers() -> list[str]:
    """The sources a public name needs a caller in: the package and the README examples."""
    return ([path.read_text(encoding="utf-8") for path in Path(qybe.__file__).parent.glob("*.py")]
            + _readme_python_blocks())


def test_every_public_function_has_a_caller():
    """Each function in qybe.__all__ is called in the package or in a README example."""
    called = set().union(*map(_called_names, _callers()))
    functions = {name for name in qybe.__all__ if inspect.isfunction(getattr(qybe, name))}
    assert len(functions) > 10
    assert sorted(functions - called) == []


def test_every_public_method_and_property_has_a_caller():
    """Each public method or property of a class in qybe.__all__ is read, as
    obj.name, in the package or in a README example."""
    read = {node.attr for source in _callers() for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute)}
    kinds = (property, classmethod, staticmethod, types.FunctionType)
    members = {f"{name}.{attr}": attr for name in qybe.__all__
               if inspect.isclass(cls := getattr(qybe, name))
               for attr, value in vars(cls).items()
               if isinstance(value, kinds) and not attr.startswith("_")}
    assert len(members) > 20
    assert sorted(m for m, attr in members.items() if attr not in read) == []


def test_readme_quick_tour_runs():
    """The README's example runs as written, so it names no deleted function."""
    (tour,) = _readme_python_blocks()
    namespace = {}
    exec(compile(tour, "README.md", "exec"), namespace)
    assert namespace["built"].dim == 6
    assert namespace["err"] < 1e-10


def test_spin_half_matrices(q_generic):
    rep = build_spin_rep(0.5, q_generic)
    # printed tables use the descending-weight ordering
    assert np.allclose(weight_reversed(rep.sp), np.array([[0, 1], [0, 0]]), atol=1e-12)
    assert np.allclose(weight_reversed(rep.sm), np.array([[0, 0], [1, 0]]), atol=1e-12)
    a = 0.7 - 0.2j
    expected = np.diag([q_generic.pow(a / 2), q_generic.pow(-a / 2)])
    assert np.allclose(weight_reversed(rep.qs(a)), expected)


def test_spin_one_orthonormal_entries(q_generic):
    rep = build_spin_rep(1.0, q_generic, basis="orthonormal")
    s = np.sqrt(q_generic.value + 1 / q_generic.value)
    assert rep.sp[1, 0] == pytest.approx(s)
    assert rep.sp[2, 1] == pytest.approx(s)
    assert rep.sm[0, 1] == pytest.approx(s)
    assert rep.sm[1, 2] == pytest.approx(s)


def test_spin_zero_trivial(q_generic):
    rep = build_spin_rep(0.0, q_generic)
    assert rep.dim == 1
    assert rep.sp[0, 0] == 0 and rep.sm[0, 0] == 0
    assert rep.qs(3.7)[0, 0] == pytest.approx(1.0)


@pytest.mark.parametrize("basis", ["monomial", "orthonormal"])
@pytest.mark.parametrize("ell", [0.5, 1.0, 1.5, 2.0])
def test_algebra_relations(ell, basis, rng):
    for _ in range(10):
        q = sample_generic_q(rng)
        rep = build_spin_rep(ell, q, basis)
        assert algebra_residual(rep) < 1e-10


def test_qs_additivity(q_generic):
    rep = build_spin_rep(1.5, q_generic)
    a, b = 0.3 + 0.2j, -1.1 + 0.4j
    assert np.allclose(rep.qs(a) @ rep.qs(b), rep.qs(a + b), atol=1e-10)


def test_monomial_orthonormal_similarity(q_generic):
    mono = build_spin_rep(1.5, q_generic)
    orth = build_spin_rep(1.5, q_generic, basis="orthonormal")
    d = np.diag(orth.from_monomial)
    dinv = np.diag(1 / orth.from_monomial)
    assert np.allclose(d @ mono.sp @ dinv, orth.sp, atol=1e-10)
    assert np.allclose(d @ mono.sm @ dinv, orth.sm, atol=1e-10)
    c_mono = casimir_matrix(mono)
    c_orth = casimir_matrix(orth)
    assert np.allclose(d @ c_mono @ dinv, c_orth, atol=1e-10)
    # both Casimirs are scalar, hence equal entrywise, not just similar
    assert np.allclose(c_mono, c_orth, atol=1e-10)


@pytest.mark.parametrize("ell", [0.5, 1.0, 2.0])
def test_nilpotency_exact(ell, q_generic):
    rep = build_spin_rep(ell, q_generic)
    d = rep.dim
    assert np.count_nonzero(np.linalg.matrix_power(rep.sp, d)) == 0
    assert np.count_nonzero(np.linalg.matrix_power(rep.sm, d)) == 0


def test_casimir_spin_half(q_generic):
    rep = build_spin_rep(0.5, q_generic)
    expected = qnum(0.5, q_generic) * qnum(1.5, q_generic)
    assert np.allclose(casimir_matrix(rep), expected * np.eye(2), atol=1e-12)
    assert _casimir_deviation(rep) < 1e-12


def test_casimir_trivial_rep(q_generic):
    rep = build_spin_rep(0.0, q_generic)
    assert abs(casimir_matrix(rep)[0, 0]) < 1e-12
    assert _casimir_deviation(rep) < 1e-12


def test_casimir_scalar_random_q(rng):
    for _ in range(5):
        q = sample_generic_q(rng)
        assert _casimir_deviation(build_spin_rep(1.0, q)) < 1e-10
    # at q = 1 the same function gives the classical S^2 = l(l+1), exactly
    for ell in (0.5, 1.0, 1.5, 2.0):
        rep = build_spin_rep(ell, RATIONAL)
        assert np.array_equal(casimir_matrix(rep), ell * (ell + 1) * np.eye(rep.dim))


def test_bad_spin(q_generic):
    with pytest.raises(BadSpin):
        build_spin_rep(0.3, q_generic)
    with pytest.raises(BadSpin):
        build_spin_rep(-0.5, q_generic)
    for ell in (float("nan"), float("inf"), complex(0.5, float("nan"))):
        with pytest.raises(BadSpin, match="nonnegative integer"):
            build_spin_rep(ell, q_generic)


def test_lax_spin_half_is_fundamental(q_generic, rng):
    """With the quantum index flipped to descending order, the spin-1/2 Lax
    matrix is the fundamental six-vertex matrix at shifted argument."""
    rep = build_spin_rep(0.5, q_generic)
    u = sample_u(rng)
    lax = build_lax(rep, u + 0.5)
    flip = np.kron(np.eye(2), SWAP2)
    assert np.allclose(flip @ lax @ flip, fundamental_r(u, q_generic), atol=1e-12)


def test_lax_entry_pattern(q_generic, rng):
    """Diagonal blocks carry [u +- S] = (q^{u +- S} - q^{-u -+ S}) / (q - 1/q);
    off-diagonal blocks are the shift generators themselves."""
    rep = build_spin_rep(1.0, q_generic)
    u = sample_u(rng)
    lax = build_lax(rep, u)
    qu = q_generic.pow(u)
    c = q_generic.value - 1 / q_generic.value
    assert np.allclose(lax[:3, :3], (qu * rep.qs(1) - rep.qs(-1) / qu) / c, atol=1e-12)
    assert np.allclose(lax[3:, 3:], (qu * rep.qs(-1) - rep.qs(1) / qu) / c, atol=1e-12)
    assert np.array_equal(lax[:3, 3:], rep.sm)
    assert np.array_equal(lax[3:, :3], rep.sp)


def test_lax_u_zero(q_generic):
    """At u = 0 the diagonal blocks are +-[S]."""
    rep = build_spin_rep(0.5, q_generic)
    lax = build_lax(rep, 0.0)
    c = q_generic.value - 1 / q_generic.value
    assert np.allclose(lax[:2, :2], (rep.qs(1) - rep.qs(-1)) / c, atol=1e-12)
    assert np.allclose(lax[2:, 2:], (rep.qs(-1) - rep.qs(1)) / c, atol=1e-12)


def test_triples_are_frozen(q_generic):
    rep = build_spin_rep(1.0, q_generic)
    with pytest.raises(ValueError):
        rep.sp[0, 0] = 1.0


def test_generic_spin_truncation(q_generic):
    """A spin whose double is no nonnegative integer has no finite
    representation; there is no truncated one either."""
    with pytest.raises(BadSpin, match=re.escape("got ell=(0.37+0.21j)")):
        build_spin_rep(0.37 + 0.21j, q_generic)


class _NanConjugation(OperatorTriple):
    """q^{S} is NaN, so only the two conjugation relations go NaN and the
    commutator relation, checked first, stays finite."""

    def qs(self, a):
        m = super().qs(a)
        return m * np.nan if a == 1 else m


def test_algebra_residual_keeps_nan_after_finite_relation(q_generic):
    rep = build_spin_rep(1.0, q_generic)
    bad = _NanConjugation(sp=rep.sp, sm=rep.sm, weights=rep.weights, q=rep.q)
    with np.errstate(invalid="ignore"):
        assert np.isnan(algebra_residual(bad))


# ---------------------------------------------------------------------------
# the band-to-dense boundary, bit for bit

def _dense(d, up, down):
    """S+ with ``up`` at [(k+1) mod d, k] and S- with ``down`` at
    [(k-1) mod d, k], for the k of the keys; +0.0 everywhere else."""
    sp, sm = np.zeros((d, d), complex), np.zeros((d, d), complex)
    for k, value in up.items():
        sp[(k + 1) % d, k] = value
    for k, value in down.items():
        sm[(k - 1) % d, k] = value
    return sp, sm


@pytest.mark.parametrize("basis", ["monomial", "orthonormal"])
@pytest.mark.parametrize("ell", [0.0, 0.5, 1.0, 1.5, 3.0])
def test_spin_rep_is_the_readme_formula_bit_for_bit(ell, basis, q_generic):
    """S- x^k = [k] x^{k-1} and S+ x^k = [2l-k] x^{k+1} in the monomial basis,
    sqrt([k+1][2l-k]) on both bands in the orthonormal one, at a generic q
    and at q = 1; no wrap entry, and every entry off the bands is +0.0, with
    no sign bit, so a rep document writes [0.0,0.0] there."""
    d = int(2 * ell) + 1
    k = np.arange(d - 1)
    for q in (q_generic, RATIONAL):
        # [k+1] and [2l-k] for k < 2l, each as numpy computes it
        a, b = (np.asarray(qnum(n, q), complex) for n in (k + 1.0, 2 * ell - k))
        if basis == "orthonormal":
            a = b = np.sqrt(a * b)
        rep = build_spin_rep(ell, q, basis)
        sp, sm = _dense(d, dict(zip(k.tolist(), b)), dict(zip((k + 1).tolist(), a)))
        assert rep.sp.tobytes() == sp.tobytes() and rep.sm.tobytes() == sm.tobytes()
        assert not np.signbit(rep.sp[rep.sp == 0].view(float)).any()
        assert not np.signbit(rep.sm[rep.sm == 0].view(float)).any()


@pytest.mark.parametrize("n", [3, 5])
def test_cyclic_rep_is_the_readme_formula_bit_for_bit(n, rng):
    """S- theta_k = q^{-lam/2} [k - beta] theta_{k-1} and
    S+ theta_k = q^{lam/2} [alpha - k] theta_{k+1}, indices mod N, and +0.0
    off the bands."""
    for _ in range(3):
        spec = CyclicRepSpec(*sample_params(rng, 3), n)
        q, k = spec.q, np.arange(n)
        # the powers of q from numpy arrays, as the kernels form them
        half = np.full(n, spec.lam / 2)
        up = q.pow(half) * qnum(spec.alpha - k, q)
        down = q.pow(-half) * qnum(k - spec.beta, q)
        rep = build_cyclic_rep(spec)
        sp, sm = _dense(n, dict(enumerate(up)), dict(enumerate(down)))
        assert rep.sp.tobytes() == sp.tobytes() and rep.sm.tobytes() == sm.tobytes()
        assert not np.signbit(rep.sp[rep.sp == 0].view(float)).any()
