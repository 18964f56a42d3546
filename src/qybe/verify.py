"""Identity-verification suites producing residual reports.

Residuals are max-absolute-entry differences, scale-normalized by the
largest entry among the inputs, so a verdict is meaningful regardless of
how big the sampled matrices get.  Every report is reproducible from its
identity id and the seed in its tolerance configuration.
"""
from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

from . import cyclic as cy
from .qcore import (MAX_DRAWS, RATIONAL, DeformationParameter, ToleranceConfig, _nan_max,
                    _phi_products, qnum, residual, sample_generic_q, sample_params, sample_u)
from .rep import _casimir_diagonals, _fundamental_rs, _laxes, _spin_factors
from .rop import RMatrix, _eigenvalues, _has_pole, _require_finite, _solve, _top_sector
from .errors import ParameterDomainError, QybeError, SamplerExhausted, _raise_first
from .tensorrep import (ProductSpace, _casimir_sectors, _q_powers, _sector_chains, _SpaceStack,
                        kron)


@dataclasses.dataclass(frozen=True)
class ResidualReport:
    identity_id: str
    samples: tuple
    max_residual: float
    tolerance: float
    seed: int | None = None

    @property
    def passed(self) -> bool:
        return math.isfinite(self.max_residual) and self.max_residual < self.tolerance

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"

    def to_dict(self) -> dict:
        return {
            "identity_id": self.identity_id,
            "samples": list(self.samples),
            "max_residual": self.max_residual,
            "tolerance": self.tolerance,
            "verdict": self.verdict,
            "seed": self.seed,
        }

    def line(self) -> str:
        return f"[{self.verdict.upper():4s}] {self.identity_id}: max residual " \
               f"{self.max_residual:.3e} (tol {self.tolerance:g})"


# the most samples one stacked pass evaluates, so memory stays bounded at any
# sample count
_STACK_SIZE = 16


def _c2l(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def _points(points: list, records: list, *params) -> list:
    """A run as most suites evaluate it: its samples."""
    return points


@dataclasses.dataclass(frozen=True)
class _Suite:
    """One sampled suite, as the harness :func:`_run` evaluates it.

    Its samples are a random stream: ``draw(rng, i, *params)`` draws sample
    i of ``count`` (``cfg.sample_count`` by default) from the generator
    that ``cfg`` seeds, and ``record(sample)`` gives a sample's JSON record.
    ``evaluate`` reads ``view(points, records, *params)`` of a run of at most
    :data:`_STACK_SIZE` consecutive samples: the points, or the
    :class:`_PairRun` that a golden pair's suites share.  It gives each
    sample's residual, or a dict of named residuals, each name a report
    with the name put in place of ``{}`` in ``identity_id``, in one stacked
    pass, and raises the error of the lowest failing sample.
    """

    identity_id: str
    cfg: ToleranceConfig
    tol: float
    draw: object
    params: tuple
    record: object
    evaluate: object
    view: object = _points
    count: int | None = None


def _run(suites: list[_Suite]) -> list[ResidualReport]:
    """The sampling harness behind every suite: the reports of ``suites``,
    in their order, the same as each suite gives when it runs alone.

    Suites that read one random stream (draw function, params, seed and
    count) share it.  It is drawn once, from a fresh generator, in sample
    order, and no evaluation feeds a draw, so the stream is that of a loop
    that evaluates each sample as it is drawn; a draw that raises a
    :class:`QybeError` ends it.  Each record function's dicts are built once
    per stream, so a suite that completes its records in its evaluation
    (partial R's span rank) has a record function of its own.  Each run of
    samples is evaluated for all suites of its stream, which share one view
    per view function, and no view outlives its run.

    Each suite keeps its residuals, or its first error, of whatever type,
    without the traceback that holds the run's arrays, and then the error
    that ended its draws.  The first error in the order of ``suites`` is
    raised, so it is the one that the suites raise one after another; an
    error of another type in a draw is raised at the place of the stream's
    first suite, before its evaluation.
    """
    streams: dict[tuple, list[int]] = {}
    for k, suite in enumerate(suites):
        count = suite.cfg.sample_count if suite.count is None else suite.count
        if count < 1:
            raise ParameterDomainError("a suite needs at least one sample")
        streams.setdefault((suite.draw, suite.params, suite.cfg.rng_seed, count), []).append(k)
    outcomes = [None] * len(suites)
    for (draw, params, _, count), members in streams.items():
        rng = suites[members[0]].cfg.rng()
        points, stop = [], None
        try:
            for i in range(count):
                points.append(draw(rng, i, *params))
        except QybeError as exc:
            stop = exc
        except Exception as exc:  # not a sampler's error: the stream's first suite raises it
            outcomes[members[0]] = exc
            continue
        record_functions = dict.fromkeys(suites[k].record for k in members)
        records = {record: [record(point) for point in points] for record in record_functions}
        residuals = {k: [] for k in members}
        errors = dict.fromkeys(members)
        for start in range(0, len(points), _STACK_SIZE):
            run = slice(start, start + _STACK_SIZE)
            views = {}
            for k in members:
                suite = suites[k]
                if errors[k] is not None:
                    continue
                try:
                    if suite.view not in views:
                        views[suite.view] = suite.view(points[run], records[suite.record][run],
                                                       *params)
                    residuals[k].extend(suite.evaluate(views[suite.view]))
                except Exception as exc:  # the suite's own error, raised at its place
                    errors[k] = exc.with_traceback(None)
            views.clear()
        for k in members:
            outcomes[k] = errors[k] or stop or _reports(suites[k], records[suites[k].record],
                                                        residuals[k])
    reports = []
    for outcome in outcomes:
        if isinstance(outcome, BaseException):
            raise outcome
        reports.extend(outcome)
    return reports


def _reports(suite: _Suite, records: list, residuals: list) -> list[ResidualReport]:
    """The reports of ``suite``, whose samples have ``records`` and
    ``residuals``: one, or one per name of dicts of named residuals.
    Residuals fold with a NaN-keeping max, so a non-finite one fails the
    report."""
    worst = {}
    for res in residuals:
        for name, r in (res.items() if isinstance(res, dict) else [(None, res)]):
            worst[name] = _nan_max(worst.get(name, 0.0), r)
    return [ResidualReport(suite.identity_id.format(name), tuple(records), w, suite.tol,
                           suite.cfg.rng_seed) for name, w in worst.items()]


def _check(suite):
    """The public check of the suite builder ``suite``: the harness over the
    one suite that it builds, giving the list of reports of a suite of
    named residuals and the one report of any other.  The builder is the
    check's ``suite``, for a run of several suites."""

    @functools.wraps(suite)
    def check(*args, **kwargs):
        built = suite(*args, **kwargs)
        reports = _run([built])
        return reports if "{}" in built.identity_id else reports[0]

    check.suite = suite
    return check


def _residuals(lhs: np.ndarray, rhs: np.ndarray, *inputs: np.ndarray) -> list[float]:
    """``residual(lhs[s], rhs[s], *(m[s] for m in inputs))`` of every sample
    s of (S, d, d) stacks: one abs-max of the gaps and one of the inputs,
    whose :func:`qcore.residual` equals that of the matrices exactly."""
    gaps = np.abs(lhs - rhs).max(axis=(1, 2)).tolist()
    peaks = np.abs(np.stack(inputs, axis=1)).max(axis=(2, 3)).tolist()
    return [residual(gap, 0.0, *peak) for gap, peak in zip(gaps, peaks)]


def _regular_point(ell1, ell2, rng, min_gap: float = 0.05, mode: str = "xxz"):
    """A sampled (q, u) with all eigenvalue denominators away from poles.

    In the rational mode ("xxx") q is :data:`qcore.RATIONAL`, where the
    denominators are plain numbers, and only u is drawn.
    """
    # every pole gap [l1+l2+1-n +- u], n = 1..top, is l1+l2+1-n plus +-u
    sectors = ell1 + ell2 + 1 - np.arange(1, _top_sector(ell1, ell2) + 1)
    for _ in range(MAX_DRAWS):
        q = RATIONAL if mode == "xxx" else sample_generic_q(rng)
        u = sample_u(rng)
        if (np.abs(qnum(np.add.outer(sectors, (u, -u)), q)) > min_gap).all():
            return q, u
    what = "regular rational u" if mode == "xxx" else "regular (q, u)"
    raise SamplerExhausted(f"{what} for spins ({ell1}, {ell2})", MAX_DRAWS)


# ---------------------------------------------------------------------------
# the random streams: each draw(rng, i, *params) gives sample i of a stream
# (see _Suite), and the record functions here are those of more than one suite

def _pair_point(rng, i, ell1, ell2, mode):
    """The (q, u) of the spin-pair suites, a :func:`_regular_point`."""
    return _regular_point(ell1, ell2, rng, mode=mode)


def _quv(rng, i):
    """A generic q and two spectral parameters u, v."""
    return sample_generic_q(rng), sample_u(rng), sample_u(rng)


def _uv(rng, i):
    """Two spectral parameters u, v at a q that is not drawn."""
    return sample_u(rng), sample_u(rng)


def _cyclic_params(rng, i, q):
    """Two specs of cyclic parameter triples at the root of unity q and a
    spectral parameter."""
    p1, p2 = sample_params(rng, 3), sample_params(rng, 3)
    return (cy.CyclicRepSpec(*p1, q.order, q), cy.CyclicRepSpec(*p2, q.order, q),
            sample_u(rng, scale=0.6))


def _compatible(rng, i, q):
    """Two specs at the root of unity q and a u on the admissible set."""
    return cy.sample_compatible_params(q.order, rng, q)


def _alpha(rng, i):
    """One complex alpha of the phi products."""
    return complex(rng.normal(0, 0.6), rng.normal(0, 0.6))


def _branch_point(rng, i, ell1, ell2):
    """(q, u) and its shift to the branch log q + 2 pi i that keeps q^u,
    with q on the unit circle at even i; a candidate with a pole on either
    branch is drawn again."""
    for _ in range(MAX_DRAWS):
        q = sample_generic_q(rng, on_circle=(i % 2 == 0))
        u = sample_u(rng)
        shifted_q = q.with_branch_shift(1)
        shifted_u = u * q.log_branch / shifted_q.log_branch
        if not _has_pole(ell1, ell2, (u, shifted_u), (q, shifted_q)):
            return q, u, shifted_q, shifted_u
    raise SamplerExhausted(f"pole-free (q, u) for spins ({ell1}, {ell2})", MAX_DRAWS)


def _quv_record(sample) -> dict:
    q, u, v = sample
    return {"q": _c2l(q.value), "u": _c2l(u), "v": _c2l(v)}


def _rational_uv_record(sample) -> dict:
    u, v = sample
    return {"q": None, "u": _c2l(u), "v": _c2l(v)}


def _pair_record(sample) -> dict:
    q, u = sample
    return {"q": None if q is RATIONAL else _c2l(q.value), "u": _c2l(u)}


# ---------------------------------------------------------------------------
# embeddings

def _on_slots(op: np.ndarray, dims: tuple[int, int, int], slots: tuple[int, int]) -> np.ndarray:
    """Put ``op``, acting on factors ``slots`` (in that order), on the
    three-fold product of dimensions ``dims``, as the identity on the third.
    Leading axes of ``op`` are a stack and are kept.

    Every entry is one product op_ij * 1 or op_ij * 0, so it equals the
    entry that ``kron`` forms (a zero may differ in sign).
    """
    a, b = slots
    c = 3 - a - b
    lead = op.shape[:-2]
    t = (op.reshape(*lead, dims[a], dims[b], 1, dims[a], dims[b], 1)
         * np.eye(dims[c]).reshape(1, 1, dims[c], 1, 1, dims[c]))
    k = len(lead)
    perm = [k + (a, b, c).index(s) for s in range(3)]
    d = dims[0] * dims[1] * dims[2]
    return t.transpose(*range(k), *perm, *(p + 3 for p in perm)).reshape(*lead, d, d)


@_check
def check_fundamental_ybe(cfg: ToleranceConfig | None = None, mode: str = "xxz",
                          perturb: float = 0.0):
    """Braid-form identity R12(u-v) R13(u) R23(v) = R23(v) R13(u) R12(u-v);
    each run of samples is one stacked pass.  The xxz (q, u, v) stream is
    that of the spin RLL suites, and the xxx stream of (u, v) that of the
    cyclic one."""
    cfg = cfg or ToleranceConfig()

    def evaluate(points):
        if mode == "xxx":
            points = [(RATIONAL, u, v) for u, v in points]
        qs, us, vs = zip(*points)
        r12, r13, r23 = _fundamental_rs([u - v for u, v in zip(us, vs)] + [*us, *vs],
                                        qs * 3).reshape(3, len(points), 4, 4)
        if perturb:
            r12[:, 0, 1] += perturb
        m12 = _on_slots(r12, (2, 2, 2), (0, 1))
        m13 = _on_slots(r13, (2, 2, 2), (0, 2))
        m23 = _on_slots(r23, (2, 2, 2), (1, 2))
        return _residuals(m12 @ m13 @ m23, m23 @ m13 @ m12, m12, m13, m23)

    if mode == "xxx":
        return _Suite("fundamental_ybe[xxx]", cfg, cfg.abs_tol / 100, _uv, (),
                      _rational_uv_record, evaluate)
    return _Suite(f"fundamental_ybe[{mode}]", cfg, cfg.abs_tol, _quv, (), _quv_record, evaluate)


@_check
def check_rll(quantum, cfg: ToleranceConfig | None = None):
    """R12(u-v) L1(u) L2(v) = L2(v) L1(u) R12(u-v) on aux x aux x quantum;
    each run of samples is one stacked pass.

    ``quantum`` is either a half-integer spin or a :class:`CyclicRepSpec`.
    The points come from the streams of :func:`check_fundamental_ybe`, the
    xxz one for a spin (with its records) and the (u, v) one at the
    cyclic q.
    """
    cfg = cfg or ToleranceConfig()
    # a cyclic quantum space is one fixed representation for every sample
    fixed = cy.build_cyclic_rep(quantum) if isinstance(quantum, cy.CyclicRepSpec) else None

    def evaluate(points):
        if fixed is not None:
            points = [(fixed.q, u, v) for u, v in points]
        qs, us, vs = zip(*points)
        rep = _spin_factors(quantum, qs, "monomial") if fixed is None else fixed
        dims = (2, 2, rep.weights.size)
        l1 = _on_slots(_laxes(rep.sp, rep.sm, rep.weights, us, qs), dims, (0, 2))
        l2 = _on_slots(_laxes(rep.sp, rep.sm, rep.weights, vs, qs), dims, (1, 2))
        r12 = _on_slots(_fundamental_rs([u - v for u, v in zip(us, vs)], qs), dims, (0, 1))
        return _residuals(r12 @ l1 @ l2, l2 @ l1 @ r12, r12, l1, l2)

    if fixed is None:
        return _Suite(f"rll[spin {quantum}]", cfg, cfg.abs_tol, _quv, (), _quv_record, evaluate)
    return _Suite(f"rll[cyclic N={quantum.n}]", cfg, cfg.rel_tol, _uv, (),
                  lambda uv: _quv_record((fixed.q, *uv)), evaluate)


# ---------------------------------------------------------------------------
# the spin-pair suites, one stacked pass per golden pair and run of samples

def _stacked_R(ell1, ell2, us, qs, form, form_errors) -> tuple[np.ndarray, list]:
    """R(u_s) at q_s for every sample, from the spectral form of their
    stack, and each sample's first error in the order of :func:`assemble_R`:
    a pole, the form's error (one form's error is every sample's), then
    the errors of :func:`rop._solve`."""
    eig, poles = _eigenvalues(ell1, ell2, us, qs)
    m, errors = _solve(ell1, ell2, us, qs, eig, form)
    form_errors = form_errors * (len(us) // len(form_errors))
    return m, [p or f or e for p, f, e in zip(poles, form_errors, errors)]


def _perturbed(r: np.ndarray, perturb: float) -> np.ndarray:
    """``r``, or with ``perturb`` added to entry (0, 1) of every sample, in a
    copy, since the suites of a pass share one R(u)."""
    if not perturb:
        return r
    r = r.copy()
    r[:, 0, 1] += perturb
    return r


def _decomposed(space: _SpaceStack, us, r: np.ndarray, delta_u: tuple,
                diagonal: np.ndarray) -> list[dict[str, float]]:
    """The eight relations of :func:`decomposed_residuals` for R = r[s] at
    u_s on each sample of ``space``: one stacked matmul pair for all
    relations and samples, one stacked abs-max per distinct input.
    ``delta_u`` is the coproduct Delta at the us and ``diagonal`` the
    Casimir diagonal of the space, which the Casimir suite reads too."""
    qs = space.qs
    f1, f2 = space.factors
    lb = space.log_branch
    mus = [-u for u in us]
    cop_u, cop_mu = delta_u, space.coproduct("delta", mus)
    bar_u, bar_mu = space.coproduct("deltabar", us), space.coproduct("deltabar", mus)
    qs_diag = _q_powers(space.weights, lb, 1)

    qu = np.exp(np.array([u * q.log_branch for u, q in zip(us, qs)], complex))[:, None, None]
    c2 = np.array([(q.value - 1 / q.value) ** 2 for q in qs], complex)[:, None, None]
    q1, q2 = space.factor_powers
    plus_minus = kron(q1[1], q2[-1], 2)
    minus_plus = kron(q1[-1], q2[1], 2)
    c2_sm_sp = c2 * kron(f1.sm, f2.sp, 2)
    c2_sp_sm = c2 * kron(f1.sp, f2.sm, 2)
    qpm = qu * plus_minus + minus_plus / qu
    qmp = qu * minus_plus + plus_minus / qu
    k_pm, k_pm_bar = qpm - c2_sm_sp, qpm - c2_sp_sm
    k_mp, k_mp_bar = qmp - c2_sp_sm, qmp - c2_sm_sp
    c_mu, c_bar_u = np.moveaxis(
        np.matmul(np.stack([cop_mu[0], bar_u[0]], axis=1), np.stack([cop_mu[1], bar_u[1]], axis=1))
        + diagonal[:, None], 1, 0)
    (sp_u, sm_u), (sp_mu, sm_mu) = cop_u, cop_mu
    (bsp_u, bsm_u), (bsp_mu, bsm_mu) = bar_u, bar_mu

    # name: (X, Y, Z, W, inputs) for the relation X Y = Z W
    relations = {
        "qs_commute": (r, qs_diag, qs_diag, r, (r, qs_diag)),
        "lower_twisted": (r, sm_u, bsm_mu, r, (r, sm_u, bsm_mu)),
        "raise_twisted": (r, sp_u, bsp_mu, r, (r, sp_u, bsp_mu)),
        "lower_twisted_bar": (r, bsm_u, sm_mu, r, (r, bsm_u, sm_mu)),
        "raise_twisted_bar": (r, bsp_u, sp_mu, r, (r, bsp_u, sp_mu)),
        "k_plus_minus": (r, k_pm, k_pm_bar, r, (r, k_pm)),
        "k_minus_plus": (r, k_mp, k_mp_bar, r, (r, k_mp)),
        "casimir_intertwine": (c_mu, r, r, c_bar_u, (r, c_mu, c_bar_u)),
    }
    x, y, z, w = (np.stack(col, axis=1) for col in zip(*(rel[:4] for rel in relations.values())))
    gaps = np.abs(x @ y - z @ w).max(axis=(2, 3)).tolist()
    distinct = {id(m): m for rel in relations.values() for m in rel[4]}
    column = {key: j for j, key in enumerate(distinct)}
    peaks = np.abs(np.stack(list(distinct.values()), axis=1)).max(axis=(2, 3)).tolist()
    inputs = [[column[id(m)] for m in rel[4]] for rel in relations.values()]
    # the residual of the abs-maxima is the residual of the matrices
    return [{name: residual(gap, 0.0, *(peak[j] for j in idx))
             for name, gap, idx in zip(relations, gap_row, inputs)}
            for gap_row, peak in zip(gaps, peaks)]


def decomposed_residuals(rm: RMatrix) -> dict[str, float]:
    """Residuals of the eight relations an intertwining R must satisfy, on
    the :class:`ProductSpace` of R's spins in R's own basis.

    Each relation X Y = Z W is one slice of a stacked matmul pair, and each
    distinct input gets one abs-max.  :func:`qcore.residual` of those
    abs-maxima equals ``residual(X @ Y, Z @ W, *inputs)`` exactly.  The
    stack of one of the suite's stacked pass.
    """
    space = ProductSpace.of_spins(rm.ell1, rm.ell2, rm.q, rm.basis_tag)._stack
    us = [rm.u]
    return _decomposed(space, us, rm.matrix[None], space.coproduct("delta", us),
                       _casimir_diagonals(space.weights, space.qs))[0]


def _casimir_reports(space: _SpaceStack, us, delta_u: tuple, diagonal: np.ndarray) -> list:
    """The :func:`tensor_casimir` report of each sample of ``space`` at its
    u, unbarred, in one stacked pass, from the coproduct Delta at the us
    and the Casimir diagonal of the space; raises the error of the lowest
    failing sample."""
    sp, sm = delta_u
    c = sp @ sm + diagonal
    chains, errors = space.sectors(us, "delta", delta_u)
    _raise_first(errors)
    f1, f2 = space.factors
    return _casimir_sectors(c, _sector_chains(chains), f1.ell, f2.ell, space.qs)


class _PairRun:
    """One run of at most :data:`_STACK_SIZE` samples (q_s, u_s) of a spin
    pair, and the pieces that its suites share, each built the first time
    a suite asks for it: the :class:`_SpaceStack` of the run with its
    spectral form, R(u) with each sample's first error, the coproduct Delta
    at u and the Casimir diagonal.  The suites read the pieces and do not
    write them.  A piece that raises is not kept, so every suite that asks
    for it raises.

    In the "xxz" mode the stack is orthonormal, at the run's q values; in
    the "xxx" mode every sample is at q = 1, and the stack is the monomial
    one of the memoised :meth:`ProductSpace.of_spins`, with its one form.
    """

    def __init__(self, ell1, ell2, points, mode: str = "xxz"):
        self.ell1, self.ell2, self.mode = ell1, ell2, mode
        self.qs, self.us = zip(*points)

    @functools.cached_property
    def space(self) -> _SpaceStack:
        if self.mode == "xxx":
            return ProductSpace.of_spins(self.ell1, self.ell2, RATIONAL, "monomial")._stack
        return _SpaceStack.of_spins(self.ell1, self.ell2, self.qs, "orthonormal")

    @functools.cached_property
    def r_u(self) -> tuple[np.ndarray, list]:
        r, errors = _stacked_R(self.ell1, self.ell2, self.us, self.qs, *self.space.spectral_form())
        r.setflags(write=False)
        return r, errors

    @functools.cached_property
    def delta_u(self) -> tuple[np.ndarray, np.ndarray]:
        return self.space.coproduct("delta", self.us)

    @functools.cached_property
    def casimir_diagonal(self) -> np.ndarray:
        return _casimir_diagonals(self.space.weights, self.qs)

    def decomposed(self, perturb: float) -> list[dict[str, float]]:
        """The eight decomposed residuals of each sample."""
        r, errors = self.r_u
        _raise_first(errors)
        return _decomposed(self.space, self.us, _perturbed(r, perturb), self.delta_u,
                           self.casimir_diagonal)

    def unitarity(self, perturb: float) -> list[float]:
        """The residual of R(u) R(-u) = 1 of each sample, R(-u) from the
        spectral form of R(u)."""
        r_u, e_u = self.r_u
        r_mu, e_mu = _stacked_R(self.ell1, self.ell2, [-u for u in self.us], self.qs,
                                *self.space.spectral_form())
        _raise_first(e_u, e_mu)
        prod = _perturbed(r_u, perturb) @ r_mu
        return _residuals(prod, np.eye(prod.shape[-1]), prod)

    def casimir(self) -> list[float]:
        """The worst Casimir residual or m-spread of each sample; no R is
        read, so no perturbation moves it."""
        return [_nan_max(report.max_residual, report.max_m_spread) for report in
                _casimir_reports(self.space, self.us, self.delta_u, self.casimir_diagonal)]


def _pair_run(points: list, records: list, ell1, ell2, mode: str) -> _PairRun:
    """A run of a spin pair's (q, u) stream as its suites evaluate it: one
    :class:`_PairRun`, which the pair's suites of a run of suites share."""
    return _PairRun(ell1, ell2, points, mode)


@_check
def check_decomposed_ybe(ell1, ell2, cfg: ToleranceConfig | None = None, perturb: float = 0.0):
    """All eight decomposed relations over sampled (q, u) points, in the
    orthonormal basis; each run of samples is assembled and checked in one
    stacked pass, which the pair's unitarity and Casimir suites share when
    they run with it (see :class:`_PairRun`)."""
    cfg = cfg or ToleranceConfig()
    return _Suite(f"decomposed[{{}}]({ell1},{ell2})", cfg, cfg.abs_tol, _pair_point,
                  (ell1, ell2, "xxz"), _pair_record, lambda run: run.decomposed(perturb), _pair_run)


@_check
def check_unitarity(ell1, ell2, cfg: ToleranceConfig | None = None, mode: str = "xxz",
                    perturb: float = 0.0):
    """R(u) R(-u) = 1 with unit normalization of the sector-0 eigenvalue.

    R(u) and R(-u) of a run of samples come from one stacked spectral form
    (see :class:`_PairRun`): in the orthonormal basis of the samples' q
    values, in the pass that the pair's decomposed and Casimir suites
    share when they run with it, or, in the monomial basis at q = 1, the
    one memoised form of :meth:`ProductSpace.of_spins`, which every sample
    shares.  The points are the pair's (q, u) stream in ``mode``.
    """
    cfg = cfg or ToleranceConfig()
    return _Suite(f"unitarity[{mode}]({ell1},{ell2})", cfg, cfg.rel_tol, _pair_point,
                  (ell1, ell2, mode), _pair_record, lambda run: run.unitarity(perturb), _pair_run)


@_check
def check_branch_independence(ell1, ell2, cfg: ToleranceConfig | None = None):
    """The sector eigenvalues (R_0 = 1) are unchanged when log q moves by 2 pi i at fixed
    spectral power q^u (sampled on and off the unit circle).

    On the shifted branch the spectral parameter u log q / (log q + 2 pi i)
    keeps q^u fixed; only the spin-related powers of q move.  A draw with a
    pole on either branch is drawn again (:func:`_branch_point`).  Each run
    of samples is one :func:`rop._eigenvalues` pass over the base and the
    shifted row of every sample, and a non-finite eigenvalue raises the
    :class:`ParameterDomainError` of :func:`rop.eigenvalue_sequence` for the
    lowest such sample, its base row first.
    """
    cfg = cfg or ToleranceConfig()

    def record(sample):
        q, u = sample[:2]
        return {"q": _c2l(q.value), "u": _c2l(u), "on_circle": bool(abs(abs(q.value) - 1) < 1e-12)}

    def evaluate(points):
        # rows 2s and 2s + 1 are sample s on its base and its shifted branch;
        # the draw has tested their poles with these bits, so there are none
        qs = [q for point in points for q in point[0::2]]
        us = [u for point in points for u in point[1::2]]
        vals, _ = _eigenvalues(ell1, ell2, us, qs)
        _require_finite(ell1, ell2, us, vals)
        base, shifted = vals[0::2, None], vals[1::2, None]
        return _residuals(base, shifted, base)

    return _Suite(f"branch_independence({ell1},{ell2})", cfg, cfg.abs_tol, _branch_point,
                  (ell1, ell2), record, evaluate)


@_check
def check_casimir_spectrum(ell1, ell2, cfg: ToleranceConfig | None = None):
    """Sector eigenvalues [n-l1-l2][n-l1-l2-1] with m-degeneracy across
    chains, in the orthonormal basis; each run of samples is one stacked
    pass of :func:`tensorrep._casimir_sectors`, which the pair's decomposed
    and unitarity suites share when they run with it (see :class:`_PairRun`)."""
    cfg = cfg or ToleranceConfig()
    return _Suite(f"casimir_spectrum({ell1},{ell2})", cfg, cfg.abs_tol, _pair_point,
                  (ell1, ell2, "xxz"), _pair_record, lambda run: run.casimir(), _pair_run)


# ---------------------------------------------------------------------------
# root-of-unity suites

@_check
def check_cyclic_centrality(n: int, cfg: ToleranceConfig | None = None):
    """Off-scalar residuals of (S+-)^N and q^{NS} on single and tensor reps.

    Each run of samples is one stacked pass: the bands of its 2 S
    representations are built once and shared by
    :func:`cyclic._central_elements` and :func:`cyclic._tensor_power_reports`.
    A sample that the guards of :func:`cyclic.central_elements` and
    :func:`cyclic.tensor_power_scalars` would reject (a NaN off-scalar
    residual, or one above 1) has the residual of its first failing guard,
    so it fails the report: rep 1's, rep 2's, then the generators' in the
    order sm_u, sp_u, sm_bar_u, sp_bar_u.  The cyclic R-ratio suite reads
    the same stream.
    """
    cfg = cfg or ToleranceConfig()
    q = DeformationParameter.root_of_unity(n)

    def record(sample):
        s1, s2, u = sample
        return {"params1": [_c2l(z) for z in (s1.alpha, s1.beta, s1.lam)],
                "params2": [_c2l(z) for z in (s2.alpha, s2.beta, s2.lam)], "u": _c2l(u)}

    def evaluate(points):
        specs1, specs2, us = zip(*points)
        reps1, reps2 = cy._rep_bands(specs1), cy._rep_bands(specs2)
        residuals = []
        for ce1, ce2, tp in zip(cy._central_elements(specs1, reps1),
                                cy._central_elements(specs2, reps2),
                                cy._tensor_power_reports(specs1, specs2, us, reps1, reps2)):
            guards = [ce1.max_offscalar_residual, ce2.max_offscalar_residual,
                      *tp.offscalar_residuals.values()]
            failed = [r for r in guards if not r <= 1.0]
            residuals.append(failed[0] if failed else _nan_max(
                *guards, residual(ce1.alpha_minus, ce1.alpha_minus_product_route, ce1.alpha_minus),
                *tp.closed_form_errors.values()))
        return residuals

    return _Suite(f"cyclic_centrality[N={n}]", cfg, cfg.abs_tol, _cyclic_params, (q,), record,
                  evaluate)


@_check
def check_phi_identity(n: int, cfg: ToleranceConfig | None = None, count: int = 20):
    """q-number product over a full period equals its two-term closed form;
    each run of samples is one pass of :func:`qcore._phi_products`."""
    cfg = cfg or ToleranceConfig()
    q = DeformationParameter.root_of_unity(n)
    return _Suite(f"phi_product[N={n}]", cfg, cfg.abs_tol, _alpha, (),
                  lambda alpha: {"alpha": _c2l(alpha)},
                  lambda alphas: [phi.residual for phi in _phi_products(alphas, q)], count=count)


@_check
def check_shift_laws(n: int, cfg: ToleranceConfig | None = None):
    """All 4N shift relations at random draws from the admissible parameter
    set, the stream that the partial R suite reads too; each run of samples
    is one stacked pass of :func:`cyclic._shift_residuals`."""
    cfg = cfg or ToleranceConfig()

    def record(sample):
        s1, s2, u = sample
        return {"u": _c2l(u), "alpha1": _c2l(s1.alpha), "beta2": _c2l(s2.beta)}

    def evaluate(points):
        _, resids = cy._shift_residuals(*zip(*points))
        return resids.reshape(len(points), -1).max(axis=1).tolist()

    return _Suite(f"shift_laws[N={n}]", cfg, cfg.rel_tol, _compatible,
                  (DeformationParameter.root_of_unity(n),), record, evaluate)


@_check
def check_cyclic_r_ratio(n: int, cfg: ToleranceConfig | None = None):
    """Consecutive cyclic eigenvalues have the constant ratio
    q^{2 - u + alpha2 - beta2 - lam1}, on the stream of the centrality
    suite; each run of samples is one pass of :func:`cyclic._eigenvalue_steps`."""
    cfg = cfg or ToleranceConfig()

    def evaluate(points):
        steps, vals = cy._eigenvalue_steps(*zip(*points))
        gaps = np.abs(vals[:, 1:] / vals[:, :-1] - steps[:, None]).max(axis=1).tolist()
        # a step's modulus is the scalar abs that residual takes of it
        return [residual(gap, 0.0, step) for gap, step in zip(gaps, steps)]

    return _Suite(f"cyclic_r_ratio[N={n}]", cfg, cfg.abs_tol, _cyclic_params,
                  (DeformationParameter.root_of_unity(n),),
                  lambda sample: {"u": _c2l(sample[2])}, evaluate)


@_check
def check_partial_r(n: int, cfg: ToleranceConfig | None = None):
    """Partial R reproduces its defining action on every family vector; a
    conflicting sample keeps its residual, so the suite's tolerance decides.
    The samples are the shift-law suite's stream.  Each run of samples is
    one pass of :func:`cyclic._partial_rs`, which completes every record
    with its span rank, so the suite reads its run with its records, and
    its record function is its own."""
    cfg = cfg or ToleranceConfig()

    def evaluate(run):
        points, records = run
        residuals = []
        for record, pr in zip(records, cy._partial_rs(*zip(*points))):
            record["span_rank"] = pr.span_rank
            residuals.append(pr.max_residual)
        return residuals

    return _Suite(f"partial_r[N={n}]", cfg, cfg.rel_tol, _compatible,
                  (DeformationParameter.root_of_unity(n),), lambda sample: {"u": _c2l(sample[2])},
                  evaluate, lambda points, records, q: (points, records))
