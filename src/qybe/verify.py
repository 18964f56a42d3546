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
import time

import numpy as np

from . import cyclic as cy
from .qcore import (MAX_DRAWS, RATIONAL, DeformationParameter, ToleranceConfig, _nan_max,
                    _phi_products, _QStack, _relative, qnum, sample_generic_q, sample_params,
                    sample_u)
from .rep import _casimir_diagonals, _fundamental_rs, _laxes, _spin_factors
from .rop import POLE_TOL, RMatrix, _eigenvalues, _pole_offsets, _require_finite, _solve
from .errors import ParameterDomainError, QybeError, SamplerExhausted
from .tensorrep import ProductSpace, _casimir_sectors


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


def _points(points: list, records: list, reads: frozenset, *params) -> list:
    """A run as most suites evaluate it: its samples."""
    return points


@dataclasses.dataclass(frozen=True)
class _Suite:
    """One sampled suite, as the harness :func:`_run` evaluates it.

    Its samples are a random stream: ``draw(rng, i, *params)`` draws sample
    i of ``count`` (``cfg.sample_count`` by default) from the generator
    that ``cfg`` seeds, and ``record(sample)`` gives a sample's JSON record.
    ``evaluate`` reads ``view(points, records, reads, *params)`` of a run of
    at most :data:`_STACK_SIZE` consecutive samples: the points, or the
    :class:`_PairRun` that a golden pair's suites share, where ``reads`` is
    the set of the ``reads`` names of the suites that share the view and
    evaluate the run, so a view builds only what they read.  It gives each
    sample's residual, or a dict of named residuals, each name a report
    with the name put in place of ``{}`` in ``identity_id``, in one stacked
    pass, and raises where a sample fails; evaluated on a run of one sample
    it raises that sample's first error.
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
    reads: str = ""


def _run(suites: list[_Suite], timings: dict | None = None) -> list[ResidualReport]:
    """The sampling harness behind every suite: the reports of ``suites``,
    in their order, the same as each suite gives when it runs alone.

    Suites that read one random stream (draw function, params, seed and
    count) share it.  It is drawn once, in sample order, from the one
    generator of its seed, reset to the seeded state before each further
    stream, so that each stream is that of a fresh generator.  No evaluation
    feeds a draw, so the stream is that of a loop that evaluates each sample
    as it is drawn; a draw that raises a :class:`QybeError` ends it.  Each
    record function's dicts are built once per stream, so a suite that
    completes its records in its evaluation (partial R's span rank) has a
    record function of its own.  Each run of samples is evaluated for all
    suites of its stream, which share one view per view function, and no
    view outlives its run.

    A suite whose evaluation of a run of several samples raises replays
    the run (:func:`_replay`), so it gets the error, of whatever type, of
    the lowest failing sample, or, where none fails alone (the piece that
    raised belongs to another suite of the view), the replay's residuals.
    Each suite keeps its residuals, or its first error, without the
    traceback that holds the run's arrays, and then the error that ended
    its draws.  The first error in the order of ``suites`` is raised, so it
    is the one that the suites raise one after another; an error of another
    type in a draw is raised at the place of the stream's first suite,
    before its evaluation.

    ``timings``, when given, is a sink that the reports do not read: its
    "streams" list gets one row per stream, with the seconds its draws
    took, and its "runs" list one row per suite and run of samples, with
    the run's first sample, its size, whether it was replayed and the
    seconds the suite's evaluation took, the view that it builds for the
    suites that share it and the replay included.
    """
    streams: dict[tuple, list[int]] = {}
    for k, suite in enumerate(suites):
        count = suite.cfg.sample_count if suite.count is None else suite.count
        if count < 1:
            raise ParameterDomainError("a suite needs at least one sample")
        streams.setdefault((suite.draw, suite.params, suite.cfg.rng_seed, count), []).append(k)
    outcomes = [None] * len(suites)
    generators = {}
    for (draw, params, seed, count), members in streams.items():
        if seed in generators:
            rng, state = generators[seed]
            rng.bit_generator.state = state
        else:
            rng = suites[members[0]].cfg.rng()
            generators[seed] = rng, rng.bit_generator.state
        points, stop = [], None
        draw_start = time.perf_counter()
        try:
            for i in range(count):
                points.append(draw(rng, i, *params))
        except QybeError as exc:
            stop = exc
        except Exception as exc:  # not a sampler's error: the stream's first suite raises it
            outcomes[members[0]] = exc
            continue
        finally:
            if timings is not None:
                timings.setdefault("streams", []).append({
                    "draw": draw.__name__, "seed": seed, "count": count, "drawn": len(points),
                    "suites": [suites[k].identity_id for k in members],
                    "draw_s": time.perf_counter() - draw_start})
        record_functions = dict.fromkeys(suites[k].record for k in members)
        records = {record: [record(point) for point in points] for record in record_functions}
        residuals = {k: [] for k in members}
        errors = dict.fromkeys(members)
        for start in range(0, len(points), _STACK_SIZE):
            run = slice(start, start + _STACK_SIZE)
            live = [k for k in members if errors[k] is None]
            views = {}
            for k in live:
                suite = suites[k]
                eval_start = time.perf_counter()
                replayed = False
                try:
                    if suite.view not in views:
                        reads = frozenset(suites[j].reads for j in live
                                          if suites[j].view is suite.view)
                        views[suite.view] = suite.view(points[run], records[suite.record][run],
                                                       reads, *params)
                    residuals[k].extend(suite.evaluate(views[suite.view]))
                except Exception as exc:  # the suite's own error, raised at its place
                    replayed = len(points[run]) > 1
                    errors[k] = (_replay(suite, points[run], records[suite.record][run], params,
                                         residuals[k]) if replayed else exc.with_traceback(None))
                if timings is not None:
                    timings.setdefault("runs", []).append({
                        "suite": suite.identity_id, "start": start, "size": len(points[run]),
                        "replayed": replayed, "eval_s": time.perf_counter() - eval_start})
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


def _replay(suite: _Suite, points, records, params, residuals: list) -> Exception | None:
    """Evaluate ``suite`` on a run one sample at a time, each through a view
    of its own that builds only what the suite reads, adding each sample's
    residuals to ``residuals``; the first error, without its traceback, or
    None."""
    for i in range(len(points)):
        try:
            view = suite.view(points[i:i + 1], records[i:i + 1], frozenset({suite.reads}), *params)
            residuals.extend(suite.evaluate(view))
        except Exception as exc:  # the lowest failing sample's error
            return exc.with_traceback(None)
    return None


def _reports(suite: _Suite, records: list, residuals: list) -> list[ResidualReport]:
    """The reports of ``suite``, whose samples have ``records`` and
    ``residuals``: one, or one per name of dicts of named residuals, in the
    order the names first come.  Each name's residuals fold in one
    NaN-keeping max from 0.0, so a non-finite one fails the report."""
    if not residuals or isinstance(residuals[0], dict):
        named = {}
        for res in residuals:
            for name, r in res.items():
                named.setdefault(name, []).append(r)
    else:
        named = {None: residuals}
    samples = tuple(records)
    return [ResidualReport(suite.identity_id.format(name), samples, _nan_max(0.0, *values),
                           suite.tol, suite.cfg.rng_seed) for name, values in named.items()]


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
    s of (S, d, d) stacks, from one abs-max of the gaps and one of the
    inputs."""
    return _relative(np.abs(lhs - rhs).max(axis=(1, 2)),
                     np.abs(np.stack(inputs, axis=1)).max(axis=(1, 2, 3))).tolist()


def _pole_gaps(offsets: list, points) -> list:
    """|[x+u]| at q for every (u, q) of ``points`` and every x of the
    :func:`rop._pole_offsets`, each one scalar :func:`qcore.qnum`, whose bits
    are those of the stacked q-number.  A power of q that overflows gives
    an infinite or NaN gap; callers run it under the errstate of
    :func:`rop._eigenvalues`."""
    return [abs(qnum(x + u, q)) for u, q in points for x in offsets]


def _regular_point(ell1, ell2, rng, min_gap: float = 0.05, q: DeformationParameter | None = None):
    """A (q, u) with all eigenvalue denominators, at u and at -u, more than
    ``min_gap`` from 0 (:func:`_pole_gaps`; a NaN gap is no such gap): q
    is drawn when it is None, and at a fixed q (:data:`qcore.RATIONAL`,
    where the denominators are plain numbers) only u is drawn.
    """
    offsets = _pole_offsets(ell1, ell2)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(MAX_DRAWS):
            point_q = sample_generic_q(rng) if q is None else q
            u = sample_u(rng)
            if all(gap > min_gap for gap in _pole_gaps(offsets, ((u, point_q), (-u, point_q)))):
                return point_q, u
    what = "regular (q, u)" if q is None else "regular rational u"
    raise SamplerExhausted(f"{what} for spins ({ell1}, {ell2})", MAX_DRAWS)


def _q_tag(q) -> str:
    """The id tag of a suite at ``q``: "xxz" where q is drawn (None) and "xxx"
    at :data:`qcore.RATIONAL`; :class:`ParameterDomainError` for any other q."""
    if q is None:
        return "xxz"
    if q == RATIONAL:
        return "xxx"
    raise ParameterDomainError(f"a suite runs at a drawn q (None) or at RATIONAL (got q={q!r})")


# ---------------------------------------------------------------------------
# the random streams: each draw(rng, i, *params) gives sample i of a stream
# (see _Suite), and the record functions here are those of more than one suite

def _pair_point(rng, i, ell1, ell2, q):
    """The (q, u) of the spin-pair suites, a :func:`_regular_point`."""
    return _regular_point(ell1, ell2, rng, q=q)


def _quv(rng, i, q):
    """A q, drawn generic when ``q`` is None, and two spectral parameters u, v."""
    return sample_generic_q(rng) if q is None else q, sample_u(rng), sample_u(rng)


def _cyclic_params(rng, i, q):
    """Two specs of cyclic parameter triples at the root of unity q, from
    one draw of six parameters, and a spectral parameter."""
    params = sample_params(rng, 6)
    return (cy.CyclicRepSpec(*params[:3], q.order, q), cy.CyclicRepSpec(*params[3:], q.order, q),
            sample_u(rng, scale=0.6))


def _compatible(rng, i, q):
    """Two specs at the root of unity q and a u on the admissible set."""
    return cy.sample_compatible_params(q.order, rng, q)


def _alpha(rng, i):
    """One complex alpha of the phi products, both parts from one
    ``rng.normal`` call."""
    return complex(*rng.normal(0, 0.6, 2).tolist())


def _branch_point(rng, i, ell1, ell2):
    """(q, u) and its shift to the branch log q + 2 pi i that keeps q^u,
    with q on the unit circle at even i; a candidate with a pole on either
    branch, a denominator of :func:`rop._eigenvalues` below
    :data:`rop.POLE_TOL` (:func:`_pole_gaps`; a NaN one is no pole), is
    drawn again."""
    offsets = _pole_offsets(ell1, ell2)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(MAX_DRAWS):
            q = sample_generic_q(rng, on_circle=(i % 2 == 0))
            u = sample_u(rng)
            shifted_q = q.with_branch_shift(1)
            shifted_u = u * q.log_branch / shifted_q.log_branch
            points = ((u, q), (shifted_u, shifted_q))
            if not any(gap < POLE_TOL for gap in _pole_gaps(offsets, points)):
                return q, u, shifted_q, shifted_u
    raise SamplerExhausted(f"pole-free (q, u) for spins ({ell1}, {ell2})", MAX_DRAWS)


def _q_record(sample) -> dict:
    """The record of a (q, u) or (q, u, v) sample, q null at :data:`qcore.RATIONAL`."""
    q, *params = sample
    record = {"q": None if q == RATIONAL else _c2l(q.value)}
    record.update(zip("uv", map(_c2l, params)))
    return record


# ---------------------------------------------------------------------------
# embeddings

def _on_slots(op: np.ndarray, dims: tuple[int, int, int], slots: tuple[int, int]) -> np.ndarray:
    """Put ``op``, acting on factors ``slots`` (in that order), on the
    three-fold product of dimensions ``dims``, as the identity on the third.
    Leading axes of ``op`` are a stack and are kept.

    Every entry is one product op_ij * 1 or op_ij * 0, so it equals the
    entry of the Kronecker product with the identity (a zero may differ in
    sign).
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
def check_fundamental_ybe(cfg: ToleranceConfig | None = None, q: DeformationParameter | None = None,
                          perturb: float = 0.0):
    """Braid-form identity R12(u-v) R13(u) R23(v) = R23(v) R13(u) R12(u-v)
    at a drawn q (``q`` None, "xxz") or at :data:`qcore.RATIONAL` ("xxx",
    gated at a hundredth of the tolerance); each run of samples is one
    stacked pass.  The (q, u, v) stream at a drawn q is that of the spin
    RLL suites."""
    cfg = cfg or ToleranceConfig()
    tag = _q_tag(q)

    def evaluate(points):
        qs, us, vs = zip(*points)
        r12, r13, r23 = _fundamental_rs([u - v for u, v in zip(us, vs)] + [*us, *vs],
                                        _QStack.of(qs * 3)).reshape(3, len(points), 4, 4)
        if perturb:
            r12[:, 0, 1] += perturb
        m12 = _on_slots(r12, (2, 2, 2), (0, 1))
        m13 = _on_slots(r13, (2, 2, 2), (0, 2))
        m23 = _on_slots(r23, (2, 2, 2), (1, 2))
        return _residuals(m12 @ m13 @ m23, m23 @ m13 @ m12, m12, m13, m23)

    return _Suite(f"fundamental_ybe[{tag}]", cfg, cfg.abs_tol if q is None else cfg.abs_tol / 100,
                  _quv, (q,), _q_record, evaluate)


@_check
def check_rll(quantum, cfg: ToleranceConfig | None = None):
    """R12(u-v) L1(u) L2(v) = L2(v) L1(u) R12(u-v) on aux x aux x quantum;
    each run of samples is one stacked pass.

    ``quantum`` is either a half-integer spin or a :class:`CyclicRepSpec`.
    The points are (q, u, v) samples: of a spin at a drawn q, the stream
    of :func:`check_fundamental_ybe` at a drawn q, and of a cyclic
    representation at its root of unity.
    """
    cfg = cfg or ToleranceConfig()
    # a cyclic quantum space is one fixed representation for every sample
    fixed = cy._rep_bands([quantum]) if isinstance(quantum, cy.CyclicRepSpec) else None

    def evaluate(points):
        qs, us, vs = zip(*points)
        qs = _QStack.of(qs)
        rep = _spin_factors(quantum, qs, "monomial") if fixed is None else fixed
        gens = rep.dense()
        dims = (2, 2, rep.weights.size)
        l1 = _on_slots(_laxes(gens[:, 0], gens[:, 1], rep.weights, us, qs), dims, (0, 2))
        l2 = _on_slots(_laxes(gens[:, 0], gens[:, 1], rep.weights, vs, qs), dims, (1, 2))
        r12 = _on_slots(_fundamental_rs([u - v for u, v in zip(us, vs)], qs), dims, (0, 1))
        return _residuals(r12 @ l1 @ l2, l2 @ l1 @ r12, r12, l1, l2)

    if fixed is None:
        return _Suite(f"rll[spin {quantum}]", cfg, cfg.abs_tol, _quv, (None,), _q_record, evaluate)
    return _Suite(f"rll[cyclic N={quantum.n}]", cfg, cfg.rel_tol, _quv, (quantum.q,), _q_record,
                  evaluate)


# ---------------------------------------------------------------------------
# the spin-pair suites, one stacked pass per golden pair and run of samples

def _perturbed(r: np.ndarray, perturb: float) -> np.ndarray:
    """``r``, or with ``perturb`` added to entry (0, 1) of every sample, in a
    copy, since the suites of a pass share one R(u)."""
    if not perturb:
        return r
    r = r.copy()
    r[:, 0, 1] += perturb
    return r


def _decomposed_families(us) -> list[tuple]:
    """The coproduct families (kind, us) that :func:`_decomposed` reads, in
    its order: Delta at u and at -u, then Delta-bar at u and at -u."""
    mus = [-u for u in us]
    return [("delta", us), ("delta", mus), ("deltabar", us), ("deltabar", mus)]


# the decomposed relations, each X Y = Z W, in report order
_RELATIONS = ("qs_commute", "lower_twisted", "raise_twisted", "lower_twisted_bar",
              "raise_twisted_bar", "k_plus_minus", "k_minus_plus", "casimir_intertwine")
# the operand slots of _decomposed whose abs-maxima scale each relation: R
# (slot 15) and the relation's other inputs, of a k relation its K alone
# (K-bar, in slot 7 + j, is no input)
_SCALE_SLOTS = np.array([[15, 7 - j, 7 - j if name.startswith("k_") else 7 + j]
                         for j, name in enumerate(_RELATIONS)])
# the operand slots of the K operators less (q - 1/q)^2 S1- S2+ (row 0) and of
# those less (q - 1/q)^2 S1+ S2- (row 1)
_K_SLOTS = np.array([[[2], [13]], [[1], [12]]])


def _decomposed(space: ProductSpace, us, r: np.ndarray, gens: tuple,
                diagonal: np.ndarray) -> list[dict[str, float]]:
    """The eight relations of :func:`decomposed_residuals` for R = r[s] at
    u_s on each sample of ``space``: one broadcast matmul of R on each side
    for all relations and samples, and one abs-max over the operands.
    ``gens`` is the :meth:`ProductSpace.coproducts` of the
    :func:`_decomposed_families` at the us and ``diagonal`` the Casimir
    diagonal of the space, which the Casimir suite reads too.

    Every relation reads R Y = Z R, the Casimir intertwining relation
    C(-u) R = R Cbar(u) as R Cbar(u) = C(-u) R, whose gap is the same
    modulus.  The operands share one buffer: Y of relation j in slot 7 - j,
    Z in slot 7 + j (q^S, both operands of the first relation, in slot 7),
    and R in slot 15.  A K operator is its q-power diagonal less
    (q - 1/q)^2 S1-+ S2+-, products of the factor bands at their targets
    (:attr:`tensorrep._BlockLayout.exchanges`); the factors' q^{+-S} are
    those that the coproduct kernel read."""
    f1, f2 = space.factors
    lb = space.log_branch
    count, d = r.shape[0], r.shape[-1]
    qu = np.exp(np.asarray(us, complex) * lb)[:, None, None, None]
    values = np.array([q.value for q in space.qs], complex)[:, None, None]
    c2 = (values - 1 / values) ** 2
    # q^{S1 - S2} and q^{S2 - S1}, (S, 2, d1, d2), then the K diagonals: the
    # first times q^u plus the second over q^u, and the other way round
    p1, p2 = f1.powers, f2.powers
    plus_minus = p1[:, :, :, None] * p2[:, ::-1, None, :]
    k_diagonals = (qu * plus_minus + plus_minus[:, ::-1] / qu).reshape(count, 2, 1, d)
    sp, sm = gens
    ops = np.zeros((count, 16, d, d), complex)
    right, left = ops[:, 7::-1], ops[:, 7:15]
    # Delta at u and Delta-bar at u right of R; Delta-bar at -u and Delta at -u left of it
    right[:, 1:5:2], right[:, 2:5:2] = sm[:, 0::2], sp[:, 0::2]
    left[:, 1:5:2], left[:, 2:5:2] = sm[:, 3::-2], sp[:, 3::-2]
    flat = ops.reshape(count, 16, d * d)
    diagonals = flat[..., ::d + 1]
    diagonals[:, 7] = np.exp(space.weights * lb[:, None])
    # K and K-bar of k_plus_minus in slots 2 and 12, of k_minus_plus in 1 and 13
    diagonals[:, 2:13:10], diagonals[:, 1:14:12] = k_diagonals[:, 0], k_diagonals[:, 1]
    down_up, up_down = space.layout.exchanges
    flat[:, _K_SLOTS[0], down_up] -= (c2 * (f1.lower[:, :, None] * f2.lift[:, None, :])
                                      ).reshape(count, 1, d)
    flat[:, _K_SLOTS[1], up_down] -= (c2 * (f1.lift[:, :, None] * f2.lower[:, None, :])
                                      ).reshape(count, 1, d)
    # Cbar(u) and C(-u), the Casimirs of Delta-bar at u and Delta at -u, in slots 0 and 14
    np.add(sp[:, 2:0:-1] @ sm[:, 2:0:-1], diagonal[:, None], out=ops[:, ::14])
    ops[:, 15] = r
    gaps = np.abs(r[:, None] @ right - left @ r[:, None]).max(axis=(2, 3))
    scales = np.abs(ops).max(axis=(2, 3))[:, _SCALE_SLOTS].max(axis=2)
    return [dict(zip(_RELATIONS, row)) for row in _relative(gaps, scales).tolist()]


def decomposed_residuals(rm: RMatrix) -> dict[str, float]:
    """Residuals of the eight relations an intertwining R must satisfy, on
    the :class:`ProductSpace` of R's spins in R's own basis.

    Each relation X Y = Z W is one slice of a stacked matmul pair, and each
    distinct input gets one abs-max; the residual read from those
    abs-maxima equals ``residual(X @ Y, Z @ W, *inputs)`` exactly.  The
    stack of one of the suite's stacked pass.
    """
    space = ProductSpace.of_spins(rm.ell1, rm.ell2, rm.q, rm.basis_tag)
    us = [rm.u]
    return _decomposed(space, us, rm.matrix[None], space.coproducts(_decomposed_families(us)),
                       _casimir_diagonals(space.weights, space.qs))[0]


def _casimir_residuals(space: ProductSpace, chains: np.ndarray, delta_u: tuple,
                       diagonal: np.ndarray) -> list[float]:
    """The worst Casimir residual or m-spread of each sample of ``space`` at
    its u, unbarred: the largest, or a NaN, of the sector residuals and
    spreads of its :func:`tensor_casimir` report, all sectors in one stacked
    pass of :func:`tensorrep._casimir_sectors`, from the chains of the
    sectors at the samples' u (see :meth:`ProductSpace.chain_pass`), the
    coproduct Delta at those u and the Casimir diagonal of the space."""
    sp, sm = delta_u
    c = sp @ sm + diagonal
    f1, f2 = space.factors
    _, resid, spread = _casimir_sectors(c, chains, space.layout.live, f1.ell, f2.ell, space.qs)
    # max keeps a NaN
    return np.concatenate([resid, spread], axis=1).max(axis=1).tolist()


class _PairRun:
    """One run of at most :data:`_STACK_SIZE` samples (q_s, u_s) of a spin
    pair, and the pieces that its suites share: the view of the pair's
    suites (see :class:`_Suite`), whose ``reads`` names the suites that
    read it ("decomposed", "unitarity", "casimir"), so that it builds only
    what they read, each piece the first time a suite asks for it.  The
    suites read the pieces and do not write them.  A piece that raises is
    not kept, so every suite that asks for it raises, and :func:`_run`
    replays the run for each such suite with a view of its own.

    The pieces are the :class:`ProductSpace` of the run; one
    :meth:`ProductSpace.chain_pass` of it, which raises Delta and Delta-bar
    at u = 0 for the spectral form (when R is read) and Delta at the
    samples' u for the Casimir sectors (when the Casimir suite reads the
    run), conditions both Delta families in one call and gives, from one
    call of the coproduct kernel, every coproduct that the suites read;
    R(u), and R(-u) for the unitarity suite, from one :func:`rop._solve`
    call; and the Casimir diagonal.  The run's q values are one
    :class:`qcore._QStack`, built once, and the samples carry them, so the
    stream's fixed q (``q``, None where q is drawn) is not read.  At drawn
    q values the space is orthonormal, at the run's q values; where every
    sample is at :data:`qcore.RATIONAL` it is the monomial one of the
    memoised :meth:`ProductSpace.of_spins`.
    """

    def __init__(self, points, records, reads: frozenset, ell1, ell2, q=None):
        self.ell1, self.ell2, self.reads = ell1, ell2, reads
        qs, self.us = zip(*points)
        self.qs = _QStack.of(qs)

    @functools.cached_property
    def space(self) -> ProductSpace:
        if self.qs.rational:
            return ProductSpace.of_spins(self.ell1, self.ell2, RATIONAL, "monomial")
        return ProductSpace.stack_of_spins(self.ell1, self.ell2, self.qs, "orthonormal")

    @functools.cached_property
    def chain_pass(self) -> tuple:
        """The run's :meth:`ProductSpace.chain_pass`: the Casimir sector
        chains, or None, and the coproducts of the
        :func:`_decomposed_families` (Delta at u alone when the Casimir
        suite reads the run without the decomposed one), or None."""
        us = list(self.us)
        read = (_decomposed_families(us) if "decomposed" in self.reads
                else [("delta", us)] if "casimir" in self.reads else [])
        return self.space.chain_pass(("delta", us) if "casimir" in self.reads else None,
                                     form=bool(self.reads & {"decomposed", "unitarity"}),
                                     read=read)

    @functools.cached_property
    def r(self) -> np.ndarray:
        """R(u_s), then R(-u_s) when the unitarity suite reads the run, for
        every sample, from one solve.  It raises the poles of its rows, then
        the form's error, then a non-finite R; a drawn sample has no pole at
        u or at -u (:func:`_regular_point`), so a run of one sample raises
        what :func:`assemble_R` at u, then at -u, raises."""
        us = list(self.us)
        if "unitarity" in self.reads:
            us += [-u for u in us]
        qs = self.qs * (len(us) // len(self.qs))
        eig = _eigenvalues(self.ell1, self.ell2, us, qs)
        self.chain_pass  # the form comes from the run's one pass
        r = _solve(self.ell1, self.ell2, us, qs, eig, self.space.spectral_form())
        r.setflags(write=False)
        return r

    @functools.cached_property
    def casimir_diagonal(self) -> np.ndarray:
        return _casimir_diagonals(self.space.weights, self.qs)

    def decomposed(self, perturb: float) -> list[dict[str, float]]:
        """The eight decomposed residuals of each sample."""
        r = _perturbed(self.r[:len(self.us)], perturb)
        return _decomposed(self.space, self.us, r, self.chain_pass[1], self.casimir_diagonal)

    def unitarity(self, perturb: float) -> list[float]:
        """The residual of R(u) R(-u) = 1 of each sample, R(u) and R(-u) from
        one solve over the spectral form."""
        r, count = self.r, len(self.us)
        prod = _perturbed(r[:count], perturb) @ r[count:]
        return _residuals(prod, self.space.layout.identity, prod)

    def casimir(self) -> list[float]:
        """The worst Casimir residual or m-spread of each sample; no R is
        read, so no perturbation moves it."""
        chains, (sp, sm) = self.chain_pass
        return _casimir_residuals(self.space, chains, (sp[:, 0], sm[:, 0]), self.casimir_diagonal)


@_check
def check_decomposed_ybe(ell1, ell2, cfg: ToleranceConfig | None = None, perturb: float = 0.0):
    """All eight decomposed relations over sampled (q, u) points, in the
    orthonormal basis; each run of samples is assembled and checked in one
    stacked pass, which the pair's unitarity and Casimir suites share when
    they run with it (see :class:`_PairRun`)."""
    cfg = cfg or ToleranceConfig()
    return _Suite(f"decomposed[{{}}]({ell1},{ell2})", cfg, cfg.abs_tol, _pair_point,
                  (ell1, ell2, None), _q_record, lambda run: run.decomposed(perturb), _PairRun,
                  reads="decomposed")


@_check
def check_unitarity(ell1, ell2, cfg: ToleranceConfig | None = None,
                    q: DeformationParameter | None = None, perturb: float = 0.0):
    """R(u) R(-u) = 1 with unit normalization of the sector-0 eigenvalue.

    R(u) and R(-u) of a run of samples come from one stacked spectral form
    (see :class:`_PairRun`): in the orthonormal basis of the samples' q
    values, in the pass that the pair's decomposed and Casimir suites
    share when they run with it, or, in the monomial basis at q = 1, the
    one memoised form of :meth:`ProductSpace.of_spins`, which every sample
    shares.  The points are the pair's (q, u) stream at a drawn q (``q``
    None, "xxz") or at :data:`qcore.RATIONAL` ("xxx").
    """
    cfg = cfg or ToleranceConfig()
    return _Suite(f"unitarity[{_q_tag(q)}]({ell1},{ell2})", cfg, cfg.rel_tol, _pair_point,
                  (ell1, ell2, q), _q_record, lambda run: run.unitarity(perturb), _PairRun,
                  reads="unitarity")


@_check
def check_branch_independence(ell1, ell2, cfg: ToleranceConfig | None = None):
    """The sector eigenvalues (R_0 = 1) are unchanged when log q moves by 2 pi i at fixed
    spectral power q^u (sampled on and off the unit circle).

    On the shifted branch the spectral parameter u log q / (log q + 2 pi i)
    keeps q^u fixed; only the spin-related powers of q move.  A draw with a
    pole on either branch is drawn again (:func:`_branch_point`, which
    tests the poles in scalar arithmetic), and each run of samples computes
    its eigenvalues in one :func:`rop._eigenvalues` call over both branches
    of every sample.  A non-finite eigenvalue raises the
    :class:`ParameterDomainError` of :func:`rop.eigenvalue_sequence` for
    the lowest such sample of a run, its base row first.
    """
    cfg = cfg or ToleranceConfig()

    def record(sample):
        q, u = sample[:2]
        return {"q": _c2l(q.value), "u": _c2l(u), "on_circle": bool(abs(abs(q.value) - 1) < 1e-12)}

    def evaluate(points):
        # rows 2s and 2s + 1 are sample s on its base and its shifted branch
        us = [u for point in points for u in point[1::2]]
        vals = _eigenvalues(ell1, ell2, us, _QStack.of(q for point in points
                                                       for q in point[0::2]))
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
                  (ell1, ell2, None), _q_record, lambda run: run.casimir(), _PairRun,
                  reads="casimir")


# ---------------------------------------------------------------------------
# root-of-unity suites

@_check
def check_cyclic_centrality(n: int, cfg: ToleranceConfig | None = None):
    """Off-scalar residuals of (S+-)^N and q^{NS} on single and tensor reps.

    Each run of S samples is one stacked pass: one band stack of its 2 S
    representations gives the central elements (:func:`cyclic._central_elements`)
    and, by halves, the tensor powers (:func:`cyclic._tensor_power_reports`).
    A sample that the guards of :func:`cyclic.central_elements` and
    :func:`cyclic.tensor_power_scalars` would reject (a NaN off-scalar
    residual, or one above 1) has the residual of its first failing guard:
    rep 1's, rep 2's, then sm_u's, sp_u's, sm_bar_u's and sp_bar_u's.  Any
    other sample has the NaN-keeping max of its guards, the cross-check of
    (S-)^N and the closed-form errors.  The cyclic R-ratio suite reads the
    same stream.
    """
    cfg = cfg or ToleranceConfig()
    q = DeformationParameter.root_of_unity(n)

    def record(sample):
        s1, s2, u = sample
        return {"params1": [_c2l(z) for z in (s1.alpha, s1.beta, s1.lam)],
                "params2": [_c2l(z) for z in (s2.alpha, s2.beta, s2.lam)], "u": _c2l(u)}

    def evaluate(points):
        specs1, specs2, us = zip(*points)
        count = len(points)
        reps = cy._rep_bands(specs1 + specs2)
        central = cy._central_elements(specs1 + specs2, reps)
        powers = cy._tensor_power_reports(specs1, specs2, us, *cy._halves(reps))
        # [s, j]: rep 1's worst, rep 2's worst, then the four generators'; max keeps a NaN
        guards = np.concatenate([central.offscalar_residuals.reshape(2, count, 3).max(axis=2).T,
                                 powers.offscalar_residuals], axis=1)
        am = central.scalars[:count, 1]
        cross = _relative(np.abs(am - central.routes[:count]), np.abs(am))
        folded = np.concatenate([guards, cross[:, None], powers.closed_form_errors], axis=1)
        failing = ~(guards <= 1.0)
        first = guards[np.arange(count), failing.argmax(axis=1)]
        return np.where(failing.any(axis=1), first, folded.max(axis=1)).tolist()

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
        return _relative(np.abs(vals[:, 1:] / vals[:, :-1] - steps[:, None]).max(axis=1),
                         np.abs(steps)).tolist()

    return _Suite(f"cyclic_r_ratio[N={n}]", cfg, cfg.abs_tol, _cyclic_params,
                  (DeformationParameter.root_of_unity(n),),
                  lambda sample: {"u": _c2l(sample[2])}, evaluate)


@_check
def check_partial_r(n: int, cfg: ToleranceConfig | None = None):
    """Partial R reproduces its defining action on every family vector; a
    conflicting sample keeps its residual, so the suite's tolerance decides.
    The samples are the shift-law suite's stream.  Each run of samples is
    one pass of :func:`cyclic._partial_rs`, by weight sector, which
    completes every record with its span rank, so the suite reads its run
    with its records, and its record function is its own."""
    cfg = cfg or ToleranceConfig()

    def evaluate(run):
        points, records = run
        solves = cy._partial_rs(*zip(*points))
        for record, rank in zip(records, solves.span_ranks):
            record["span_rank"] = rank
        return solves.max_residuals

    return _Suite(f"partial_r[N={n}]", cfg, cfg.rel_tol, _compatible,
                  (DeformationParameter.root_of_unity(n),), lambda sample: {"u": _c2l(sample[2])},
                  evaluate, lambda points, records, reads, q: (points, records))
