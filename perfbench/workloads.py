"""The three benchmark workloads, each driven only through qybe's public API.

A workload makes its inputs from the seed (``prepare``) and runs one
repetition on them (``run``), returning a :class:`RepOutcome`.  A
repetition is the workload's solution, made of short units timed one by
one (a scan operation, a CLI call); a run repeats it on the same inputs,
so the units line up across repetitions.  The first repetition runs on the
seed's inputs as drawn and is not timed; ``timed`` then gives the inputs
the timed repetitions replay, with those it failed on drawn again until
they succeed, so every timed operation succeeds.

* ``verify-all``:   ``qybe verify all --samples 5`` in-process, at five
                    seeds; an operation is one identity-sample (1,175).
* ``rmatrix-scan``: spin pairs (1/2,1/2) .. (3,3) at seeded q and +-u,
                    assembled, exported and re-imported; an operation is
                    one exported R-matrix.  The +-u pairs where the library
                    fails (the known l=3 ``CompletenessFailure``, a unitarity
                    residual over tolerance) are tallied, then drawn again.
* ``cyclic-n7``:    ``qybe verify cyclic --N 7 --samples 10`` in-process,
                    at five seeds; an operation is one identity-sample (300).
"""
from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import time
from collections import Counter
from pathlib import Path

import numpy as np

from qybe import cli, errors, qcore, rop

EPS = float(np.finfo(float).eps)

# Each verify repetition is several short CLI calls, each timed on its own,
# so that the latency percentiles have more than one value to work on.
VERIFY_CALLS = 5
VERIFY_ALL_ARGV = ("verify", "all", "--samples", "5")
CYCLIC_N7_ARGV = ("verify", "cyclic", "--N", "7", "--samples", "10")

# rmatrix-scan inputs: a ladder of spin pairs, mixed pairs included, up to d = 49
SCAN_PAIRS = ((0.5, 0.5), (0.5, 1.0), (1.0, 1.0), (1.0, 1.5), (1.5, 1.5), (1.0, 2.0),
              (2.0, 2.0), (0.5, 3.0), (2.0, 2.5), (2.5, 2.5), (3.0, 3.0))
SCAN_Q_PER_PAIR = 2      # fixed q values shared by all u points of a pair
SCAN_U_PER_Q = 3         # each u is assembled at +u and at -u
SCAN_XXX_U_PER_PAIR = 2  # rational-mode subset, also at +-u
SCAN_POLE_GAP = 0.05     # minimum |[l1+l2+1-n +- u]| for a point to be used
SCAN_TOL = qcore.ToleranceConfig().rel_tol  # unitarity tolerance, as in check_unitarity
_MAX_DRAWS = 1000


def headroom(residual: float, tolerance: float) -> float | None:
    """log10(tolerance / residual) in decades; None for a non-finite residual.

    Residuals are relative, so anything below machine epsilon reads as
    epsilon.  Never fold residuals with ``max``: ``max(0.0, nan)`` is 0.0.
    """
    if not math.isfinite(residual):
        return None
    return math.log10(tolerance / max(residual, EPS))


@dataclasses.dataclass
class RepOutcome:
    """What one repetition did and how long it took."""

    wall_s: float
    attempted: int = 0
    failed: int = 0
    failures: Counter = dataclasses.field(default_factory=Counter)
    headrooms: list = dataclasses.field(default_factory=list)
    unit_s: list = dataclasses.field(default_factory=list)  # each timed unit's seconds
    unit_ops: list = dataclasses.field(default_factory=list)  # operations in each unit
    digest: str = ""
    bytes_written: int = 0
    problems: list = dataclasses.field(default_factory=list)
    failed_groups: set = dataclasses.field(default_factory=set)  # scan: +-u pairs


# ---------------------------------------------------------------------------
# verify-all and cyclic-n7: the documented CLI command, in-process

def verify_rep(argv, seed: int, workdir: Path) -> RepOutcome:
    """Run ``qybe <argv> --seed S --json <file>`` for ``VERIFY_CALLS`` seeds
    made from ``seed``, timing each call on its own, and check every report."""
    workdir.mkdir(parents=True, exist_ok=True)
    path = workdir / "report.json"
    out = RepOutcome(wall_s=0.0)
    digest = hashlib.sha256()
    for k in range(VERIFY_CALLS):
        full = [*argv, "--seed", str(VERIFY_CALLS * seed + k), "--json", str(path)]
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            code = cli.main(full)
            wall = time.perf_counter() - t0
        raw = path.read_bytes()
        digest.update(raw)
        out.bytes_written += len(raw)
        out.wall_s += wall
        if code != cli.EXIT_OK:
            out.problems.append(f"qybe {' '.join(full)} exited with {code}")
        before = out.attempted
        for rep in json.loads(raw)["reports"]:
            n = len(rep["samples"])
            out.attempted += n
            h = headroom(rep["max_residual"], rep["tolerance"])
            if h is None:
                out.failures["non_finite"] += n
            else:
                out.headrooms.append(h)
                if rep["verdict"] == "pass":
                    continue
                out.failures["verdict"] += n
            out.failed += n
            out.problems.append(f"{rep['identity_id']}: verdict {rep['verdict']}, "
                                f"max residual {rep['max_residual']}")
        out.unit_s.append(wall)
        out.unit_ops.append(out.attempted - before)
    out.digest = digest.hexdigest()
    return out


# ---------------------------------------------------------------------------
# rmatrix-scan

@dataclasses.dataclass(frozen=True)
class ScanPoint:
    ell1: float
    ell2: float
    u: complex
    q: qcore.DeformationParameter | None
    mode: str


def pole_gap(ell1, ell2, u: complex, q) -> float:
    """Smallest |[l1+l2+1-n +- u]| over the eigenvalue denominators; plain
    numbers in the rational mode (q None)."""
    nmax = int(round(2 * min(ell1, ell2)))
    big_l = ell1 + ell2 + 1
    gaps = [abs(big_l - n + s * u) if q is None else abs(qcore.qnum(big_l - n + s * u, q))
            for n in range(1, nmax + 1) for s in (1, -1)]
    return min(gaps, default=math.inf)


def _draw_q(rng) -> qcore.DeformationParameter:
    for _ in range(_MAX_DRAWS):
        log_q = complex(rng.uniform(-0.25, 0.25),
                        rng.uniform(0.15, np.pi - 0.15) * rng.choice([-1.0, 1.0]))
        try:
            return qcore.DeformationParameter.generic(np.exp(log_q))
        except errors.ParameterDomainError:
            continue
    raise RuntimeError("no admissible q drawn")


def _draw_u(rng, ell1, ell2, q) -> complex:
    for _ in range(_MAX_DRAWS):
        u = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
        if pole_gap(ell1, ell2, u, q) > SCAN_POLE_GAP:
            return u
    raise RuntimeError(f"no pole-free u drawn for spins ({ell1}, {ell2})")


def scan_points(seed: int) -> list[ScanPoint]:
    """The scan's inputs: consecutive entries are the +u and -u of one point."""
    rng = np.random.default_rng(seed)
    points = []
    for ell1, ell2 in SCAN_PAIRS:
        for _ in range(SCAN_Q_PER_PAIR):
            q = _draw_q(rng)
            for _ in range(SCAN_U_PER_Q):
                u = _draw_u(rng, ell1, ell2, q)
                points += [ScanPoint(ell1, ell2, u, q, "xxz"), ScanPoint(ell1, ell2, -u, q, "xxz")]
        for _ in range(SCAN_XXX_U_PER_PAIR):
            u = _draw_u(rng, ell1, ell2, None)
            points += [ScanPoint(ell1, ell2, u, None, "xxx"),
                       ScanPoint(ell1, ell2, -u, None, "xxx")]
    return points


def _pair(z: complex) -> list[float]:
    return [z.real, z.imag]


def _export(point: ScanPoint) -> tuple[np.ndarray, str, np.ndarray]:
    """One operation: assemble, export as a document, read it back."""
    rm = rop.assemble_R(point.ell1, point.ell2, point.u, point.q, mode=point.mode)
    meta = {"spins": [point.ell1, point.ell2], "u": _pair(point.u),
            "q": None if point.q is None else _pair(point.q.value), "mode": point.mode,
            "basis_tag": rm.basis_tag, "normalization": rm.normalization}
    text = cli.dump_document(cli.matrix_document(rm.matrix, meta))
    return rm.matrix, text, cli.document_matrix(json.loads(text))


def unitarity_residual(prod: np.ndarray) -> float:
    """|R(u) R(-u) - 1|_max over max(1, |R(u) R(-u)|_max); NaN propagates."""
    return float(np.max(np.abs(prod - np.eye(prod.shape[0])))
                 / np.maximum(1.0, np.max(np.abs(prod))))


def scan_rep(points: list[ScanPoint]) -> RepOutcome:
    """Assemble and export every point; unitarity from each +-u pair.

    ``failed_groups`` holds the index ``k // 2`` of every pair with a failure.
    """
    out = RepOutcome(wall_s=0.0)
    digest = hashlib.sha256()
    t_rep = time.perf_counter()
    for k in range(0, len(points), 2):
        mats = []
        for point in points[k:k + 2]:
            out.attempted += 1
            t0 = time.perf_counter()
            try:
                matrix, text, back = _export(point)
            except errors.QybeError as exc:
                out.unit_s.append(time.perf_counter() - t0)
                out.unit_ops.append(1)
                kind = type(exc).__name__
                out.failures[kind] += 1
                out.failed += 1
                out.failed_groups.add(k // 2)
                digest.update(kind.encode())
                continue
            out.unit_s.append(time.perf_counter() - t0)
            out.unit_ops.append(1)
            data = text.encode()
            digest.update(data)
            out.bytes_written += len(data)
            if not np.array_equal(back, matrix, equal_nan=True):
                out.problems.append(f"document does not round-trip at {point}")
            if not np.isfinite(matrix).all():
                out.failures["non_finite"] += 1
                out.failed += 1
                out.failed_groups.add(k // 2)
                continue
            mats.append(matrix)
        if len(mats) < 2:
            continue
        res = unitarity_residual(mats[0] @ mats[1])
        h = headroom(res, SCAN_TOL)
        if h is not None:
            out.headrooms.append(h)
            if res < SCAN_TOL:
                continue
        out.failures["unitarity" if h is not None else "non_finite"] += 2
        out.failed += 2
        out.failed_groups.add(k // 2)
    out.wall_s = time.perf_counter() - t_rep
    out.digest = digest.hexdigest()
    return out


# ---------------------------------------------------------------------------
# registry

@dataclasses.dataclass(frozen=True)
class Workload:
    """``prepare(seed)`` makes a repetition's inputs outside the timed region;
    ``run(inputs, workdir)`` is the timed repetition; ``timed(seed, inputs,
    first)`` gives the inputs the timed repetitions replay, once ``first``
    has run on ``inputs``."""

    prepare: object
    run: object
    timed: object = lambda seed, inputs, first: inputs


def redraw_failed_pairs(seed: int, points: list[ScanPoint],
                        first: RepOutcome) -> list[ScanPoint]:
    """``points`` with every +-u pair that failed in ``first`` replaced by a
    fresh draw (its own q, same spins and mode) on which the scan succeeds."""
    rng = np.random.default_rng([seed, 1])
    out = list(points)
    for group in sorted(first.failed_groups):
        old = points[2 * group]
        for _ in range(_MAX_DRAWS):
            q = None if old.q is None else _draw_q(rng)
            u = _draw_u(rng, old.ell1, old.ell2, q)
            pair = [ScanPoint(old.ell1, old.ell2, s * u, q, old.mode) for s in (1, -1)]
            if not scan_rep(pair).failed:
                break
        else:
            raise RuntimeError(f"no succeeding draw for spins ({old.ell1}, {old.ell2})")
        out[2 * group:2 * group + 2] = pair
    return out


WORKLOADS = {
    "verify-all": Workload(prepare=int,
                           run=lambda seed, workdir: verify_rep(VERIFY_ALL_ARGV, seed, workdir)),
    "rmatrix-scan": Workload(prepare=scan_points, run=lambda points, workdir: scan_rep(points),
                             timed=redraw_failed_pairs),
    "cyclic-n7": Workload(prepare=int,
                          run=lambda seed, workdir: verify_rep(CYCLIC_N7_ARGV, seed, workdir)),
}
