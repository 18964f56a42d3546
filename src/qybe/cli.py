"""Command-line front end: build representations and R-matrices, run
verification suites, export matrices as JSON documents.

Exit codes: 0 success, 1 verification failure, 2 input validation or an
output path that cannot be written, 3 mathematical degeneracy (pole, or a
singular or incomplete eigenbasis).
"""
from __future__ import annotations

import argparse
import cmath
import functools
import itertools
import json
import math
import os
import re
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from . import __version__
from . import cyclic as cy
from . import verify
from .errors import (BadSpin, CompletenessFailure, OrderMismatch, ParameterDomainError,
                     PoleAtSector, QybeError, SingularBasis, UnsupportedPair)
from .qcore import RATIONAL, DeformationParameter, ToleranceConfig
from .rep import build_spin_rep
from .rop import assemble_R
from .verify import _c2l

DEFAULT_SEED = 42
# the largest root-of-unity order whose cyclic suites pass at 10 samples for
# every seed 0-11; at N = 21 cyclic_centrality reaches 1.2e-10 against 1e-10.
# It bounds `rep --cyclic --N` too, whose documents grow as N^2.
MAX_ORDER = 19
# the largest spin that `rmatrix` and `rep` take: at the 20 points of the
# README's numerical envelope every R up to spin 6 is unitary to 1e-3, and
# from spin 7 on an assembled R can miss unitarity by O(1)
MAX_SPIN = 6
# the largest --samples that verify takes.  Every sample is drawn and
# recorded before the first is evaluated, and time, memory and report grow
# in proportion: `verify all --seed 3 --json` took 1.1 s, 56 MB peak RSS and
# a 4.4 MB report at 1,000 samples, 3.3 s, 90 MB and 13 MB at 3,000, and
# 9.7-10.9 s, 203 MB and 44 MB at 10,000 (2-vCPU host)
MAX_SAMPLES = 10_000

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_VALIDATION = 2
EXIT_DEGENERATE = 3


def parse_complex(text: str) -> complex:
    """Accepts 'a+bi' / 'a-bi' / 'a' / 'bi' / 'i' (also 'j' suffixes); the
    value must be finite."""
    s = text.strip().replace(" ", "")
    s = s.replace("i", "j")
    if s.endswith("j") and s[:-1] in ("", "+", "-"):
        s = s[:-1] + "1j"
    try:
        z = complex(s)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"cannot parse complex number {text!r}") from exc
    if not cmath.isfinite(z):
        raise argparse.ArgumentTypeError(f"complex number {text!r} is not finite")
    return z


def parse_spin(text: str) -> float:
    """Accepts '1/2' style fractions and decimals."""
    try:
        return float(Fraction(text))
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise argparse.ArgumentTypeError(f"cannot parse spin {text!r}") from exc


def matrix_document(matrix: np.ndarray, metadata: dict) -> dict:
    """JSON-safe document: row-major [re, im] entries plus metadata."""
    rows, cols = matrix.shape
    meta = dict(metadata)
    meta.setdefault("tool_version", __version__)
    # the floats that _c2l gives, as one tolist() of the [re, im] float view
    pairs = np.ascontiguousarray(matrix, dtype=complex).view(float).reshape(-1, 2)
    return {
        "dims": [rows, cols],
        "entries": pairs.tolist(),
        "metadata": meta,
    }


def document_matrix(doc: dict) -> np.ndarray:
    """The matrix of a :func:`matrix_document`.

    Every entry must be an [re, im] pair; each part is read as numpy reads a
    float (a number, a numeric string, or null as NaN).  A malformed entry,
    or dims that do not fit the entries, raises :class:`ParameterDomainError`;
    so does a document without entries or dims.
    """
    try:
        entries = doc["entries"]
        if set(map(type, entries)) - {list} or set(map(len, entries)) - {2}:
            raise ValueError("an entry is not an [re, im] pair")
        flat = np.fromiter(itertools.chain.from_iterable(entries), float, count=2 * len(entries))
        rows, cols = doc["dims"]
        if flat.size != 2 * rows * cols:
            raise ParameterDomainError("entry count does not match dims")
        return flat.view(complex).reshape(rows, cols)
    except KeyError as exc:
        raise ParameterDomainError(f"malformed matrix document: no {exc} key") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParameterDomainError(f"malformed matrix document: {exc}") from exc


# the text of an [re, im] pair of +0.0 floats, most entries of a block-sparse R
_ZERO_ENTRY = "[0.0,0.0]"
# json.dumps(..., sort_keys=True, separators=(",", ":")), built once
_COMPACT = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _entries_text(entries: list) -> str | None:
    """What ``json.dumps(entries, separators=(",", ":"))`` writes inside the
    outer brackets, when every entry is a list of two finite floats; None
    otherwise.

    A pair of +0.0 floats is the constant :data:`_ZERO_ENTRY`; every other
    float is its ``float.__repr__``, as json writes it.  ``float.__repr__``
    rejects a number that is not a float, and a NaN or an infinity shows as
    the "n" of "nan" or "inf", so both give None.
    """
    if set(map(type, entries)) != {list}:
        return None
    try:
        text = ",".join([
            _ZERO_ENTRY if not (re or im) and type(re) is float is type(im)
            and math.copysign(1.0, re) == 1.0 == math.copysign(1.0, im)
            else f"[{float.__repr__(re)},{float.__repr__(im)}]" for re, im in entries])
    except (TypeError, ValueError):  # a number that is no float, or no pair
        return None
    return None if "n" in text else text


def dump_document(doc: dict) -> str:
    """``json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\\n"``, with
    the entries of a :func:`matrix_document` written by :func:`_entries_text`;
    a document whose entries it cannot write goes through json whole."""
    entries = doc.get("entries") if type(doc) is dict else None
    text = _entries_text(entries) if type(entries) is list else None
    if text is None or any(type(key) is not str for key in doc):
        return _COMPACT.encode(doc) + "\n"
    fields = [encode_basestring_ascii(key) + ":"
              + (f"[{text}]" if key == "entries" else _COMPACT.encode(doc[key]))
              for key in sorted(doc)]
    return "{" + ",".join(fields) + "}\n"


def dump_report(payload: dict) -> str:
    """``json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\\n"``."""
    return _COMPACT.encode(payload) + "\n"


def write_document(path: Path, doc: dict) -> None:
    path.write_text(dump_document(doc), encoding="utf-8")


class _Parser(argparse.ArgumentParser):
    """argparse takes an argument that starts with "-" for an option flag
    unless it is a plain number such as -5 or -0.5.  Here one that starts
    with "-" and a digit, "-." and a digit, or is -i, is a value, so a
    complex option takes -0.3-0.2i; no qybe option is spelled that way."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d|^-[ij]$")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args keeps no state."""
    p = _Parser(prog="qybe", description="q-deformed representations and R-matrices "
                                         "with numerical identity verification")
    p.add_argument("--version", action="version", version=f"qybe {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    rep = sub.add_parser("rep", help="emit generator matrices of one representation")
    rep.add_argument("--ell", type=parse_spin,
                     help=f"spin (e.g. 1/2 or 0.5; at most {MAX_SPIN})")
    rep.add_argument("--q", type=parse_complex, help="deformation parameter a+bi")
    rep.add_argument("--basis", choices=["monomial", "orthonormal"], default=None,
                     help="single-spin basis (default: monomial)")
    rep.add_argument("--cyclic", action="store_true", help="build a cyclic representation")
    rep.add_argument("--N", type=int,
                     help=f"root-of-unity order (cyclic mode; odd, 3 to {MAX_ORDER})")
    rep.add_argument("--alpha", type=parse_complex, help="cyclic parameter (default 0)")
    rep.add_argument("--beta", type=parse_complex, help="cyclic parameter (default 0)")
    rep.add_argument("--lam", type=parse_complex, help="cyclic parameter (default 0)")
    rep.add_argument("--out", type=Path, required=True, help="output directory")

    rmx = sub.add_parser("rmatrix", help="assemble an R-matrix and export it")
    rmx.add_argument("--l1", type=parse_spin, required=True, help=f"spin, at most {MAX_SPIN}")
    rmx.add_argument("--l2", type=parse_spin, required=True, help=f"spin, at most {MAX_SPIN}")
    rmx.add_argument("--u", type=parse_complex, required=True)
    rmx.add_argument("--q", type=parse_complex)
    rmx.add_argument("--xxx", action="store_true", help="rational (undeformed) mode")
    rmx.add_argument("--basis", choices=["monomial", "orthonormal"], default=None,
                     help="single-spin basis (default: orthonormal with --q, monomial "
                          "with --xxx)")
    rmx.add_argument("--out", type=Path, required=True, help="output file")

    ver = sub.add_parser("verify", help="run identity-verification suites")
    ver.add_argument("suite", choices=["ybe", "rll", "unitarity", "casimir", "cyclic", "all"])
    ver.add_argument("--seed", type=int, default=None)
    ver.add_argument("--samples", type=int, default=10,
                     help=f"samples per suite (at most {MAX_SAMPLES}); the phi_product "
                          "suite always draws 20")
    ver.add_argument("--tol", type=float, default=None)
    ver.add_argument("--N", type=int, default=3,
                     help=f"root-of-unity order for cyclic suites (odd, 3 to {MAX_ORDER})")
    ver.add_argument("--json", type=Path, default=None, help="write the JSON report here")
    ver.add_argument("--timings", type=Path, default=None,
                     help="write the draw and evaluation seconds of each stream and suite "
                          "here, as JSON (the report does not change)")
    return p


_SPIN_FLAGS = ("ell", "q", "basis")
_CYCLIC_FLAGS = ("N", "alpha", "beta", "lam")


def _order(n: int) -> int:
    """``--N`` as a root-of-unity order, odd and 3 to :data:`MAX_ORDER`;
    :class:`ParameterDomainError` otherwise, before anything of size N is built."""
    order = DeformationParameter.root_of_unity(n).order
    if order > MAX_ORDER:
        raise ParameterDomainError(f"--N must be at most {MAX_ORDER} (got {order})")
    return order


def _spin(value: float, flag: str) -> float:
    """A spin flag's value, at most :data:`MAX_SPIN`; :class:`ParameterDomainError`
    otherwise, before anything of its size is built."""
    if value > MAX_SPIN:
        raise ParameterDomainError(f"--{flag} must be at most {MAX_SPIN} (got {value:g})")
    return value


def _cmd_rep(args) -> int:
    out: Path = args.out
    foreign = [f"--{name}" for name in (_SPIN_FLAGS if args.cyclic else _CYCLIC_FLAGS)
               if getattr(args, name) is not None]
    if foreign:
        mode = "cyclic" if args.cyclic else "spin"
        print(f"error: {', '.join(foreign)} not allowed in {mode} mode", file=sys.stderr)
        return EXIT_VALIDATION
    if args.cyclic:
        if args.N is None:
            print("error: --cyclic requires --N", file=sys.stderr)
            return EXIT_VALIDATION
        alpha, beta, lam = (0j if z is None else z for z in (args.alpha, args.beta, args.lam))
        spec = cy.CyclicRepSpec(alpha, beta, lam, _order(args.N))
        triple = cy.build_cyclic_rep(spec)
        meta = {"cyclic": {"N": args.N, "alpha": _c2l(alpha),
                           "beta": _c2l(beta), "lam": _c2l(lam)},
                "q": _c2l(spec.q.value), "basis_tag": triple.basis_tag}
    else:
        if args.ell is None or args.q is None:
            print("error: spin mode requires --ell and --q", file=sys.stderr)
            return EXIT_VALIDATION
        ell = _spin(args.ell, "ell")
        q = DeformationParameter.generic(args.q)
        triple = build_spin_rep(ell, q, args.basis or "monomial")
        meta = {"ell": args.ell, "q": _c2l(q.value), "basis_tag": triple.basis_tag}
    out.mkdir(parents=True, exist_ok=True)
    for name, mat in (("sp", triple.sp), ("sm", triple.sm), ("qs1", triple.qs(1))):
        write_document(out / f"{name}.json", matrix_document(mat, {**meta, "operator": name}))
    print(f"wrote sp.json, sm.json, qs1.json to {out}")
    return EXIT_OK


def _cmd_rmatrix(args) -> int:
    if args.xxx == (args.q is not None):
        print("error: exactly one of --q and --xxx is required", file=sys.stderr)
        return EXIT_VALIDATION
    for name in ("l1", "l2"):
        _spin(getattr(args, name), name)
    if args.xxx:
        q, basis = RATIONAL, args.basis or "monomial"
    else:
        q, basis = DeformationParameter.generic(args.q), args.basis or "orthonormal"
    rm = assemble_R(args.l1, args.l2, args.u, q, basis=basis)
    meta = {"spins": [args.l1, args.l2], "u": _c2l(args.u),
            "q": None if args.xxx else _c2l(q.value), "mode": rm.mode,
            "basis_tag": rm.basis_tag, "normalization": rm.normalization}
    args.out.parent.mkdir(parents=True, exist_ok=True)
    write_document(args.out, matrix_document(rm.matrix, meta))
    print(f"wrote {rm.dim}x{rm.dim} R-matrix to {args.out}")
    return EXIT_OK


GOLDEN_PAIRS = ((0.5, 0.5), (0.5, 1.0), (1.0, 1.0))


def _run_suite(suite: str, cfg: ToleranceConfig, order: int, perturb: float,
               timings: dict | None = None) -> list[verify.ResidualReport]:
    """The reports of the verify ``suite``: its suites in report order, in
    one run of the sampling harness (verify._run), which shares each random
    stream, and each golden pair's pass, among the suites that read it, and
    books its times in the sink ``timings`` when given."""
    suites = []
    if suite in ("ybe", "all"):
        suites.append(verify.check_fundamental_ybe.suite(cfg, perturb=perturb))
        suites.append(verify.check_fundamental_ybe.suite(cfg, q=RATIONAL, perturb=perturb))
        for l1, l2 in GOLDEN_PAIRS:
            suites.append(verify.check_decomposed_ybe.suite(l1, l2, cfg, perturb=perturb))
    if suite in ("rll", "all"):
        for ell in (0.5, 1.0, 1.5):
            suites.append(verify.check_rll.suite(ell, cfg))
        suites.append(verify.check_rll.suite(cy.CyclicRepSpec(0.31 + 0.11j, -0.42 + 0.2j,
                                                              0.17 - 0.23j, 3), cfg))
    if suite in ("unitarity", "all"):
        for l1, l2 in GOLDEN_PAIRS:
            suites.append(verify.check_unitarity.suite(l1, l2, cfg, perturb=perturb))
        suites.append(verify.check_unitarity.suite(0.5, 0.5, cfg, q=RATIONAL, perturb=perturb))
    if suite in ("casimir", "all"):
        for l1, l2 in GOLDEN_PAIRS:
            suites.append(verify.check_casimir_spectrum.suite(l1, l2, cfg))
    if suite in ("cyclic", "all"):
        suites.append(verify.check_cyclic_centrality.suite(order, cfg))
        suites.append(verify.check_phi_identity.suite(order, cfg))
        suites.append(verify.check_shift_laws.suite(order, cfg))
        suites.append(verify.check_cyclic_r_ratio.suite(order, cfg))
        suites.append(verify.check_partial_r.suite(order, cfg))
    if suite == "all":
        suites.append(verify.check_branch_independence.suite(0.5, 1.0, cfg))
        suites.append(verify.check_branch_independence.suite(1.0, 1.0, cfg))
    return verify._run(suites, timings)


def _hook_value(name: str, kind, default):
    """The environment hook ``name`` read as ``kind`` (int or float), or
    ``default`` when it is unset or empty; :class:`ParameterDomainError`
    unless it is a finite number; an int of any size is one."""
    text = os.environ.get(name) or str(default)
    try:
        value = kind(text)
    except ValueError:
        raise ParameterDomainError(f"cannot read {name}={text!r} as {kind.__name__}") from None
    if kind is float and not math.isfinite(value):
        raise ParameterDomainError(f"{name} must be finite (got {text!r})")
    return value


def _cmd_verify(args) -> int:
    seed = _hook_value("QYBE_SEED", int, DEFAULT_SEED) if args.seed is None else args.seed
    # every suite rejects an --N that is no root-of-unity order, not only the cyclic ones
    order = _order(args.N)
    if args.samples > MAX_SAMPLES:
        raise ParameterDomainError(f"--samples must be at most {MAX_SAMPLES} (got {args.samples})")
    kwargs = {"sample_count": args.samples, "rng_seed": seed}
    if args.tol is not None:
        kwargs["abs_tol"] = args.tol
        kwargs["rel_tol"] = args.tol
    cfg = ToleranceConfig(**kwargs)
    perturb = _hook_value("QYBE_PERTURB", float, 0.0)
    timings = None if args.timings is None else {"streams": [], "runs": []}
    reports = _run_suite(args.suite, cfg, order, perturb, timings)
    for rep in reports:
        print(rep.line())
    n_fail = sum(not rep.passed for rep in reports)
    print(f"{len(reports) - n_fail}/{len(reports)} identities passed (seed {seed})")
    if args.json is not None:
        args.json.parent.mkdir(parents=True, exist_ok=True)
        payload = {"seed": seed, "samples": args.samples, "suite": args.suite,
                   "tool_version": __version__,
                   "reports": [rep.to_dict() for rep in reports]}
        args.json.write_text(dump_report(payload), encoding="utf-8")
    if timings is not None:
        args.timings.parent.mkdir(parents=True, exist_ok=True)
        args.timings.write_text(dump_report({"seed": seed, "samples": args.samples,
                                             "suite": args.suite, **timings}), encoding="utf-8")
    return EXIT_OK if n_fail == 0 else EXIT_VERIFY_FAIL


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "rep":
            return _cmd_rep(args)
        if args.command == "rmatrix":
            return _cmd_rmatrix(args)
        return _cmd_verify(args)
    except PoleAtSector as exc:
        print(f"error: spectral parameter at a pole (sector {exc.sector})", file=sys.stderr)
        return EXIT_DEGENERATE
    except (SingularBasis, CompletenessFailure, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (ParameterDomainError, UnsupportedPair, BadSpin, OrderMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except QybeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAIL
    except OSError as exc:  # an output path that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
