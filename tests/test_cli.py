import json
import re
import warnings

import numpy as np
import pytest

from conftest import load_document
from qybe import (RATIONAL, DeformationParameter, assemble_R, build_spin_rep, closed_form_R,
                  normalize_global)
from qybe import cli, verify
from qybe.cli import (document_matrix, dump_document, main, matrix_document, parse_complex,
                      parse_spin)
from qybe.errors import CompletenessFailure, ParameterDomainError
from qybe.verify import _c2l


def test_parse_complex():
    assert parse_complex("0.3+0.4i") == pytest.approx(0.3 + 0.4j)
    assert parse_complex("-0.5i") == pytest.approx(-0.5j)
    assert parse_complex("2") == pytest.approx(2.0)
    assert parse_complex("i") == pytest.approx(1j)
    assert parse_complex("1.5-2i") == pytest.approx(1.5 - 2j)


@pytest.mark.parametrize("flag,value", [("--u", "nan"), ("--u", "inf"), ("--q", "nan"),
                                        ("--q", "0.3+nani")])
def test_rmatrix_nonfinite_input_is_validation_error(flag, value, tmp_path, capsys):
    args = {"--u": "0.4-0.2i", "--q": "0.3+0.4i", flag: value}
    out = tmp_path / "r.json"
    with pytest.raises(SystemExit) as exc:
        main(["rmatrix", "--l1", "1/2", "--l2", "1/2", "--u", args["--u"],
              "--q", args["--q"], "--out", str(out)])
    assert exc.value.code == 2
    assert value in capsys.readouterr().err
    assert not out.exists()


def test_linalg_error_is_degeneracy(tmp_path, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")
    monkeypatch.setattr("qybe.cli.assemble_R", fail)
    code = main(["rmatrix", "--l1", "1/2", "--l2", "1/2", "--u", "0.4",
                 "--q", "0.3+0.4i", "--out", str(tmp_path / "r.json")])
    assert code == 3
    assert "SVD did not converge" in capsys.readouterr().err


def test_parse_spin():
    assert parse_spin("1/2") == pytest.approx(0.5)
    assert parse_spin("0.5") == pytest.approx(0.5)
    assert parse_spin("3") == pytest.approx(3.0)


@pytest.mark.parametrize("argv", [
    ["rmatrix", "--l1", "1e400", "--l2", "1", "--u", "0.1", "--xxx"],
    ["rmatrix", "--l1", "1", "--l2", "1e400", "--u", "0.1", "--xxx"],
    ["rep", "--ell", "1e400", "--q", "0.3+0.4i"],
])
def test_a_spin_too_large_for_a_float_is_a_usage_error(argv, tmp_path, capsys):
    """Fraction("1e400") is exact, but no float holds it: argparse exits 2
    where an OverflowError used to escape as a traceback."""
    out = tmp_path / "x"
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(out)])
    assert exc.value.code == 2
    assert "cannot parse spin '1e400'" in capsys.readouterr().err
    assert not out.exists()


def test_rep_round_trip(tmp_path):
    out = tmp_path / "rep"
    code = main(["rep", "--ell", "1/2", "--q", "0.3+0.4i", "--out", str(out)])
    assert code == 0
    doc = load_document(out / "sp.json")
    assert doc["dims"] == [2, 2]
    q = DeformationParameter.generic(0.3 + 0.4j)
    rep = build_spin_rep(0.5, q)
    assert np.allclose(document_matrix(doc), rep.sp, atol=1e-12)
    meta = doc["metadata"]
    assert meta["ell"] == 0.5
    assert meta["q"] == [0.3, 0.4]
    assert "tool_version" in meta


def test_rep_cyclic(tmp_path):
    out = tmp_path / "cyc"
    code = main(["rep", "--cyclic", "--N", "3", "--alpha", "0.2+0.1i",
                 "--beta", "-0.4", "--lam", "0.3i", "--out", str(out)])
    assert code == 0
    for name in ("sp", "sm", "qs1"):
        doc = load_document(out / f"{name}.json")
        assert doc["dims"] == [3, 3]


def test_rep_even_order_rejected(tmp_path, capsys):
    code = main(["rep", "--cyclic", "--N", "4", "--out", str(tmp_path / "x")])
    assert code == 2
    assert "N must be odd" in capsys.readouterr().err


def test_rep_order_below_three_rejected(tmp_path, capsys):
    # N = 1 used to reach q = 1 and exit 1 on a DegenerateDenominator
    code = main(["rep", "--cyclic", "--N", "1", "--out", str(tmp_path / "x")])
    assert code == 2
    assert "at least 3" in capsys.readouterr().err


# --N values above cli.MAX_ORDER, each with a part of its error message: the
# next odd order, and an order too large for a float
ORDERS_ABOVE_THE_BOUND = [(cli.MAX_ORDER + 2, f"at most {cli.MAX_ORDER}"), (10**400, "too large")]


def test_rep_cyclic_order_is_bounded(tmp_path, capsys):
    """--N above cli.MAX_ORDER exits 2 before any document is written, as
    verify --N does; the bound itself still writes its documents."""
    out = tmp_path / "big"
    for order, message in ORDERS_ABOVE_THE_BOUND:
        assert main(["rep", "--cyclic", "--N", str(order), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert not out.exists()
    assert main(["rep", "--cyclic", "--N", str(cli.MAX_ORDER), "--out", str(out)]) == 0
    assert load_document(out / "sp.json")["dims"] == [cli.MAX_ORDER, cli.MAX_ORDER]


@pytest.mark.parametrize("argv", [
    ["--ell", "2", "--q", "1e300"],
    ["--ell", "2", "--q", "1e-300", "--basis", "orthonormal"],
    ["--cyclic", "--N", "3", "--alpha", "1e300i"],
])
def test_rep_nonfinite_matrices_are_a_validation_error(argv, tmp_path, capsys):
    """Where a power of q overflows, rep writes no document with Infinity or
    NaN entries, which are not JSON: it exits 2 and warns of nothing."""
    out = tmp_path / "d"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["rep", *argv, "--out", str(out)]) == 2
    assert "not finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command,flag", [("rep", "ell"), ("rmatrix", "l1"), ("rmatrix", "l2")])
@pytest.mark.parametrize("value", ["1e9", "1e6", str(cli.MAX_SPIN + 0.5)])
def test_a_spin_above_the_bound_is_rejected_before_anything_is_built(
        command, flag, value, monkeypatch, tmp_path, capsys):
    """A spin above cli.MAX_SPIN exits 2 with no representation built and
    no file written, instead of numpy failing to allocate; the bound itself
    is accepted."""
    def no_build(*args, **kwargs):
        raise AssertionError("something was built")

    out = tmp_path / "out"
    argv = {"rep": ["rep", "--ell", "1", "--q", "0.3+0.4i"],
            "rmatrix": ["rmatrix", "--l1", "1/2", "--l2", "1/2", "--u", "0.3", "--q", "0.3+0.4i"]}
    args = argv[command] + ["--out", str(out)]
    bounded = list(args)
    bounded[bounded.index(f"--{flag}") + 1] = str(cli.MAX_SPIN)
    args[args.index(f"--{flag}") + 1] = value
    with monkeypatch.context() as patched:
        patched.setattr(cli, "build_spin_rep", no_build)
        patched.setattr(cli, "assemble_R", no_build)
        assert main(args) == 2
    assert f"--{flag} must be at most {cli.MAX_SPIN}" in capsys.readouterr().err
    assert not out.exists()
    assert main(bounded) == 0 and out.exists()


def test_rep_missing_arguments(tmp_path):
    assert main(["rep", "--out", str(tmp_path / "x")]) == 2


@pytest.mark.parametrize("argv,flags", [
    (["--ell", "1/2", "--q", "0.3+0.4i", "--N", "4", "--alpha", "7"], "--N, --alpha"),
    (["--ell", "1/2", "--q", "0.3+0.4i", "--lam", "0"], "--lam"),
    (["--cyclic", "--N", "3", "--ell", "1", "--q", "0.3+0.4i", "--basis", "orthonormal"],
     "--ell, --q, --basis"),
    (["--cyclic", "--N", "3", "--basis", "monomial"], "--basis"),
])
def test_rep_rejects_the_flags_of_the_other_mode(argv, flags, tmp_path, capsys):
    """A flag of the other mode is rejected, not dropped, even at its default value."""
    out = tmp_path / "x"
    assert main(["rep", *argv, "--out", str(out)]) == 2
    assert f"{flags} not allowed" in capsys.readouterr().err
    assert not out.exists()


NEGATIVE_VALUES = [
    (["rmatrix", "--l1", "1/2", "--l2", "1", "--q", "0.3+0.4i"], "--u", "-0.3-0.2i", "r.json"),
    (["rmatrix", "--l1", "1/2", "--l2", "1", "--u", "0.3+0.2i"], "--q", "-0.3+0.4i", "r.json"),
    (["rep", "--ell", "1"], "--q", "-0.3+0.4i", "rep"),
    (["rep", "--cyclic", "--N", "3"], "--alpha", "-0.2+0.1i", "rep"),
    (["rep", "--cyclic", "--N", "3"], "--beta", "-0.4i", "rep"),
    (["rep", "--cyclic", "--N", "3"], "--lam", "-i", "rep"),
]


@pytest.mark.parametrize("argv,flag,value,name", NEGATIVE_VALUES)
def test_a_complex_value_may_start_with_a_minus(argv, flag, value, name, tmp_path):
    """'--u -0.3-0.2i' writes what '--u=-0.3-0.2i' writes; argparse used to
    take the value for an option flag and exit 2."""
    spaced, joined = tmp_path / "spaced" / name, tmp_path / "joined" / name
    assert main([*argv, flag, value, "--out", str(spaced)]) == 0
    assert main([*argv, f"{flag}={value}", "--out", str(joined)]) == 0
    docs = ("sp.json", "sm.json", "qs1.json") if spaced.is_dir() else ("",)
    for doc in docs:
        assert (spaced / doc).read_bytes() == (joined / doc).read_bytes()


def test_rep_bad_spin_is_validation_error(tmp_path, capsys):
    out = tmp_path / "x"
    code = main(["rep", "--ell", "0.3", "--q", "0.3+0.4i", "--out", str(out)])
    assert code == 2
    assert "nonnegative integer" in capsys.readouterr().err
    assert not out.exists()    # nothing written on rejected input


def test_rmatrix_matches_closed_form(tmp_path):
    out = tmp_path / "r.json"
    code = main(["rmatrix", "--l1", "1/2", "--l2", "1/2", "--u", "0.4-0.2i",
                 "--q", "0.3+0.4i", "--out", str(out)])
    assert code == 0
    m = document_matrix(load_document(out))
    q = DeformationParameter.generic(0.3 + 0.4j)
    table = closed_form_R(0.5, 0.5, 0.4 - 0.2j, q)
    assert np.abs(normalize_global(m) - normalize_global(table.matrix)).max() < 1e-9


def test_rmatrix_rational_mode(tmp_path):
    out = tmp_path / "rx.json"
    code = main(["rmatrix", "--l1", "1/2", "--l2", "1/2", "--u", "0.7", "--xxx",
                 "--out", str(out)])
    assert code == 0
    m = document_matrix(load_document(out))
    expected = np.array([[1.7, 0, 0, 0], [0, 0.7, 1, 0],
                         [0, 1, 0.7, 0], [0, 0, 0, 1.7]]) / 1.7
    assert np.allclose(m, expected, atol=1e-10)


@pytest.mark.parametrize("basis", ["orthonormal", "monomial"])
def test_rmatrix_rational_mode_honours_the_basis(basis, tmp_path):
    out = tmp_path / "rx.json"
    assert main(["rmatrix", "--l1", "1", "--l2", "3/2", "--u", "0.2", "--xxx",
                 "--basis", basis, "--out", str(out)]) == 0
    doc = load_document(out)
    assert doc["metadata"]["basis_tag"] == basis
    assert doc["metadata"]["mode"] == "xxx" and doc["metadata"]["q"] is None
    expected = assemble_R(1.0, 1.5, 0.2, RATIONAL, basis=basis).matrix
    assert np.array_equal(document_matrix(doc), expected)


def test_rmatrix_default_basis_follows_the_mode(tmp_path):
    """Monomial at the rational point, orthonormal at a sampled q."""
    tags = {}
    for mode in (["--xxx"], ["--q", "0.3+0.4i"]):
        out = tmp_path / "r.json"
        assert main(["rmatrix", "--l1", "1", "--l2", "1", "--u", "0.2", *mode,
                     "--out", str(out)]) == 0
        tags[mode[0]] = load_document(out)["metadata"]["basis_tag"]
    assert tags == {"--xxx": "monomial", "--q": "orthonormal"}


@pytest.mark.parametrize("flags", [["--xxx", "--q", "0.3+0.4i"], []])
def test_rmatrix_needs_exactly_one_of_q_and_xxx(flags, tmp_path, capsys):
    """--xxx is q = 1, so a --q beside it is an error rather than ignored."""
    out = tmp_path / "r.json"
    assert main(["rmatrix", "--l1", "1/2", "--l2", "1/2", "--u", "0.2", *flags,
                 "--out", str(out)]) == 2
    assert "exactly one of --q and --xxx" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command,argv", [
    ("verify", ["verify", "cyclic", "--samples", "1", "--json", "{dir}"]),
    ("rmatrix", ["rmatrix", "--l1", "1/2", "--l2", "1/2", "--u", "0.4", "--q", "0.3+0.4i",
                 "--out", "{dir}"]),
    ("rmatrix", ["rmatrix", "--l1", "1/2", "--l2", "1/2", "--u", "0.4", "--q", "0.3+0.4i",
                 "--out", "{file}/x.json"]),
    ("rep", ["rep", "--ell", "1", "--q", "0.3+0.4i", "--out", "{file}"]),
])
def test_an_unwritable_output_path_is_a_validation_error(command, argv, tmp_path, capsys):
    """A directory where a file is written, or a file where a directory is,
    exits 2 with an error line, not with a traceback."""
    (tmp_path / "dir").mkdir()
    (tmp_path / "file").write_text("kept", encoding="utf-8")
    argv = [arg.format(dir=tmp_path / "dir", file=tmp_path / "file") for arg in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: [Errno") and str(tmp_path) in err
    assert (tmp_path / "file").read_text(encoding="utf-8") == "kept"


def test_rmatrix_at_pole(tmp_path, capsys):
    code = main(["rmatrix", "--l1", "1/2", "--l2", "1/2", "--u", "-1",
                 "--q", "0.3+0.4i", "--out", str(tmp_path / "p.json")])
    assert code == 3
    assert "sector 1" in capsys.readouterr().err


@pytest.mark.parametrize("spin,u", [("1", "1000"), ("3", "200")])
def test_rmatrix_overflow_is_validation_error(spin, u, tmp_path, capsys):
    """Where a power of q overflows, rmatrix writes no NaN document: it exits 2
    and warns of nothing on the way."""
    out = tmp_path / "r.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["rmatrix", "--l1", spin, "--l2", spin, "--u", u, "--q", "0.3+0.4i",
                     "--out", str(out)])
    assert code == 2
    assert f"spins ({spin}.0, {spin}.0), u = ({u}+0j)" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("spin", ["1/2", "1"])
@pytest.mark.parametrize("q", ["1e-300", "1e-200", "1e300"])
def test_rmatrix_at_an_extreme_q_is_validation_error(spin, q, tmp_path, capsys):
    """Where |q| is so far from 1 that a power of q overflows, rmatrix exits 2
    and warns of nothing, instead of reporting a singular or incomplete
    eigenbasis (exit 3): at spin 1 the factor generators are not finite, which
    the memoised space tests before it builds a chain, at spin 1/2 the norms
    of the eigenvector chains overflow."""
    out = tmp_path / "r.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["rmatrix", "--l1", spin, "--l2", spin, "--u", "0.3", "--q", q,
                     "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.startswith("error:") and err.rstrip().endswith("a power of q overflows")
    if spin == "1":
        assert err == "error: the generator matrices are not finite: a power of q overflows\n"
    assert not out.exists()


@pytest.mark.parametrize("spin,q", [("1", "1e-100"), ("1", "1e100"), ("1", "1e-60"),
                                    ("2", "1e-30")])
def test_rmatrix_whose_raising_chains_overflow_is_validation_error(spin, q, tmp_path, capsys):
    """Where the factor generators are finite but a raising chain at u = 0
    overflows, rmatrix exits 2 with the overflow message, where it used to
    report a chain that breaks (exit 3)."""
    out = tmp_path / "r.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["rmatrix", "--l1", spin, "--l2", spin, "--u", "0.3", "--q", q,
                     "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.startswith("error: raising chain of sector 0 of the unbarred family is not finite")
    assert err.rstrip().endswith("a power of q overflows")
    assert not out.exists()


@pytest.mark.parametrize("samples", [cli.MAX_SAMPLES + 1, 10 ** 12])
def test_samples_above_the_bound_are_rejected_before_anything_is_drawn(
        samples, monkeypatch, tmp_path, capsys):
    """--samples above cli.MAX_SAMPLES exits 2 with no sample drawn and no
    report written; the bound itself passes the check."""
    def no_draws(*args, **kwargs):
        raise AssertionError("a sample was drawn")

    monkeypatch.setattr(verify, "_run", no_draws)
    report = tmp_path / "r.json"
    assert main(["verify", "all", "--samples", str(samples), "--json", str(report)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"at most {cli.MAX_SAMPLES}" in err
    assert not report.exists()
    monkeypatch.setattr(cli, "_run_suite", lambda *args: [])
    assert main(["verify", "all", "--samples", str(cli.MAX_SAMPLES)]) == 0


def test_verify_suite_passes(tmp_path):
    report = tmp_path / "rep.json"
    code = main(["verify", "unitarity", "--seed", "42", "--samples", "3",
                 "--json", str(report)])
    assert code == 0
    payload = json.loads(report.read_text())
    assert payload["seed"] == 42
    assert all(r["verdict"] == "pass" for r in payload["reports"])


def test_verify_tol_reaches_every_suite(tmp_path):
    """--tol sets the tolerance of the cyclic RLL suite and of the rational
    fundamental YBE (one hundredth of it), not only of the others."""
    tols = {}
    for suite in ("ybe", "rll"):
        report = tmp_path / f"{suite}.json"
        main(["verify", suite, "--samples", "1", "--tol", "1e-30", "--json", str(report)])
        tols.update((r["identity_id"], r["tolerance"])
                    for r in json.loads(report.read_text())["reports"])
    assert tols["rll[cyclic N=3]"] == 1e-30
    assert tols["fundamental_ybe[xxx]"] == 1e-30 / 100
    assert set(tols.values()) == {1e-30, 1e-30 / 100}


@pytest.mark.parametrize("tol", ["inf", "nan"])
def test_verify_rejects_a_nonfinite_tolerance(tol, capsys):
    """A non-finite --tol is a validation error, not a vacuous pass or fail."""
    assert main(["verify", "ybe", "--samples", "1", "--tol", tol]) == 2
    captured = capsys.readouterr()
    assert "finite" in captured.err and "identities passed" not in captured.out


def test_verify_cyclic_suite():
    assert main(["verify", "cyclic", "--N", "5", "--samples", "2", "--seed", "3"]) == 0


def test_verify_all_passes():
    assert main(["verify", "all", "--samples", "2", "--seed", "42"]) == 0


def test_verify_even_order_rejected(capsys):
    assert main(["verify", "cyclic", "--N", "4"]) == 2
    assert "N must be odd" in capsys.readouterr().err


def test_verify_order_below_three_rejected(capsys):
    assert main(["verify", "cyclic", "--N", "1"]) == 2
    assert "at least 3" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["ybe", "--N", "4"], ["all", "--N", "1"],
                                  ["rll", "--N", "0"], ["cyclic", "--N", "-3"]])
def test_verify_rejects_a_bad_order_in_every_suite(argv, capsys):
    assert main(["verify", *argv, "--samples", "1"]) == 2
    captured = capsys.readouterr()
    assert "N must be odd and at least 3" in captured.err
    assert "identities passed" not in captured.out


def test_verify_order_at_the_bound_passes():
    assert main(["verify", "cyclic", "--N", str(cli.MAX_ORDER), "--samples", "1",
                 "--seed", "0"]) == 0


@pytest.mark.parametrize("suite", ["cyclic", "ybe", "all"])
def test_verify_order_above_the_bound_rejected(suite, monkeypatch, capsys):
    """The next odd N, and an N too large for a float, exit 2 before any
    suite runs."""
    def no_suite(*args):
        raise AssertionError("a suite ran")
    monkeypatch.setattr(cli, "_run_suite", no_suite)
    for order, message in ORDERS_ABOVE_THE_BOUND:
        assert main(["verify", suite, "--N", str(order), "--samples", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err


def test_verify_seed_env_default(tmp_path, monkeypatch):
    """QYBE_SEED=N reports as --seed N does, also where N is too large for a
    float."""
    a, b, c = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "c.json"
    for seed in (123, 2**1024):
        monkeypatch.setenv("QYBE_SEED", str(seed))
        assert main(["verify", "ybe", "--samples", "2", "--json", str(a)]) == 0
        assert main(["verify", "ybe", "--samples", "2", "--json", str(b)]) == 0
        monkeypatch.delenv("QYBE_SEED")
        assert main(["verify", "ybe", "--samples", "2", "--seed", str(seed),
                     "--json", str(c)]) == 0
        assert a.read_bytes() == b.read_bytes() == c.read_bytes()
        assert json.loads(a.read_text())["seed"] == seed


def test_verify_perturbation_hook_fails(monkeypatch):
    monkeypatch.setenv("QYBE_PERTURB", "1e-3")
    assert main(["verify", "unitarity", "--samples", "2", "--seed", "5"]) == 1


@pytest.mark.parametrize("env,argv", [
    ({}, ["--seed", "-1"]), ({"QYBE_SEED": "abc"}, []), ({"QYBE_SEED": "-1"}, []),
    ({"QYBE_SEED": "1.5"}, []), ({"QYBE_PERTURB": "abc"}, []), ({"QYBE_PERTURB": "inf"}, []),
    ({"QYBE_PERTURB": "nan"}, [])])
def test_bad_seed_or_hook_is_validation_error(env, argv, monkeypatch, capsys):
    for name in ("QYBE_SEED", "QYBE_PERTURB"):
        monkeypatch.delenv(name, raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    assert main(["verify", "ybe", "--samples", "1", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "identities passed" not in captured.out


def test_timings_cover_every_report_and_leave_the_report_alone(tmp_path, monkeypatch, capsys):
    """verify --timings writes the draw seconds of each stream and the
    evaluation seconds, size and replay mark of each suite's runs; every
    report id of verify all has a run row (a suite of named residuals holds
    {} for each name), none of them replayed, and the report and stdout are
    byte-identical without it."""
    monkeypatch.delenv("QYBE_PERTURB", raising=False)
    argv = ["verify", "all", "--samples", "20", "--seed", "4"]
    assert main(argv + ["--json", str(tmp_path / "plain.json")]) == 0
    plain = capsys.readouterr().out
    assert main(argv + ["--json", str(tmp_path / "timed.json"),
                        "--timings", str(tmp_path / "t" / "timings.json")]) == 0
    assert capsys.readouterr().out == plain
    assert (tmp_path / "timed.json").read_bytes() == (tmp_path / "plain.json").read_bytes()
    timings = json.loads((tmp_path / "t" / "timings.json").read_text())
    assert (timings["seed"], timings["samples"], timings["suite"]) == (4, 20, "all")
    report_ids = [r["identity_id"] for r in
                  json.loads((tmp_path / "plain.json").read_text())["reports"]]
    runs = timings["runs"]
    for report_id in report_ids:
        rows = [row for row in runs if row["suite"] == report_id
                or "{}" in row["suite"] and re.fullmatch(
                    re.escape(row["suite"]).replace(r"\{\}", r"\w+"), report_id)]
        # 20 samples are two runs, of 16 and 4
        assert [(row["start"], row["size"]) for row in rows] == [(0, 16), (16, 4)], report_id
        assert all(row["eval_s"] > 0 and row["replayed"] is False for row in rows)
    streams = timings["streams"]
    assert len(streams) == 12 and all(row["drawn"] == row["count"] == 20 for row in streams
                                      if row["draw"] != "_alpha")
    assert sorted(suite for row in streams for suite in row["suites"]) == sorted(
        {row["suite"] for row in runs})
    assert all(row["draw_s"] > 0 for row in streams)


def test_json_round_trip_is_byte_identical(tmp_path):
    doc = matrix_document(np.array([[0.25 + 1j, 2.0], [-3.5, 0.0]]),
                          {"q": [0.3, 0.4], "seed": 42})
    text = dump_document(doc)
    again = dump_document(json.loads(text))
    assert text == again
    m = document_matrix(json.loads(text))
    assert np.array_equal(m, np.array([[0.25 + 1j, 2.0], [-3.5, 0.0]]))


@pytest.mark.parametrize("entries,dims", [
    ([[1, 2, 3]], [1, 1]),
    ([["a", "b"]], [1, 1]),
    (["12"], [1, 1]),
    ([3], [1, 1]),
    ([[1, 2], [3]], [2, 1]),
    ([[10**400, 0]], [1, 1]),
    ([[1, 2]], [1]),
    ([[1, 2]], [1.0, 1.0]),
])
def test_malformed_document_is_a_domain_error(entries, dims):
    with pytest.raises(ParameterDomainError, match="malformed"):
        document_matrix({"dims": dims, "entries": entries})


@pytest.mark.parametrize("doc,key", [({"dims": [1, 1]}, "entries"),
                                     ({"entries": [[1.0, 0.0]]}, "dims")])
def test_a_document_without_entries_or_dims_is_a_domain_error(doc, key):
    with pytest.raises(ParameterDomainError, match=f"malformed matrix document: no '{key}' key"):
        document_matrix(doc)


def test_document_round_trip_keeps_every_bit():
    m = np.array([[complex(-0.0, -0.0), complex(np.inf, np.nan)],
                  [complex(np.nan, -np.inf), 1 / 3 - 2j / 7]])
    for matrix in (m, m.T, m[::-1, ::-1]):
        back = document_matrix(json.loads(dump_document(matrix_document(matrix, {}))))
        assert back.dtype == complex and back.shape == matrix.shape
        assert np.array_equal(back.view(np.uint64), np.ascontiguousarray(matrix).view(np.uint64))


def test_parser_is_built_once_and_main_repeats(tmp_path, capsys):
    assert cli._build_parser() is cli._build_parser()
    runs = []
    for _ in range(2):
        out = tmp_path / "report.json"
        codes = [main(["verify", "casimir", "--samples", "2", "--seed", "3", "--json", str(out)]),
                 main(["verify", "unitarity", "--N", "4"])]
        with pytest.raises(SystemExit) as exc:
            main(["verify", "nonsense"])
        codes.append(exc.value.code)
        runs.append((codes, capsys.readouterr(), out.read_bytes()))
    assert runs[0] == runs[1]
    assert runs[0][0] == [0, 2, 2]


def test_document_entry_count_validated():
    doc = matrix_document(np.eye(2), {})
    doc["entries"] = doc["entries"][:-1]
    with pytest.raises(Exception, match="entry count"):
        document_matrix(doc)


def test_completeness_failure_is_degeneracy(tmp_path, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise CompletenessFailure(2, "barred", 3e-7, "lowest-weight condition fails at sector 2")
    monkeypatch.setattr("qybe.cli.assemble_R", fail)
    code = main(["rmatrix", "--l1", "1", "--l2", "1", "--u", "0.4",
                 "--q", "0.3+0.4i", "--out", str(tmp_path / "r.json")])
    assert code == 3
    assert "fails at sector 2" in capsys.readouterr().err


def test_rmatrix_spin_three_assembles(tmp_path):
    # the global rank test rejected this point with exit 1
    out = tmp_path / "r.json"
    code = main(["rmatrix", "--l1", "3", "--l2", "3", "--u", "0.3+0.2i",
                 "--q", "0.3+0.4i", "--out", str(out)])
    assert code == 0
    assert load_document(out)["dims"] == [49, 49]


@pytest.mark.parametrize("matrix", [
    np.array([[-0.0, 1.5], [np.nan, -np.inf]]),
    np.array([[complex(-0.0, -0.0), complex(np.inf, np.nan)],
              [complex(np.nan, -np.inf), complex(0.1, -0.0)]]),
    np.arange(6.0).reshape(2, 3) / 7,
])
def test_matrix_document_entries_are_the_per_entry_floats(matrix):
    doc = matrix_document(matrix, {"k": 1})
    per_entry = dict(doc, entries=[_c2l(z) for z in matrix.ravel()])
    assert dump_document(doc) == dump_document(per_entry)
