import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kreinkit
from kreinkit import cli, gens
from kreinkit.cli import main
from kreinkit.errors import InvalidInput, KreinkitError
from kreinkit.jsonio import (
    matrix_document,
    parse_matrix,
    parse_relation,
    relation_document,
)
from kreinkit.relations import LinearRelation
from kreinkit.spectral import subspace_distance


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def matrix_file(tmp_path, name, data):
    arr = np.atleast_2d(np.asarray(data, dtype=float))
    return write(tmp_path, name, {
        "rows": arr.shape[0], "cols": arr.shape[1],
        "data": [[float(x) for x in row] for row in arr],
    })


def test_cli_import_leaves_scipy_unloaded():
    src = str(Path(kreinkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, kreinkit.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_suite_choices_are_the_verifiers_suites():
    from kreinkit import verify

    assert list(cli._SUITES) == verify.available_suites()


def test_commands_other_than_verify_leave_the_suites_unloaded():
    src = str(Path(kreinkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import io, sys\n"
        "from kreinkit.cli import main\n"
        "sys.stdin = io.StringIO('{\"rows\": 1, \"cols\": 1, \"data\": [[4.0]]}')\n"
        "assert main(['inertia', '-']) == 0\n"
        "print(sorted({'kreinkit.verify', 'kreinkit.gens'} & set(sys.modules)))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[-1] == "[]"


def test_every_module_and_verify_run_where_scipy_cannot_be_imported():
    src = str(Path(kreinkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import importlib, pkgutil, sys\n"
        "sys.modules['scipy'] = None\n"
        "import kreinkit\n"
        "for mod in pkgutil.iter_modules(kreinkit.__path__):\n"
        "    if mod.name != '__main__':\n"
        "        importlib.import_module('kreinkit.' + mod.name)\n"
        "from kreinkit import cli\n"
        "sys.exit(cli.main(['verify', '--suite', 'all', '--seed', '0', '--cases', '3']))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1].startswith("SUMMARY ")
    assert " failures=0 " in out.stdout.splitlines()[-1]


def test_matrix_roundtrip():
    rng = np.random.default_rng(60)
    m = rng.standard_normal((4, 3))
    again = parse_matrix(json.loads(json.dumps(matrix_document(m))))
    assert np.array_equal(again, m)


def test_relation_roundtrip():
    rng = np.random.default_rng(61)
    rel = LinearRelation(3, gens.random_orthogonal(rng, 6)[:, :2])
    doc = json.loads(json.dumps(relation_document(rel)))
    again = parse_relation(doc)
    assert subspace_distance(again.basis, rel.basis) <= 1e-12


def test_malformed_documents():
    with pytest.raises(InvalidInput):
        parse_matrix({"rows": 2, "cols": 2, "data": [[1.0, 2.0]]})
    with pytest.raises(InvalidInput):
        parse_matrix([1, 2, 3])
    with pytest.raises(InvalidInput):
        parse_relation({"dim": 2, "generators": [{"f": [1.0], "fp": [0.0, 1.0]}]})


def test_inertia_command(tmp_path, capsys):
    path = matrix_file(tmp_path, "m.json", np.diag([2.0, -3.0, 0.0]))
    assert main(["inertia", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report == {"n_plus": 1, "n_minus": 1, "n_zero": 1, "n_inf": 0}


def test_inertia_relation_with_mul(tmp_path, capsys):
    path = write(tmp_path, "rel.json", {
        "dim": 2,
        "generators": [
            {"f": [1.0, 0.0], "fp": [1.0, 0.0]},
            {"f": [0.0, 0.0], "fp": [0.0, 1.0]},
        ],
    })
    assert main(["inertia", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["n_inf"] == 1


def test_inertia_bad_file(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("")
    assert main(["inertia", str(path)]) == 3
    capsys.readouterr()


def test_complete_command(tmp_path, capsys):
    a11 = matrix_file(tmp_path, "a11.json", np.diag([1.0, -1.0]))
    a12 = matrix_file(tmp_path, "a12.json", [[1.0], [1.0]])
    assert main(["complete", a11, a12]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["completable"] is True
    assert report["kappa"] == 1
    assert np.allclose(report["a22_min"]["data"], [[0.0]])


def test_complete_command_with_candidate(tmp_path, capsys):
    a11 = matrix_file(tmp_path, "a11.json", np.diag([1.0, -1.0]))
    a12 = matrix_file(tmp_path, "a12.json", [[1.0], [1.0]])
    good = matrix_file(tmp_path, "good.json", [[0.0]])
    assert main(["complete", a11, a12, "--with-a22", good]) == 0
    assert json.loads(capsys.readouterr().out)["solution"] is True


def test_complete_command_infeasible(tmp_path, capsys):
    a11 = matrix_file(tmp_path, "a11.json", np.diag([1.0, 0.0]))
    a12 = matrix_file(tmp_path, "a12.json", [[0.0], [1.0]])
    assert main(["complete", a11, a12]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["completable"] is False
    assert report["residual"] > 0.1


def test_extremes_command(tmp_path, capsys):
    t11 = matrix_file(tmp_path, "t11.json", [[0.0]])
    t21 = matrix_file(tmp_path, "t21.json", [[0.0]])
    assert main(["extremes", t11, t21]) == 0
    report = json.loads(capsys.readouterr().out)
    assert np.allclose(report["t_min"]["data"], np.diag([0.0, -1.0]))
    assert np.allclose(report["t_max"]["data"], np.diag([0.0, 1.0]))
    assert report["unique"] is False


def test_extremes_unique_case(tmp_path, capsys):
    t11 = matrix_file(tmp_path, "t11.json", [[0.0]])
    t21 = matrix_file(tmp_path, "t21.json", [[1.0]])
    assert main(["extremes", t11, t21]) == 0
    assert json.loads(capsys.readouterr().out)["unique"] is True


def test_extremes_unsolvable(tmp_path, capsys):
    t11 = matrix_file(tmp_path, "t11.json", [[0.0]])
    t21 = matrix_file(tmp_path, "t21.json", [[2.0]])
    assert main(["extremes", t11, t21]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report == {"solvable": False, "nu_minus_head": 0, "nu_minus_column": 1}


def test_check_interval_command(tmp_path, capsys):
    t11 = matrix_file(tmp_path, "t11.json", [[0.0]])
    t21 = matrix_file(tmp_path, "t21.json", [[0.0]])
    inside = matrix_file(tmp_path, "inside.json", np.diag([0.0, 0.5]))
    outside = matrix_file(tmp_path, "outside.json", np.diag([0.0, 1.5]))
    assert main(["check-interval", t11, t21, inside]) == 0
    assert json.loads(capsys.readouterr().out)["member"] is True
    assert main(["check-interval", t11, t21, outside]) == 0
    assert json.loads(capsys.readouterr().out)["member"] is False


def test_lift_command(tmp_path, capsys):
    t = matrix_file(tmp_path, "t.json", [[0.0]])
    gamma1 = matrix_file(tmp_path, "g1.json", [[1.0]])
    assert main(["lift", t, "--gamma1", gamma1]) == 0
    report = json.loads(capsys.readouterr().out)
    assert np.allclose(report["lift"]["data"], [[0.0, 1.0], [0.0, 0.0]])
    assert report["kappa1_extended"] == 0


def test_lift_zero_parameters(tmp_path, capsys):
    t = matrix_file(tmp_path, "t.json", [[0.0]])
    assert main(["lift", t]) == 0
    report = json.loads(capsys.readouterr().out)
    assert np.allclose(report["lift"]["data"], np.zeros((2, 2)))


def test_lift_command_indefinite_symmetries(tmp_path, capsys):
    # expanding base operator between signed spaces, negative exit symmetry,
    # boundary parameter: the frozen small instance from the column theory
    t = matrix_file(tmp_path, "t.json", [[2.0]])
    j2p = matrix_file(tmp_path, "j2p.json", [[-1.0]])
    gamma2 = matrix_file(tmp_path, "g2.json", [[1.0]])
    assert main(["lift", t, "--j2p", j2p, "--gamma2", gamma2]) == 0
    report = json.loads(capsys.readouterr().out)
    lifted = np.array(report["lift"]["data"])
    assert np.allclose(lifted[:, 0], [2.0, np.sqrt(3.0)])
    assert report["kappa1"] == 1
    assert report["kappa1_extended"] == 0


def test_cayley_command(tmp_path, capsys):
    rel = write(tmp_path, "rel.json", {
        "dim": 1, "generators": [{"f": [1.0], "fp": [2.0]}],
    })
    assert main(["cayley", rel]) == 0
    image = parse_relation(json.loads(capsys.readouterr().out))
    assert image.same_as(LinearRelation.from_operator(np.array([[-1.0 / 3.0]])))
    assert main(["cayley", rel, "--inverse"]) == 0
    inverse_image = parse_relation(json.loads(capsys.readouterr().out))
    assert inverse_image.same_as(
        LinearRelation.from_operator(np.array([[-3.0]]))
    )


def test_extensions_command(tmp_path, capsys):
    rel = write(tmp_path, "rel.json", {
        "dim": 2, "generators": [{"f": [1.0, 0.0], "fp": [1.0, 0.0]}],
    })
    member = write(tmp_path, "member.json", {
        "dim": 2,
        "generators": [
            {"f": [1.0, 0.0], "fp": [1.0, 0.0]},
            {"f": [0.0, 1.0], "fp": [0.0, 0.0]},
        ],
    })
    assert main(["extensions", rel, "--member", member]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["kappa"] == 0
    assert report["member"] is True
    krein = parse_relation(report["krein_von_neumann"]["relation"])
    assert krein.same_as(LinearRelation.from_operator(np.diag([1.0, 0.0])))
    assert len(report["friedrichs"]["mul"]) == 1
    mul_direction = np.abs(np.array(report["friedrichs"]["mul"][0]))
    assert np.allclose(mul_direction, [0.0, 1.0])


def test_tol_reaches_relation_files(tmp_path, capsys):
    # the second generator leans 1e-6 off the first: two directions under the
    # default profile, one under zero = 1e-3, which the relation files obey
    rel = write(tmp_path, "rel.json", {
        "dim": 2, "generators": [{"f": [1.0, 0.0], "fp": [0.0, 0.0]}, {"f": [1.0, 1e-6], "fp": [0.0, 0.0]}],
    })
    for tol, kept, member in (([], 2, True), (["--tol", "1e-3"], 1, False)):
        assert main(["cayley", rel, *tol]) == 0
        assert len(json.loads(capsys.readouterr().out)["generators"]) == kept
        # the candidate is read under the same profile: the selfadjoint zero
        # operator extends itself, the one-dimensional restriction does not
        assert main(["extensions", rel, "--member", rel, *tol]) == 0
        assert json.loads(capsys.readouterr().out)["member"] is member
        assert main(["inertia", rel, *tol]) == (0 if member else 2)
        capsys.readouterr()


def test_verify_command_small(capsys):
    assert main(["verify", "--suite", "completion", "--seed", "7", "--cases", "5"]) == 0
    out = capsys.readouterr().out
    assert "SUMMARY" in out and "FAIL" not in out


def test_verify_zero_cases(capsys):
    assert main(["verify", "--suite", "factor", "--seed", "1", "--cases", "0"]) == 0
    capsys.readouterr()


def test_verify_corrupted_tolerance(capsys):
    code = main([
        "verify", "--suite", "completion", "--seed", "7", "--cases", "25",
        "--tol", "1e-30",
    ])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out


def test_env_tolerance_override(monkeypatch, capsys):
    from kreinkit.tolerances import default_tolerances

    before = default_tolerances()
    monkeypatch.setenv("KREINKIT_TOL", "1e-30")
    code = main(["verify", "--suite", "completion", "--seed", "7", "--cases", "25"])
    assert code == 1
    # the override lasts for the one call
    assert default_tolerances() is before
    capsys.readouterr()


def test_verify_deterministic(capsys):
    main(["verify", "--suite", "quasicontraction", "--seed", "3", "--cases", "8"])
    first = capsys.readouterr().out
    main(["verify", "--suite", "quasicontraction", "--seed", "3", "--cases", "8"])
    second = capsys.readouterr().out
    assert first == second


def test_verify_all_repeats_in_one_process(capsys):
    # nothing a pass computes may carry over to change the next one
    outputs = []
    for _ in range(2):
        assert main(["verify", "--suite", "all", "--seed", "3", "--cases", "3"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert "checks=28 failures=0" in outputs[0]


def test_stdin_input(tmp_path, capsys, monkeypatch):
    import io
    doc = json.dumps({"rows": 1, "cols": 1, "data": [[4.0]]})
    monkeypatch.setattr("sys.stdin", io.StringIO(doc))
    assert main(["inertia", "-"]) == 0
    assert json.loads(capsys.readouterr().out)["n_plus"] == 1


def test_printed_matrices_reparse_exactly(tmp_path, capsys):
    rng = np.random.default_rng(62)
    a11 = gens.random_symmetric(rng, 3)
    r = rng.standard_normal((3, 2))
    from kreinkit.spectral import modulus_power
    a12 = modulus_power(a11, 0.5) @ r
    p11 = matrix_file(tmp_path, "a11.json", a11)
    p12 = matrix_file(tmp_path, "a12.json", a12)
    assert main(["complete", p11, p12]) == 0
    report = json.loads(capsys.readouterr().out)
    s = parse_matrix(report["s"])
    # byte-exact round trip through JSON
    assert json.dumps(matrix_document(s), sort_keys=True) == json.dumps(
        report["s"], sort_keys=True
    )


# exit-code class of every package error: 1 for an internal numerical
# failure, 2 for a criterion that fails on the data, 3 for invalid input
EXIT_CLASS = {
    "KreinkitError": 2,
    "InvalidInput": 3,
    "DimensionMismatch": 3,
    "EigenSolverError": 1,
    "ConsistencyError": 1,
    "NotCompletable": 2,
    "HypothesisViolated": 2,
    "NotJContractive": 2,
    "NegativeTargetIndex": 2,
    "RangeInclusionFailed": 2,
    "ParameterInvariantViolated": 2,
    "NotALifting": 2,
    "IndexMismatch": 2,
    "NotSolvable": 2,
    "NotAnExtension": 2,
    "NotSymmetric": 2,
    "NotSelfadjoint": 2,
    "ShiftNotAdmissible": 2,
    "PreconditionViolated": 2,
}


def _error_classes(base=KreinkitError):
    yield base
    for sub in base.__subclasses__():
        yield from _error_classes(sub)


@pytest.mark.parametrize("error", list(_error_classes()), ids=lambda cls: cls.__name__)
def test_every_error_exits_with_its_class(error, monkeypatch, capsys):
    def failing(args):
        raise error("forced")

    monkeypatch.setattr(cli, "_cmd_inertia", failing)
    # a KeyError here means a new error class has no exit-code class yet
    assert main(["inertia", "unused.json"]) == EXIT_CLASS[error.__name__]
    assert "forced" in capsys.readouterr().err
