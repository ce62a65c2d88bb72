"""Command-line behaviour: outputs, determinism, exit codes."""

import dataclasses
import hashlib
import json
import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import torbun
from torbun.cli import main
from torbun.problem import MAX_BASIS, MAX_CONE_RAYS, MAX_CONES, _count_monomials, parse_problem

from conftest import FIXTURES

F1_BUNDLE = str(FIXTURES / "f1_bundle.json")
F1_WEIGHTS = str(FIXTURES / "f1_weights.json")
F1_PIECEWISE = str(FIXTURES / "f1_piecewise.json")
P1P1_DIAGONAL = str(FIXTURES / "p1p1_diagonal.json")
P1P1_SKEW = str(FIXTURES / "p1p1_skew.json")
SINGULAR = str(FIXTURES / "singular_fan.json")
SQUARE = str(FIXTURES / "cone_over_square.json")
POINT = str(FIXTURES / "point_fan.json")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--format", "json")
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# check-fan


def test_check_fan_f1(capsys):
    code, doc = run_json(capsys, "check-fan", F1_BUNDLE)
    assert code == 0
    assert doc["outputs"]["complete"] is True
    assert doc["outputs"]["smooth"] is True


def test_check_fan_singular(capsys):
    code, doc = run_json(capsys, "check-fan", SINGULAR)
    assert code == 0
    assert doc["outputs"]["smooth"] is False
    assert doc["outputs"]["multiplicities"]["[0,1]"] == 2


def test_check_fan_point(capsys):
    code, doc = run_json(capsys, "check-fan", POINT)
    assert code == 0
    assert doc["outputs"]["complete"] is True


def test_check_fan_square_cone(capsys):
    code, doc = run_json(capsys, "check-fan", SQUARE)
    assert code == 0
    assert doc["outputs"]["complete"] is False
    assert doc["outputs"]["simplicial"] is False


# ---------------------------------------------------------------------------
# presentation


def test_presentation_divisor_relations(capsys):
    code, doc = run_json(capsys, "presentation", F1_BUNDLE)
    assert code == 0
    relations = [r["relation"] for r in doc["outputs"]["relations"]]
    assert "D1 + D2 - D4 = p*a1" in relations
    assert "D2 + D3 - D4 = p*a2" in relations


def test_presentation_equivariant(capsys):
    code, doc = run_json(capsys, "presentation", F1_BUNDLE, "--equivariant")
    assert code == 0
    relations = [r["relation"] for r in doc["outputs"]["relations"]]
    assert "D1 + D2 - D4 = p*a1 + x1" in relations
    assert "D2 + D3 - D4 = p*a2 + x2" in relations


# ---------------------------------------------------------------------------
# balancing and products


def test_check_balancing_ok(capsys):
    code, doc = run_json(capsys, "check-balancing", F1_WEIGHTS)
    assert code == 0
    assert doc["outputs"]["weight_1"]["balanced"] is True
    assert doc["outputs"]["weight_2"]["balanced"] is True


def test_check_balancing_violation(capsys, tmp_path):
    data = json.loads(open(F1_WEIGHTS).read())
    data["weights"] = [
        {"codim": 1, "values": {"[0]": "1", "[1]": "-1", "[0,1]": "a2"}}
    ]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(data))
    code, doc = run_json(capsys, "check-balancing", str(path))
    assert code == 3
    assert doc["outputs"]["weight_1"]["balanced"] is False
    assert doc["outputs"]["weight_1"]["violations"]


def test_mw_product_output(capsys):
    code, doc = run_json(capsys, "mw-product", F1_WEIGHTS)
    assert code == 0
    values = doc["outputs"]["values"]
    assert values["[]"] == "1"
    assert values["[0]"] == "a1 - a2"
    assert values["[1]"] == "a2"
    assert values["[0,1]"] == "a1*a2 - a2^2"
    assert doc["diagnostics"]["v"] == [2, 1]


def test_mw_product_explicit_vector_and_checks(capsys):
    code, doc = run_json(
        capsys, "mw-product", F1_WEIGHTS, "--v", "3,1", "--cross-check", "--oracle"
    )
    assert code == 0
    assert doc["diagnostics"]["cross_check"] == "match"
    assert doc["diagnostics"]["oracle"] == "match"


def test_mw_product_nongeneric_vector_exits_4(capsys):
    code, doc = run_json(capsys, "mw-product", F1_WEIGHTS, "--v", "1,1")
    assert code == 4
    assert doc["error"]["kind"] == "genericity"


def test_mw_product_needs_two_weights(capsys):
    code = main(["mw-product", F1_BUNDLE])
    assert code == 2


def rank_zero_problem(tmp_path):
    """A rank-0 bundle over P^2 with the weights 1 and h and the zero
    sublattice: Z^0 has one vector, (), and it is generic."""
    data = {
        "lattice_rank": 0, "rays": [], "cones": [], "mixing": [], "sublattice": [],
        "base_algebra": {"type": "projective", "dim": 2, "generator": "h"},
        "weights": [{"codim": 0, "values": {"[]": "1"}}, {"codim": 1, "values": {"[]": "h"}}],
    }
    path = tmp_path / "rank0.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_rank_zero_search_takes_the_zero_vector(capsys, tmp_path):
    path = rank_zero_problem(tmp_path)
    code, doc = run_json(capsys, "mw-product", path)
    assert code == 0
    assert doc["outputs"] == {"codim": 1, "values": {"[]": "h"}}
    assert doc["diagnostics"] == {"v": [], "generic": True, "search_attempts": 1}
    code, doc = run_json(capsys, "subbundle", path)
    assert code == 0
    assert doc["outputs"] == {"[]": 1}
    assert doc["diagnostics"] == {"v": [], "search_attempts": 1}


def test_rank_zero_cross_check_exits_4(capsys, tmp_path):
    # rank 0 has no second vector, so the cross-check stops at once
    code, doc = run_json(capsys, "mw-product", rank_zero_problem(tmp_path), "--cross-check")
    assert code == 4
    assert doc["error"] == {
        "kind": "genericity",
        "message": "--cross-check needs a second generic vector, and rank 0 has only ()",
    }
    assert "outputs" not in doc


# ---------------------------------------------------------------------------
# equivariant commands


def test_equiv_mult_command(capsys):
    code, doc = run_json(
        capsys, "equiv-mult", F1_PIECEWISE, "--sigma", "[0,1]", "--tau", "[]"
    )
    assert code == 0
    assert doc["outputs"]["value"] == "1 / (x2 * (x1 - x2))"
    assert doc["outputs"]["degree"] == -2


def test_equiv_mult_singular(capsys):
    code, doc = run_json(
        capsys, "equiv-mult", SINGULAR, "--sigma", "[0,1]", "--tau", "[]"
    )
    assert code == 0
    assert doc["outputs"]["value"] == "2 / (x2 * (2*x1 - x2))"


@pytest.mark.parametrize(
    "sigma, tau",
    [("[0,99]", "[]"), ("[0,-3]", "[]"), ("[0,1]", "[true]"), ("[0,0,1]", "[]")],
    ids=["out-of-range", "negative", "boolean", "repeated"],
)
def test_equiv_mult_bad_cone_key_exit_2(capsys, sigma, tau):
    assert main(["equiv-mult", F1_PIECEWISE, "--sigma", sigma, "--tau", tau]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_residue_command(capsys):
    code, doc = run_json(capsys, "residue", F1_PIECEWISE)
    assert code == 0
    assert doc["outputs"]["[]"] == "-1"
    assert doc["outputs"]["[1]"] == "-x1 - x2"
    assert doc["outputs"]["[1,2]"] == "x1^2"


def test_residue_single_cone(capsys):
    code, doc = run_json(capsys, "residue", F1_PIECEWISE, "--tau", "[1]")
    assert code == 0
    assert doc["outputs"] == {"[1]": "-x1 - x2"}


def test_residue_not_polynomial_exit_3(capsys, tmp_path):
    # a piece that disagrees with its neighbours leaves a denominator; the
    # whole document, message included, is pinned
    data = json.loads(open(F1_PIECEWISE).read())
    data["piecewise"]["pieces"]["[0,1]"] = "x1^2+x2^2"
    path = tmp_path / "incompatible.json"
    path.write_text(json.dumps(data))
    code, out = run(capsys, "residue", str(path))
    assert code == 3
    assert out == (
        "command: residue\n"
        "error.kind: assertion\n"
        "error.message: residue at () is (x1^2 - x1*x2 + x2^2) / (x2 * (x1 - x2))\n"
        "flags.format: table\n"
        "flags.seed: 0\n"
        f"input.path: {path}\n"
        f"input.sha256: {hashlib.sha256(path.read_bytes()).hexdigest()}\n"
    )


def test_pp_to_mw_command(capsys):
    code, doc = run_json(capsys, "pp-to-mw", F1_PIECEWISE)
    assert code == 0
    values = doc["outputs"]["values"]
    assert values["[]"] == "-1"
    assert values["[1]"] == "-a1 - a2"
    assert values["[0,1]"] == "a2^2"
    assert values["[1,2]"] == "a1^2"


def test_pp_to_mw_incompatible_pieces_exit_2(capsys, tmp_path):
    data = json.loads(open(F1_PIECEWISE).read())
    data["piecewise"]["pieces"]["[0,1]"] = "x1^2"
    path = tmp_path / "incompatible.json"
    path.write_text(json.dumps(data))
    assert main(["pp-to-mw", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "disagree on their common face" in captured.err


# ---------------------------------------------------------------------------
# subbundle


def test_subbundle_diagonal(capsys):
    code, doc = run_json(capsys, "subbundle", P1P1_DIAGONAL)
    assert code == 0
    assert doc["outputs"] == {"[0]": 1, "[3]": 1}


def test_subbundle_skew(capsys):
    code, doc = run_json(capsys, "subbundle", P1P1_SKEW)
    assert code == 0
    assert doc["outputs"] == {"[0]": 2, "[3]": 1}


def test_subbundle_searches_when_no_vector(capsys, tmp_path):
    data = json.loads(open(P1P1_DIAGONAL).read())
    del data["displacement"]
    path = tmp_path / "nodisp.json"
    path.write_text(json.dumps(data))
    code, doc = run_json(capsys, "subbundle", str(path))
    assert code == 0
    assert doc["diagnostics"]["search_attempts"] >= 1
    assert sorted(doc["outputs"].values()) == [1, 1]
    # the seeded searches of both commands, pinned to what they returned
    # before they shared one search loop
    for command, fixture, seed, v, attempts in [
        ("subbundle", P1P1_DIAGONAL, 2, [-7, -6], 2),
        ("subbundle", P1P1_DIAGONAL, 13, [3, 7], 2),
        ("mw-product", F1_WEIGHTS, 16, [-1, -4], 3),
    ]:
        data = json.loads(open(fixture).read())
        del data["displacement"]
        path.write_text(json.dumps(data))
        code, doc = run_json(capsys, command, str(path), "--seed", str(seed))
        assert code == 0
        assert doc["diagnostics"]["v"] == v
        assert doc["diagnostics"]["search_attempts"] == attempts


def test_subbundle_search_certifies_each_vector_once(capsys, monkeypatch, tmp_path):
    calls = []
    real = torbun.weights.sigma_v_set

    def counted(fan, N, v):
        calls.append(tuple(v))
        return real(fan, N, v)

    monkeypatch.setattr(torbun.weights, "sigma_v_set", counted)
    data = json.loads(open(P1P1_DIAGONAL).read())
    del data["displacement"]
    path = tmp_path / "nodisp.json"
    path.write_text(json.dumps(data))
    code, doc = run_json(capsys, "subbundle", str(path), "--seed", "2")
    assert code == 0
    assert doc["diagnostics"]["v"] == [-7, -6]
    assert calls == [(6, 6), (-7, -6)]


@pytest.mark.parametrize(
    "v, message",
    [("1,x", "must be a comma-separated integer vector"), ("1,2,3", "must have 2 entries")],
    ids=["not-integer", "wrong-length"],
)
def test_subbundle_bad_vector_exit_2(capsys, v, message):
    assert main(["subbundle", P1P1_DIAGONAL, "--v", v]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


# ---------------------------------------------------------------------------
# determinism, validation, round trips


def test_identical_runs_are_byte_identical(capsys):
    _, out1 = run(capsys, "mw-product", F1_WEIGHTS, "--format", "json")
    _, out2 = run(capsys, "mw-product", F1_WEIGHTS, "--format", "json")
    assert out1 == out2
    _, t1 = run(capsys, "presentation", F1_BUNDLE)
    _, t2 = run(capsys, "presentation", F1_BUNDLE)
    assert t1 == t2


def test_env_seed_override(capsys, monkeypatch, tmp_path):
    data = json.loads(open(F1_WEIGHTS).read())
    del data["displacement"]
    path = tmp_path / "noseed.json"
    path.write_text(json.dumps(data))
    code, doc = run_json(capsys, "mw-product", str(path), "--seed", "5")
    monkeypatch.setenv("TORBUN_SEED", "5")
    code2, doc2 = run_json(capsys, "mw-product", str(path), "--seed", "123")
    assert code == code2 == 0
    assert doc["diagnostics"]["v"] == doc2["diagnostics"]["v"]


def test_parse_error_exit_2(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["check-fan", str(path)]) == 2
    err = capsys.readouterr().err
    assert "line" in err


def test_missing_section_exit_2(capsys):
    assert main(["check-balancing", F1_BUNDLE]) == 2
    assert main(["subbundle", F1_BUNDLE]) == 2
    assert main(["pp-to-mw", F1_BUNDLE]) == 2


def test_dual_to_values_mismatch_exit_2(capsys, tmp_path):
    data = json.loads(open(F1_WEIGHTS).read())
    data["weights"][0]["values"]["[1]"] = "2"
    path = tmp_path / "mismatch.json"
    path.write_text(json.dumps(data))
    assert main(["check-balancing", str(path)]) == 2


@pytest.mark.parametrize("dual_to", ["D1^", "D1^x"])
def test_dual_to_bad_exponent_exit_2(capsys, tmp_path, dual_to):
    data = json.loads(open(F1_WEIGHTS).read())
    data["weights"][0]["dual_to"] = dual_to
    path = tmp_path / "caret.json"
    path.write_text(json.dumps(data))
    assert main(["check-balancing", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "divisor monomials look like D1*D2^2" in captured.err


@pytest.mark.parametrize(
    "command, fixture, section, key, text, want",
    [
        ("check-balancing", F1_WEIGHTS, "weights", "[1]", "1 + 0*a1^1000000000", 0),
        ("pp-to-mw", F1_PIECEWISE, "piecewise", "[1,2]", "x1^1000000000", 2),
        ("check-balancing", F1_WEIGHTS, "dual_to", None, "D1^300000000", 2),
    ],
    ids=["weight", "piece", "dual_to"],
)
def test_huge_exponent_finishes(tmp_path, command, fixture, section, key, text, want):
    data = json.loads(open(fixture).read())
    if section == "weights":
        data["weights"][0]["values"][key] = text
    elif section == "dual_to":
        data["weights"][0]["dual_to"] = text
    else:
        data["piecewise"]["pieces"][key] = text
    path = tmp_path / "power.json"
    path.write_text(json.dumps(data))
    src = str(Path(torbun.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    # a 1 GB address-space cap turns a runaway allocation into a failure here
    cap = lambda: resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))
    done = subprocess.run(
        [sys.executable, "-m", "torbun.cli", command, str(path)],
        capture_output=True, env=env, timeout=20, preexec_fn=cap,
    )
    assert done.returncode == want


@pytest.mark.parametrize(
    "section, text",
    [
        ("dual_to", "D1^" + "9" * 5000),
        ("dual_to", "D" + "9" * 5000),
        ("weights", "1 + 0*a1^" + "9" * 5000),
        ("weights", "9" * 5000),
        ("weights", "2^100000000000"),
        ("weights", "1 + 0*(-3)^3000"),
        ("weights", "(9^1047)*(9^1047)*(9^1047)*(9^1047)*(9^1047)"),
        ("weights", "9^999*a1*9^999*9^999*9^999*9^999"),
        ("weights", "1 + 0*(2 + 0*a1)^100000000000"),
    ],
    ids=[
        "dual_to-exponent", "dual_to-ray", "weight-exponent", "weight-literal", "constant-power",
        "negative-base", "constant-product", "coefficient-product", "class-power",
    ],
)
def test_oversized_numbers_exit_2(tmp_path, section, text):
    data = json.loads(open(F1_WEIGHTS).read())
    if section == "dual_to":
        data["weights"][0]["dual_to"] = text
    else:
        data["weights"][0]["values"]["[1]"] = text
    path = tmp_path / "numbers.json"
    path.write_text(json.dumps(data))
    src = str(Path(torbun.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    cap = lambda: resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))
    done = subprocess.run(
        [sys.executable, "-m", "torbun.cli", "check-balancing", str(path)],
        capture_output=True, text=True, env=env, timeout=20, preexec_fn=cap,
    )
    assert done.returncode == 2
    assert done.stdout == ""
    assert "more than 1000 digits" in done.stderr
    assert "Traceback" not in done.stderr and "int_max_str_digits" not in done.stderr


@pytest.mark.parametrize("text", ["(x1+x2)^100000", "(x1 - x2^2)^2", "x1*(x1+x2)^3"], ids=["huge", "base-degree", "factor"])
def test_piece_power_above_degree_exit_2(tmp_path, text):
    # the pieces of f1_piecewise.json have degree 2; a power of a non-constant
    # polynomial above that is refused before it is expanded
    data = json.loads(open(F1_PIECEWISE).read())
    data["piecewise"]["pieces"]["[1,2]"] = text
    path = tmp_path / "power.json"
    path.write_text(json.dumps(data))
    src = str(Path(torbun.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    cap = lambda: resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))
    done = subprocess.run(
        [sys.executable, "-m", "torbun.cli", "pp-to-mw", str(path)],
        capture_output=True, text=True, env=env, timeout=20, preexec_fn=cap,
    )
    assert done.returncode == 2
    assert done.stdout == ""
    assert "above the piece degree 2" in done.stderr
    assert "Traceback" not in done.stderr


def test_piece_product_above_degree_exit_2(tmp_path):
    # every factor is within the piece degree 2 and the product is not; it is
    # refused at the first product above that degree, where expanding all
    # 200 factors takes about a minute
    data = json.loads(open(F1_PIECEWISE).read())
    data["piecewise"]["pieces"]["[1,2]"] = "*".join(["(x1+x2+1)^2"] * 200)
    path = tmp_path / "product.json"
    path.write_text(json.dumps(data))
    src = str(Path(torbun.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    cap = lambda: resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))
    done = subprocess.run(
        [sys.executable, "-m", "torbun.cli", "pp-to-mw", str(path)],
        capture_output=True, text=True, env=env, timeout=20, preexec_fn=cap,
    )
    assert done.returncode == 2
    assert done.stdout == ""
    assert "has degree 4, above the piece degree 2" in done.stderr
    assert "Traceback" not in done.stderr


def test_piece_powers_within_the_degree(tmp_path, capsys):
    # powers up to the piece degree, and powers of constants, still parse
    data = json.loads(open(F1_PIECEWISE).read())
    data["piecewise"]["pieces"]["[1,2]"] = "(x1+x2)^2 - 2*x1*x2 - x2^2 + 0*(x1+x2)^1 * x1 + (1 - 1)^1000000"
    path = tmp_path / "power.json"
    path.write_text(json.dumps(data))
    outputs = []
    for source in (str(path), F1_PIECEWISE):
        assert main(["pp-to-mw", source]) == 0
        outputs.append([line for line in capsys.readouterr().out.splitlines() if line.startswith("outputs.")])
    assert outputs[0] == outputs[1] and outputs[0]


def test_constant_powers_within_the_limit(tmp_path, capsys):
    # powers of 0 and +-1 are never too large; 10^999 has 1000 digits
    data = json.loads(open(F1_WEIGHTS).read())
    data["weights"][0]["values"]["[1]"] = "(-1)^" + "9" * 1000 + " + 0^" + "9" * 1000 + " + 10^999 - 10^999 + 2"
    path = tmp_path / "powers.json"
    path.write_text(json.dumps(data))
    assert main(["check-balancing", str(path)]) == 0


@pytest.mark.parametrize(
    "spec",
    [
        {"type": "projective", "dim": 200},
        {"type": "projective", "dim": 1500},
        {"type": "free_truncated", "generators": [["a", 1]], "top_degree": 10**9},
        {"type": "free_truncated", "generators": [[f"a{i}", 1] for i in range(100_000)], "top_degree": 1},
        {"type": "free_truncated", "generators": [["a", 1], ["b", 1], ["c", 1], ["d", 1]], "top_degree": 4},
        {"type": "explicit", "names": [f"n{i}" for i in range(65)], "degrees": [0] + [1] * 64, "top_degree": 1},
    ],
    ids=["projective-200", "projective-1500", "free-top-1e9", "free-many-generators", "free-70", "explicit-65"],
)
def test_large_base_algebra_exit_2(tmp_path, spec):
    # building a base algebra checks associativity on every triple of basis
    # elements; a basis above the limit is refused before any table is built
    data = json.loads(open(F1_BUNDLE).read())
    data["base_algebra"] = spec
    path = tmp_path / "base.json"
    path.write_text(json.dumps(data))
    src = str(Path(torbun.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    cap = lambda: resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))
    done = subprocess.run(
        [sys.executable, "-m", "torbun.cli", "check-fan", str(path)],
        capture_output=True, text=True, env=env, timeout=20, preexec_fn=cap,
    )
    assert done.returncode == 2
    assert done.stdout == ""
    assert f"more than {MAX_BASIS} basis elements" in done.stderr
    assert "Traceback" not in done.stderr


def test_monomial_count_below_the_limit():
    # the early-stopping count agrees with the basis make_free_truncated builds
    for degrees in ([], [1], [1, 1], [2, 3], [1, 2, 2], [1, 1, 1], [3, 1, 4, 1]):
        for top in range(max(degrees, default=0), 5):
            gens = [(f"g{i}", d) for i, d in enumerate(degrees)]
            size = len(torbun.make_free_truncated(gens, top).names)
            assert _count_monomials(degrees, top, MAX_BASIS) == size if size <= MAX_BASIS else size > MAX_BASIS
    assert _count_monomials([1, 1, 1], 5, MAX_BASIS) == 56
    assert _count_monomials([1, 1, 1, 1], 4, MAX_BASIS) > MAX_BASIS


@pytest.mark.parametrize("site", ["file", "weight-key", "residue-tau", "expression-parentheses", "expression-negations"])
def test_deeply_nested_json_exit_2(capsys, tmp_path, site):
    path = tmp_path / "nested.json"
    argv = ["check-fan", str(path)]
    if site == "file":
        path.write_text("[" * 200_000)
    elif site == "weight-key":
        data = json.loads(open(F1_WEIGHTS).read())
        data["weights"][0]["values"] = {"[" * 5000: "1"}
        path.write_text(json.dumps(data))
        argv = ["check-balancing", str(path)]
    elif site.startswith("expression"):
        opening = "(" if site == "expression-parentheses" else "(-"
        data = json.loads(open(F1_WEIGHTS).read())
        data["weights"][0]["values"]["[1]"] = opening * 3000 + "1" + ")" * 3000
        path.write_text(json.dumps(data))
        argv = ["check-balancing", str(path)]
    else:
        path.write_text(open(F1_PIECEWISE).read())
        argv = ["residue", str(path), "--tau", "[" * 5000]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "nested too deeply" in captured.err


@pytest.mark.parametrize(
    "fixture, command, edit, message",
    [
        (F1_BUNDLE, "check-fan", ("lattice_rank", True), "'lattice_rank' must be an integer"),
        (F1_BUNDLE, "check-fan", ("lattice_rank", -1), "'lattice_rank' must be nonnegative, got -1"),
        (F1_BUNDLE, "check-fan", ("rays", [[True, 0], [1, 1], [0, 1], [-1, -1]]), "must be a length-2 integer vector"),
        (F1_BUNDLE, "check-fan", ("cones", [[0, True], [1, 2], [2, 3], [3, 0]]), "must index into the ray list"),
        (F1_BUNDLE, "check-fan", ("mixing", [[True, 0], [0, 1]]), "integer entries"),
        (F1_BUNDLE, "check-fan", ("base_algebra", {"type": "projective", "dim": True}), "integer 'dim'"),
        (F1_BUNDLE, "check-fan", ("base_algebra", {"type": "free_truncated", "generators": [["a1", 1], ["a2", 1]],
                                                   "top_degree": False}), "integer 'top_degree'"),
        (F1_BUNDLE, "check-fan", ("base_algebra", {"type": "free_truncated", "generators": [["a1", True], ["a2", 1]],
                                                   "top_degree": 4}), "[name, degree] pairs"),
        (F1_WEIGHTS, "check-balancing", ("codim", True), "needs an integer 'codim'"),
        (P1P1_DIAGONAL, "subbundle", ("displacement", [True, 0]), "'displacement' must be a length-2 integer vector"),
        (P1P1_DIAGONAL, "subbundle", ("sublattice", [[1, True]]), "sublattice vector"),
        (F1_PIECEWISE, "pp-to-mw", ("degree", True), "integer 'degree'"),
    ],
    ids=["rank-true", "rank-negative", "ray", "cone", "mixing", "projective-dim", "top-degree", "generator-degree",
         "codim", "displacement", "sublattice", "piece-degree"],
)
def test_booleans_are_not_integers_exit_2(capsys, tmp_path, fixture, command, edit, message):
    data = json.loads(open(fixture).read())
    key, value = edit
    if key == "codim":
        data["weights"][0]["codim"] = value
    elif key == "degree":
        data["piecewise"]["degree"] = value
    else:
        data[key] = value
    path = tmp_path / "typed.json"
    path.write_text(json.dumps(data))
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


# an explicit base algebra with two degree-one elements, as the F1 mixing needs
EXPLICIT = {"type": "explicit", "names": ["1", "a1", "a2", "p"], "degrees": [0, 1, 1, 2], "top_degree": 2,
            "products": {"1*1": "1", "1*a1": "a1", "1*a2": "a2", "1*p": "p", "a1*a2": "p"}}


@pytest.mark.parametrize(
    "spec, message",
    [
        (dict(EXPLICIT, names=["1", ["a1"], "a2", "p"]), "'names' must be strings"),
        (dict(EXPLICIT, degrees=[0, "1", 1, 2]), "'degrees' must be integers"),
        (dict(EXPLICIT, products=[["a1*a2", "p"]]), "'products' must be an object of strings"),
        (dict(EXPLICIT, products={"a1*a2": 1}), "'products' must be an object of strings"),
        (dict(EXPLICIT, degrees=[0, 1, 1]), "as many 'degrees' as 'names'"),
        (dict(EXPLICIT, names=[], degrees=[]), "at least one"),
        ({"type": "free_truncated", "generators": [[["a1"], 1], ["a2", 1]], "top_degree": 4}, "the name a string"),
        ({"type": "projective", "dim": 2, "generator": 7}, "'generator' must be a string"),
    ],
    ids=["name-list", "degree-string", "products-list", "product-number", "degrees-short", "empty",
         "generator-name-list", "projective-generator-number"],
)
def test_malformed_base_algebra_exit_2(capsys, tmp_path, spec, message):
    data = json.loads(open(F1_BUNDLE).read())
    data["base_algebra"] = spec
    path = tmp_path / "base.json"
    path.write_text(json.dumps(data))
    assert main(["check-fan", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_explicit_base_algebra_accepted(capsys, tmp_path):
    data = json.loads(open(F1_BUNDLE).read())
    data["base_algebra"] = EXPLICIT
    path = tmp_path / "base.json"
    path.write_text(json.dumps(data))
    code, doc = run_json(capsys, "check-fan", str(path))
    assert code == 0 and doc["outputs"]["complete"]


@pytest.mark.parametrize(
    "spec",
    [
        {"type": "projective", "dim": 2, "generator": "h*h"},
        {"type": "projective", "dim": 2, "generator": ""},
        {"type": "projective", "dim": 2, "generator": "a1+"},
        {"type": "free_truncated", "generators": [["a1", 1], ["h*h", 1]], "top_degree": 4},
        {"type": "free_truncated", "generators": [["a1", 1], ["2a", 1]], "top_degree": 4},
        dict(EXPLICIT, names=["1", "a1", "a2", "a1+"]),
        dict(EXPLICIT, names=["e", "a1", "1", "p"]),
    ],
    ids=["projective-product", "projective-empty", "projective-sum", "free-product", "free-digit-first",
         "explicit-sum", "explicit-1-not-unit"],
)
def test_base_algebra_names_exit_2(capsys, tmp_path, spec):
    # a name the expression grammar reads as something else would print
    # relations that read as other classes
    data = json.loads(open(F1_BUNDLE).read())
    data["base_algebra"] = spec
    if spec["type"] == "projective":
        data["mixing"] = [[1], [1]]  # one degree-one class
    path = tmp_path / "base.json"
    path.write_text(json.dumps(data))
    assert main(["presentation", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be letters, digits and '_', not starting with a digit" in captured.err


def test_base_algebra_names_accepted(capsys, tmp_path):
    data = json.loads(open(F1_BUNDLE).read())
    data["base_algebra"] = {"type": "free_truncated", "generators": [["b_1", 1], ["_B2", 1]], "top_degree": 4}
    path = tmp_path / "base.json"
    path.write_text(json.dumps(data))
    code, out = run(capsys, "presentation", str(path))
    assert code == 0 and "b_1" in out and "_B2" in out


@pytest.mark.parametrize(
    "fixture, command, edit",
    [(F1_WEIGHTS, "check-balancing", [1]), (F1_PIECEWISE, "pp-to-mw", 2)],
    ids=["weight-list", "piece-number"],
)
def test_expression_not_a_string_exit_2(capsys, tmp_path, fixture, command, edit):
    data = json.loads(open(fixture).read())
    if command == "pp-to-mw":
        data["piecewise"]["pieces"]["[1,2]"] = edit
    else:
        data["weights"][0]["values"]["[1]"] = edit
    path = tmp_path / "typed.json"
    path.write_text(json.dumps(data))
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"an expression must be a string, got {edit!r}" in captured.err


def cone_file(tmp_path, rays):
    """A problem file whose fan is the one cone on all the given rays."""
    path = tmp_path / "cone.json"
    rank = len(rays[0])
    path.write_text(json.dumps({"lattice_rank": rank, "rays": rays, "cones": [list(range(len(rays)))],
                                "base_algebra": {"type": "point"}, "mixing": [[]] * rank}))
    return path


@pytest.mark.parametrize(
    "rays, want",
    [
        ([[1, t, t * t] for t in range(24)], 0),
        ([[1, t, t * t, t**3] for t in range(MAX_CONE_RAYS)], 0),
        ([[1, t, t * t, t**3] for t in range(MAX_CONE_RAYS + 1)], 2),
    ],
    ids=["24-gon", "cyclic-at-limit", "cyclic-above-limit"],
)
def test_cone_with_many_rays_finishes(tmp_path, rays, want):
    # faces come from closing facet zero sets, not from all 2^k subsets of
    # the rays; facet normals still take one kernel per dim - 1 rays, so a
    # cone above the ray limit is refused before any fan is built
    done = check_fan_process(cone_file(tmp_path, rays))
    assert done.returncode == want
    assert "Traceback" not in done.stderr
    if want == 2:
        assert done.stdout == ""
        assert f"a cone lists {MAX_CONE_RAYS + 1} rays, more than {MAX_CONE_RAYS}, the limit" in done.stderr


def check_fan_process(path):
    """`check-fan` on the file in a new process under a 1 GiB address-space cap."""
    src = str(Path(torbun.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    cap = lambda: resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))
    return subprocess.run(
        [sys.executable, "-m", "torbun.cli", "check-fan", str(path)],
        capture_output=True, text=True, env=env, timeout=20, preexec_fn=cap,
    )


def polygon_fan_file(tmp_path, m):
    """A problem file whose fan is the complete rank-2 fan on m primitive
    vectors of a box, in angular order."""
    box = [(a, b) for a in range(-12, 13) for b in range(-12, 13) if math.gcd(a, b) == 1]
    box.sort(key=lambda r: math.atan2(r[1], r[0]))
    rays = [box[len(box) * i // m] for i in range(m)]
    path = tmp_path / "polygon.json"
    path.write_text(json.dumps({"lattice_rank": 2, "rays": rays, "cones": [[i, (i + 1) % m] for i in range(m)],
                                "base_algebra": {"type": "point"}, "mixing": [[], []]}))
    return path


@pytest.mark.parametrize("m, want", [(MAX_CONES, 0), (MAX_CONES + 1, 2)], ids=["at-limit", "above-limit"])
def test_fan_with_many_cones_finishes(tmp_path, m, want):
    # validation decides every pair of maximal cones, so a file above the
    # cone limit is refused before any fan is built
    done = check_fan_process(polygon_fan_file(tmp_path, m))
    assert done.returncode == want
    assert "Traceback" not in done.stderr
    if want == 2:
        assert done.stdout == ""
        assert f"the file lists {MAX_CONES + 1} cones, more than {MAX_CONES}, the limit" in done.stderr


def test_invariant_violation_exits_3(capsys, monkeypatch):
    real = torbun.lattice._snf_ext

    def broken(A):
        # U negated: U A V = -S, which the postcondition check must catch
        r = real(A)
        return dataclasses.replace(r, U=tuple(tuple(-a for a in row) for row in r.U))

    monkeypatch.setattr(torbun.lattice, "_snf_ext", broken)
    # both take a Smith form: rays of the cone over a square have a perp of
    # rank 2, and a subbundle checks that its sublattice is saturated
    for argv in (["check-fan", str(FIXTURES / "cone_over_square.json")], ["subbundle", str(FIXTURES / "p1p1_skew.json")]):
        torbun.lattice._snf_cached.cache_clear()
        assert main(argv) == 3, argv
        assert "Smith normal form" in capsys.readouterr().out, argv
    torbun.lattice._snf_cached.cache_clear()


def test_internal_error_exits_3_without_traceback(capsys, monkeypatch):
    def broken(problem, args, doc, rng):
        raise RuntimeError("boom\n  on two lines")

    monkeypatch.setitem(torbun.cli.COMMANDS, "check-fan", broken)
    assert main(["check-fan", F1_BUNDLE]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: RuntimeError: boom on two lines\n"


README_COMMANDS = [
    ["check-fan", "fixtures/f1_bundle.json"],
    ["presentation", "fixtures/f1_bundle.json", "--equivariant"],
    ["mw-product", "fixtures/f1_weights.json", "--cross-check", "--oracle"],
    ["pp-to-mw", "fixtures/f1_piecewise.json"],
    ["equiv-mult", "fixtures/f1_piecewise.json", "--sigma", "[0,1]", "--tau", "[]"],
    ["residue", "fixtures/f1_piecewise.json", "--tau", "[1]"],
    ["subbundle", "fixtures/p1p1_skew.json"],
]


def test_readme_commands_identical_under_optimize(capsys, monkeypatch):
    # python -O strips assert statements; the invariant checks and every
    # output must not depend on them
    root = FIXTURES.parent
    monkeypatch.chdir(root)
    src = str(Path(torbun.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    for argv in README_COMMANDS:
        code, out = run(capsys, *argv)
        done = subprocess.run(
            [sys.executable, "-O", "-m", "torbun.cli", *argv], capture_output=True, text=True, env=env, cwd=root, timeout=60
        )
        assert (done.returncode, done.stdout) == (code, out), argv
        assert code == 0


def test_round_trip_is_idempotent():
    text = open(F1_WEIGHTS).read()
    problem = parse_problem(text)
    canon = problem.canonical_json()
    again = parse_problem(canon).canonical_json()
    assert canon == again
