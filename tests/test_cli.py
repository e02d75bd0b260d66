import csv
import json
import math

import numpy as np

import pytest

from belltol.cli import build_parser, main

SQRT2 = math.sqrt(2.0)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_bounds_ghz_overall(capsys):
    code, data = run_json(capsys, ["bounds", "--family", "ghz", "--d", "2", "--n", "3", "--s", "inf"])
    assert code == 0
    row = data["results"][0]
    assert row["tol_lo"] == pytest.approx(1.0 / 3.0, abs=1e-6)
    assert row["tol_hi"] == pytest.approx(2.0 / 3.0, abs=1e-6)
    assert data["config"]["family"] == "ghz"
    assert data["version"]


def test_bounds_generic_sweep_generalized(capsys):
    code, data = run_json(capsys, [
        "bounds", "--family", "generic", "--d", "2..4", "--n", "2", "--s", "2",
        "--meas", "generalized",
    ])
    assert code == 0
    rows = data["results"]
    assert len(rows) == 3
    for row in rows:
        assert row["noise_hi"] == pytest.approx(0.5, abs=1e-9)


def test_bounds_w(capsys):
    code, data = run_json(capsys, ["bounds", "--family", "w", "--n", "2"])
    assert code == 0
    assert data["results"][0]["tol_hi"] == pytest.approx(2.0 / (1.0 + SQRT2), abs=1e-6)


@pytest.mark.parametrize("argv", [["--family", "w", "--n", "1100"],
                                  ["--family", "dicke", "--n", "1100", "--k", "3"]],
                         ids=["w", "dicke"])
def test_bounds_dicke_lower_endpoint_saturates(capsys, argv):
    # 2^(n-1) / C(n, k) overflows a float: the endpoint saturates to inf
    code, data = run_json(capsys, ["bounds", *argv])
    assert code == 0
    row = data["results"][0]
    assert row["upsilon_lo"] == math.inf
    assert row["tol_hi"] == 0.0


def test_bounds_csv(tmp_path):
    out = tmp_path / "table.csv"
    code = main(["bounds", "--family", "ghz", "--d", "2", "--n", "2..3",
                 "--s", "2,inf", "--format", "csv", "--out", str(out)])
    assert code == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 6  # 2 n-values x (2 meas types at s=2 + 1 overall row)
    cols = set(rows[0])
    assert {"d", "n", "s", "meas_type", "upsilon_lo", "upsilon_hi", "tol_lo",
            "tol_hi", "noise_lo", "noise_hi", "active_term", "regime"} <= cols


def test_violation_ghz22(capsys):
    code, data = run_json(capsys, [
        "violation", "--state", "ghz:2,2", "--functional", "chsh",
        "--seed", "1", "--restarts", "5",
    ])
    assert code == 0
    assert data["results"]["upsilon_lower_bound"] == pytest.approx(SQRT2, abs=1e-6)
    assert data["results"]["best_functional"] == "chsh"
    assert "assignment" in data["results"]


def test_violation_ghz24_mermin4(capsys):
    code, data = run_json(capsys, [
        "violation", "--state", "ghz:2,4", "--functional", "mermin:4",
        "--seed", "1", "--restarts", "20",
    ])
    assert code == 0
    assert data["results"]["upsilon_lower_bound"] == pytest.approx(2.0 ** 1.5, abs=1e-6)


def test_violation_runs_every_functional(capsys):
    # violation prints every functional's value, so none is skipped, even one
    # (padded CHSH, at most 2) that cannot beat Mermin's 2 sqrt(2)
    code, data = run_json(capsys, ["violation", "--state", "ghz:2,4", "--functional", "mermin:4",
                                   "--functional", "chsh", "--restarts", "4", "--seed", "3"])
    assert code == 0
    per = data["results"]["per_functional"]
    assert [entry["functional"] for entry in per] == ["mermin4", "chsh+2passive"]
    assert per[0]["value"] == pytest.approx(2 * SQRT2, abs=1e-6)
    assert 1.0 < per[1]["value"] <= 2.0


def test_parser_is_built_once_and_keeps_no_values(capsys):
    assert build_parser() is build_parser()
    code, data = run_json(capsys, ["violation", "--state", "ghz:2,3", "--functional", "chsh",
                                   "--restarts", "1"])
    assert code == 0 and data["config"]["functional"] == ["chsh"]
    # an appended --functional of one call does not reach the next
    code, data = run_json(capsys, ["violation", "--state", "ghz:2,3", "--restarts", "1"])
    assert code == 0 and data["config"]["functional"] == ["mermin"]
    assert [row["functional"] for row in data["results"]["per_functional"]] == ["mermin3"]


def test_tolerance_ghz22(capsys):
    code, data = run_json(capsys, [
        "tolerance", "--state", "ghz:2,2", "--seed", "1", "--restarts", "5",
    ])
    assert code == 0
    lo, hi = data["results"]["tolerance_interval"]
    assert lo == pytest.approx(0.5, abs=1e-9)
    assert hi == pytest.approx(2.0 / (1.0 + SQRT2), abs=1e-6)
    assert "chsh" in data["results"]["provenance"]["upper"]


def test_tolerance_w3(capsys):
    code, data = run_json(capsys, [
        "tolerance", "--state", "w:3", "--seed", "1", "--restarts", "5",
    ])
    assert code == 0
    lo, hi = data["results"]["tolerance_interval"]
    assert lo == pytest.approx(2.0 / (1.0 + 9.0), abs=1e-9)
    assert hi <= 3.0 / (3.0 + 2.0 * (SQRT2 - 1.0)) + 1e-9


def test_violation_white_noise(capsys):
    code, data = run_json(capsys, [
        "violation", "--state", "product:2,2", "--functional", "chsh",
        "--seed", "1", "--restarts", "3",
    ])
    assert code == 0
    assert data["results"]["upsilon_lower_bound"] <= 1.0 + 1e-9


def test_violation_trace_file(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    code, _ = run_json(capsys, [
        "violation", "--state", "ghz:2,2", "--functional", "chsh",
        "--seed", "1", "--restarts", "2", "--trace", str(trace),
    ])
    assert code == 0
    with open(trace) as fh:
        rows = list(csv.DictReader(fh))
    assert rows and rows[0]["sweep"] == "1"


def test_visibility_bell(capsys):
    code, data = run_json(capsys, [
        "visibility", "--state", "ghz:2,2", "--noise", "white",
        "--measurements", "seesaw", "--functional", "chsh",
        "--seed", "1", "--restarts", "5",
    ])
    assert code == 0
    assert data["results"]["beta_star"] == pytest.approx(1.0 / SQRT2, abs=1e-6)
    assert any("fixed-measurement" in c for c in data["results"]["caveats"])


def test_visibility_ghz3_mermin(capsys):
    code, data = run_json(capsys, [
        "visibility", "--state", "ghz:2,3", "--noise", "white",
        "--measurements", "seesaw", "--functional", "mermin:3",
        "--seed", "1", "--restarts", "8",
    ])
    assert code == 0
    assert data["results"]["beta_star"] == pytest.approx(0.5, abs=1e-6)


def test_visibility_report_prints_no_round_off(capsys):
    # seed 1 leaves -0.0 and entries such as 4.9e-31 and -1.3e-15 in the
    # LP's weights and dual; they print as 0.0, and beta_star is the LP's
    from belltol.polytope import critical_visibility
    from belltol.qvalue import seesaw
    from belltol.scenario import mermin
    from belltol.states import NoiseSpec, ghz

    assert main(["visibility", "--state", "ghz:2,3", "--functional", "mermin",
                 "--seed", "1", "--restarts", "5"]) == 0
    data = json.loads(capsys.readouterr().out)
    report = data["results"]["report"]
    entries = report["weights"] + report["dual"]
    assert all(math.copysign(1.0, x) == 1.0 for x in entries if x == 0.0)
    assert all(x == 0.0 or abs(x) >= 1e-12 for x in entries)
    assignment = seesaw(mermin(3), ghz(2, 3), restarts=5, seed=1).assignment
    beta = critical_visibility(ghz(2, 3), NoiseSpec.white(), assignment).beta_star
    assert data["results"]["beta_star"] == float(f"{beta:.9g}")


def test_visibility_product_state(capsys):
    code, data = run_json(capsys, [
        "visibility", "--state", "product:2,2", "--noise", "white",
        "--measurements", "seesaw", "--functional", "chsh",
        "--seed", "1", "--restarts", "3",
    ])
    assert code == 0
    assert data["results"]["beta_star"] == pytest.approx(1.0, abs=1e-9)


def test_visibility_measurements_from_file(tmp_path, capsys):
    from belltol.qvalue import seesaw
    from belltol.scenario import chsh
    from belltol.states import ghz

    assignment = seesaw(chsh(), ghz(2, 2), restarts=5, seed=1).assignment
    path = tmp_path / "assign.json"
    assignment.save(str(path))
    code, data = run_json(capsys, [
        "visibility", "--state", "ghz:2,2", "--noise", "white",
        "--measurements", f"json:{path}", "--functional", "chsh",
    ])
    assert code == 0
    assert data["results"]["beta_star"] == pytest.approx(1.0 / SQRT2, abs=1e-6)
    assert data["results"]["measurements"]["kind"] == "file"


def test_visibility_from_file_ignores_the_functional(tmp_path, capsys):
    # no seesaw runs on file measurements, so a functional that does not fit
    # the state is not parsed; config still prints it as given
    from belltol.qvalue import seesaw
    from belltol.scenario import mermin
    from belltol.states import ghz

    path = tmp_path / "assign.json"
    seesaw(mermin(3), ghz(2, 3), restarts=2, seed=1).assignment.save(str(path))
    argv = ["visibility", "--state", "ghz:2,3", "--measurements", f"json:{path}"]
    code, plain = run_json(capsys, argv)
    assert code == 0
    code, data = run_json(capsys, argv + ["--functional", "mermin:2"])
    assert code == 0
    assert data["results"]["beta_star"] == plain["results"]["beta_star"]
    assert data["config"]["functional"] == "mermin:2"


def test_visibility_explicit_noise_caveat(tmp_path, capsys):
    from belltol.states import product_zero

    noise_path = tmp_path / "noise.json"
    product_zero(2, 2).save(str(noise_path))
    code, data = run_json(capsys, [
        "visibility", "--state", "ghz:2,2", "--noise", f"json:{noise_path}",
        "--measurements", "seesaw", "--functional", "chsh",
        "--seed", "1", "--restarts", "5",
    ])
    assert code == 0
    assert any("conditional on locality" in c for c in data["results"]["caveats"])


def test_tolerance_ghz23(capsys):
    code, data = run_json(capsys, [
        "tolerance", "--state", "ghz:2,3", "--seed", "1", "--restarts", "8",
    ])
    assert code == 0
    lo, hi = data["results"]["tolerance_interval"]
    assert lo == pytest.approx(1.0 / 3.0, abs=1e-6)
    assert hi == pytest.approx(2.0 / 3.0, abs=1e-6)
    assert "seesaw" in data["results"]["provenance"]["upper"]


def test_tolerance_dicke42(capsys):
    code, data = run_json(capsys, [
        "tolerance", "--state", "dicke:4,2", "--seed", "1", "--restarts", "3",
    ])
    assert code == 0
    lo, hi = data["results"]["tolerance_interval"]
    assert lo == pytest.approx(2.0 / 28.0, abs=1e-9)
    assert hi <= 0.7836116248912243 + 1e-9


def test_tolerance_custom_state_warns(tmp_path, capsys):
    from belltol.states import ghz

    path = tmp_path / "state.json"
    ghz(2, 2).save(str(path))
    code, data = run_json(capsys, [
        "tolerance", "--state", f"json:{path}", "--seed", "1", "--restarts", "3",
    ])
    assert code == 0
    assert "warning" in data["results"]
    assert data["results"]["tolerance_interval"][0] is None


def test_exit_code_domain_error(capsys):
    assert main(["bounds", "--family", "ghz", "--d", "1", "--n", "2"]) == 2
    assert main(["violation", "--state", "ghz:1,2"]) == 2
    assert main(["violation", "--state", "nope:1"]) == 2


def test_mermin_party_mismatch_exits_2_unbuilt(monkeypatch, capsys):
    # mermin:n builds 2^n tables of 2^n entries, so n is checked against the
    # state first
    from belltol import cli

    def build_nothing(n):
        raise RuntimeError("mermin was called")

    monkeypatch.setattr(cli, "mermin", build_nothing)
    assert main(["violation", "--state", "ghz:2,3", "--functional", "mermin:4",
                 "--restarts", "1"]) == 2
    assert "has 4 parties, state has 3" in capsys.readouterr().err


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_bounds_sweep_without_rows_exits_2(capsys, fmt):
    # s = inf has only the generalized row, so a projective-only sweep is empty
    assert main(["bounds", "--family", "ghz", "--n", "3", "--s", "inf",
                 "--meas", "projective", "--format", fmt]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: the sweep selects no row: s = inf")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("family", ["w", "dicke"])
@pytest.mark.parametrize("regime", [["--s", "2"], ["--s", "2,3", "--meas", "projective"],
                                    ["--s", "inf", "--meas", "projective"]],
                         ids=["s2", "s23-projective", "inf-projective"])
def test_bounds_overall_only_family_refuses_other_regimes(capsys, family, regime):
    # these families have one row per state, s = inf with meas type generalized
    assert main(["bounds", "--family", family, "--n", "4", *regime]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: the sweep selects no row: the {family} family has one "
                            "regime, s = inf with meas type 'generalized'\n")


@pytest.mark.parametrize("family", ["generic", "ghz", "w"])
def test_bounds_k_outside_dicke_exits_2(capsys, family):
    # W is the Dicke k = 1 case and takes no k either
    assert main(["bounds", "--family", family, "--n", "3", "--k", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: k is for the dicke family only, not {family}\n"


def test_negative_seed_exits_2_naming_it(capsys):
    assert main(["violation", "--state", "ghz:2,2", "--functional", "chsh", "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: seed must be >= 0, got -1\n"


def test_visibility_measurements_of_mixed_dimensions_exit_2(tmp_path, capsys):
    from belltol.linalg import complex_to_json

    effect = {"effects": [complex_to_json(np.eye(3))], "outcome_values": [1.0]}
    qubit = {"effects": [complex_to_json(np.eye(2))], "outcome_values": [1.0]}
    path = tmp_path / "meas.json"
    path.write_text(json.dumps({"d": 2, "parties": [[qubit], [effect]]}), encoding="utf-8")
    assert main(["visibility", "--state", "ghz:2,2", "--measurements", f"json:{path}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: effect JSON entry count 9/9 does not match dim 2")
    assert err.count("\n") == 1


@pytest.mark.parametrize("k", [[], ["--k", "1"]], ids=["every-k", "k1"])
def test_bounds_dicke_below_two_parties_names_n(capsys, k):
    assert main(["bounds", "--family", "dicke", "--n", "1", *k]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: n must be >= 2, got 1\n"


@pytest.mark.parametrize("family", ["w", "dicke"])
def test_bounds_overall_only_family_keeps_its_rows(capsys, family):
    tables = []
    for regime in ([], ["--s", "inf"], ["--s", "2,inf"], ["--meas", "generalized"]):
        code, data = run_json(capsys, ["bounds", "--family", family, "--n", "4", *regime])
        assert code == 0
        tables.append(data["results"])
    assert len(tables[0]) == (1 if family == "w" else 3)
    assert all(table == tables[0] for table in tables)


def test_state_json_with_non_integer_d_exits_2(tmp_path, capsys):
    from belltol.states import ghz

    path = tmp_path / "state.json"
    path.write_text(json.dumps({**ghz(2, 2).to_json_dict(), "d": 2.9}), encoding="utf-8")
    assert main(["tolerance", "--state", f"json:{path}", "--restarts", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(": state JSON field 'd' must be an integer, got 2.9\n")


def test_functional_json_with_unknown_joint_setting_exits_2(tmp_path, capsys):
    from belltol.scenario import chsh

    data = chsh().to_json_dict()
    data["coeffs"]["3,3"] = data["coeffs"].pop("2,2")
    path = tmp_path / "f.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["violation", "--state", "ghz:2,2", "--functional", f"json:{path}"]) == 2
    err = capsys.readouterr().err
    assert "no table for joint setting (1, 1)" in err
    assert "a table for joint setting (2, 2), which does not exist" in err


def test_violation_of_a_scaled_functional(tmp_path, capsys):
    from belltol.scenario import mermin

    path = tmp_path / "f.json"
    mermin(3).scaled(1e6).save(str(path))
    code, data = run_json(capsys, ["violation", "--state", "ghz:2,3",
                                   "--functional", f"json:{path}", "--restarts", "5"])
    assert code == 0
    assert data["results"]["upsilon_lower_bound"] == pytest.approx(2.0, abs=1e-9)


def test_exit_code_unsupported_functional(tmp_path):
    import numpy as np

    from belltol.scenario import BellFunctional, Scenario

    sc = Scenario.uniform(2, 2, 3)
    f = BellFunctional.from_tables(sc, {s: np.zeros((3, 3)) for s in sc.joint_settings()})
    path = tmp_path / "f.json"
    f.save(str(path))
    code = main(["violation", "--state", "ghz:2,2", "--functional", f"json:{path}",
                 "--restarts", "1"])
    assert code == 3


def test_violation_functional_with_marginal(tmp_path, capsys):
    import numpy as np

    from belltol.scenario import BellFunctional, chsh

    f = chsh()
    coeffs = dict(f.coeffs)
    # CHSH + 0.5 A0: LHV constant 2.5, GHZ value 2 sqrt(2)
    coeffs[(0, 0)] = coeffs[(0, 0)] + 0.5 * np.array([[1.0, 1.0], [-1.0, -1.0]])
    path = tmp_path / "f.json"
    BellFunctional.from_tables(f.scenario, coeffs, label="chsh+A0").save(str(path))
    code, data = run_json(capsys, [
        "violation", "--state", "ghz:2,2", "--functional", f"json:{path}",
        "--restarts", "5", "--seed", "1",
    ])
    assert code == 0
    assert data["results"]["upsilon_lower_bound"] == pytest.approx(2 * SQRT2 / 2.5, abs=1e-6)


def test_exit_code_resource_cap(monkeypatch):
    monkeypatch.setenv("BELLTOL_MAX_DIM", "4")
    assert main(["violation", "--state", "ghz:2,4", "--restarts", "1"]) == 4


def test_exit_code_numerical_failure(monkeypatch, capsys):
    import numpy as np

    import belltol.cli

    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(belltol.cli, "critical_visibility", singular)
    code = main(["visibility", "--state", "ghz:2,2", "--restarts", "1"])
    assert code == 1
    assert capsys.readouterr().err.startswith("internal error: Singular matrix")


def test_exit_code_seesaw_objective_that_falls(monkeypatch, capsys):
    # a falling objective is a numerical failure, not a domain error
    from belltol import qvalue

    real = qvalue._objective
    calls = []

    def falling(left, c):
        calls.append(1)
        return real(left, c) - 1e-6 * len(calls)

    monkeypatch.setattr(qvalue, "_objective", falling)
    assert main(["violation", "--state", "ghz:2,3", "--restarts", "2"]) == 1
    assert capsys.readouterr().err.startswith("internal error: seesaw objective decreased")


def test_exit_code_start_not_dual_feasible(monkeypatch, capsys):
    from belltol import polytope

    real = polytope.LinearProgram

    def slack_start(c, a_eq, b_eq, basis):
        return real(c=c, a_eq=a_eq, b_eq=b_eq, basis=np.append(basis[:-1], c.size - 1))

    monkeypatch.setattr(polytope, "LinearProgram", slack_start)
    code = main(["visibility", "--state", "ghz:2,2", "--restarts", "1"])
    assert code == 1
    assert capsys.readouterr().err.startswith("internal error: the start basis is not dual feasible")


def test_exit_code_simplex_weights_no_certificate(monkeypatch, capsys):
    import dataclasses

    from belltol import polytope

    real = polytope.simplex_max

    def one_weight_raised(lp):
        res = real(lp)
        x = res.x.copy()
        x[0] += 1e-6
        return dataclasses.replace(res, x=x)

    monkeypatch.setattr(polytope, "simplex_max", one_weight_raised)
    code = main(["visibility", "--state", "ghz:2,2", "--restarts", "1"])
    assert code == 1
    assert capsys.readouterr().err.startswith(
        "internal error: simplex weights are no local certificate")


def test_deterministic_output(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["violation", "--state", "ghz:2,2", "--functional", "chsh",
            "--seed", "7", "--restarts", "3"]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0

    def strip_timestamp(path):
        return [line for line in path.read_text().splitlines()
                if "generated_at" not in line]

    assert strip_timestamp(out1) == strip_timestamp(out2)


def test_floats_printed_9_significant_digits(capsys):
    code, data = run_json(capsys, [
        "violation", "--state", "ghz:2,2", "--functional", "chsh",
        "--seed", "1", "--restarts", "3",
    ])
    assert code == 0
    val = data["results"]["upsilon_lower_bound"]
    assert val == float(f"{val:.9g}")


@pytest.mark.parametrize("value", [2.0 - 1e-12, 2.0, 2.0 + 1e-12])
def test_tolerance_provenance_stable_at_the_formula_value(monkeypatch, capsys, value):
    # a seesaw that reaches the formula value reads as witnessing it, whatever
    # the last bit of its value
    import dataclasses

    import belltol.cli

    real = belltol.cli.upsilon_lower_bound

    def pinned(*args, **kwargs):
        found = real(*args, **kwargs)
        return dataclasses.replace(found, result=dataclasses.replace(found.result, value=value))

    monkeypatch.setattr(belltol.cli, "upsilon_lower_bound", pinned)
    code, data = run_json(capsys, ["tolerance", "--state", "ghz:2,3", "--functional", "mermin",
                                   "--restarts", "1"])
    assert code == 0
    assert data["results"]["provenance"]["upper"] == (
        "formula family 'ghz', witnessed by seesaw via mermin3"
    )


PAIR = [[1.0, -1.0], [1.0, -1.0]]


@pytest.mark.parametrize("argv, document", [
    (["tolerance", "--state", "json:/nonexistent/state.json"], None),
    (["visibility", "--state", "ghz:2,2", "--measurements", "nofile"], None),
    (["visibility", "--state", "ghz:2,2", "--measurements", "json:/nonexistent/meas.json",
      "--restarts", "1"], None),
    (["violation", "--state", "ghz:2,2", "--functional", "chsh", "--restarts", "1",
      "--out", "/nonexistent/dir/x.json"], None),
    (["violation", "--state", "ghz:2,2", "--functional", "json:{doc}", "--restarts", "1"],
     {"outcomes": [PAIR, PAIR], "coeffs": [1, 2]}),
    (["visibility", "--state", "ghz:2,2", "--measurements", "json:{doc}"],
     {"d": 2, "parties": [[{"outcome_values": [1.0, -1.0]}]]}),
    (["visibility", "--state", "ghz:2,2", "--measurements", "json:{doc}"],
     {"d": 2, "parties": [[[1.0, -1.0]]]}),
], ids=["state-file", "measurements-spec", "measurements-file", "out-file",
        "functional-coeffs-list", "measurement-without-effects", "measurement-is-list"])
def test_file_errors_exit_2(capsys, tmp_path, argv, document):
    if document is not None:
        doc = tmp_path / "doc.json"
        doc.write_text(json.dumps(document))
        argv = [a.format(doc=doc) for a in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    if document is not None:
        assert err.startswith("error: malformed ")


@pytest.mark.parametrize("argv, document, message", [
    (["tolerance", "--state", "dicke:3,3", "--restarts", "1"], None,
     "k must be in 1..2, got 3"),
    (["tolerance", "--state", "json:{doc}", "--restarts", "1"], "d-2.9",
     "state JSON field 'd' must be an integer, got 2.9"),
    (["visibility", "--state", "ghz:2,2", "--noise", "json:{doc}", "--restarts", "1"],
     "not json", "malformed DensityMatrix JSON: Expecting value: line 1 column 1 (char 0)"),
    (["violation", "--state", "ghz:2,2", "--functional", "json:{doc}"], "not json",
     "malformed BellFunctional JSON: Expecting value: line 1 column 1 (char 0)"),
], ids=["dicke-k", "state-file-d", "noise-file-not-json", "functional-file-not-json"])
def test_input_errors_print_their_own_message(capsys, tmp_path, argv, document, message):
    # the spec parser reports only the spec's integers as unparsable: a
    # builder's or a file's own error prints as it is
    from belltol.states import ghz

    if document is not None:
        doc = tmp_path / "doc.json"
        if document == "d-2.9":
            document = json.dumps({**ghz(2, 2).to_json_dict(), "d": 2.9})
        doc.write_text(document, encoding="utf-8")
        argv = [a.format(doc=doc) for a in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("argv, message", [
    (["violation", "--state", "ghz:2,x"],
     "cannot parse state spec 'ghz:2,x': invalid literal for int() with base 10: 'x'"),
    (["violation", "--state", "ghz:2"], "cannot parse state spec 'ghz:2': expected 2 integers"),
    (["violation", "--state", "ghz:2,3", "--functional", "mermin:x"],
     "cannot parse functional spec 'mermin:x': invalid literal for int() with base 10: 'x'"),
    (["bounds", "--family", "ghz", "--n", "2.5"],
     "cannot parse integer list '2.5': invalid literal for int() with base 10: '2.5'"),
    (["bounds", "--family", "ghz", "--n", "3", "--d", "2..x"],
     "cannot parse integer list '2..x': invalid literal for int() with base 10: 'x'"),
    (["violation", "--state", "ghz:2,2", "--functional", "chsh:zzz"],
     "unknown functional spec 'chsh:zzz'"),
    (["visibility", "--state", "ghz:2,2", "--noise", "white:zz"], "unknown noise spec 'white:zz'"),
], ids=["state-int", "state-count", "mermin-int", "n-list", "d-range", "chsh-arg", "white-arg"])
def test_text_inputs_name_themselves(capsys, argv, message):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_zero_round_off_maps_every_nested_float():
    from belltol.cli import _zero_round_off

    got = _zero_round_off({"d": 0, "a": [1e-13, -0.0, 0.5, "x", {"b": [-2e-12, 3]}], "c": 1e-15})
    assert got == {"d": 0, "a": [0.0, 0.0, 0.5, "x", {"b": [-2e-12, 3]}], "c": 0.0}
    assert math.copysign(1.0, got["a"][1]) == 1.0
    assert type(got["a"][4]["b"][1]) is int
