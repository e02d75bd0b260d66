import csv
import json
import math

import pytest

from belltol.cli import main

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


def test_exit_code_unsupported_functional(tmp_path):
    import numpy as np

    from belltol.scenario import BellFunctional, Scenario

    sc = Scenario.uniform(2, 2, 3)
    f = BellFunctional(sc, {s: np.zeros((3, 3)) for s in sc.joint_settings()})
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
    BellFunctional(f.scenario, coeffs, label="chsh+A0").save(str(path))
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


def test_exit_code_phase1_failure(monkeypatch, capsys):
    from belltol import polytope

    monkeypatch.setattr(polytope._Tableau, "run_bland",
                        lambda self, cost, eligible: polytope.UNBOUNDED)
    code = main(["visibility", "--state", "ghz:2,2", "--restarts", "1"])
    assert code == 1
    assert capsys.readouterr().err.startswith("internal error: phase 1")


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
        return dataclasses.replace(real(*args, **kwargs), value=value)

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
