"""Command-line surface: exit codes, file outputs, schema, determinism."""

import json
import os

import jsonschema
import pytest

from odelab import cli

SCHEMA = json.load(open(os.path.join(os.path.dirname(cli.__file__),
                                     "report_schema.json")))


def _cfg(tmp_path, payload, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


def _run(args):
    return cli.main([str(a) for a in args])


def test_missing_config_file_is_config_error(tmp_path):
    rc = _run(["verify", "--config", tmp_path / "nope.json", "--out", tmp_path / "o"])
    assert rc == 2


def test_malformed_json_is_config_error(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert _run(["verify", "--config", p, "--out", tmp_path / "o"]) == 2


def test_unknown_suite_is_config_error(tmp_path):
    cfg = _cfg(tmp_path, {"suite": "frobnicate"})
    assert _run(["verify", "--config", cfg, "--out", tmp_path / "o"]) == 2


def test_missing_required_beta_is_config_error(tmp_path):
    cfg = _cfg(tmp_path, {"suite": "coincidence"})  # no beta
    assert _run(["verify", "--config", cfg, "--out", tmp_path / "o"]) == 2


@pytest.mark.parametrize("command,payload", [
    ("rates", {"beta": 2.0, "n": [1]}),
    ("verify", {"suite": "symmetry", "beta": 2.0, "r": 5.0}),
    ("verify", {"suite": "gronwall", "beta": 2.0, "r": 5.0}),
    ("construct", {"construction": "stubble-det", "beta": "abc"}),
    ("verify", {"suite": "coincidence", "beta": 1.5, "delta_t": "abc"}),
    ("rates", {"beta": 2.0, "n": ["x"]}),
    ("construct", {"construction": "spiral", "K": "x"}),
    ("verify", {"suite": "assumptions", "K_grid": float("nan")}),
    ("experiment", {"kl": float("inf")}),
    ("verify", {"suite": "smoothness", "beta": 5.5, "d": 1}),
    ("verify", {"suite": "coincidence", "beta": 5.5}),
    ("verify", {"suite": "smoothness", "beta": 2.0, "d": 0}),
    ("verify", {"suite": "assumptions", "d": 0}),
    ("verify", {"suite": "assumptions", "d": 2, "K_grid": 0}),
    ("verify", {"suite": "assumptions", "d": 2, "n_per": 0}),
    ("construct", {"construction": "spiral", "K": 0}),
    ("experiment", {"trials": 0}),
    ("verify", {"suite": "assumptions", "d": 2.5}),
])
def test_bad_values_are_config_errors(tmp_path, capsys, command, payload):
    cfg = _cfg(tmp_path, payload)
    assert _run([command, "--config", cfg, "--out", tmp_path / "o"]) == 2
    err = capsys.readouterr().err
    assert "odelab: config error" in err
    assert "Traceback" not in err


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        cli.main(["transmogrify"])
    assert exc.value.code == 2


def test_verify_assumptions_report_matches_schema(tmp_path):
    cfg = _cfg(tmp_path, {"suite": "assumptions"})
    out = tmp_path / "out"
    assert _run(["verify", "--config", cfg, "--out", out, "--seed", 11]) == 0
    report = json.loads((out / "report.json").read_text())
    jsonschema.validate(report, SCHEMA)
    assert report["suite"] == "assumptions"
    assert report["seed"] == 11
    assert report["passed"] is True
    assert all(c["passed"] for c in report["checks"])


def test_verify_failing_declaration_exits_one(tmp_path):
    # a cover constant declared below the measured 4^d must be refused
    cfg = _cfg(tmp_path, {"suite": "assumptions", "C_cvr": 2.0})
    out = tmp_path / "out"
    assert _run(["verify", "--config", cfg, "--out", out]) == 1
    report = json.loads((out / "report.json").read_text())
    jsonschema.validate(report, SCHEMA)
    assert report["passed"] is False
    failed = [c for c in report["checks"] if not c["passed"]]
    assert any(c["name"] == "cover-constant" for c in failed)


def test_construct_stubble_det_outputs(tmp_path):
    cfg = _cfg(tmp_path, {"construction": "stubble-det", "beta": 1.5})
    out = tmp_path / "out"
    assert _run(["construct", "--config", cfg, "--out", out]) == 0
    desc = json.loads((out / "construction.json").read_text())
    assert desc["construction"] == "stubble-det"
    assert desc["claimed_separation"] > 0
    csv_text = (out / "field_grid.csv").read_text()
    lines = csv_text.strip().split("\n")
    assert lines[0].startswith("#")
    assert lines[1].split(",")[0] == "x"
    assert len(lines) > 10


def test_construct_rejects_oversized_delta(tmp_path):
    cfg = _cfg(tmp_path, {"construction": "snake-det", "beta": 2.0, "delta": 5.0})
    assert _run(["construct", "--config", cfg, "--out", tmp_path / "o"]) == 2


def test_json_output_is_canonical(tmp_path):
    cfg = _cfg(tmp_path, {"suite": "assumptions"})
    out = tmp_path / "out"
    _run(["verify", "--config", cfg, "--out", out])
    text = (out / "report.json").read_text()
    assert text.endswith("\n")
    parsed = json.loads(text)
    # canonical form re-serializes to the identical bytes
    assert text == json.dumps(parsed, indent=2, sort_keys=True,
                              default=cli._jsonable) + "\n"


def test_rates_csv_grid(tmp_path):
    cfg = _cfg(tmp_path, {"beta": 2.0, "d": 2,
                          "n": {"start": 1e3, "stop": 1e5, "num": 8}})
    out = tmp_path / "out"
    assert _run(["rates", "--config", cfg, "--out", out]) == 0
    lines = (out / "rates.csv").read_text().strip().split("\n")
    assert lines[0].startswith("#")
    header = lines[1].split(",")
    assert header[0] == "n"
    assert "stubble-onlyn" in header and "snake-combined-nice" in header
    assert len(lines) == 2 + 8  # comment + header + grid rows


def test_experiment_outputs_and_flag(tmp_path):
    cfg = _cfg(tmp_path, {"kl": 0.5, "trials": 20000})
    out = tmp_path / "out"
    assert _run(["experiment", "--config", cfg, "--out", out, "--seed", 3]) == 0
    summary = json.loads((out / "experiment.json").read_text())
    assert summary["trials"] == 20000
    assert summary["lecam_bound"] == 0.25
    assert summary["within_3_se"] is True
    assert (out / "experiment.csv").exists()


def test_experiment_rejects_negative_kl(tmp_path):
    cfg = _cfg(tmp_path, {"kl": -1.0})
    assert _run(["experiment", "--config", cfg, "--out", tmp_path / "o"]) == 2


def test_repeat_run_bitwise_identical(tmp_path):
    cfg = _cfg(tmp_path, {"suite": "assumptions"})
    a, b = tmp_path / "a", tmp_path / "b"
    _run(["verify", "--config", cfg, "--out", a, "--seed", 4])
    _run(["verify", "--config", cfg, "--out", b, "--seed", 4])
    assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()
