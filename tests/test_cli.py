"""Command-line surface: exit codes, file outputs, schema, determinism."""

import dataclasses
import io
import json
import math
import os

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from odelab import cli, geometry, hypotheses, rates, statmodel

with open(os.path.join(os.path.dirname(cli.__file__), "report_schema.json")) as _fh:
    SCHEMA = json.load(_fh)


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
    ("verify", {"suite": "tube-cover", "beta": 2.0, "delta": 0}),
    ("verify", {"suite": "tube-cover", "beta": 2.0, "delta": -0.1}),
    ("construct", {"construction": "snake-det", "beta": 2.0, "delta": 0}),
    ("construct", {"construction": "snake-det", "beta": 2.0, "delta": -0.1}),
    ("verify", {"suite": "coincidence", "beta": 1.5, "delta_t": 0}),
    ("construct", {"construction": "stubble-det", "beta": 1.5, "delta_t": -0.05}),
    ("verify", {"suite": "tube-cover", "beta": 2.0, "d": 2, "x0": [0.5]}),
    ("construct", {"construction": "snake-det", "beta": 2.0, "x0": [0.5]}),
    ("construct", {"construction": "stubble-det", "beta": 1.5, "x0": [0.5, 0.5]}),
    ("verify", {"suite": "coincidence", "beta": 1.5, "x0": 0.5}),
    ("construct", {"construction": "stubble-det", "beta": 2.0, "L": [1]}),
    ("construct", {"construction": "snake-det", "beta": 2.0, "L": [1, 1, 1, 1, 1]}),
    ("verify", {"suite": "tube-cover", "beta": 2.0, "L": [1]}),
    ("verify", {"suite": "tube-cover", "beta": 2.0, "L": [1, 1, 1, 1, 1]}),
    ("verify", {"suite": "smoothness", "beta": 2.0, "L": [1]}),
    ("verify", {"suite": "smoothness", "beta": 2.0, "L": 2}),
    ("verify", {"suite": "smoothness", "beta": 2.0, "L": [2, -20]}),
    ("verify", {"suite": "smoothness", "beta": 2.0, "L_beta": 0}),
    ("verify", {"suite": "assumptions", "delta_t": -0.1}),
    ("verify", {"suite": "assumptions", "sigma2": 0}),
    ("verify", {"suite": "assumptions", "sigma2": -1}),
    ("experiment", {"kl": 1e308}),
    ("rates", {"beta": 2.0, "n": {"start": 0, "stop": 10, "num": 3}}),
    ("rates", {"beta": 2.0, "n": {"start": 10, "stop": -100, "num": 3}}),
    ("verify", {"suite": []}),
    ("verify", {"suite": "assumptions", "C_cvr": 0}),
    ("verify", {"suite": "assumptions", "C_cvr": -1}),
    ("verify", {"suite": "assumptions", "C_cvrtm": 0}),
    # config numbers are JSON numbers: no booleans, numeric strings or integers past float range
    ("verify", {"suite": "assumptions", "d": True, "K_grid": 3}),
    ("experiment", {"kl": True}),
    ("verify", {"suite": "assumptions", "d": "2", "K_grid": "3"}),
    ("verify", {"suite": "coincidence", "beta": 1.5, "d": 2, "x0": [0.5, False]}),
    ("construct", {"construction": "stubble-det", "beta": 1.5, "L": [2, "300"]}),
    ("rates", {"beta": 2.0, "n": [1000, "2000"]}),
    ("experiment", {"kl": 10**400}),
    # a sigma2 whose noise constant 1/(2 sigma2) overflows
    ("verify", {"suite": "assumptions", "sigma2": 1e-320}),
    # the gronwall pairs are integrated as one batch, held at once
    ("verify", {"suite": "gronwall", "beta": 2.0, "trials": hypotheses.MAX_TRIALS + 1}),
    # a cover constant whose C_cvr m overflows, or whose floor ratio 1/(m r_floor^d) does
    ("verify", {"suite": "assumptions", "d": 2, "K_grid": 6, "C_cvr": 1e308}),
    ("verify", {"suite": "assumptions", "d": 2, "K_grid": 6, "C_cvr": 1e-320}),
    # counts that size arrays: refused before any allocation
    ("verify", {"suite": "coincidence", "beta": 1.5, "n_points": geometry.MAX_LATTICE + 1}),
    ("rates", {"beta": 2.0, "n": {"start": 1e3, "stop": 1e6,
                                  "num": geometry.MAX_LATTICE + 1}}),
    # a tolerance that is not positive made a check that cannot pass (exit 1, or 0 at 0 <= 0)
    ("verify", {"suite": "coincidence", "beta": 1.5, "tol": 0}),
    ("verify", {"suite": "coincidence", "beta": 1.5, "tol": -1}),
    # positions of order 1e20 round in steps of 1.3e5: a correct pair read 9216 against 1e-9
    ("verify", {"suite": "coincidence", "beta": 2, "delta_t": 1e20}),
    ("verify", {"suite": "tube-cover", "beta": 2.0, "tol_agree": 0}),
    ("verify", {"suite": "tube-cover", "beta": 2.0, "tol_agree": -1}),
    ("verify", {"suite": "symmetry", "beta": 2.0, "tol_net": 0}),
    # an empty n wrote a table with no rows, and a nested one was flattened
    ("rates", {"beta": 2.0, "n": []}),
    ("rates", {"beta": 2.0, "n": [[10, 20]]}),
    # the certification box [0.5 - r, 0.5 + r] collapsed into a traceback
    ("verify", {"suite": "smoothness", "beta": 2.0, "r": 1e-300}),
    # counts far past their caps raised, allocated gigabytes or ran on without end
    ("construct", {"construction": "stubble-det", "beta": 2.5, "d": 1e300}),
    ("verify", {"suite": "tube-cover", "beta": 2.0, "d": 1e300}),
    ("verify", {"suite": "smoothness", "beta": 2.0, "d": 1e300}),
    ("construct", {"construction": "spiral", "K": 1e300}),
    ("verify", {"suite": "spiral", "K": 1e300}),
    ("verify", {"suite": "assumptions", "d": 1e300}),
    ("verify", {"suite": "assumptions", "n_per": 1e300}),
    ("verify", {"suite": "assumptions", "K_grid": 1, "n_per": 10**5}),
    ("experiment", {"kl": 0.5, "trials": 1e300}),
    # check_cover is quadratic in the starts: 316^2 would run for about ten minutes
    ("verify", {"suite": "assumptions", "d": 2, "K_grid": 316}),
])
def test_bad_values_are_config_errors(tmp_path, capsys, command, payload):
    cfg = _cfg(tmp_path, payload)
    assert _run([command, "--config", cfg, "--out", tmp_path / "o"]) == 2
    err = capsys.readouterr().err
    assert "odelab: config error" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command,payload", [
    ("construct", {"construction": "stubble-det", "beta": 2.5, "delta_t": 1e-300}),
    ("verify", {"suite": "coincidence", "beta": 1.5, "delta_t": 1e-300}),
    ("construct", {"construction": "stubble-det", "beta": 1.5, "delta_t": 1e-12}),
    ("construct", {"construction": "snake-det", "beta": 2.0, "x0": [0.5, 1e12]}),
    ("verify", {"suite": "tube-cover", "beta": 2.0, "x0": [0.5, 1e12]}),
    ("construct", {"construction": "snake-det", "beta": 2.0, "x0": [1e300, 0.5]}),
    ("verify", {"suite": "tube-cover", "beta": 2.0, "x0": [1e300, 0.5]}),
    ("construct", {"construction": "stubble-det", "beta": 1.5, "delta_t": 1e300}),
    ("verify", {"suite": "coincidence", "beta": 1.5, "L": [1e300, 1e300]}),
])
def test_underflowing_period_is_a_construction_error(tmp_path, capsys, command, payload):
    # periods and lattice pitches this short leave the phase at x0 no digits (and at
    # 1e-300 r^beta = 0); at 1e12 the snake lattices clashed, at 1e300 the field
    # overflowed; a stubble period near 1e300 overflows r^(beta+1)
    cfg = _cfg(tmp_path, payload)
    assert _run([command, "--config", cfg, "--out", tmp_path / "o"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("odelab: construction error: ")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("L_beta", [1e-300, 1e-320])
def test_tiny_holder_constant_ends_quietly(tmp_path, capsys, L_beta):
    # the stubble-det amplitude search ends on a subnormal bracket too; the largest
    # fitting pair is so faint that f1 rounds to f0, so both commands refuse it
    cfg = _cfg(tmp_path, {"construction": "stubble-det", "beta": 2.5, "L_beta": L_beta})
    assert _run(["construct", "--config", cfg, "--out", tmp_path / "c"]) == 2
    cfg = _cfg(tmp_path, {"suite": "coincidence", "beta": 1.5, "L_beta": L_beta}, "v.json")
    assert _run(["verify", "--config", cfg, "--out", tmp_path / "v"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2
    assert all(line.startswith("odelab: construction error: no perturbation amplitude")
               for line in err)
    assert os.listdir(tmp_path / "c") == [] and os.listdir(tmp_path / "v") == []


@pytest.mark.parametrize("command,payload", [
    ("verify", {"suite": "tube-cover", "beta": 2.0, "delta": 1e-9}),
    ("construct", {"construction": "snake-det", "beta": 2.0, "delta": 1e-9}),
])
def test_tiny_delta_is_a_construction_error(tmp_path, capsys, command, payload):
    # the lattice would hold about 7e8 starts; it is sized and refused first
    cfg = _cfg(tmp_path, payload)
    assert _run([command, "--config", cfg, "--out", tmp_path / "o"]) == 2
    err = capsys.readouterr().err
    assert "odelab: construction error: delta 1e-09 needs 707106785 lattice points" in err
    assert f"above the limit {geometry.MAX_LATTICE}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("payload,error", [
    ({"suite": "tube-cover", "beta": 2.0, "d": 7, "delta": 0.05}, "construction error: delta"),
    ({"suite": "tube-cover", "beta": 2.0, "d": 12, "delta": 0.05}, "construction error: delta"),
    ({"suite": "assumptions", "d": 40}, "config error: K_grid^d = 6^40 starts"),
])
def test_oversized_dimension_exits_two(tmp_path, capsys, payload, error):
    # the tube-cover lattice of (1/delta)^(d-1) starts and 6^40 starts are refused
    # before the grid is built
    cfg = _cfg(tmp_path, payload)
    assert _run(["verify", "--config", cfg, "--out", tmp_path / "o"]) == 2
    err = capsys.readouterr().err
    assert f"odelab: {error}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("suite,d,code", [
    ("smoothness", 2, 0), ("smoothness", 3, 0), ("smoothness", 7, 0), ("smoothness", 12, 1),
    ("symmetry", 12, 0),
])
def test_verify_calibrates_at_every_dimension(tmp_path, suite, d, code):
    # the shapes calibrate from their jets at any d; at d = 12 no point of the sampling
    # mesh lies in the bump's support, so bump-membership fails on its sup |f| of 0
    cfg = _cfg(tmp_path, {"suite": suite, "beta": 2.0, "d": d})
    assert _run(["verify", "--config", cfg, "--out", tmp_path / "o"]) == code
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    failed = [c for c in report["checks"] if not c["passed"]]
    assert [c["name"] for c in failed] == (["bump-membership"] if code else [])
    assert all(c["measured"][0] == 0.0 for c in failed)


@pytest.mark.parametrize("suite,L_beta", [
    ("coincidence", 3000.0), ("symmetry", 50.0), ("gronwall", 50.0)])
def test_config_class_constants_reach_the_suite(tmp_path, suite, L_beta):
    # a config L_beta changes what the suite measures or the limit it checks against
    default = _report_checks(tmp_path, {"suite": suite, "beta": 1.5}, 3)
    tight = _report_checks(tmp_path, {"suite": suite, "beta": 1.5, "L_beta": L_beta}, 3)
    assert [c["name"] for c in tight] == [c["name"] for c in default]
    values = lambda checks: [(c.get("measured"), c.get("limit")) for c in checks]
    assert values(tight) != values(default)


@pytest.mark.parametrize("suite", ["symmetry", "gronwall"])
def test_radius_below_rounding_integrates(tmp_path, capsys, suite):
    # at r = 1e-300 the envelope psi(r) underflows to 0 and the gronwall start
    # offsets vanish next to 0.5, so every check would pass as 0 <= 0
    cfg = _cfg(tmp_path, {"suite": suite, "beta": 2.0, "r": 1e-300})
    assert _run(["verify", "--config", cfg, "--out", tmp_path / "o"]) == 2
    err = capsys.readouterr().err
    assert "odelab: config error: field 'r'" in err
    assert "Traceback" not in err


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        cli.main(["transmogrify"])
    assert exc.value.code == 2


@pytest.mark.parametrize("payload", [
    {"suite": "spiral", "K": 1},
    {"suite": "gronwall", "beta": 2.0, "trials": 1},
])
def test_negative_seed_is_config_error(tmp_path, capsys, payload):
    # numpy's default_rng refuses it; main returns 2 with one line, no traceback
    cfg = _cfg(tmp_path, payload)
    assert _run(["verify", "--config", cfg, "--out", tmp_path / "o", "--seed", -1]) == 2
    assert capsys.readouterr().err == "odelab: config error: --seed must be >= 0, got -1\n"


def test_out_naming_a_file_is_config_error(tmp_path, capsys):
    cfg = _cfg(tmp_path, {"kl": 0.5, "trials": 10})
    assert _run(["experiment", "--config", cfg, "--out", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("odelab: config error: cannot create output directory: ")
    assert err.count("\n") == 1


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


def test_failing_check_names_itself(tmp_path):
    # at tol 1e-17 the grid coincidence (off by one ulp) fails on its own
    cfg = _cfg(tmp_path, {"suite": "coincidence", "beta": 2.0, "tol": 1e-17})
    out = tmp_path / "out"
    assert _run(["verify", "--config", cfg, "--out", out, "--seed", 12]) == 1
    report = json.loads((out / "report.json").read_text())
    jsonschema.validate(report, SCHEMA)
    assert report["passed"] is False
    verdicts = {c["name"]: c["passed"] for c in report["checks"]}
    assert verdicts == {"grid-coincidence": False, "separation-floor": True,
                        "separation-attained": True, "membership": True}
    assert report["checks"][0]["measured"] == 2.220446049250313e-16


def _report_checks(tmp_path, payload, seed):
    out = tmp_path / payload["suite"]
    assert _run(["verify", "--config", _cfg(tmp_path, payload), "--out", out,
                 "--seed", seed]) == 0
    return json.loads((out / "report.json").read_text())["checks"]


def _as_dicts(records):
    # the report leaves out a record's None measured value or limit
    return [{k: v for k, v in {"name": name, "passed": bool(ok), "measured": measured,
                                "limit": limit}.items() if v is not None}
            for name, ok, measured, limit in records]


def test_verify_reports_the_library_records(tmp_path):
    beta, x0 = 1.5, np.array([0.5])
    pair = hypotheses.stubble_det_pair(beta, 1, *cli._demo_class(beta), 0.05, x0)
    xs = (x0[0] + np.random.default_rng(7).uniform(-1.0, 1.0, size=50))[:, None]
    assert _report_checks(tmp_path, {"suite": "coincidence", "beta": beta}, 7) == \
        _as_dicts(hypotheses.stubble_det_checks(pair, xs))

    beta, x0 = 2.0, np.array([0.5, 0.5])
    pair, initials, horizons = hypotheses.snake_det_pair(
        beta, 2, *cli._bump_class(beta), 0.1, x0)
    assert _report_checks(tmp_path, {"suite": "tube-cover", "beta": beta}, 7) == \
        _as_dicts(hypotheses.snake_det_checks(pair, initials, horizons))

    assert _report_checks(tmp_path, {"suite": "spiral", "K": 2}, 7) == \
        _as_dicts(hypotheses.spiral_verify(hypotheses.spiral_build(2), seed=7))

    family = hypotheses.stubble_prob_family(beta, 2, *cli._bump_class(beta))
    assert _report_checks(tmp_path, {"suite": "smoothness", "beta": beta}, 7) == \
        _as_dicts(hypotheses.stubble_prob_checks(family, family.rho_plus / 2.0))

    family = hypotheses.snake_prob_family(beta, 2, *cli._bump_class(beta))
    r = family.rho_plus / 2.0
    assert _report_checks(tmp_path, {"suite": "symmetry", "beta": beta}, 7) == \
        _as_dicts(hypotheses.snake_symmetry_checks(family, r))
    assert _report_checks(tmp_path, {"suite": "gronwall", "beta": beta}, 7) == \
        _as_dicts(hypotheses.snake_gronwall_checks(family, r, 4, 7))

    scheme = statmodel.build_stubble_scheme(6, 3, 0.1, statmodel.NoiseLaw(dim=2, covariance=1.0))
    assert _report_checks(tmp_path, {"suite": "assumptions"}, 7) == \
        _as_dicts(statmodel.scheme_checks(scheme))


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
    assert text == json.dumps(parsed, indent=2, sort_keys=True) + "\n"


def _jsonable(obj):
    """The converter the report writer applied before ``json.dump``, kept as the reference."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):  # before int: bool subclasses int
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


_FLOATS = st.one_of(st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, -0.0]))
_LEAVES = st.one_of(
    _FLOATS, _FLOATS.map(np.float64), st.floats(width=32).map(np.float32),
    st.integers(-2**63, 2**63 - 1).map(np.int64), st.booleans().map(np.bool_),
    st.integers(), st.booleans(), st.none(), st.text(max_size=3),
    hnp.arrays(st.sampled_from([np.float64, np.float32, np.int64, np.bool_]),
               hnp.array_shapes(min_dims=1, max_dims=3, max_side=3)),
)
_REPORTS = st.recursive(_LEAVES, lambda inner: st.one_of(
    st.lists(inner, max_size=3), st.lists(inner, max_size=3).map(tuple),
    st.dictionaries(st.text(max_size=3), inner, max_size=3)), max_leaves=12)


def test_write_json_is_bytewise_the_converted_dump(tmp_path):
    # json encodes Python and numpy float64 scalars itself, and ``tolist()`` turns the
    # other numpy values into what the converter made of them
    path = tmp_path / "report.json"

    @settings(max_examples=200, deadline=None)
    @given(_REPORTS)
    def check(obj):
        cli._write_json(str(path), obj)
        want = io.StringIO()
        json.dump(_jsonable(obj), want, sort_keys=True, indent=2)
        assert path.read_text() == want.getvalue() + "\n"

    check()


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


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.floats(2.0, 1e15), st.floats(2.0, 1e15), st.integers(1, 500))
def test_rates_grid_rounds_to_numpys_geomspace(start, stop, num):
    # the {start, stop, num} grid is computed with libm, its n values numpy's integers
    # (perfbench/checks.py asserts the same), for either order of the ends
    want = np.round(np.geomspace(start, stop, num)).tolist()
    assert [round(v) for v in cli._geomspace(start, stop, num)] == want


def test_rates_grid_near_a_half_integer_is_numpys():
    # libm's pow puts the middle value at ...522.6; numpy's AVX-512 power reads ...522.5,
    # which rounds to even.  The value lies within the guard, so the grid is numpy's own
    start, stop = 390529891136853.0, 1e15
    want = np.round(np.geomspace(start, stop, 3)).tolist()
    assert [round(v) for v in cli._geomspace(start, stop, 3)] == want


_RATE_GAPS = {"balance-gap": ("stubble-nice-prob-term", "stubble-nice-det-term"),
              "snake-vs-onlyn-gap": ("snake-combined-nice", "stubble-onlyn")}


@pytest.mark.parametrize("payload", [
    {"beta": 2.0, "d": 2, "n": {"start": 1e3, "stop": 1e8, "num": 40}},
    {"beta": 1.5, "d": 3, "s": 0.5, "n": [2, 10, 1000, 12345]},
    {"beta": 3.7, "d": 1},
])
def test_rates_table_reads_the_catalogue(tmp_path, payload):
    # every catalogue column is rate_eval of its id at the balancing-step spec, and each
    # gap column the difference of its two columns, bit for bit as written
    out = tmp_path / "out"
    assert _run(["rates", "--config", _cfg(tmp_path, payload), "--out", out]) == 0
    lines = (out / "rates.csv").read_text().splitlines()
    header = lines[1].split(",")
    assert header[0] == "n" and set(header[1:]) - set(rates.RATE_IDS) == set(_RATE_GAPS)
    for line in lines[2:]:
        row = dict(zip(header, line.split(",")))
        spec = rates.RateSpec(beta=payload["beta"], d=payload.get("d", 2), n=int(row["n"]),
                                  s=payload.get("s", 0.0))
        spec = dataclasses.replace(spec, step=rates.rate_eval(spec, "stubble-balancing-step"))
        for column in header[1:]:
            if column in _RATE_GAPS:
                a, b = _RATE_GAPS[column]
                assert row[column] == repr(abs(float(row[a]) - float(row[b])))
            else:
                assert row[column] == repr(rates.rate_eval(spec, column))


@pytest.mark.parametrize("beta,s", [(2.0, 2.0), (2.0, 3.0), (2.0, -0.1), (3.7, 3.7)],
                         ids=["s-is-beta", "s-3-beta-2", "s-negative", "s-is-beta-3.7"])
def test_rates_rejects_s_outside_0_beta(tmp_path, capsys, beta, s):
    # the regression rate n^(-(beta-s)/(2beta+d)) decays only for s < beta; s >= 0 is a norm order
    out = tmp_path / "out"
    assert _run(["rates", "--config", _cfg(tmp_path, {"beta": beta, "s": s}), "--out", out]) == 2
    err = capsys.readouterr().err
    assert f"odelab: config error: field 's' must satisfy 0 <= s < beta = {beta}, got {s}" in err
    assert "Traceback" not in err
    assert not (out / "rates.csv").exists()


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
