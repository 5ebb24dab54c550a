"""The config contract: every config exits 0, 1 or 2, and a refusal is one stderr line."""

import contextlib
import io
import json
import os
import re
import tempfile
import warnings

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from odelab import cli, geometry, hypotheses, statmodel

# the values each key is tried at: zero, negative, below and past the float scale, lists,
# nested lists, strings, booleans and null
VALUES = [0, -1, 1e-300, 1e300, [], [[1]], "x", True, None]
_ERROR = re.compile(r"odelab: (config|construction) error: ")


def _main(command, payload, output=None):
    """(exit code, stderr lines) of ``odelab command`` on ``payload``, run in-process, and
    the text of its ``output`` file when one is named."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "cfg.json")
        with open(cfg, "w") as fh:
            json.dump(payload, fh)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = cli.main([command, "--config", cfg, "--out", os.path.join(tmp, "o"),
                           "--seed", "7"])
        if output is None:
            return rc, err.getvalue().splitlines()
        with open(os.path.join(tmp, "o", output)) as fh:
            return rc, err.getvalue().splitlines(), fh.read()


# each command's base configs and the keys it reads; counts also take small values
_COUNTS = {"d", "K", "trials", "n_points", "K_grid", "n_per", "num"}
_CLASS = ["beta", "d", "L", "L_beta"]
_BASES = {
    "construct": [
        ({"construction": "stubble-det", "beta": 1.5}, ["construction", *_CLASS, "delta_t", "x0"]),
        ({"construction": "snake-det", "beta": 2.0, "delta": 0.3},
         ["construction", *_CLASS, "delta", "x0"]),
        ({"construction": "spiral", "K": 1}, ["construction", "K"]),
    ],
    "verify": [
        ({"suite": "coincidence", "beta": 1.5, "n_points": 2},
         ["suite", *_CLASS, "delta_t", "x0", "tol", "n_points"]),
        ({"suite": "tube-cover", "beta": 2.0, "delta": 0.3},
         ["suite", *_CLASS, "delta", "x0", "tol_agree"]),
        ({"suite": "spiral", "K": 1}, ["suite", "K"]),
        ({"suite": "smoothness", "beta": 2.0}, ["suite", *_CLASS, "r"]),
        ({"suite": "symmetry", "beta": 2.0}, ["suite", *_CLASS, "r", "tol_net"]),
        ({"suite": "gronwall", "beta": 2.0, "trials": 1}, ["suite", *_CLASS, "r", "trials"]),
        ({"suite": "assumptions", "K_grid": 2},
         ["suite", "d", "K_grid", "n_per", "delta_t", "sigma2", "C_cvr", "C_cvrtm"]),
    ],
    "rates": [({"beta": 2.0, "n": [100, 1000]}, ["beta", "d", "s", "n"]),
              ({"beta": 2.0, "n": {"num": 2}}, ["beta", "n.start", "n.stop", "n.num"])],
    "experiment": [({"kl": 0.5, "trials": 100}, ["kl", "trials"])],
}


@st.composite
def _configs(draw, command):
    """A base config of ``command``, some of its keys set from VALUES, and one unknown key."""
    base, keys = draw(st.sampled_from(_BASES[command]))
    payload = json.loads(json.dumps(base))
    for key in draw(st.lists(st.sampled_from(keys), max_size=3, unique=True)):
        name = key.rsplit(".", 1)[-1]
        pool = VALUES + [1, 2] if name in _COUNTS else VALUES
        (payload["n"] if key.startswith("n.") else payload)[name] = draw(st.sampled_from(pool))
    payload["unknown_key"] = draw(st.sampled_from(VALUES))
    return payload


@pytest.mark.parametrize("command", sorted(_BASES))
def test_every_config_exits_0_1_or_2(command):
    @settings(max_examples=40, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_configs(command))
    def check(payload):
        rc, err = _main(command, payload)
        assert rc in (0, 1, 2)
        errors = [line for line in err if line.startswith("odelab: ")]
        if rc == 2:
            assert len(errors) == 1 and _ERROR.match(errors[0]), err
        else:
            assert errors == [], err

    check()


# each cap alone at cap + 1, refused by name before anything is sized (test_cli takes
# n_points, gronwall trials and the rates grid's num)
_CAPS = [
    ("construct", {"construction": "stubble-det", "beta": 1.5}, "d", cli.MAX_DIM),
    ("construct", {"construction": "snake-det", "beta": 2.0}, "d", cli.MAX_DIM),
    ("construct", {"construction": "spiral"}, "K", hypotheses.MAX_PASSES),
    ("verify", {"suite": "coincidence", "beta": 1.5}, "d", cli.MAX_DIM),
    ("verify", {"suite": "tube-cover", "beta": 2.0}, "d", cli.MAX_DIM),
    ("verify", {"suite": "spiral"}, "K", hypotheses.MAX_PASSES),
    ("verify", {"suite": "smoothness", "beta": 2.0}, "d", cli.MAX_DIM),
    ("verify", {"suite": "symmetry", "beta": 2.0}, "d", cli.MAX_DIM),
    ("verify", {"suite": "gronwall", "beta": 2.0}, "d", cli.MAX_DIM),
    ("verify", {"suite": "assumptions"}, "d", cli.MAX_DIM),
    ("verify", {"suite": "assumptions", "d": 1}, "K_grid", geometry.MAX_LATTICE),
    ("verify", {"suite": "assumptions", "K_grid": 1}, "n_per", geometry.MAX_LATTICE),
    ("rates", {"beta": 2.0}, "d", cli.MAX_DIM),
    ("experiment", {"kl": 0.5}, "trials", statmodel.MAX_MC_TRIALS),
]


@pytest.mark.parametrize("command,base,key,cap", _CAPS,
                         ids=[f"{c}-{b.get('suite', b.get('construction', c))}-{k}"
                              for c, b, k, _ in _CAPS])
def test_each_count_cap_refuses_cap_plus_one(command, base, key, cap):
    assert _main(command, {**base, key: cap + 1}) == \
        (2, [f"odelab: config error: field '{key}' = {cap + 1} is above {cap}"])


def test_cover_time_window_cap():
    # check_cover_time holds its m n_per (n_per - 1) / 2 windows at once: the 36 default
    # starts at n_per = 236 give 998,280 windows, at 237 more than the cap
    assert _main("verify", {"suite": "assumptions", "n_per": 237}) == \
        (2, [f"odelab: config error: 36 starts observed n_per = 237 times give 1006776 "
             f"cover-time windows, above {statmodel.MAX_WINDOWS}"])


# the scalar reads of rates and experiment: each key's refusal of a boolean, an integer past
# the float range, a string and a nested list, then of 0 and -1 (None: the value is accepted)
_SCALAR_READS = [
    ("rates", "beta", "must be > 1, got 0.0", "must be > 1, got -1.0"),
    ("rates", "d", "must be a whole number >= 1, got 0.0",
     "must be a whole number >= 1, got -1.0"),
    ("rates", "s", None, "must satisfy 0 <= s < beta = 2.0, got -1.0"),
    ("rates", "n", "values must be >= 2, got 0", "values must be >= 2, got -1"),
    ("rates", "n.start", "must be > 0, got 0.0", "must be > 0, got -1.0"),
    ("rates", "n.stop", "must be > 0, got 0.0", "must be > 0, got -1.0"),
    ("rates", "n.num", "must be a whole number >= 1, got 0.0",
     "must be a whole number >= 1, got -1.0"),
    ("experiment", "kl", None, "must be >= 0, got -1.0"),
    ("experiment", "trials", "must be a whole number >= 1, got 0.0",
     "must be a whole number >= 1, got -1.0"),
]
_SCALAR_BASES = {"rates": {"beta": 2.0, "n": {"start": 1e3, "stop": 1e6, "num": 3}},
                 "experiment": {"kl": 0.5, "trials": 100}}
_SCALAR_CASES = [(command, key, value, error)
                 for command, key, at_zero, at_minus_one in _SCALAR_READS
                 for value, error in [
                     (True, "must be numeric and finite, got True"),
                     (10**400, f"must be numeric and finite, got {10**400!r}"),
                     ("x", "must be numeric and finite, got 'x'"),
                     ([[1]], "must be a number, a flat non-empty list or {start, stop, num}, "
                      "got [[1]]" if key == "n" else "must be a number, got [[1]]"),
                     (0, at_zero), (-1, at_minus_one)]]
_SCALAR_CASES.append(("rates", "n.num", 1e300, "= 1e+300 is above 100000"))


@pytest.mark.parametrize("command,key,value,error", _SCALAR_CASES,
                         ids=[f"{c}-{k}-{v!r:.12}" for c, k, v, _ in _SCALAR_CASES])
def test_scalar_reads_refuse_by_name(command, key, value, error):
    payload = json.loads(json.dumps(_SCALAR_BASES[command]))
    name = key.rsplit(".", 1)[-1]
    (payload["n"] if key.startswith("n.") else payload)[name] = value
    want = (0, []) if error is None else (2, [f"odelab: config error: field '{name}' {error}"])
    assert _main(command, payload) == want


@pytest.mark.parametrize("which", [["spiral"], None, 2])
def test_construction_that_is_not_a_string_is_unknown(which):
    # it was read as stubble-det and refused for its "missing field 'beta'"
    assert _main("construct", {"construction": which, "K": 2}) == \
        (2, [f"odelab: config error: unknown construction '{which}' "
             f"(use stubble-det|snake-det|spiral)"])


def test_rates_takes_a_single_n():
    rc, _, table = _main("rates", {"beta": 2.0, "n": 1000}, "rates.csv")
    assert rc == 0 and [line.split(",")[0] for line in table.splitlines()[2:]] == ["1000"]


def _refuse_constant(name):
    raise ValueError(f"{name} is not a JSON number")


def test_separation_floor_at_huge_constants_is_finite():
    # L0^(beta+1) overflowed in the floor, a traceback at exit 1; the floor
    # (2/3) L0 sup|K_per'| r^beta is finite and the amplitude below 1 fails it.
    # |f1 - f0| at x0, about 9e198, squared to inf in a norm: a RuntimeWarning on
    # stderr and "measured": Infinity
    payload = {"suite": "coincidence", "beta": 1.5, "L": [1e200, 1e200], "L_beta": 1e200,
               "delta_t": 1e-199}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, err, report = _main("verify", payload, "report.json")
    checks = {c["name"]: c for c in json.loads(report, parse_constant=_refuse_constant)["checks"]}
    assert rc == 1 and err == [] and not checks["separation-floor"]["passed"]
    assert 1e201 < checks["separation-floor"]["limit"] < 1e202
    assert checks["grid-coincidence"]["passed"] and checks["membership"]["passed"]
    attained = checks["separation-attained"]
    assert attained["passed"] and 8e198 < attained["limit"] <= attained["measured"] < 1e199
