"""The rate catalogue: frozen values and the identities the formulas must keep."""

import dataclasses

import pytest

from odelab import rates

FULL_SPEC = rates.RateSpec(beta=2.0, d=2, n=4096, m=400, n_max=3,
                           T_max=0.3, T_sum=120.0, step=0.1, delta=0.1)

RATE_FROZEN = {
    "stubble-prob": 0.20998684164914555,
    "stubble-nice": 0.08425760507937047,
    "stubble-nice-sup": 0.3455865723197571,
    "stubble-nice-prob-term": 0.08415760507937046,
    "stubble-nice-det-term": 0.00010000000000000002,
    "stubble-onlyn": 0.015625,
    "stubble-onlyn-sup": 0.04506334020627759,
    "stubble-balancing-step": 0.3535533905932738,
    "snake-prob": 0.2326512147755249,
    "snake-combined": 0.05422658773652742,
    "snake-combined-nice": 0.015625,
    "regression": 0.06250000000000001,
    "regression-sup": 0.12663359018216844,
}


def test_rate_ids_complete():
    assert set(rates.RATE_IDS) == set(RATE_FROZEN)
    assert len(rates.RATE_IDS) == 13


@pytest.mark.parametrize("rid", sorted(RATE_FROZEN))
def test_rate_eval_frozen(rid):
    assert rates.rate_eval(FULL_SPEC, rid) == pytest.approx(
        RATE_FROZEN[rid], rel=1e-12
    )


def test_rate_onlyn_exact_power():
    # beta=2, d=2: exponent -2beta/(2(beta+1)+d) = -1/2, so 4096 -> 1/64
    assert rates.rate_eval(FULL_SPEC, "stubble-onlyn") == 0.015625


def test_snake_combined_nice_matches_stubble_onlyn_bitwise():
    a = rates.rate_eval(FULL_SPEC, "stubble-onlyn")
    b = rates.rate_eval(FULL_SPEC, "snake-combined-nice")
    assert a == b  # exact equality, not approx


def test_balancing_step_equalizes_terms():
    star = rates.rate_eval(FULL_SPEC, "stubble-balancing-step")
    balanced = dataclasses.replace(FULL_SPEC, step=star)
    p = rates.rate_eval(balanced, "stubble-nice-prob-term")
    q = rates.rate_eval(balanced, "stubble-nice-det-term")
    assert abs(p - q) <= 1e-12 * max(p, q)


def test_rate_eval_missing_field_names_it():
    thin = rates.RateSpec(beta=2.0, d=2)
    with pytest.raises(rates.MissingField) as exc:
        rates.rate_eval(thin, "stubble-onlyn")
    assert "n" in str(exc.value) and "stubble-onlyn" in str(exc.value)
    with pytest.raises(ValueError):
        rates.rate_eval(FULL_SPEC, "no-such-rate")
