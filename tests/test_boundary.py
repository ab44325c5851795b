"""Every public entry that takes numbers from outside refuses text, a
boolean and NaN with a ``ConfigurationError`` that names the field."""

import math

import numpy as np
import pytest

from ddls.codec import (FeedbackRateParams, Quantizer, feedback_rate_bound, queue_arrival_rates,
                        uplink_rate_cems, uplink_rate_hems)
from ddls.core import ArrivalEvent, ChargeCode, RawRequest
from ddls.errors import ConfigurationError
from ddls.feedback import encode_thresholds
from ddls.market import stage_cost
from ddls.queues import DelayPrices, QueueLedger
from ddls.scheduler import HorizonInputs, RecedingHorizonScheduler
from ddls.simkit import generate_arrival_counts

CODE = ChargeCode(1, (1.0,))


def bank(**field):
    kwargs = dict(codebook=[CODE], zic_kw=np.ones(6), price_up=1.0, price_dn=0.5,
                  delay_prices=[0.1], lookahead=2, arrival_rates=[0.5])
    return RecedingHorizonScheduler(**{**kwargs, **field})


def window(**field):
    kwargs = dict(start_epoch=0, observed=[[1]], prior_departures=[0], zic_kw=np.ones(3),
                  price_up=np.ones(3), price_dn=np.ones(3), delay_prices=[0.1], codebook=[CODE],
                  lookahead=2, forecast_rates=[0.5])
    return HorizonInputs(**{**kwargs, **field})


def ledger():
    out = QueueLedger(2)
    out.record_arrivals(0, [3, 3])
    return out


# (field named in the error, call taking one bad value; vector fields get a list of it)
ENTRIES = {
    "scheduler-supply": ("zic_kw", lambda bad: bank(zic_kw=[bad] * 6)),
    "scheduler-price-up": ("price_up", lambda bad: bank(price_up=bad)),
    "scheduler-price-dn": ("price_dn", lambda bad: bank(price_dn=bad)),
    "scheduler-delay-prices": ("delay_prices", lambda bad: bank(delay_prices=[bad])),
    "scheduler-rates": ("arrival_rates", lambda bad: bank(arrival_rates=[bad])),
    "scheduler-cap": ("capacity_cap", lambda bad: bank(capacity_cap=bad)),
    "window-rates": ("forecast_rates", lambda bad: window(forecast_rates=[bad])),
    "delay-prices": ("delay_prices", lambda bad: DelayPrices([bad])),
    "record-arrivals": ("counts", lambda bad: QueueLedger(2).record_arrivals(0, [bad, bad])),
    "encode-thresholds": ("targets", lambda bad: encode_thresholds(ledger(), [bad, bad], 0)),
    "stage-cost": ("price_up", lambda bad: stage_cost(1.0, 0.0, bad, 1.0)),
    "arrival-rates": ("rates_per_hour", lambda bad: generate_arrival_counts([bad], 4, 0)),
    "arrival-interval": ("interval_s",
                         lambda bad: generate_arrival_counts([1.0], 4, 0, interval_s=bad)),
    "hems-arrivals": ("arrivals_per_interval", lambda bad: uplink_rate_hems(bad, 900.0, 16, 8)),
    "hems-interval": ("interval_s", lambda bad: uplink_rate_hems(1.0, bad, 16, 8)),
    "cems-arrivals": ("arrivals_per_interval", lambda bad: uplink_rate_cems(bad, 8)),
    "feedback-interval": ("interval_s", lambda bad: feedback_rate_bound(
        FeedbackRateParams([0.5], [1.0]), bad)),
    "feedback-variance": ("delay_variance", lambda bad: FeedbackRateParams([0.5], [bad])),
    "total-rate": ("total_rate", lambda bad: queue_arrival_rates(
        bad, Quantizer((CODE,)), masses=[1.0])),
    "masses": ("masses", lambda bad: queue_arrival_rates(1.0, Quantizer((CODE,)), masses=[bad])),
    "charge-code": ("pulse", lambda bad: ChargeCode(1, (bad,))),
    "charge-code-id": ("code id", lambda bad: ChargeCode(bad, (1.0,))),
    "arrival-epoch": ("arrival_epoch", lambda bad: ArrivalEvent(bad, RawRequest((1.0, 1.0)))),
}


@pytest.mark.parametrize("bad", ["abc", True, math.nan], ids=["text", "boolean", "nan"])
@pytest.mark.parametrize("entry", ENTRIES)
def test_a_bad_number_is_refused_by_field(entry, bad):
    field, call = ENTRIES[entry]
    with pytest.raises(ConfigurationError, match=field):
        call(bad)


@pytest.mark.parametrize("entry", ["charge-code-id", "arrival-epoch"])
@pytest.mark.parametrize("bad", [1.5, 2.0, -1], ids=["fraction", "whole-float", "negative"])
def test_an_integer_field_refuses_a_float_or_a_negative(entry, bad):
    field, call = ENTRIES[entry]
    with pytest.raises(ConfigurationError, match=field):
        call(bad)
