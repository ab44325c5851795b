"""Every public entry that takes numbers from outside refuses text, a
boolean and NaN with a ``ConfigurationError`` that names the field, and
every integer field refuses anything but an integer in its range."""

import dataclasses
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddls.cli import build_parser, cmd_rates
from ddls.codec import (ArrivalTimeCode, FeedbackRateParams, Quantizer, decode_arrival_time,
                        design_codebook_min_distortion, design_codebook_min_q,
                        encode_arrival_time, feedback_rate_bound, fit_codebook,
                        queue_arrival_rates, uplink_rate_cems, uplink_rate_hems)
from ddls.core import (ArrivalEvent, ChargeCode, RawRequest, charge_code_from_entry, square_pulse,
                       synthesize_load)
from ddls.errors import ConfigurationError
from ddls.feedback import ThresholdMessage, decode_and_admit, encode_thresholds, threshold_messages
from ddls.market import stage_cost
from ddls.queues import DelayPrices, QueueLedger, dci
from ddls.scheduler import (HorizonInputs, RecedingHorizonScheduler, build_gamma,
                            certainty_equivalent_arrivals)
from ddls.simkit import (RunMetrics, default_price_curve, generate_arrival_counts, load_scenario,
                         save_scenario)

CODE = ChargeCode(1, (1.0,))
DESK_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "desk_day.json"
DESK = load_scenario(DESK_CONFIG)
SAMPLES = [RawRequest((2.0, 3.0)), RawRequest((1.0, 1.0))]


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


def metrics(**field):
    kwargs = dict(strategy="ddls", seed=0, total_cost=1.0, deviation_cost=1.0, delay_cost=0.0,
                  mean_delay_epochs=0.0, peak_kw=1.0, served=0)
    return RunMetrics(**{**kwargs, **field})


def admit(already_admitted):
    return decode_and_admit([(0, 0), (1, 0)], ThresholdMessage(1, [1], [0]), already_admitted)


def rates(window):
    command = build_parser().parse_args(["rates", "--config", str(DESK_CONFIG)])
    command.window = window
    return cmd_rates(command)


# (field named in the error, call taking one bad value; vector fields get a list of it)
ENTRIES = {
    "scheduler-supply": ("zic_kw", lambda bad: bank(zic_kw=[bad] * 6)),
    "scheduler-price-up": ("price_up", lambda bad: bank(price_up=bad)),
    "scheduler-price-dn": ("price_dn", lambda bad: bank(price_dn=bad)),
    "scheduler-delay-prices": ("delay_prices", lambda bad: bank(delay_prices=[bad])),
    "scheduler-rates": ("arrival_rates", lambda bad: bank(arrival_rates=[bad])),
    "scheduler-cap": ("capacity_cap", lambda bad: bank(capacity_cap=bad)),
    "window-rates": ("forecast_rates", lambda bad: window(forecast_rates=[bad])),
    "window-known-future": ("known_future",
                            lambda bad: window(t1=2, known_future=[[bad] * 3])),
    "price-slope": ("slope", lambda bad: default_price_curve(DESK, bad)),
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
    "codebook-hems-cap": ("hems_cap", lambda bad: design_codebook_min_distortion(
        SAMPLES, bad, 100.0, 1.0, 900.0, 4)),
    "codebook-cems-cap": ("cems_cap", lambda bad: design_codebook_min_distortion(
        SAMPLES, 100.0, bad, 1.0, 900.0, 4)),
    "admitted-indices": ("already_admitted", lambda bad: admit(already_admitted={bad})),
    "feedback-interval": ("interval_s", lambda bad: feedback_rate_bound(
        FeedbackRateParams([0.5], [1.0]), bad)),
    "feedback-variance": ("delay_variance", lambda bad: FeedbackRateParams([0.5], [bad])),
    "total-rate": ("total_rate", lambda bad: queue_arrival_rates(
        bad, Quantizer((CODE,)), masses=[1.0])),
    "masses": ("masses", lambda bad: queue_arrival_rates(1.0, Quantizer((CODE,)), masses=[bad])),
    "charge-code": ("pulse", lambda bad: ChargeCode(1, (bad,))),
    "charge-code-id": ("code id", lambda bad: ChargeCode(bad, (1.0,))),
    "arrival-epoch": ("arrival_epoch", lambda bad: ArrivalEvent(bad, RawRequest((1.0, 1.0)))),
    "run-total-cost": ("total_cost", lambda bad: metrics(total_cost=bad)),
    "run-deviation-cost": ("deviation_cost", lambda bad: metrics(deviation_cost=bad)),
    "run-delay-cost": ("delay_cost", lambda bad: metrics(delay_cost=bad)),
    "run-mean-delay": ("mean_delay_epochs", lambda bad: metrics(mean_delay_epochs=bad)),
    "run-peak": ("peak_kw", lambda bad: metrics(peak_kw=bad)),
}


@pytest.mark.parametrize("bad", ["abc", True, math.nan], ids=["text", "boolean", "nan"])
@pytest.mark.parametrize("entry", ENTRIES)
def test_a_bad_number_is_refused_by_field(entry, bad):
    field, call = ENTRIES[entry]
    with pytest.raises(ConfigurationError, match=field):
        call(bad)


@pytest.mark.parametrize("field, call", [
    ("delay_prices", lambda: DelayPrices([0.1, True])),
    ("counts", lambda: QueueLedger(2).record_arrivals(0, [2, True])),
    ("known_arrivals", lambda: bank(known_arrivals=[[1, 0, np.True_, 0, 0, 0]])),
    ("known_future", lambda: window(t1=2, known_future=[[0, -5, 0]])),
    ("known_future", lambda: window(t1=2, known_future="abc")),
    ("known future", lambda: window(t1=2)),
    ("slope", lambda: default_price_curve(DESK, -1.0)),
], ids=["vector-stray-boolean", "counts-stray-boolean", "table-stray-boolean",
        "known-future-negative", "known-future-text", "known-future-missing", "slope-negative"])
def test_a_stray_boolean_a_negative_or_a_missing_input_is_refused_by_field(field, call):
    with pytest.raises(ConfigurationError, match=field):
        call()


# every constructor that takes a codebook, and codebooks each must refuse
CODEBOOK_TAKERS = {
    "scenario": lambda codes: dataclasses.replace(DESK, codebook=codes),
    "scheduler": lambda codes: bank(codebook=codes),
    "window": lambda codes: window(codebook=codes),
    "gamma": lambda codes: build_gamma(codes, 2),
    "quantizer": Quantizer,
}
BAD_CODEBOOKS = {
    "empty": (),
    "ids-2-1": (ChargeCode(2, (1.0,)), CODE),
    "ids-1-1": (CODE, CODE),
    "ids-11-18": tuple(ChargeCode(i, (1.0,)) for i in range(11, 19)),
    "dict": ({"id": 1, "rate_kw": 1.0, "duration_epochs": 1},),
    "tuple": ((1, (1.0,)),),
    "not-a-list": None,
}


@pytest.mark.parametrize("codes", BAD_CODEBOOKS)
@pytest.mark.parametrize("taker", CODEBOOK_TAKERS)
def test_a_codebook_that_is_not_codes_with_ids_one_to_q_is_refused(taker, codes):
    with pytest.raises(ConfigurationError, match="codebook"):
        CODEBOOK_TAKERS[taker](BAD_CODEBOOKS[codes])


def test_saving_a_pulse_that_is_not_constant_is_refused_by_its_code(tmp_path):
    config = dataclasses.replace(DESK, codebook=(ChargeCode(1, (2.0, 1.0)), *DESK.codebook[1:]))
    with pytest.raises(ConfigurationError, match="code 1 is not a constant-rate pulse"):
        save_scenario(config, tmp_path / "scenario.json")
    assert not (tmp_path / "scenario.json").exists()


def test_an_admitted_index_must_be_whole_and_one_outside_the_log_is_ignored():
    with pytest.raises(ConfigurationError, match="already_admitted"):
        admit({0, 1.5})
    assert admit({-1, 2.0, 7}) == {0, 1}


# every integer field: (field named in the error, its range, call taking one value); None
# is no bound, and OPTIONAL fields also take None
INTEGERS = {
    # core
    "charge-code-id": ("code id", (1, None), lambda v: ChargeCode(v, (1.0,))),
    "arrival-epoch": ("arrival_epoch", (0, None),
                      lambda v: ArrivalEvent(v, RawRequest((1.0, 1.0)))),
    "square-pulse": ("duration_epochs", (1, None), lambda v: square_pulse(1.0, v)),
    "codebook-entry-id": ("id", (1, 1), lambda v: charge_code_from_entry(
        {"id": v, "rate_kw": 1.0, "duration_epochs": 1}, 1)),
    "codebook-entry-duration": ("duration_epochs", (1, None), lambda v: charge_code_from_entry(
        {"rate_kw": 1.0, "duration_epochs": v}, 1)),
    "synthesize-horizon": ("horizon", (0, None), lambda v: synthesize_load([[1]], [CODE], v)),
    "synthesize-start-lag": ("start_lag", (0, 1),
                             lambda v: synthesize_load([[1]], [CODE], 3, start_lag=v)),
    # simkit
    **{f"scenario-{name}": (name, (low, high), lambda v, name=name: dataclasses.replace(
        DESK, **{name: v})) for name, low, high in (
            ("seed", 0, None), ("horizon_epochs", 1, None), ("lookahead", 1, None),
            ("deadline_epochs", 1, None), ("n_schedulers", 1, None), ("start_lag", 0, 1))},
    "arrival-counts-horizon": ("horizon", (0, None),
                               lambda v: generate_arrival_counts([1.0], v, 0)),
    "arrival-counts-seed": ("seed", (0, None), lambda v: generate_arrival_counts([1.0], 4, v)),
    "run-served": ("served", (0, None), lambda v: metrics(served=v)),
    # scheduler
    "scheduler-lookahead": ("lookahead", (1, None), lambda v: bank(lookahead=v)),
    "scheduler-n-schedulers": ("n_schedulers", (1, None), lambda v: bank(n_schedulers=v)),
    "scheduler-start-lag": ("start_lag", (0, 1), lambda v: bank(start_lag=v)),
    "scheduler-deadline": ("deadline_epochs", (1, None), lambda v: bank(deadline_epochs=v)),
    # the field alone, "i", would match any message
    "scheduler-index": ("i must be", (0, 1), lambda v: bank(n_schedulers=2).horizon_inputs(v)),
    "window-start-epoch": ("start_epoch", (0, None), lambda v: window(start_epoch=v)),
    "window-lookahead": ("lookahead", (1, None), lambda v: window(lookahead=v)),
    "window-deadline": ("deadline_epochs", (1, None), lambda v: window(deadline_epochs=v)),
    "window-t1": ("t1", (0, 2), lambda v: window(t1=v)),
    "window-start-lag": ("start_lag", (0, 1), lambda v: window(start_lag=v)),
    "forecast-start-epoch": ("start_epoch", (0, None),
                             lambda v: certainty_equivalent_arrivals([[1]], None, v, 2)),
    "forecast-lookahead": ("lookahead", (0, None),
                           lambda v: certainty_equivalent_arrivals([[1]], None, 0, v)),
    "forecast-t1": ("t1", (0, None), lambda v: certainty_equivalent_arrivals(
        [[1]], None, 0, 2, t1=v, known_future=[[0, 0, 0]])),
    "forecast-t2": ("t2", (0, None), lambda v: certainty_equivalent_arrivals(
        [[1]], None, 0, 2, t2=v)),
    "gamma-lookahead": ("lookahead", (1, None), lambda v: build_gamma([CODE], v)),
    "gamma-start-lag": ("start_lag", (0, 1), lambda v: build_gamma([CODE], 2, v)),
    # queues
    "ledger-queues": ("n_queues", (1, None), lambda v: QueueLedger(v)),
    "ledger-arrivals-epoch": ("epoch", (0, None),
                              lambda v: QueueLedger(2).record_arrivals(v, [1, 1])),
    "ledger-departures-epoch": ("epoch", (0, None),
                                lambda v: ledger().apply_departures(v, [0, 0])),
    "ledger-column-epoch": ("epoch", (None, None), lambda v: ledger().cumulative_arrivals(v)),
    "ledger-history-epoch": ("epoch", (-1, None), lambda v: ledger().arrival_history(v)),
    "ledger-increments-start": ("start", (0, None), lambda v: ledger().arrival_increments(v, 2)),
    "ledger-increments-stop": ("stop", (0, None), lambda v: ledger().departure_increments(0, v)),
    "dci-from-epoch": ("from_epoch", (None, None),
                       lambda v: dci(ledger(), v, 2, DelayPrices([0.1, 0.1]))),
    "dci-horizon": ("horizon", (0, None), lambda v: dci(ledger(), 0, v, DelayPrices([0.1, 0.1]))),
    # feedback
    "message-epoch": ("epoch", (0, None), lambda v: ThresholdMessage(v, [None], [0])),
    "message-cutoff": ("cutoff", (0, 4), lambda v: ThresholdMessage(4, [v], [0])),
    "message-spill": ("spill", (0, None), lambda v: ThresholdMessage(4, [None], [v])),
    "encode-thresholds-epoch": ("epoch", (0, None),
                                lambda v: encode_thresholds(ledger(), [1, 1], v)),
    "threshold-messages": ("epochs", (0, None), lambda v: threshold_messages(ledger(), v)),
    # codec
    "arrival-time-window": ("window_size", (1, None), lambda v: ArrivalTimeCode(0, v)),
    "arrival-time-residue": ("residue", (0, 3), lambda v: ArrivalTimeCode(v, 4)),
    "encode-arrival-epoch": ("arrival_epoch", (0, None), lambda v: encode_arrival_time(v, 4)),
    "encode-arrival-window": ("window", (1, None), lambda v: encode_arrival_time(3, v)),
    "decode-arrival": ("notification_epoch", (0, None),
                       lambda v: decode_arrival_time(ArrivalTimeCode(1, 4), v)),
    "fit-codebook-codes": ("n_codes", (1, None), lambda v: fit_codebook(SAMPLES, v)),
    "fit-codebook-duration": ("max_duration", (1, None),
                              lambda v: fit_codebook(SAMPLES, 1, max_duration=v)),
    "fit-codebook-iterations": ("n_iter", (0, None), lambda v: fit_codebook(SAMPLES, 1, n_iter=v)),
    "codebook-min-q": ("q_max", (1, None),
                       lambda v: design_codebook_min_q(SAMPLES, 100.0, 1.0, q_max=v)),
    "codebook-min-distortion": ("q_max", (1, None), lambda v: design_codebook_min_distortion(
        SAMPLES, 100.0, 100.0, 1.0, 900.0, 4, q_max=v)),
    "hems-window": ("window", (1, None), lambda v: uplink_rate_hems(1.0, 900.0, v, 8)),
    "hems-codes": ("n_codes", (1, None), lambda v: uplink_rate_hems(1.0, 900.0, 16, v)),
    "cems-codes": ("n_codes", (0, None), lambda v: uplink_rate_cems(1.0, v)),
    # cli
    "rates-window": ("--window", (1, None), rates),
}
OPTIONAL = {"scheduler-deadline", "window-deadline", "forecast-t2", "fit-codebook-duration",
            "message-cutoff"}
# a value in range that the call takes, where its lowest value (or -3 without one) is not
VALID = {"scenario-horizon_epochs": DESK.horizon_epochs, "scenario-lookahead": DESK.lookahead,
         "scenario-deadline_epochs": DESK.deadline_epochs, "window-lookahead": 2}


def _integer_cases():
    """(entry, value) rows: a fraction, a whole float, a boolean, text, and
    below the field's range a negative and the value just below it."""
    for entry, (_, (low, _), _) in INTEGERS.items():
        bad = {"fraction": 1.5, "whole-float": 2.0, "boolean": True, "text": "3"}
        if low is not None:
            bad["negative"] = min(low - 1, -1)
        if low is not None and low >= 1:
            bad["below-low"] = low - 1
        for label, value in bad.items():
            yield pytest.param(entry, value, id=f"{label}-{entry}")


@pytest.mark.parametrize("entry, bad", _integer_cases())
def test_an_integer_field_refuses_a_float_or_a_negative(entry, bad):
    field, _, call = INTEGERS[entry]
    with pytest.raises(ConfigurationError, match=re.escape(field)):
        call(bad)


@pytest.mark.parametrize("entry", INTEGERS)
def test_an_integer_field_takes_a_numpy_integer_in_range(entry):
    _, (low, _), call = INTEGERS[entry]
    call(np.int64(VALID.get(entry, -3 if low is None else low)))


def _not_integers(entry):
    """Values that entry's field must refuse: floats, booleans, text, None
    (unless the field is optional) and integers outside its range."""
    low, high = INTEGERS[entry][1]
    return st.one_of(
        st.floats(), st.booleans(), st.text(max_size=4),
        st.nothing() if entry in OPTIONAL else st.none(),
        st.nothing() if low is None else st.integers(max_value=low - 1),
        st.nothing() if high is None else st.integers(min_value=high + 1))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_an_integer_field_refuses_every_other_value_and_only_by_its_name(data):
    entry = data.draw(st.sampled_from(sorted(INTEGERS)), label="entry")
    field, _, call = INTEGERS[entry]
    with pytest.raises(ConfigurationError, match=re.escape(field)):
        call(data.draw(_not_integers(entry), label="bad"))
