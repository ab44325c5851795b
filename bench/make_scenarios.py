"""Derive the crowd and wide benchmark scenarios from the shipped desk day.

    python3 bench/make_scenarios.py

rewrites bench/scenarios/crowd.json and bench/scenarios/wide.json from
configs/desk_day.json.  The benchmark loads the committed files; its
self-tests check that they still equal this transform of the desk day.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DESK = ROOT / "configs" / "desk_day.json"
SCENARIOS = Path(__file__).resolve().parent / "scenarios"


def crowd(desk: dict) -> dict:
    """The desk day with 100x the arrivals and 100x the supply, split
    over two distributed schedulers: the same LPs, 100x the appliances."""
    out = copy.deepcopy(desk)
    out["arrival_rates_per_hour"] = [100 * rate for rate in desk["arrival_rates_per_hour"]]
    out["zic_kw"] = [100 * kw for kw in desk["zic_kw"]]
    out["n_schedulers"] = 2
    return out


def wide(desk: dict) -> dict:
    """Sixteen codes, a 64-epoch lookahead and a 48-epoch deadline: few,
    large window LPs.  Code i has rate 1 + (i-1) mod 2 kW and lasts
    1 + (i-1)//2 epochs; supply is the desk profile x3.6 so it keeps
    pace with demand.  One distributed scheduler, so the distributed
    runner solves the same windows as ddls."""
    out = copy.deepcopy(desk)
    q = 16
    out["codebook"] = [
        {"id": i, "rate_kw": float(1 + (i - 1) % 2), "duration_epochs": 1 + (i - 1) // 2}
        for i in range(1, q + 1)
    ]
    out["lookahead"] = 64
    out["deadline_epochs"] = 48
    out["arrival_rates_per_hour"] = [3.0] * q
    out["delay_prices"] = [0.01] * q
    out["zic_kw"] = [3.6 * kw for kw in desk["zic_kw"]]
    out["n_schedulers"] = 1
    return out


TRANSFORMS = {"crowd": crowd, "wide": wide}


def render(scenario: dict) -> str:
    return json.dumps(scenario, indent=2, sort_keys=True) + "\n"


def main() -> None:
    desk = json.loads(DESK.read_text())
    SCENARIOS.mkdir(exist_ok=True)
    for name, transform in TRANSFORMS.items():
        (SCENARIOS / f"{name}.json").write_text(render(transform(desk)))


if __name__ == "__main__":
    main()
