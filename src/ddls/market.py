"""Real-time cost accounting against the supply profile.

The scheduler shapes the flexible load toward the zero-incremental-cost
profile P = B + R - L_base: day-ahead purchases plus forecast renewable
output, net of the inflexible base load.  Power drawn above P is bought
at the upward balancing price, power left under P is settled at the
downward price, and waiting appliances accrue per-epoch delay costs.
Scenarios carry P itself, one sample per epoch.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError


def stage_cost(flex_load: float, zic: float, price_up: float, price_dn: float,
               backlog=None, delay_prices=None) -> float:
    """One epoch's running cost.

    price_up * max(flex - zic, 0) + price_dn * max(zic - flex, 0), plus
    the backlog's delay charges when given.
    """
    if price_up < 0 or price_dn < 0:
        raise ConfigurationError("balancing prices must be >= 0")
    dev = float(flex_load) - float(zic)
    cost = price_up * max(dev, 0.0) + price_dn * max(-dev, 0.0)
    if backlog is not None:
        if delay_prices is None:
            raise ConfigurationError("backlog given without delay prices")
        backlog = np.asarray(backlog, dtype=float)
        rates = np.asarray(delay_prices, dtype=float)
        if backlog.shape != rates.shape:
            raise ConfigurationError(
                f"backlog shape {backlog.shape} != delay price shape {rates.shape}"
            )
        if (rates < 0).any():
            raise ConfigurationError("delay prices must be >= 0")
        cost += float(rates @ backlog)
    return cost
