"""Real-time cost accounting against the supply profile.

The scheduler shapes the flexible load toward the zero-incremental-cost
profile P = B + R - L_base: day-ahead purchases plus forecast renewable
output, net of the inflexible base load.  Power drawn above P is bought
at the upward balancing price and power left under P is settled at the
downward price.  Scenarios carry P itself, one sample per epoch.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError


def stage_cost(flex_load, zic, price_up, price_dn):
    """The balancing charge, elementwise over scalars or arrays:
    price_up * max(flex - zic, 0) + price_dn * max(zic - flex, 0)."""
    price_up = np.asarray(price_up, dtype=float)
    price_dn = np.asarray(price_dn, dtype=float)
    if (price_up < 0).any() or (price_dn < 0).any():
        raise ConfigurationError("balancing prices must be >= 0")
    dev = np.subtract(flex_load, zic, dtype=float)
    return price_up * np.maximum(dev, 0.0) + price_dn * np.maximum(-dev, 0.0)
