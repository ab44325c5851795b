"""Real-time cost accounting against the supply profile.

The scheduler shapes the flexible load toward the zero-incremental-cost
profile P = B + R - L_base: day-ahead purchases plus forecast renewable
output, net of the inflexible base load.  Power drawn above P is bought
at the upward balancing price and power left under P is settled at the
downward price.  Scenarios carry P itself, one sample per epoch.
"""

from __future__ import annotations

import numpy as np

from .core import checked_numbers


def stage_cost(flex_load, zic, price_up, price_dn):
    """The balancing charge, elementwise over scalars or arrays:
    price_up * max(flex - zic, 0) + price_dn * max(zic - flex, 0)."""
    price_up = checked_numbers(price_up, "price_up")
    price_dn = checked_numbers(price_dn, "price_dn")
    dev = checked_numbers(flex_load, "flex_load", low=None) - checked_numbers(zic, "zic", low=None)
    return price_up * np.maximum(dev, 0.0) + price_dn * np.maximum(-dev, 0.0)
