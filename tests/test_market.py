import numpy as np
import pytest

from ddls.errors import ConfigurationError
from ddls.market import stage_cost

SEED = 271828


class TestStageCost:
    def test_upward_purchase(self):
        assert stage_cost(40.0, 30.0, 1.0, 1.0) == 10.0

    def test_on_profile_is_free(self):
        assert stage_cost(30.0, 30.0, 2.0, 3.0) == 0.0

    def test_backlog_charges(self):
        got = stage_cost(30.0, 30.0, 1.0, 1.0, backlog=[3, 0], delay_prices=[0.5, 1.0])
        assert got == 1.5

    def test_downward_settlement(self):
        assert stage_cost(10.0, 30.0, 1.0, 0.25) == 5.0

    def test_nonnegative_and_zero_only_when_flat(self):
        rng = np.random.default_rng(SEED + 1)
        for _ in range(200):
            flex, zic = rng.uniform(0, 50, size=2)
            cup, cdn = rng.uniform(0.01, 3.0, size=2)
            backlog = rng.integers(0, 4, size=3)
            rates = rng.uniform(0.01, 1.0, size=3)
            cost = stage_cost(flex, zic, cup, cdn, backlog=backlog, delay_prices=rates)
            assert cost >= 0.0
            if cost == 0.0:
                assert flex == zic and backlog.sum() == 0

    def test_negative_prices_rejected(self):
        with pytest.raises(ConfigurationError):
            stage_cost(1.0, 1.0, -0.1, 1.0)

    def test_backlog_without_prices_rejected(self):
        with pytest.raises(ConfigurationError):
            stage_cost(1.0, 1.0, 1.0, 1.0, backlog=[1])
