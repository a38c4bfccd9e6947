import math

import pytest

from ragtree.config import ConfigError, RunConfig


# (field, default, lowest accepted value, the next value out of bounds)
_BOUNDS = [
    ("rollouts", 4, 1, 0),
    ("max_depth", 5, 1, 0),
    ("max_subquestions", 2, 0, -1),
    ("k_completions", 4, 1, 0),
    ("top_k_docs", 10, 1, 0),
    ("c_uct", 1.414, 0.0, -math.ulp(0.0)),
    ("tau_prune", 0.25, 0.0, -math.ulp(0.0)),
    ("tau_prune", 0.25, 1.0, math.nextafter(1.0, 2.0)),
]


@pytest.mark.parametrize(
    "field, default, edge, outside",
    _BOUNDS,
    ids=[f"{field}-{edge}" for field, _, edge, _ in _BOUNDS],
)
def test_default_and_bound_edge(field, default, edge, outside):
    assert getattr(RunConfig(), field) == default
    RunConfig(**{field: edge}).validate()
    with pytest.raises(ConfigError, match=field):
        RunConfig(**{field: outside}).validate()
