"""Tests for Algorithm 2 (DecreaseESComputation) — Example 2 numbers."""
import numpy as np
import pytest

from repro.core.decrease import decrease_es, decrease_es_exact
from repro.core.spread import exact_spread
from repro.graphs.toy import toy_local_graph

#: Example 2 / Example 1 exact spread decreases per blocked vertex.
EXACT_DELTAS = {
    2: 1.0,
    3: 1.0,
    4: 1.0,
    5: 4.66,
    6: 1.0,
    7: 0.06,
    8: 0.66,
    9: 1.11,
}


@pytest.fixture(scope="module")
def toy():
    return toy_local_graph()


def test_exact_deltas_match_example2(toy):
    delta = decrease_es_exact(toy)
    for orig, want in EXACT_DELTAS.items():
        assert delta[toy.to_local(orig)] == pytest.approx(want), f"v{orig}"


def test_exact_delta_equals_spread_difference(toy):
    """Theorem 4: Δ(u) = E({s},G) - E({s},G[V\\{u}]) for every u."""
    delta = decrease_es_exact(toy)
    base = exact_spread(toy)
    for orig in range(2, 10):
        blocked = np.zeros(toy.n, dtype=bool)
        blocked[toy.to_local(orig)] = True
        want = base - exact_spread(toy, blocked)
        assert delta[toy.to_local(orig)] == pytest.approx(want), f"v{orig}"


def test_seed_delta_is_total_spread(toy):
    delta = decrease_es_exact(toy)
    assert delta[toy.seed] == pytest.approx(7.66)


def test_sampled_deltas_converge(toy):
    delta = decrease_es(toy, theta=40_000, seed=1)
    for orig, want in EXACT_DELTAS.items():
        assert delta[toy.to_local(orig)] == pytest.approx(want, abs=0.06), f"v{orig}"


def test_sampled_deterministic(toy):
    a = decrease_es(toy, theta=300, seed=9)
    b = decrease_es(toy, theta=300, seed=9)
    np.testing.assert_array_equal(a, b)


def test_theta_guard(toy):
    with pytest.raises(ValueError):
        decrease_es(toy, theta=0)


def test_blocked_vertices_get_zero_delta(toy):
    blocked = np.zeros(toy.n, dtype=bool)
    blocked[toy.to_local(5)] = True
    delta = decrease_es(toy, theta=500, seed=2, blocked=blocked)
    assert delta[toy.to_local(5)] == 0
    # with v5 blocked only v2, v4 remain reachable; each Δ = 1
    assert delta[toy.to_local(2)] == pytest.approx(1.0)
    assert delta[toy.to_local(4)] == pytest.approx(1.0)
    assert delta[toy.to_local(9)] == 0


def test_distributed_matches_local(spark, toy):
    # θ=1 is fewer sample ids than Spark partitions: most tasks get none
    for theta in (600, 1):
        local = decrease_es(toy, theta=theta, seed=17)
        dist = decrease_es(toy, theta=theta, seed=17, spark=spark)
        np.testing.assert_array_equal(dist, local)


def test_distributed_with_blockers(spark, toy):
    blocked = np.zeros(toy.n, dtype=bool)
    blocked[toy.to_local(2)] = True
    local = decrease_es(toy, theta=400, seed=4, blocked=blocked)
    dist = decrease_es(toy, theta=400, seed=4, blocked=blocked, spark=spark)
    np.testing.assert_array_equal(dist, local)
