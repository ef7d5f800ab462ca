import time

import pytest

from wqsc.harness import RunConfig, run_monte_carlo

ATTACK_CONFIGS = (
    ("present", "ir-z"),
    ("present", "ir-x"),
    ("present", "cnot"),
    ("cao", "cao-ir-z"),
)


@pytest.fixture(scope="session")
def attack_mc_runs():
    """Seed-42, 1e5-round Monte Carlo for the four attacked configs.

    Shared between the acceptance suite (which asserts on the elapsed
    wall time) and the statistics tests, so the expensive runs happen
    once per session.
    """
    results = {}
    start = time.perf_counter()
    for scheme, attack in ATTACK_CONFIGS:
        config = RunConfig(scheme=scheme, attack=attack, rounds=100_000, master_seed=42)
        results[(scheme, attack)] = run_monte_carlo(config)
    elapsed = time.perf_counter() - start
    return results, elapsed
