import sys

import numpy as np
import pytest

from dagdecode import GeneratorConfig, Instance, decoders, generate_instance

# Two fixed lattices used across the suite. The 2-position one admits a
# single path; the 4-position one has four paths whose products are easy
# to recompute by hand in the tests.

I2_TRANSITIONS = [[0.0, 1.0], [0.0, 0.0]]
I2_EMISSIONS = [[0.9, 0.1], [0.2, 0.8]]

I4_TRANSITIONS = [
    [0.0, 0.7, 0.2, 0.1],
    [0.0, 0.0, 0.6, 0.4],
    [0.0, 0.0, 0.0, 1.0],
    [0.0, 0.0, 0.0, 0.0],
]
I4_EMISSIONS = [[0.9, 0.1], [0.4, 0.6], [0.8, 0.2], [0.3, 0.7]]


@pytest.fixture
def i2() -> Instance:
    return Instance.from_probs(I2_TRANSITIONS, I2_EMISSIONS)


@pytest.fixture
def i4() -> Instance:
    return Instance.from_probs(I4_TRANSITIONS, I4_EMISSIONS)


@pytest.fixture
def table_builds(monkeypatch) -> list:
    """Modes of every build_viterbi_table call, whichever module binding made it."""
    original = decoders.build_viterbi_table
    builds = []

    def counting(instance, mode):
        builds.append(mode)
        return original(instance, mode)

    for name, module in list(sys.modules.items()):
        if name == "dagdecode" or name.startswith("dagdecode."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
    return builds


def random_instance(seed: int, L: int = 6, V: int = 3, sparsity: float = 0.0,
                    transition_concentration: float = 1.0,
                    emission_concentration: float = 1.0) -> Instance:
    return generate_instance(
        GeneratorConfig(
            L=L,
            V=V,
            seed=seed,
            sparsity=sparsity,
            transition_concentration=transition_concentration,
            emission_concentration=emission_concentration,
        )
    )


def random_batch(n: int, seed0: int = 0, **kwargs) -> list[Instance]:
    return [random_instance(seed0 + k, **kwargs) for k in range(n)]
