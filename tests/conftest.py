from __future__ import annotations

import numpy as np
import pytest

from delange import special
from delange.contour import ZeroSet, bundled_zero_table, zeroset_from_pairs
from delange.families import builtin_family


@pytest.fixture(scope="session")
def zero_table_path() -> str:
    return bundled_zero_table()


@pytest.fixture(scope="session")
def fam_one():
    return builtin_family("constant_one")


@pytest.fixture(scope="session")
def fam_div2():
    return builtin_family("divisor_kappa", 2.0)


@pytest.fixture(scope="session")
def fam_sqfree():
    return builtin_family("squarefree_omega_power")


@pytest.fixture(scope="session")
def fam_omega2():
    return builtin_family("omega_power", 2.0)


@pytest.fixture
def grid_calls(monkeypatch):
    """Records every call of the factored direct sum in `special`."""
    calls = []
    real = special._progression_sum

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(special, "_progression_sum", spy)
    return calls


def synthetic_zero_set(seed: int, T: float = 2.0**16, alpha: float = 0.6) -> ZeroSet:
    """Seeded random zero set exercising every junction shape.

    Mix: uniform zeros, clustered pairs with distinct heights (staircase
    shapes), and zeros hugging dyadic boundaries (the only way a zero can
    elevate a single interval, which is what a strict local maximum needs).
    """
    rng = np.random.default_rng(seed)
    n_uniform, n_pairs, n_boundary = 60, 16, 8
    pairs: list[tuple[float, float]] = []
    lo, hi = 2.0**7, T - 16.0
    for g in rng.uniform(lo, hi, n_uniform):
        pairs.append((rng.uniform(alpha - 0.03, 0.88), float(g)))
    for g in rng.uniform(lo, hi, n_pairs):
        b1, b2 = sorted(rng.uniform(alpha + 0.01, 0.88, 2))
        pairs.append((b1, float(g)))
        pairs.append((b2, float(g) + rng.uniform(0.3, 1.5)))
    for _ in range(n_boundary):
        level = int(rng.integers(8, 16))
        u = 2.0**level
        pairs.append((rng.uniform(alpha + 0.02, 0.88), u + rng.uniform(0.01, 0.2)))
    return zeroset_from_pairs(pairs, T)
