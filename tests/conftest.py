import numpy as np
import pytest

from teelab import fusion

import dense_oracles as dense


@pytest.fixture(scope="session")
def categories():
    """All bundled categories with their dimensions and fusion probabilities."""
    out = {}
    for name in fusion.bundled_category_names():
        cat = fusion.bundled_category(name)
        dims = fusion.quantum_dimensions(cat)
        fp = fusion.fusion_probabilities(cat)
        out[name] = (cat, dims, fp)
    return out


@pytest.fixture
def clear_category_caches():
    """A function that empties the per-process category caches, so that the
    next `bundled_category`, `zn_category` or `double_zn_category` call builds
    a fresh category with no spectra computed yet."""

    def clear():
        for cached in (fusion._load_bundled_category, fusion.zn_category, fusion.double_zn_category):
            cached.cache_clear()

    return clear


def ghz_vector(n_qubits: int, phase: float = 0.0) -> np.ndarray:
    """(|0...0> + e^{i phase} |1...1>)/sqrt(2)."""
    vec = np.zeros(2**n_qubits, dtype=complex)
    vec[0] = 1.0
    vec[-1] = np.exp(1j * phase)
    return vec / np.sqrt(2)


def ghz_phase_family() -> dense.SectorFamily:
    """The two orthogonal GHZ states (|000> +- |111>)/sqrt(2) on three qubits."""
    space = dense.FactorSpace.of_dims([2, 2, 2])
    plus = dense.DensityOperator.from_vector(space, ghz_vector(3, 0.0))
    minus = dense.DensityOperator.from_vector(space, ghz_vector(3, np.pi))
    return dense.SectorFamily(labels=("0", "1"), states={"0": plus, "1": minus}, base_label="0")


def product_pair_family(n_factors: int = 4) -> dense.SectorFamily:
    """|0...0><0...0| and |1...1><1...1|: globally orthogonal but locally distinguishable."""
    space = dense.FactorSpace.of_dims([2] * n_factors)
    zeros = np.zeros(2**n_factors, dtype=complex)
    zeros[0] = 1.0
    ones = np.zeros(2**n_factors, dtype=complex)
    ones[-1] = 1.0
    return dense.SectorFamily(
        labels=("0", "1"),
        states={
            "0": dense.DensityOperator.from_vector(space, zeros),
            "1": dense.DensityOperator.from_vector(space, ones),
        },
        base_label="0",
    )
