"""The package root's public names, the helpers that import from their
modules, and the README's library quick tour."""

import importlib
import re
import types
from pathlib import Path

import pytest

import qaplandscape

PUBLIC = [
    "AutocorrReport", "ClaimResult", "ComponentTriple", "ElementarityReport",
    "GeneralTensor", "ParseError", "Permutation", "QapInstance", "WalkSeries",
    "analyze_autocorr", "autocorr_coefficient", "average_triple",
    "check_elementary", "component_variances", "decompose", "empirical_autocorr",
    "generate_instance", "neighborhood_avg_brute", "neighborhood_avg_wave",
    "parse_qaplib", "random_walk", "run_verification", "serialize_qaplib",
    "theoretical_autocorr", "variance_triple",
]

MODULE_HELPERS = {
    "decomposition": [
        "KindConstants", "KIND_CONSTANTS", "omega", "component_value",
        "component_value_fast", "component_value_ref", "component_average",
        "wave_predict_component", "omega_neighborhood_sum_oracle",
    ],
    "oracle": ["enumerate_space", "SpaceStats", "population_variance"],
    "spectral": ["component_weights", "decay_rates"],
    "core": ["neighborhood_size", "Scalar"],
}

README = Path(__file__).resolve().parent.parent / "README.md"


def test_public_names():
    assert sorted(qaplandscape.__all__) == sorted(PUBLIC)
    assert len(set(PUBLIC)) == 25
    for name in PUBLIC:
        assert getattr(qaplandscape, name) is not None


def test_package_root_binds_only_the_public_names():
    bound = {
        k for k, v in vars(qaplandscape).items()
        if not k.startswith("_") and not isinstance(v, types.ModuleType)
    }
    assert bound == set(PUBLIC)


@pytest.mark.parametrize("module", sorted(MODULE_HELPERS))
def test_helpers_import_from_their_modules(module):
    mod = importlib.import_module(f"qaplandscape.{module}")
    for name in MODULE_HELPERS[module]:
        assert hasattr(mod, name), f"qaplandscape.{module}.{name}"
        assert name not in qaplandscape.__all__


@pytest.mark.parametrize("name", [
    "AverageTriple", "ComponentVariances", "phi_diag", "OMEGA_PARAMS",
    "omega_params", "characteristic_constant", "weight_denominator",
    "irrep_dimension", "omega_mean",
])
def test_deleted_names_are_gone(name):
    for module in ("decomposition", "oracle"):
        assert not hasattr(importlib.import_module(f"qaplandscape.{module}"), name)
    assert not hasattr(qaplandscape, name)


def test_readme_quick_tour_runs():
    text = README.read_text()
    section = text.split("## Library quick tour", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(block, "README quick tour", "exec"), namespace)
    assert isinstance(namespace["v"], qaplandscape.ComponentTriple)
    assert namespace["v"].total == sum(namespace["v"][:3])
