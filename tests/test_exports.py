"""The public surface: every exported name resolves, and the single-stroke
spellings of the stacked propagator and of the friction readout stay gone
(``dynamics.transfer_matrices``, ``dynamics.adiabaticity_stack`` and
``sta_cost.friction_stack`` take one row)."""

import importlib
import pkgutil

import pytest

import ottosta

MODULES = sorted(m.name for m in pkgutil.iter_modules(ottosta.__path__))

RETIRED = {
    "dynamics": [
        "propagate",
        "propagate_path",
        "classical_pair_path",
        "adiabaticity",
        "adiabaticity_path",
        "adiabaticity_pair",
        "adiabaticity_pair_path",
        "q_cd",
    ],
    "sta_cost": ["friction", "friction_path", "friction_ends"],
}


def test_package_exports_resolve():
    assert len(set(ottosta.__all__)) == len(ottosta.__all__)
    missing = [name for name in ottosta.__all__ if not hasattr(ottosta, name)]
    assert not missing


@pytest.mark.parametrize("module", MODULES)
def test_module_exports_resolve(module):
    mod = importlib.import_module(f"ottosta.{module}")
    exported = getattr(mod, "__all__", [])
    assert len(set(exported)) == len(exported)
    missing = [name for name in exported if not hasattr(mod, name)]
    assert not missing


@pytest.mark.parametrize(
    "module, name", [(module, name) for module, names in RETIRED.items() for name in names]
)
def test_retired_name_is_not_importable(module, name):
    with pytest.raises(ImportError):
        exec(f"from ottosta.{module} import {name}", {})
    assert name not in ottosta.__all__
