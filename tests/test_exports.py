"""The public surface: every exported name resolves, and retired names stay
gone. They are single-stroke spellings of the stacked API (a single stroke
is a one-row call of ``dynamics.transfer_matrices``, ``adiabaticity_stack``
or ``q_cd_grid``, of the ``sta_cost`` stacks or of
``thermo_cycle.stroke_records``) and helpers that only the tests used."""

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
        "GaussianState",
        "thermal_state",
        "mean_energy",
        "sudden_quench_q",
    ],
    "fock_oracle": [
        "thermal_dim",
        "thermal_fock",
        "adiabatic_reference",
        "irreversible_work",
        "relative_entropy",
        "propagate_fock",
        "h0_matrix",
        "hcd_matrix",
    ],
    "protocols": ["validity_margin", "check_sta_boundary", "BoundaryReport"],
    "sta_cost": [
        "friction",
        "friction_path",
        "friction_ends",
        "mean_sta_term",
        "avg_work_cost",
        "avg_variance_cost",
    ],
    "thermo_cycle": ["evaluate_cycle"],
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
