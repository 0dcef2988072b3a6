"""The public surface: every exported name resolves and has a caller in the
package, and retired names stay gone. They are single-stroke spellings of
the stacked API (a single stroke is a one-row call of
``dynamics.transfer_matrices``, ``adiabaticity_stack`` or ``q_cd_grid``, of
the ``sta_cost`` stacks or of ``thermo_cycle.stroke_records``), a second
spelling of a stroke and its thermal start (``StrokeContext``; the stacks
take ``protocols, betas``), helpers that only the tests used, the Fock
oracle's reference basis and eigenbasis readout, which its instantaneous
frame made unnecessary, its operator set (``FockOperators``,
``build_operators``), since every oracle function takes a level count, and
the Gaussian propagator's drive switch
(``Drive``), since only the bare drive is propagated."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import ottosta

MODULES = sorted(m.name for m in pkgutil.iter_modules(ottosta.__path__))
SRC = Path(ottosta.__file__).parent

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
        "Drive",
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
        "tpm_work_moments",
        "stroke_reference",
        "populations_instantaneous",
        "FockOperators",
        "build_operators",
    ],
    "optimizer": ["optimal_x_analytic"],
    "protocols": ["validity_margin", "check_sta_boundary", "BoundaryReport"],
    "sta_cost": [
        "friction",
        "friction_path",
        "friction_ends",
        "mean_sta_term",
        "avg_work_cost",
        "avg_variance_cost",
        "StrokeContext",
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


@pytest.mark.parametrize(
    "owner, name",
    [("FrequencyProtocol", n) for n in ("eval_many", "omega", "constant")]
    + [("ProtocolKind", "shortcut_kinds")],
)
def test_retired_method_is_gone(owner, name):
    assert not hasattr(getattr(ottosta, owner), name)


def _loads(tree):
    """(name, top-level def or class it sits in, or None) of every load of a
    name or an attribute in a module."""
    for stmt in tree.body:
        defines = isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        owner = stmt.name if defines else None
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                yield node.id, owner
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                yield node.attr, owner


def test_every_public_name_has_a_caller():
    """Each name in a module's ``__all__`` is loaded somewhere in the package
    outside its own def or class."""
    called = {
        (path.stem, name, owner)
        for path in SRC.glob("*.py")
        for name, owner in _loads(ast.parse(path.read_text()))
    }
    public = {
        f"{module}.{name}": name
        for module in MODULES
        for name in getattr(importlib.import_module(f"ottosta.{module}"), "__all__", [])
    }
    uncalled = {
        key
        for key, name in public.items()
        if not any(n == name and (m, o) != (key.split(".")[0], name) for m, n, o in called)
    }
    assert not uncalled
