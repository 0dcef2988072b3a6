"""The table checks: reference comparison and physics invariants."""

import checks
import pytest
import workloads

DEFAULT_GRID = {"start": 2.25, "stop": 12.0, "num": 40}


def _perturb(text: str, row: int, column: str, factor: float) -> str:
    lines = text.splitlines(keepends=True)
    body = [i for i, line in enumerate(lines) if not line.startswith("#")]
    columns = lines[body[0]].rstrip("\n").split(",")
    i = body[1 + row]
    cells = lines[i].rstrip("\n").split(",")
    j = columns.index(column)
    cells[j] = repr(float(cells[j]) * factor)
    lines[i] = ",".join(cells) + "\n"
    return "".join(lines)


@pytest.fixture(scope="module")
def cycle_ref():
    return checks.load_reference("cycle_batch.cycle")


@pytest.mark.parametrize("column", ["eta_na", "P_sta"])
def test_rejects_1e6_relative_perturbation(cycle_ref, column):
    assert checks.compare_tables(_perturb(cycle_ref, 7, column, 1 + 1e-6), cycle_ref)


@pytest.mark.parametrize("column", ["eta_na", "P_sta"])
def test_accepts_1e11_relative_perturbation(cycle_ref, column):
    assert checks.compare_tables(_perturb(cycle_ref, 7, column, 1 + 1e-11), cycle_ref) == []


def test_header_is_not_compared(cycle_ref):
    changed = cycle_ref.replace('"version":"0.1.0"', '"version":"9.9.9","provenance":"x"', 1)
    assert changed != cycle_ref
    assert checks.compare_tables(changed, cycle_ref) == []


def test_strings_must_match_exactly():
    ref = checks.load_reference("cycle_batch.sweep")
    assert checks.compare_tables(ref.replace(",ok\n", ",OK\n", 1), ref)


def test_residual_column_needs_only_stay_small():
    ref = checks.load_reference("fock_check.cycle")
    assert checks.compare_tables(_perturb(ref, 0, "fock_residual", 0.01), ref) == []
    assert checks.compare_tables(_perturb(ref, 0, "fock_residual", 100.0), ref)


def test_row_count_and_columns_are_checked(cycle_ref):
    lines = cycle_ref.splitlines(keepends=True)
    assert checks.compare_tables("".join(lines[:-1]), cycle_ref)
    assert checks.compare_tables(cycle_ref.replace("eta_ad", "eta_x", 1), cycle_ref)


@pytest.mark.parametrize(
    "key, config",
    [
        ("qstar_path.qstar", {}),
        ("cycle_batch.cost", {"taus": DEFAULT_GRID}),
        ("cycle_batch.cycle", {"taus": DEFAULT_GRID}),
        ("cycle_batch.sweep", {}),
        ("fock_check.cycle", {"taus": [3.0]}),
    ],
)
def test_reference_tables_satisfy_the_invariants(key, config):
    sub = key.split(".")[1]
    assert checks.check_invariants(sub, checks.load_reference(key), config) == []


def test_invariants_catch_a_first_law_violation():
    ref = checks.load_reference("cycle_batch.sweep")
    assert checks.check_invariants("sweep", _perturb(ref, 4, "q4", 1 + 1e-6), {})


def test_invariants_catch_a_pair_route_disagreement():
    ref = checks.load_reference("qstar_path.qstar")
    assert checks.check_invariants("qstar", _perturb(ref, 900, "q_pair", 1 + 1e-7), {})


def test_seed_zero_is_the_default_command_line(tmp_path):
    argvs = [c.argv for c in workloads.commands("fock_check", 0, tmp_path)]
    assert argvs == [("cycle", "--oracle", "--grid", "tau=3:3:1", "--jobs", "1")]
    assert all(c.at_reference for c in workloads.commands("cycle_batch", 0, tmp_path))
    assert list(tmp_path.iterdir()) == []


def test_other_seeds_jitter_within_range_and_repeat(tmp_path):
    first = workloads.commands("cycle_batch", 7, tmp_path)
    again = workloads.commands("cycle_batch", 7, tmp_path)
    assert first == again
    by_sub = {c.subcommand: c for c in first}
    assert by_sub["empower"].at_reference
    grid = by_sub["cycle"].config["taus"]
    assert 2.25 <= grid["start"] <= 2.35 and grid["num"] == 40
    (tau,) = workloads.commands("fock_check", 7, tmp_path)[0].config["taus"]
    assert 2.75 <= tau <= 3.25
    assert "--grid" not in workloads.commands("fock_check", 7, tmp_path)[0].argv


def test_qstar_path_runs_its_default_config_at_every_seed(tmp_path):
    for seed in (0, 7, 1646898132):
        (cmd,) = workloads.commands("qstar_path", seed, tmp_path)
        assert cmd.argv == ("qstar", "--oracle", "--jobs", "1") and cmd.at_reference
    assert list(tmp_path.iterdir()) == []
