import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from ottosta import datasets
from ottosta.cli import _digest, build_parser, main, resolve_config


def run_cli(argv):
    """In-process CLI invocation; returns the exit code."""
    return main(argv)


def split_output(text):
    """Return (metadata dict, header row, data rows) from CSV output."""
    lines = text.strip().splitlines()
    assert lines[0].startswith("# ")
    meta = json.loads(lines[0][2:])
    return meta, lines[1].split(","), [ln.split(",") for ln in lines[2:]]


@pytest.fixture
def outfile(tmp_path):
    return str(tmp_path / "out.csv")


class TestConfigValidation:
    def test_unknown_key_is_rejected_with_pointer(self, tmp_path, outfile, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"betta": 2.0}))
        rc = run_cli(["cost", "--config", str(cfg), "--out", outfile])
        assert rc == 2
        err = capsys.readouterr().err
        assert "config error" in err
        assert not os.path.exists(outfile)

    def test_wrong_type_is_rejected(self, tmp_path, outfile, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"beta": "cold"}))
        rc = run_cli(["cost", "--config", str(cfg), "--out", outfile])
        assert rc == 2
        err = capsys.readouterr().err
        assert "/beta" in err

    def test_key_from_another_command_is_rejected(self, tmp_path, outfile):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"beta1": 2.0}))  # cycle key, not a cost key
        rc = run_cli(["cost", "--config", str(cfg), "--out", outfile])
        assert rc == 2

    def test_malformed_json_is_rejected(self, tmp_path, outfile, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        rc = run_cli(["cost", "--config", str(cfg), "--out", outfile])
        assert rc == 2

    def test_bad_grid_flag_is_rejected(self, outfile):
        rc = run_cli(["cost", "--grid", "tau=oops", "--out", outfile])
        assert rc == 2
        rc = run_cli(["cost", "--grid", "banana=1:2:3", "--out", outfile])
        assert rc == 2

    def test_even_nodes_rejected(self, outfile):
        rc = run_cli(["cost", "--nodes", "10", "--out", outfile])
        assert rc == 2

    @pytest.mark.parametrize(
        "command, digest",
        [
            ("qstar", "e27fc8fb9fd499bda2f5bdef931d37c128eacbc9446bcf0489d5c35a55bd3153"),
            ("cost", "2b19212eb2aa53261623d04638f3c57ed9c1e1c6b9545c6fed1356f9265af191"),
            ("cycle", "4e831c84534cb329f0db2933060ac4c8727a14dd87eeb4fac5144682e45553f3"),
            ("empower", "f2c92e16c2641c6acb904046b4de497b9b6d65fff40116348798463ab3dd3d86"),
            ("sweep", "866aba424e1d486f25374e73fe62629c1e4a1657fa825ef2805c6fc4717c8abd"),
        ],
    )
    def test_default_config_digest_is_pinned(self, command, digest):
        # The defaults live in the schema; their values and number types
        # (12.0, not 12) must not move the header bytes.
        params = resolve_config(command, build_parser().parse_args([command]))
        assert _digest(command, params, False) == digest

    def test_oracle_not_available_for_sweep(self, outfile):
        rc = run_cli(["sweep", "--oracle", "--out", outfile])
        assert rc == 2


class TestPhysicsErrors:
    def test_trap_inversion_exits_3_and_writes_nothing(self, outfile, capsys):
        rc = run_cli(["cost", "--grid", "tau=1.0:2.0:3", "--out", outfile])
        assert rc == 3
        assert "physics error" in capsys.readouterr().err
        assert not os.path.exists(outfile)


class TestQstar:
    def test_default_run_columns_and_values(self, outfile):
        rc = run_cli(["qstar", "--nodes", "41", "--out", outfile])
        assert rc == 0
        meta, header, rows = split_output(Path(outfile).read_text())
        assert header == ["t", "protocol_kind", "omega", "q_cd", "q_bare"]
        assert meta["command"] == "qstar"
        # 4 protocol kinds x 41 samples
        assert len(rows) == 4 * 41
        # the poly5 midpoint value is a frozen reference number
        mid = [r for r in rows if r[1] == "poly5" and abs(float(r[0]) - 1.5) < 1e-12]
        assert len(mid) == 1
        assert float(mid[0][3]) == pytest.approx(1.1171629915626675, abs=1e-12)

    def test_oracle_column_agrees(self, outfile):
        rc = run_cli(["qstar", "--nodes", "11", "--oracle", "--out", outfile])
        assert rc == 0
        _, header, rows = split_output(Path(outfile).read_text())
        assert header[-1] == "q_pair"
        for r in rows:
            if r[1] in ("poly5", "poly3", "cosine"):
                assert float(r[4]) == pytest.approx(float(r[5]), abs=1e-6)

    def test_both_readouts_share_one_propagation(self, monkeypatch, outfile):
        import ottosta.dynamics as dynamics

        stacks = []
        exact = dynamics._transfer_matrices

        def recorded(protocols, ts, drives, rtol):
            stacks.append(ts.shape)
            return exact(protocols, ts, drives, rtol)

        monkeypatch.setattr(dynamics, "_transfer_matrices", recorded)
        assert run_cli(["qstar", "--nodes", "11", "--oracle", "--out", outfile]) == 0
        assert stacks == [(4, 11)]

    @pytest.mark.parametrize("tau", [3.06462549714, 2.98066884801])
    def test_durations_that_aborted_the_adaptive_integrator(self, tmp_path, tau):
        """The former adaptive RK45 kernel exited 4 ("step size underflow")
        at these driving times: rounding left the first checkpoint interval
        an ulp short and the next step fell below its minimum size."""
        cfg = tmp_path / "tau.json"
        cfg.write_text(json.dumps({"tau": tau}))
        out = str(tmp_path / "q.csv")
        rc = run_cli(["qstar", "--config", str(cfg), "--oracle", "--jobs", "1", "--out", out])
        assert rc == 0
        meta, header, rows = split_output(Path(out).read_text())
        assert meta["params"]["tau"] == tau
        assert len(rows) == 4 * 1001
        idx = {name: i for i, name in enumerate(header)}
        for r in rows:
            q_bare = float(r[idx["q_bare"]])
            q_pair = float(r[idx["q_pair"]])
            assert abs(q_pair - q_bare) / q_bare <= 1e-8
            assert q_bare >= 1.0 and q_pair >= 1.0


class TestCost:
    def test_small_grid(self, outfile):
        rc = run_cli(["cost", "--grid", "tau=3:6:2", "--nodes", "201", "--out", outfile])
        assert rc == 0
        meta, header, rows = split_output(Path(outfile).read_text())
        assert header[:4] == ["tau", "avg_work_cost", "avg_variance_cost", "friction_final"]
        assert len(rows) == 2
        assert float(rows[0][1]) == pytest.approx(0.07982655330359724, rel=1e-8)


class TestEmpower:
    def test_reference_row(self, outfile):
        rc = run_cli(["empower", "--grid", "beta_ratio=0.1:0.5:2", "--out", outfile])
        assert rc == 0
        _, header, rows = split_output(Path(outfile).read_text())
        idx = {name: i for i, name in enumerate(header)}
        row = rows[0]
        assert float(row[idx["beta_ratio"]]) == pytest.approx(0.1)
        assert float(row[idx["eta_ca"]]) == pytest.approx(0.68377223398316207, abs=1e-9)
        assert float(row[idx["eta_star_printed"]]) == pytest.approx(0.63651192472805716, abs=1e-9)
        assert float(row[idx["x_opt_numeric"]]) == pytest.approx(0.27097217903921093, abs=1e-8)
        assert float(row[idx["one_minus_xopt"]]) == pytest.approx(1.0 - 0.27097217903921093, abs=1e-8)


class TestCycle:
    def test_accounting_columns(self, outfile):
        rc = run_cli(["cycle", "--grid", "tau=3:3:1", "--out", outfile])
        assert rc == 0
        _, header, rows = split_output(Path(outfile).read_text())
        assert header == [
            "tau", "eta_ad", "P_ad", "eta_na", "P_na", "eta_sta", "P_sta", "eta_avg", "P_avg",
        ]
        row = [float(v) for v in rows[0]]
        assert row[1] == pytest.approx(0.65, abs=1e-12)
        assert row[5] == pytest.approx(0.5914854831626443, abs=1e-9)
        assert row[7] == pytest.approx(0.5510719307522451, abs=1e-9)


class TestCycleOracle:
    def test_fock_residual_column(self, tmp_path):
        out = str(tmp_path / "o.csv")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"beta2": 0.5, "taus": {"start": 3.0, "stop": 3.0, "num": 1}}))
        rc = run_cli(["cycle", "--config", str(cfg), "--oracle", "--out", out])
        assert rc == 0
        _, header, rows = split_output(Path(out).read_text())
        assert header[-1] == "fock_residual"
        assert float(rows[0][-1]) < 1e-6

    def test_fock_rows_run_serially_on_the_calling_thread(self, monkeypatch):
        calls = []

        def cheap_residual(protocol, beta, rtol):
            calls.append((threading.get_ident(), protocol.tau))
            return protocol.tau * beta

        monkeypatch.setattr(datasets, "_fock_stroke_residual", cheap_residual)
        params = resolve_config("cycle", build_parser().parse_args(["cycle", "--grid", "tau=3:6:2"]))
        first = datasets.cycle_dataset(params, oracle=True)
        calls.clear()
        second = datasets.cycle_dataset(params, oracle=True)
        me = threading.get_ident()
        assert calls == [(me, 3.0), (me, 3.0), (me, 6.0), (me, 6.0)]
        assert second == first


    def test_fock_rows_read_the_stroke_record(self, monkeypatch):
        # the Gaussian side of fock_residual is the record's stroke-end
        # energy: one stacked bare propagation for both strokes, no second one
        import ottosta.dynamics as dynamics
        from ottosta import fock_oracle

        stacks = []
        exact_stack = dynamics._transfer_matrices

        def recorded_stack(protocols, ts, drives, rtol):
            stacks.append((len(protocols), ts.shape[1], set(drives)))
            return exact_stack(protocols, ts, drives, rtol)

        monkeypatch.setattr(dynamics, "_transfer_matrices", recorded_stack)
        monkeypatch.setattr(fock_oracle, "propagate_fock", lambda ops, state, *a, **k: state)
        params = resolve_config("cycle", build_parser().parse_args(["cycle", "--grid", "tau=3:3:1"]))
        _, rows = datasets.cycle_dataset(params, oracle=True)
        assert len(rows) == 1
        assert stacks == [(2, 1, {dynamics.Drive.BARE})]


class TestOutputFormats:
    def test_json_format(self, tmp_path):
        out = str(tmp_path / "out.json")
        rc = run_cli(["cost", "--grid", "tau=3:6:2", "--nodes", "201", "--format", "json", "--out", out])
        assert rc == 0
        doc = json.loads(Path(out).read_text())
        assert set(doc) == {"metadata", "columns", "rows"}
        assert len(doc["rows"]) == 2

    def test_metadata_is_deterministic_and_versioned(self, outfile):
        run_cli(["cost", "--grid", "tau=3:6:2", "--nodes", "201", "--out", outfile])
        meta, _, _ = split_output(Path(outfile).read_text())
        assert meta["version"]
        assert "config_digest" in meta
        assert "units" in meta and "conventions" in meta
        # no wall-clock information may leak into the output
        assert not any("time" in k or "date" in k for k in meta)

    def test_stdout_output(self, capsys):
        rc = run_cli(["cost", "--grid", "tau=3:6:2", "--nodes", "201"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("# ")

    def test_float_cells_roundtrip(self, outfile):
        run_cli(["cost", "--grid", "tau=3:6:2", "--nodes", "201", "--out", outfile])
        _, _, rows = split_output(Path(outfile).read_text())
        v = float(rows[0][1])
        assert repr(v) == rows[0][1]


class TestSweep:
    def test_shape_and_status_column(self, outfile):
        rc = run_cli([
            "sweep",
            "--grid", "omega_ratio=0.35:0.35:1",
            "--grid", "beta_ratio=0.1:0.1:1",
            "--grid", "tau=1.5:3:2",
            "--out", outfile,
        ])
        assert rc == 0
        _, header, rows = split_output(Path(outfile).read_text())
        assert header[-1] == "status"
        assert header[:5] == ["omega_ratio", "beta_ratio", "tau", "kind", "accounting"]
        # 1 x 1 x 2 taus x 1 kind x 4 accountings
        assert len(rows) == 8
        # tau = 1.5 cannot run the shortcut accountings: flagged, not fatal
        statuses = {(r[2], r[4]): r[-1] for r in rows}
        assert statuses[("1.5", "sta")] == "trap_inversion"
        assert statuses[("1.5", "time_averaged")] == "trap_inversion"
        assert statuses[("1.5", "adiabatic")] == "ok"
        assert statuses[("3.0", "sta")] == "ok"

    def test_jobs_do_not_change_bytes(self, tmp_path):
        a = str(tmp_path / "a.csv")
        b = str(tmp_path / "b.csv")
        argv = [
            "sweep",
            "--grid", "omega_ratio=0.3:0.5:2",
            "--grid", "beta_ratio=0.1:0.2:2",
            "--grid", "tau=2.5:5:2",
        ]
        assert run_cli(argv + ["--jobs", "1", "--out", a]) == 0
        assert run_cli(argv + ["--jobs", "8", "--out", b]) == 0
        assert Path(a).read_bytes() == Path(b).read_bytes()


class TestJobsFlag:
    """--jobs still parses and is checked, and changes nothing: every
    dataset is computed in one serial pass."""

    @pytest.mark.parametrize("command", ["cost", "cycle", "empower", "sweep"])
    def test_jobs_values_give_identical_bytes(self, command, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert run_cli([command, "--jobs", "1", "--out", str(a)]) == 0
        assert run_cli([command, "--jobs", "2", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_jobs_below_one_is_a_config_error(self, outfile):
        assert run_cli(["cost", "--grid", "tau=3:6:2", "--jobs", "0", "--out", outfile]) == 2
        assert not os.path.exists(outfile)


class TestConsoleScript:
    def test_entry_point_runs(self, tmp_path):
        out = tmp_path / "o.csv"
        res = subprocess.run(
            [sys.executable, "-m", "ottosta.cli", "cost", "--grid", "tau=3:6:2",
             "--nodes", "201", "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert res.returncode == 0, res.stderr
        assert out.exists()
