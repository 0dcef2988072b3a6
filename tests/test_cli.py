import contextlib
import copy
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import ottosta
from readouts import table_rows
from ottosta import cli, datasets
from ottosta.cli import (
    _digest,
    _validate,
    build_parser,
    load_schema,
    main,
    resolve_config,
    run_command,
)
from ottosta.errors import ConfigError


def run_cli(argv):
    """In-process CLI invocation; returns the exit code."""
    return main(argv)


def child_env():
    """The environment of a child interpreter that imports this same
    ottosta: os.environ with PYTHONPATH set to the directory ottosta was
    imported from."""
    return {**os.environ, "PYTHONPATH": str(Path(ottosta.__file__).resolve().parents[1])}


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

    def test_long_value_is_cut_in_the_message(self, tmp_path, outfile, capsys):
        # the offending value's repr is cut to 80 characters, not printed
        # whole (a megabyte here)
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"tau": [0.5] * 200_000}))
        assert run_cli(["qstar", "--config", str(cfg), "--out", outfile]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.endswith("\n")
        assert len(err.encode()) < 300
        assert "[0.5, 0.5, " in err and "\u2026" in err
        assert not os.path.exists(outfile)

    @pytest.mark.parametrize(
        "content",
        [
            b'\xff\xfe{"tau": 3.0}',
            b'{"tau": ' + b"[" * 200_000 + b"]" * 200_000 + b"}",
            b'{"tau": ' + b"1" * 5000 + b"}",
        ],
        ids=["not-utf8", "nested-200000-deep", "integer-of-5000-digits"],
    )
    def test_unreadable_json_exits_2_with_one_line(self, tmp_path, outfile, capsys, content):
        # a UnicodeDecodeError, a RecursionError and the ValueError of
        # Python's 4300-digit limit on integer literals
        cfg = tmp_path / "bad.json"
        cfg.write_bytes(content)
        assert run_cli(["qstar", "--config", str(cfg), "--out", outfile]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ottosta: config error: config file is not valid JSON: ")
        assert err.count("\n") == 1
        assert not os.path.exists(outfile)

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


SCHEMA = load_schema()
COMMANDS = ("qstar", "cost", "cycle", "empower", "sweep")

# Finite values only: the built-in validator refuses non-finite numbers on
# purpose, where jsonschema takes them (see TestNonFiniteNumbers).
BOUNDARY = st.sampled_from([
    1.0, 3.0, 4, 0.0, True, "poly7", [], 1, 2, 3, 4.0, 0, -1.0, 0.5, 1.5, 1e-10,
    False, None, "", "sta", "constant", {},
])


def _near(default):
    """Values shaped like a schema default, mixed with boundary values:
    arrays of its items and boundary values, grid objects with keys
    missing or the extra key 'step', and wrong types."""
    if isinstance(default, list):
        return st.lists(st.one_of(BOUNDARY, st.sampled_from(default)), max_size=3)
    if isinstance(default, dict):
        parts = {k: _near(v) for k, v in default.items()}
        return st.one_of(
            st.fixed_dictionaries(parts),
            st.fixed_dictionaries({}, optional={**parts, "step": BOUNDARY}),
        )
    return st.one_of(BOUNDARY, st.just(default))


def _configs(command):
    """Any subset of the command's keys and the unknown key 'betta'."""
    props = SCHEMA["$defs"][command]["properties"]
    near = {k: _near(p["default"]) for k, p in props.items()}
    return st.fixed_dictionaries({}, optional={**near, "betta": BOUNDARY})


def _accepts(instance, command):
    try:
        _validate(instance, command, SCHEMA)
    except ConfigError:
        return False
    return True


class TestBuiltInValidator:
    @settings(max_examples=200)
    @given(st.sampled_from(COMMANDS).flatmap(lambda c: st.tuples(st.just(c), _configs(c))))
    def test_agrees_with_jsonschema(self, case):
        import jsonschema

        command, config = case
        defs = SCHEMA["$defs"]
        reference = jsonschema.Draft202012Validator({"$ref": f"#/$defs/{command}", "$defs": defs})
        defaults = {k: p["default"] for k, p in defs[command]["properties"].items()}
        # each key alone, so that no other error can mask it, and the config
        # merged over the defaults as resolve_config validates it
        singles = [{k: v} for k, v in config.items()]
        for instance in [*singles, {**defaults, **config}]:
            assert _accepts(instance, command) == reference.is_valid(instance), instance

    @pytest.mark.parametrize(
        "where, keyword",
        [("kind", {"pattern": "x"}), ("positive", {"maximum": 5}), ("odd_nodes", {"type": "null"})],
    )
    def test_unsupported_schema_keyword_is_a_config_error(self, where, keyword):
        schema = copy.deepcopy(SCHEMA)
        schema["$defs"][where].update(keyword)
        with pytest.raises(ConfigError, match="not supported"):
            _validate(resolve_config("cost", build_parser().parse_args(["cost"])), "cost", schema)

    def test_import_leaves_jsonschema_unloaded(self):
        # and the Fock oracle too, at import and through a cycle run without
        # --oracle, which does no Fock work
        script = (
            "import os, sys, ottosta.cli\n"
            "loaded = lambda: [m in sys.modules for m in ('jsonschema', 'ottosta.fock_oracle')]\n"
            "print(loaded())\n"
            "code = ottosta.cli.main(['cycle', '--grid', 'tau=3:3:1', '--out', os.devnull])\n"
            "print(code, loaded())\n"
        )
        res = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=child_env()
        )
        assert res.returncode == 0, res.stderr
        assert res.stdout.splitlines() == ["[False, False]", "0 [False, False]"]


class TestNonFiniteNumbers:
    """Python's json reads Infinity and NaN and argparse's float reads inf;
    neither is a JSON number, and an infinite rtol ran with a meaningless
    tolerance."""

    @pytest.mark.parametrize(
        "argv, text",
        [
            (["cost"], "Infinity"),
            (["cost"], "-Infinity"),
            (["cost"], "NaN"),
            (["qstar", "--tol", "inf"], None),
        ],
        ids=["Infinity", "-Infinity", "NaN", "tol-inf"],
    )
    def test_exits_2_naming_rtol(self, tmp_path, outfile, capsys, argv, text):
        if text is not None:
            cfg = tmp_path / "inf.json"
            cfg.write_text(f'{{"rtol": {text}}}')
            argv = argv + ["--config", str(cfg)]
        assert run_cli([*argv, "--out", outfile]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ottosta: config error: config invalid at /rtol: ")
        assert err.count("\n") == 1
        assert not os.path.exists(outfile)


class TestPhysicsErrors:
    def test_trap_inversion_exits_3_and_writes_nothing(self, outfile, capsys):
        rc = run_cli(["cost", "--grid", "tau=1.0:2.0:3", "--out", outfile])
        assert rc == 3
        assert "physics error" in capsys.readouterr().err
        assert not os.path.exists(outfile)


class TestNumericsErrors:
    """Schema-valid extremes whose step count wrapped or overflowed int64
    (a wrong exit 0, an allocation refused by numpy, an OverflowError in
    the ramp) are refused as numerics errors with one line on stderr, and
    so is a failed eigensolve of the Fock oracle."""

    @pytest.mark.parametrize(
        "flags, config, reason",
        [
            (
                ["--tol", "1e-300"],
                None,
                "3.654e+50 steps exceed the budget of 1000000 "
                "(error estimate 8.92e-17 > rtol 1e-300)",
            ),
            (
                [],
                {"tau": 1e20, "samples": 3, "kinds": ["linear"]},
                "1e+20 steps exceed the budget of 1000000 (no estimate yet)",
            ),
            ([], {"tau": 1e308}, "1e+308 steps exceed the budget of 1000000 (no estimate yet)"),
            ([], {"tau": 1e9}, "1e+09 steps exceed the budget of 1000000 (no estimate yet)"),
        ],
        ids=["tol-1e-300", "tau-1e20", "tau-1e308", "tau-1e9"],
    )
    def test_exits_4_with_one_line(self, tmp_path, outfile, capsys, flags, config, reason):
        # the first level's step count alone can exceed the budget, before
        # any Richardson pair exists to estimate the error
        if config is not None:
            cfg = tmp_path / "extreme.json"
            cfg.write_text(json.dumps(config))
            flags = flags + ["--config", str(cfg)]
        assert run_cli(["qstar", *flags, "--out", outfile]) == 4
        err = capsys.readouterr().err
        assert err == f"ottosta: numerics error: Magnus propagator: {reason}\n"
        assert not os.path.exists(outfile)

    def test_failed_eigensolve_exits_4(self, outfile, capsys, monkeypatch):
        # numpy's LinAlgError subclasses ValueError, which the builders'
        # config-error map would turn into exit 2
        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", failing)
        argv = ["cycle", "--oracle", "--grid", "tau=3:3:1", "--out", outfile]
        assert run_cli(argv) == 4
        err = capsys.readouterr().err
        assert err == (
            "ottosta: numerics error: Fock oracle: tridiagonal eigensolve failed "
            "(Eigenvalues did not converge)\n"
        )
        assert not os.path.exists(outfile)


class TestFockTruncationCap:
    """A bath so hot that the Fock oracle would need more levels than
    fock_oracle._MAX_LEVELS (the hot stroke's truncation under `cycle`, the
    two-point-measurement level count under `cost`) is refused before
    anything is allocated, with one line on stderr."""

    @pytest.mark.parametrize(
        "argv, config, levels",
        [
            (["cycle", "--grid", "tau=3:3:1"], {"beta2": 0.001}, 62443),
            (["cost"], {"beta": 0.001}, 157952),
        ],
        ids=["cycle", "cost"],
    )
    def test_exits_4_with_one_line(self, tmp_path, outfile, capsys, argv, config, levels):
        cfg = tmp_path / "hot.json"
        cfg.write_text(json.dumps(config))
        assert run_cli([*argv, "--oracle", "--config", str(cfg), "--out", outfile]) == 4
        err = capsys.readouterr().err
        assert err == (
            f"ottosta: numerics error: the Fock oracle needs {levels} levels, "
            "over the 4096 allowed\n"
        )
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

        def recorded(protocols, ts, rtol):
            stacks.append(ts.shape)
            return exact(protocols, ts, rtol)

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

    def test_tpm_excess_residual_column(self, outfile):
        # the two-point-measurement route (counterdiabatic eigensolves in the
        # number basis of each instant's omega) against the closed form at
        # every default tau, within the 1e-6 the benchmark allows a residual
        # column; the largest is 2.2e-8
        assert run_cli(["cost", "--oracle", "--out", outfile]) == 0
        _, header, rows = split_output(Path(outfile).read_text())
        assert header[-1] == "tpm_excess_residual"
        residuals = [float(row[-1]) for row in rows]
        assert len(residuals) == 40
        assert all(0.0 <= r <= 1e-6 for r in residuals)


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

    def test_default_stroke_residual_at_tau_3(self, outfile):
        # the 6th-order Fock steps: at most 1.3e-7 on the default strokes at
        # tau = 3, where the 4th-order steps they replaced gave 1.898e-7
        assert run_cli(["cycle", "--oracle", "--grid", "tau=3:3:1", "--out", outfile]) == 0
        _, header, rows = split_output(Path(outfile).read_text())
        assert header[-1] == "fock_residual"
        assert 0.0 <= float(rows[0][-1]) <= 1.3e-7

    def test_fock_rows_run_serially_on_the_calling_thread(self, monkeypatch):
        calls = []

        def cheap_residual(protocol, beta, rtol):
            calls.append((threading.get_ident(), protocol.tau))
            return protocol.tau * beta

        monkeypatch.setattr(datasets, "_fock_stroke_residual", cheap_residual)
        params = resolve_config("cycle", build_parser().parse_args(["cycle", "--grid", "tau=3:6:2"]))
        columns, first = datasets.cycle_dataset(params, oracle=True)
        calls.clear()
        again, second = datasets.cycle_dataset(params, oracle=True)
        me = threading.get_ident()
        assert calls == [(me, 3.0), (me, 3.0), (me, 6.0), (me, 6.0)]
        assert again == columns
        assert table_rows(second) == table_rows(first)


    def test_fock_rows_read_the_stroke_record(self, monkeypatch):
        # the Gaussian side of fock_residual is the record's stroke-end
        # energy: one stacked bare propagation for both strokes, no second one
        import ottosta.dynamics as dynamics
        from ottosta import fock_oracle

        stacks = []
        exact_stack = dynamics._transfer_matrices

        def recorded_stack(protocols, ts, rtol):
            stacks.append((len(protocols), ts.shape[1]))
            return exact_stack(protocols, ts, rtol)

        monkeypatch.setattr(dynamics, "_transfer_matrices", recorded_stack)
        monkeypatch.setattr(fock_oracle, "propagate_fock_path", lambda st, *a, **k: [st])
        params = resolve_config("cycle", build_parser().parse_args(["cycle", "--grid", "tau=3:3:1"]))
        rows = table_rows(datasets.cycle_dataset(params, oracle=True)[1])
        assert len(rows) == 1
        assert stacks == [(2, 1)]


class TestNoHeatInput:
    """At omega1/omega2 = beta2/beta1 the bare strokes take in no heat, so
    the adiabatic and time-averaged rows have no efficiency: an empty cell,
    JSON null, and exit 0."""

    def test_cycle_leaves_eta_empty(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"omega1": 0.5, "omega2": 1.0, "beta1": 2.0, "beta2": 1.0}))
        out = tmp_path / "o.json"
        rc = run_cli(["cycle", "--config", str(cfg), "--format", "json", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        eta_ad = doc["columns"].index("eta_ad")
        assert all(row[eta_ad] is None for row in doc["rows"])
        assert all(isinstance(row[eta_ad + 2], float) for row in doc["rows"])  # eta_na

    def test_sweep_leaves_eta_empty(self, outfile):
        rc = run_cli([
            "sweep",
            "--grid", "omega_ratio=0.5:0.5:1",
            "--grid", "beta_ratio=0.5:0.5:1",
            "--grid", "tau=3:3:1",
            "--out", outfile,
        ])
        assert rc == 0
        _, header, rows = split_output(Path(outfile).read_text())
        eta = {r[4]: r[header.index("eta")] for r in rows}
        assert eta["adiabatic"] == eta["time_averaged"] == ""
        assert all(r[-1] == "ok" for r in rows)


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

    @pytest.mark.parametrize("render", ["render_csv", "render_json"])
    def test_renderers_match_the_cell_by_cell_reference(self, render):
        # three blocks of one table: the "t" array object is shared by the
        # first two, "floats" holds -0.0 after an equal 0.0, nan and +-inf,
        # "mixed" holds None, bools, ints, strings and floats, and "numpy"
        # np.float64, a float subclass that repr writes in its own spelling;
        # the last block has no rows
        nan, inf = float("nan"), float("inf")
        columns = ["t", "floats", "mixed", "kind", "count", "flag", "numpy"]
        t = np.array([0.0, 0.5, 1.0, 1.5])
        blocks = [
            [
                t,
                np.array([1.5, 0.0, -0.0, nan]),
                [None, True, "x", 2],
                ["poly5"] * 4,
                [3, -7, 0, 10**20],
                [True, False, True, False],
                [1.0, 2.0, np.float64(0.25), 4.0],
            ],
            [
                t,
                np.array([inf, -inf, 1e-300, -2.5]),
                [2.5, -0.0, 0.0, False],
                ["cosine"] * 4,
                [1, 2, 4, 5],
                [False, False, True, True],
                [5.0, 6.0, 7.0, 8.0],
            ],
            [np.empty(0), np.empty(0), [], [], [], [], []],
        ]
        meta = {"command": "test", "params": {"tau": 3.0}}
        for table in (blocks, blocks[2:], []):
            want = getattr(oracles, render)(meta, columns, table_rows(table))
            assert getattr(cli, render)(meta, columns, table) == want

    def test_default_qstar_formats_each_float_cell_once(self, monkeypatch, outfile):
        # 4 kinds x 1001 samples x 4 float columns, and the t grid the four
        # blocks share once: 17 017 float cells, not 5 x 4004 = 20 020; the
        # 4004 protocol_kind cells go cell by cell
        floats, cells = [], []
        exact_texts, exact_cell = cli._column_texts, cli._format_cell

        def counted_texts(column):
            if isinstance(column, np.ndarray):
                floats.append(column.size)
            return exact_texts(column)

        def counted_cell(value):
            cells.append(type(value))
            return exact_cell(value)

        monkeypatch.setattr(cli, "_column_texts", counted_texts)
        monkeypatch.setattr(cli, "_format_cell", counted_cell)
        assert run_cli(["qstar", "--oracle", "--out", outfile]) == 0
        assert sum(floats) == 17017
        assert cells == [str] * 4004

    def test_float_cells_roundtrip(self, outfile):
        run_cli(["cost", "--grid", "tau=3:6:2", "--nodes", "201", "--out", outfile])
        _, _, rows = split_output(Path(outfile).read_text())
        v = float(rows[0][1])
        assert repr(v) == rows[0][1]


class TestParserCache:
    def test_cached_parser_carries_nothing_between_calls(self, tmp_path):
        # one parser serves every main call of a process; each call must
        # write what the same command gives through a parser of its own
        cfg = tmp_path / "cost.json"
        cfg.write_text(json.dumps({"taus": [3.0, 6.0], "nodes": 201}))
        for i, argv in enumerate([
            ["cost", "--grid", "tau=3:3:1", "--format", "json"],
            ["cost", "--config", str(cfg), "--oracle"],
            ["cost"],
        ]):
            out = tmp_path / f"{i}.out"
            assert run_cli([*argv, "--out", str(out)]) == 0
            want = run_command(argv[0], build_parser.__wrapped__().parse_args(argv))
            assert out.read_bytes() == want.encode("utf-8"), argv


class TestUnwritableOutput:
    """An --out path that cannot be written is a configuration error (exit 2,
    one line), and nothing is left at the target or beside it."""

    def _assert_refused(self, out, capsys):
        assert run_cli(["empower", "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"ottosta: config error: cannot write output {out}: ")
        assert err.count("\n") == 1

    def test_missing_directory(self, tmp_path, capsys):
        out = str(tmp_path / "missing" / "x.csv")
        self._assert_refused(out, capsys)
        assert list(tmp_path.iterdir()) == []

    def test_out_names_a_directory(self, tmp_path, capsys):
        target = tmp_path / "outdir"
        target.mkdir()
        self._assert_refused(str(target), capsys)
        assert list(tmp_path.iterdir()) == [target]
        assert list(target.iterdir()) == []

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_stdout_on_a_full_device(self, unbuffered):
        # buffered, the write succeeds and the flush fails; at exit the
        # interpreter flushes stdout again, which must fail silently
        env = child_env()
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        with open("/dev/full", "w") as full:
            res = subprocess.run(
                [sys.executable, "-m", "ottosta.cli", "cost", "--grid", "tau=3:6:2",
                 "--nodes", "201"],
                stdout=full,
                stderr=subprocess.PIPE,
                text=True,
                env=env,
            )
        assert res.returncode == 2, res.stderr
        assert res.stderr.startswith("ottosta: config error: cannot write output to stdout: ")
        assert res.stderr.count("\n") == 1


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

    def test_roundoff_is_not_an_engine(self, tmp_path, outfile):
        # both baths in the ground state: output -(W1 + W3) = 2.8e-14 and
        # Q2 = 2.8e-14 are roundoff of W1 = -W3 = 173.8, and eta read 1.0,
        # above eta_Carnot = 0.621
        cfg = tmp_path / "roundoff.json"
        cfg.write_text(json.dumps({
            "omega2": 500.907, "beta1": 12.2893, "omega_ratios": [0.305912],
            "beta_ratios": [0.378584], "taus": [3.0], "accountings": ["adiabatic"],
        }))
        assert run_cli(["sweep", "--config", str(cfg), "--out", outfile]) == 0
        _, header, rows = split_output(Path(outfile).read_text())
        (row,) = rows
        assert abs(float(row[header.index("q2")])) < 1e-13
        assert row[header.index("is_engine")] == "false"
        assert row[header.index("status")] == "ok"

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
            env=child_env(),
        )
        assert res.returncode == 0, res.stderr
        assert out.exists()


# -- schema-valid configs through every command --------------------------------

DEFS = SCHEMA["$defs"]
# Largest value drawn for each integer key, and for the "num" of a grid.
_CAPS = {"samples": 64, "nodes": 101, "num": 3}
# Keys left at their schema defaults.
_AT_DEFAULT = {"rtol", "xtol"}
# The axes of a sweep, whose product is capped at _SWEEP_POINTS.
_SWEEP_AXES = ("omega_ratios", "beta_ratios", "taus", "kinds", "accountings")
_SWEEP_POINTS = 36


def _rounded(floats):
    """Floats at six significant digits, as a config file would hold them."""
    return floats.map(lambda x: float(f"{x:.6g}"))


def _valid(schema, key):
    """Values valid under ``schema``, the subschema of config key ``key``:
    omega and beta log-uniform in [1e-3, 1e3], taus in [1e-2, 1e2], ratios
    in [1e-3, 0.999], integers up to _CAPS and at most three items to an
    array."""
    if "$ref" in schema:
        return _valid(DEFS[schema["$ref"].rsplit("/", 1)[1]], key)
    if "oneOf" in schema:
        return st.one_of([_valid(sub, key) for sub in schema["oneOf"]])
    if "enum" in schema:
        return st.sampled_from(schema["enum"])
    kind = schema["type"]
    if kind == "boolean":
        return st.booleans()
    if kind == "integer":
        if "not" in schema:  # odd_nodes: odd integers from the minimum up
            return st.integers(schema["minimum"] // 2, _CAPS[key] // 2).map(lambda k: 2 * k + 1)
        return st.integers(schema["minimum"], _CAPS[key])
    if kind == "number":
        if "exclusiveMaximum" in schema:
            return _rounded(st.floats(1e-3, 0.999))
        lo, hi = (1e-2, 1e2) if key.startswith("tau") else (1e-3, 1e3)
        return _rounded(st.floats(math.log(lo), math.log(hi)).map(math.exp))
    if kind == "array":
        return st.lists(_valid(schema["items"], key), min_size=schema["minItems"], max_size=3)
    return st.fixed_dictionaries(
        {k: _valid(sub, "num" if k == "num" else key) for k, sub in schema["properties"].items()}
    )


def _points(value) -> int:
    return value["num"] if isinstance(value, dict) else len(value)


@st.composite
def _valid_cases(draw):
    """(command, config, oracle): any subset of the command's keys, where
    every key whose default is over a cap is drawn, and --oracle only on
    qstar and empower, since the Fock rows' cost grows as 1/beta. On half
    the cost and cycle draws the frequencies (and a cycle's baths) are put
    in engine order and, where the ramp's tau_min (the larger of the two
    strokes' for cycle) is at most 5, the taus redrawn above it, so that the
    shortcut columns are computed there and not only refused. On half the
    qstar draws tau is over 1e6, so that the Gaussian step budget refuses
    it (exit 4)."""
    command = draw(st.sampled_from(COMMANDS))
    props = DEFS[command]["properties"]
    drawn = {k: _valid(p, k) for k, p in props.items() if k not in _AT_DEFAULT}
    sized = {k for k, p in props.items() if isinstance(p["default"], (list, dict)) or k in _CAPS}
    config = draw(st.fixed_dictionaries(
        {k: v for k, v in drawn.items() if k in sized},
        optional={k: v for k, v in drawn.items() if k not in sized},
    ))
    if command == "sweep":
        # shorten the longest axis until the sweep fits
        while math.prod(_points(config[a]) for a in _SWEEP_AXES) > _SWEEP_POINTS:
            axis = max(_SWEEP_AXES, key=lambda a: _points(config[a]))
            value = config[axis]
            config[axis] = {**value, "num": value["num"] - 1} if isinstance(value, dict) else value[:-1]
    if command in ("cost", "cycle") and draw(st.booleans()):
        # taus s tau_min, s log-uniform on 1000 points of (1, 20], where the
        # shortcut exists, on a compression stroke, and a cycle's baths in
        # engine order
        pairs = [("omega_i", "omega_f")] if command == "cost" else [
            ("omega1", "omega2"), ("beta2", "beta1")]
        value = {k: p["default"] for k, p in props.items()} | config
        for lo, hi in pairs:
            value[lo], value[hi] = sorted((value[lo], value[hi]))
            config[lo], config[hi] = value[lo], value[hi]
        wa, wb = (value[k] for k in pairs[0])
        strokes = [(wa, wb)] if command == "cost" else [(wa, wb), (wb, wa)]
        t_min = max(oracles.tau_min(value["kind"], *ends, n=2001) for ends in strokes)
        scales = draw(st.lists(st.integers(1, 1000), min_size=1, max_size=3))
        if 0.0 < t_min <= 5.0:  # not the constant control; taus up to 1e2
            config["taus"] = [20.0 ** (k / 1000) * t_min for k in scales]
    if command == "qstar" and draw(st.booleans()):
        # tau in (1e6, 1e9] on a stroke whose faster end is at least 1: over
        # 1e6 Magnus steps, which the step budget refuses before the first
        # propagation, exit 4
        taus = st.floats(math.log(1e6), math.log(1e9)).map(math.exp)
        config["tau"] = draw(taus.filter(lambda tau: tau > 1e6))
        config["omega_f"] = max(config.get("omega_f", 1.0), 1.0)
    oracle = command in ("qstar", "empower") and draw(st.booleans())
    return command, config, oracle


def _run_in_process(argv):
    """(exit code, stderr text) of one in-process CLI run."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


class TestSchemaValidConfigs:
    """Configs drawn from the schema's $defs through the builders, the
    renderer and the exit-code map. No exit 1 and no traceback: a config
    the physics or the numerics refuse exits 2, 3 or 4 with one line and
    no file. A dataset is the same bytes twice, its JSON rendering holds
    the same cells, and its rows keep the invariants: bare Q* >= 1, the
    first law, eta <= eta_Carnot on engine rows and non-negative shortcut
    costs."""

    @settings(max_examples=250, derandomize=True, deadline=None)
    @given(_valid_cases())
    def test_every_exit_is_mapped_and_every_dataset_checks(self, case):
        command, config, oracle = case
        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp) / "config.json"
            cfg.write_text(json.dumps(config))
            argv = [command, "--config", str(cfg), *(["--oracle"] if oracle else [])]
            out = Path(tmp) / "a.csv"
            code, err = _run_in_process([*argv, "--out", str(out)])
            assert code in (0, 2, 3, 4), err
            if config.get("tau", 0.0) > 1e6 and code != 2:
                # unless a config error comes first (a constant ramp between
                # two frequencies), the step budget refuses
                assert code == 4 and err.endswith("(no estimate yet)\n"), err
            if code != 0:
                assert err.count("\n") == 1 and err.endswith("\n"), err
                assert list(Path(tmp).iterdir()) == [cfg]
                return
            again = Path(tmp) / "b.csv"
            assert _run_in_process([*argv, "--out", str(again)]) == (0, "")
            assert again.read_bytes() == out.read_bytes()
            meta, header, rows = split_output(out.read_text())
            as_json = Path(tmp) / "c.json"
            assert _run_in_process([*argv, "--format", "json", "--out", str(as_json)]) == (0, "")
            doc = json.loads(as_json.read_text())
        # the JSON table is the CSV table: same metadata, columns and cells
        assert doc["metadata"] == meta and doc["columns"] == header
        assert [[oracles.format_cell(v) for v in row] for row in doc["rows"]] == rows
        records = [dict(zip(header, row, strict=True)) for row in rows]
        if command == "qstar":
            assert all(float(r["q_bare"]) >= 1.0 - 1e-12 for r in records)
        if command == "cost":
            costs = [float(r[c]) for r in records for c in ("avg_work_cost", "avg_variance_cost")]
            assert min(costs) >= 0.0, records
        for r in records if command == "sweep" else []:
            if r["status"] != "ok":
                continue
            w1, w3, q2, q4 = (float(r[c]) for c in ("w1", "w3", "q2", "q4"))
            assert abs(w1 + w3 + q2 + q4) <= 1e-12 * (abs(w1) + abs(w3) + abs(q2) + abs(q4))
            if r["is_engine"] == "true":
                assert float(r["eta"]) <= 1.0 - float(r["beta_ratio"]) + 1e-12, r
