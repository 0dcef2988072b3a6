import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from ottosta import fock_oracle
from ottosta.dynamics import Drive, q_cd
from ottosta.errors import CutoffError, NumericsError
from ottosta.fock_oracle import (
    FockOperators,
    FockState,
    adiabatic_reference,
    build_operators,
    cd_level_energies,
    h0_matrix,
    hcd_matrix,
    irreversible_work,
    mean_energy_fock,
    populations_instantaneous,
    propagate_fock,
    propagate_fock_path,
    relative_entropy,
    stroke_dim,
    stroke_reference,
    thermal_dim,
    thermal_fock,
    thermal_fock_in,
    tpm_variance_excess,
)
from ottosta.protocols import FrequencyProtocol, ProtocolKind
from ottosta.thermo_cycle import CycleConfig

REF = FrequencyProtocol(ProtocolKind.POLY5, 0.35, 1.0, 3.0)


class TestOperators:
    def test_commutator_is_canonical(self):
        ops = build_operators(0.7, 40)
        comm = ops.x @ ops.p - ops.p @ ops.x
        # truncation corrupts only the last diagonal entry
        want = 1j * np.eye(40)
        np.testing.assert_allclose(comm[:-1, :-1], want[:-1, :-1], atol=1e-12)

    def test_h0_in_own_basis_is_diagonal(self):
        ops = build_operators(0.7, 30)
        h = h0_matrix(ops, 0.7)
        want = np.diag((np.arange(30) + 0.5) * 0.7)
        # truncation corrupts the top diagonal entry only
        np.testing.assert_allclose(h[:-1, :-1], want[:-1, :-1], atol=1e-12)

    def test_h0_spectrum_in_mismatched_basis(self):
        # the low part of the spectrum must come out right even when the
        # operator basis belongs to a different frequency
        ops = build_operators(0.6, 160)
        evals = np.linalg.eigvalsh(h0_matrix(ops, 1.0))
        want = (np.arange(8) + 0.5) * 1.0
        np.testing.assert_allclose(evals[:8], want, atol=1e-9)

    def test_cd_matrix_is_hermitian(self):
        ops = build_operators(0.7, 30)
        h = hcd_matrix(ops, 0.8, -0.3)
        np.testing.assert_allclose(h, h.conj().T, atol=1e-14)


class TestThermalStates:
    def test_energy_matches_closed_form(self):
        dim = thermal_dim(2.0, 0.35)
        st = thermal_fock(2.0, 0.35, dim)
        ops = build_operators(0.35, dim)
        want = oracles.thermal_energy(2.0, 0.35)
        assert mean_energy_fock(ops, st, 0.35) == pytest.approx(want, rel=1e-9)

    def test_thermal_in_foreign_basis_matches_own_basis_energy(self):
        ops = build_operators(stroke_reference(REF), 140)
        st = thermal_fock_in(ops, 2.0, 0.35)
        want = oracles.thermal_energy(2.0, 0.35)
        assert mean_energy_fock(ops, st, 0.35) == pytest.approx(want, rel=1e-9)

    def test_populations_are_gibbs(self):
        ops = build_operators(stroke_reference(REF), 140)
        st = thermal_fock_in(ops, 2.0, 0.35)
        pops = populations_instantaneous(ops, st, 0.35)
        want = np.exp(-2.0 * 0.35 * np.arange(6))
        want /= np.exp(-2.0 * 0.35 * np.arange(140)).sum()
        np.testing.assert_allclose(pops[:6], want, rtol=1e-8, atol=1e-12)

    def test_state_validation(self):
        with pytest.raises(ValueError):
            FockState(rho=np.eye(4), ref_omega=1.0)  # trace 4, not 1
        bad = np.zeros((4, 4), dtype=complex)
        bad[0, 0] = 1.0
        bad[0, 1] = 0.5
        with pytest.raises(ValueError):
            FockState(rho=bad, ref_omega=1.0)  # not Hermitian


class TestBarePropagation:
    def test_matches_gaussian_adiabaticity(self):
        beta = 2.0
        ops = build_operators(stroke_reference(REF), stroke_dim(beta, REF))
        st0 = thermal_fock_in(ops, beta, 0.35)
        st = propagate_fock(ops, st0, REF, 3.0, drive=Drive.BARE)
        e = mean_energy_fock(ops, st, 1.0)
        e_ad = (1.0 / 0.35) * oracles.thermal_energy(beta, 0.35)
        q_fock = e / e_ad
        q_gauss = 1.3537365188419324
        assert q_fock == pytest.approx(q_gauss, rel=1e-6)

    def test_trace_is_preserved(self):
        ops = build_operators(stroke_reference(REF), stroke_dim(2.0, REF))
        st0 = thermal_fock_in(ops, 2.0, 0.35)
        st = propagate_fock(ops, st0, REF, 3.0)
        assert float(np.trace(st.rho).real) == pytest.approx(1.0, abs=1e-12)

    def test_reference_basis_mismatch_is_rejected(self):
        ops = build_operators(0.35, 60)
        st0 = thermal_fock(2.0, 0.5, 60)  # ref_omega 0.5 != ops 0.35
        with pytest.raises(ValueError):
            propagate_fock(ops, st0, REF, 1.0)

    def test_truncation_leak_raises(self):
        # a deliberately tiny space cannot hold the driven state
        ops = build_operators(stroke_reference(REF), 12)
        st0 = thermal_fock_in(ops, 2.0, 0.35)
        with pytest.raises(CutoffError, match="top two Fock levels"):
            propagate_fock(ops, st0, REF, 3.0)

    def test_trace_drift_raises(self):
        rho = thermal_fock(2.0, 0.35, 40).rho * (1.0 + 1e-6)
        with pytest.raises(NumericsError, match="trace drift"):
            fock_oracle._check_and_clean(rho, 40)


class TestCounterdiabaticPropagation:
    def test_populations_are_frozen_along_the_ramp(self):
        beta = 2.0
        ops = build_operators(stroke_reference(REF), stroke_dim(beta, REF))
        st0 = thermal_fock_in(ops, beta, 0.35)
        pops0 = populations_instantaneous(ops, st0, 0.35)
        ts = np.linspace(0.3, 3.0, 4)
        states = propagate_fock_path(ops, st0, REF, ts, drive=Drive.CD)
        for t, st in zip(ts, states):
            pops = populations_instantaneous(ops, st, REF.omega(float(t)))
            assert np.max(np.abs(pops[:40] - pops0[:40])) < 1e-10

    def test_energy_tracks_adiabatic_transport(self):
        beta = 2.0
        ops = build_operators(stroke_reference(REF), stroke_dim(beta, REF))
        st0 = thermal_fock_in(ops, beta, 0.35)
        st = propagate_fock(ops, st0, REF, 1.8, drive=Drive.CD)
        w = REF.omega(1.8)
        e_ad = (w / 0.35) * oracles.thermal_energy(beta, 0.35)
        assert mean_energy_fock(ops, st, w) == pytest.approx(e_ad, rel=1e-8)


class TestMixedParity:
    """A superposition of |0> and |1> carries coherences between the even
    and the odd number states, which thermal starts never have; its means
    must follow the classical equations of motion under either drive."""

    @pytest.mark.parametrize("drive", [Drive.BARE, Drive.CD], ids=["bare", "cd"])
    def test_means_follow_classical_motion(self, drive):
        ops = build_operators(stroke_reference(REF), 60)
        psi = np.zeros(60, dtype=complex)
        psi[:2] = 1.0 / math.sqrt(2.0)
        st0 = FockState(rho=np.outer(psi, psi.conj()), ref_omega=ops.ref_omega)
        ts = np.linspace(0.75, 3.0, 4)
        states = propagate_fock_path(ops, st0, REF, ts, drive=drive)
        mean = lambda st, op: float(np.sum(st.rho * op.T).real)
        y0 = [mean(st0, ops.x), mean(st0, ops.p), 0.0, 0.0, 0.0]
        rhs = oracles.covariance_rhs("poly5", 0.35, 1.0, 3.0, drive is Drive.CD)
        for t, st in zip(ts, states):
            want = oracles.rk4_fixed(rhs, y0, 0.0, float(t), 4000)[:2]
            got = [mean(st, ops.x), mean(st, ops.p)]
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-6)


def _dense_expm(m):
    """exp(-i M) from a dense complex eigensolve, V exp(-i lam) V^dagger."""
    lam, v = np.linalg.eigh(m)
    return (v * np.exp(-1j * lam)) @ v.conj().T


def _dense(diag, off):
    """The Hermitian tridiagonal matrix with diagonal ``diag`` and upper
    off-diagonal ``off``."""
    n = diag.size
    m = np.diag(diag).astype(complex)
    m[np.arange(n - 1), np.arange(1, n)] = off
    m[np.arange(1, n), np.arange(n - 1)] = np.conj(off)
    return m


def _random_band(rng, n, scale):
    """A random Hermitian tridiagonal band of shape (2, n): off-diagonals
    drawn zero, real of either sign, or complex."""
    kind = rng.integers(0, 3, size=n - 1)
    off = rng.normal(size=n - 1) * np.where(
        kind == 2, np.exp(2j * np.pi * rng.uniform(size=n - 1)), 1.0
    )
    off[kind == 0] = 0.0
    band = np.zeros((2, n), dtype=complex)
    band[0] = rng.normal(size=n)
    band[1, :-1] = off
    return scale * band


def _random_unitary(rng, n):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


# The two bare strokes of the default `cycle --oracle --grid tau=3:3:1`:
# (protocol, beta, truncation, Magnus exponentials).
_DEFAULT = CycleConfig(omega1=0.35, omega2=1.0, beta1=2.0, beta2=0.2, tau1=3.0, tau3=3.0)
_DEFAULT_STROKES = {
    "compression": (_DEFAULT.compression_protocol(), 2.0, 123, 75),
    "expansion": (_DEFAULT.expansion_protocol(), 0.2, 344, 69),
}


def _stroke_end(name, drive):
    protocol, beta, dim, _ = _DEFAULT_STROKES[name]
    assert stroke_dim(beta, protocol) == dim
    ops = build_operators(stroke_reference(protocol), dim)
    st0 = thermal_fock_in(ops, beta, protocol.omega_i)
    return propagate_fock(ops, st0, protocol, protocol.tau, drive=drive).rho


class TestTridiagonalExponential:
    @given(
        n=st.integers(2, 200),
        seed=st.integers(0, 2**32 - 1),
        scale=st.sampled_from([1e-3, 1.0, 20.0]),
    )
    def test_matches_dense_complex_exponential(self, n, seed, scale):
        # at scale 20 the largest entries reach the 50s, as in the Magnus
        # generators of the default strokes, and both routes err by about
        # eps max|M|
        band = _random_band(np.random.default_rng(seed), n, scale)
        diag, off = band[0].real, band[1, :-1]
        want = _dense_expm(_dense(diag, off))
        got = fock_oracle._expm_tridiagonal(diag, off)
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)

    def test_generator_beyond_tridiagonal_is_refused(self):
        # a hand-built x^2 coupling n = 0 to n = 4 (same parity) is
        # pentadiagonal within the even block; the operator bands refuse it
        # rather than drop the entry
        ops = build_operators(0.6, 20)
        x2 = ops.x2.copy()
        x2[0, 4] = x2[4, 0] = 0.1
        bad = FockOperators(ops.dim, ops.ref_omega, ops.x, ops.p, x2, ops.p2, ops.xp_px)
        st0 = thermal_fock(2.0, 0.6, 20)
        protocol = FrequencyProtocol(ProtocolKind.POLY5, 0.6, 0.8, 1.0)
        with pytest.raises(NumericsError, match="not tridiagonal"):
            propagate_fock(bad, st0, protocol, 1.0)

    def test_operator_mixing_parities_is_refused(self):
        ops = build_operators(0.6, 20)
        xp_px = ops.xp_px.copy()
        xp_px[0, 3] = 0.1j
        xp_px[3, 0] = -0.1j
        bad = FockOperators(ops.dim, ops.ref_omega, ops.x, ops.p, ops.x2, ops.p2, xp_px)
        st0 = thermal_fock(2.0, 0.6, 20)
        protocol = FrequencyProtocol(ProtocolKind.POLY5, 0.6, 0.8, 1.0)
        with pytest.raises(NumericsError, match="even and odd"):
            propagate_fock(bad, st0, protocol, 1.0, drive=Drive.CD)

    def test_generator_leaving_the_band_is_refused(self):
        # tridiagonal within each parity, but x^2's first even off-diagonal
        # is no longer proportional to p^2's, so [H2, H1] gains a second
        # band; the Magnus step refuses it rather than drop it
        ops = build_operators(0.6, 20)
        x2 = ops.x2.copy()
        x2[0, 2] *= 1.5
        x2[2, 0] *= 1.5
        bad = FockOperators(ops.dim, ops.ref_omega, ops.x, ops.p, x2, ops.p2, ops.xp_px)
        st0 = thermal_fock(2.0, 0.6, 20)
        protocol = FrequencyProtocol(ProtocolKind.POLY5, 0.6, 0.8, 1.0)
        with pytest.raises(NumericsError, match="Magnus generator is not tridiagonal"):
            propagate_fock(bad, st0, protocol, 1.0)

    def test_non_hermitian_operator_is_refused(self):
        # the bands keep only the upper off-diagonal, so a lower one that is
        # not its conjugate would be dropped
        ops = build_operators(0.6, 20)
        p2 = ops.p2.copy()
        p2[2, 0] *= 1.5
        bad = FockOperators(ops.dim, ops.ref_omega, ops.x, ops.p, ops.x2, p2, ops.xp_px)
        st0 = thermal_fock(2.0, 0.6, 20)
        protocol = FrequencyProtocol(ProtocolKind.POLY5, 0.6, 0.8, 1.0)
        with pytest.raises(NumericsError, match="not Hermitian"):
            propagate_fock(bad, st0, protocol, 1.0)


class TestBandArithmetic:
    @given(
        n=st.integers(2, 200),
        seed=st.integers(0, 2**32 - 1),
        scale=st.sampled_from([1e-3, 1.0, 20.0]),
    )
    def test_commutator_matches_dense(self, n, seed, scale):
        rng = np.random.default_rng(seed)
        a, b = _random_band(rng, n, scale), _random_band(rng, n, scale)
        dense_a, dense_b = _dense(a[0], a[1, :-1]), _dense(b[0], b[1, :-1])
        want = dense_a @ dense_b - dense_b @ dense_a
        got = fock_oracle._commutator(a, b)
        tol = 1e-13 * np.linalg.norm(dense_a) * np.linalg.norm(dense_b)
        for j in range(3):
            assert np.linalg.norm(got[j, : n - j] - np.diagonal(want, j)) <= tol
            assert not np.any(got[j, n - j :])

    @pytest.mark.parametrize("dim", [4, 7, 40, 61])
    def test_apply_matches_dense_update(self, dim):
        rng = np.random.default_rng(dim)
        us = (_random_unitary(rng, (dim + 1) // 2), _random_unitary(rng, dim // 2))
        u = np.zeros((dim, dim), dtype=complex)
        for s, ub in zip(fock_oracle._PARITIES, us):
            u[s, s] = ub
        z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        rho = z @ z.conj().T
        rho /= np.trace(rho).real
        got = fock_oracle._apply(us, rho)
        assert np.max(np.abs(got - u @ rho @ u.conj().T)) <= 1e-13
        # the off-parity blocks carry the coherences, exactly Hermitian
        assert np.array_equal(got[1::2, 0::2], got[0::2, 1::2].conj().T)


class TestMagnusStepSequence:
    @pytest.mark.parametrize("name", sorted(_DEFAULT_STROKES))
    def test_default_strokes_keep_their_step_count(self, name, monkeypatch):
        # perfbench counts Magnus exponentials as ramp evaluations / 2
        counts = {"steps": 0, "evals": 0}
        step_u = fock_oracle._magnus_step_u
        evaluate = FrequencyProtocol.eval

        def counted_step(*args):
            counts["steps"] += 1
            return step_u(*args)

        def counted_eval(self, t):
            counts["evals"] += 1
            return evaluate(self, t)

        monkeypatch.setattr(fock_oracle, "_magnus_step_u", counted_step)
        monkeypatch.setattr(FrequencyProtocol, "eval", counted_eval)
        _stroke_end(name, Drive.BARE)
        assert counts["steps"] == _DEFAULT_STROKES[name][3]
        assert counts["evals"] == 2 * counts["steps"]

    @pytest.mark.parametrize("drive", [Drive.BARE, Drive.CD], ids=["bare", "cd"])
    def test_matches_dense_eigh_route(self, drive, monkeypatch):
        got = _stroke_end("compression", drive)
        monkeypatch.setattr(
            fock_oracle, "_expm_tridiagonal", lambda diag, off: _dense_expm(_dense(diag, off))
        )
        want = _stroke_end("compression", drive)
        assert np.max(np.abs(got - want)) <= 1e-13


class TestSpectralData:
    def test_cd_levels_match_closed_forms(self):
        t = 1.5
        w = REF.omega(t)
        wd = REF.eval(t)[1]
        q = q_cd(REF, t)
        ops = build_operators(stroke_reference(REF), 160)
        evals, h0_exp = cd_level_energies(ops, w, wd, 4)
        n = np.arange(4) + 0.5
        np.testing.assert_allclose(evals, (w / q) * n, rtol=1e-10)
        np.testing.assert_allclose(h0_exp, (w * q) * n, rtol=1e-10)
        assert evals[0] == pytest.approx(0.3021045295529447, abs=1e-12)
        assert h0_exp[0] == pytest.approx(0.37704250965240029, abs=1e-12)

    def test_truncation_guard_on_level_count(self):
        ops = build_operators(0.7, 40)
        with pytest.raises(ValueError):
            cd_level_energies(ops, 0.7, -0.1, 30)


class TestTwoPointMeasurement:
    def test_excess_matches_closed_form(self):
        from ottosta.sta_cost import StrokeContext, work_variance_excess

        got = tpm_variance_excess(REF, 2.0, 1.5)
        want = work_variance_excess(StrokeContext(REF, 2.0), 1.5)
        assert got == pytest.approx(want, abs=1e-8)
        assert got == pytest.approx(0.11298335917402848, abs=1e-8)

    def test_zero_at_stroke_end(self):
        got = tpm_variance_excess(REF, 2.0, 3.0)
        assert got == pytest.approx(0.0, abs=1e-8)


class TestRelativeEntropy:
    def test_reference_values(self):
        dim = 40
        vac = np.zeros((dim, dim), dtype=complex)
        vac[0, 0] = 1.0
        th = thermal_fock(2.0, 0.35, dim).rho
        s = relative_entropy(vac, th)
        # for a pure ground state, S(vac || thermal) = -ln(1 - e^{-beta omega})
        assert s == pytest.approx(-math.log(1.0 - math.exp(-0.7)), abs=1e-12)
        assert s == pytest.approx(0.68634100280838511, abs=1e-10)
        assert relative_entropy(th, vac) == math.inf
        assert relative_entropy(th, th) == pytest.approx(0.0, abs=1e-12)

    def test_nonnegative_on_random_states(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            a = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
            rho = a @ a.conj().T
            rho /= np.trace(rho).real
            b = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
            sig = b @ b.conj().T
            sig /= np.trace(sig).real
            assert relative_entropy(rho, sig) >= -1e-12

    def test_irreversible_work_positive_for_bare_drive(self):
        beta = 2.0
        ops = build_operators(stroke_reference(REF), stroke_dim(beta, REF))
        st0 = thermal_fock_in(ops, beta, 0.35)
        st = propagate_fock(ops, st0, REF, 3.0, drive=Drive.BARE)
        ad = adiabatic_reference(ops, st0, REF, 3.0)
        w_irr = irreversible_work(st, ad, beta)
        assert w_irr > 0.0
        # and it is tiny for the counterdiabatic drive
        st_cd = propagate_fock(ops, st0, REF, 3.0, drive=Drive.CD)
        assert irreversible_work(st_cd, ad, beta) < 1e-6 * w_irr
