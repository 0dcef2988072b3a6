import dataclasses
import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from ottosta import fock_oracle
from ottosta.errors import CutoffError, NumericsError, TrapInversionError
from ottosta.fock_oracle import (
    FockState,
    cd_level_energies,
    mean_energy_fock,
    propagate_fock_path,
    stroke_dim,
    thermal_fock_in,
    tpm_variance_excess,
)
from ottosta.protocols import FrequencyProtocol, ProtocolKind
from ottosta.sta_cost import work_variance_excess
from ottosta.thermo_cycle import CycleConfig
from readouts import mean_energy, q_cd, states, thermal_state, variance_term

REF = FrequencyProtocol(ProtocolKind.POLY5, 0.35, 1.0, 3.0)


def thermal_dim(beta, omega):
    """Levels holding all but 1e-10 of the thermal weight at (beta, omega),
    whose tail beyond N levels is exp(-beta omega N), plus 12 guard levels."""
    return max(math.ceil(math.log(1e10) / (beta * omega)), 4) + 12


def thermal_fock(beta, omega, dim):
    """Truncated Gibbs state of the trap at ``omega`` in its own basis."""
    pops = np.exp(-beta * omega * np.arange(dim))
    return oracles.fock_state(np.diag(pops / pops.sum()), omega)


def loop_rho(state):
    """The parity blocks of ``state`` in the unvalidated format of the
    Magnus loop."""
    return fock_oracle._Rho(state.even, state.odd)


def parity_diagonal(rho):
    """rho with its coherences between even and odd n set to zero: still a
    density matrix, of the same trace, as every Fock oracle state is."""
    rho = np.array(rho, dtype=complex)
    rho[0::2, 1::2] = 0.0
    rho[1::2, 0::2] = 0.0
    return rho


def random_rho(rng, dim):
    """A random full-rank density matrix without coherences between even
    and odd n, exactly Hermitian."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = parity_diagonal(z @ z.conj().T)
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real


def random_state(rng, dim, omega):
    """The FockState of random_rho."""
    return oracles.fock_state(random_rho(rng, dim), omega)


def dense_reference(protocol, beta, ts, cd):
    """(number basis frequency, dense density matrices at ``ts``) of the
    thermal start at (beta, omega_i) driven through ``protocol`` by the
    dense fixed-basis route, on stroke_dim levels of the geometric mean of
    the endpoint frequencies: 100 Magnus steps per stroke under the bare
    drive (energies within about 3e-9), 50 under the counterdiabatic one,
    whose populations and energies come out within 1e-13."""
    wi, wf = protocol.omega_i, protocol.omega_f
    ref, dim = math.sqrt(wi * wf), stroke_dim(beta, protocol)
    rho0 = oracles.dense_thermal(beta, wi, ref, dim)
    steps = 50 if cd else 100
    kind, tau = protocol.kind.value, protocol.tau
    return ref, oracles.dense_stroke(kind, wi, wf, tau, rho0, ref, ts, cd, steps)


class TestOperators:
    def test_commutator_is_canonical(self):
        # the dense reference: truncation corrupts only the last diagonal
        # entry of [x, p] = i
        x, p = oracles.dense_operators(0.7, 40)
        comm = x @ p - p @ x
        want = 1j * np.eye(40)
        np.testing.assert_allclose(comm[:-1, :-1], want[:-1, :-1], atol=1e-12)
        # the su(1,1) brackets on coefficient triples of A = N + 1/2, K and
        # L = a^dagger^2 + a^2: the structure constants -i[A, K] = 2L,
        # -i[A, L] = -2K and -i[K, L] = -8A, and the bracket of random
        # triples, against the dense -i[X, Y] of their bands below the top
        # level of each parity block, where the truncation corrupts the
        # products
        blocks = fock_oracle._bands(40)
        bracket = fock_oracle._su11_bracket
        a, k, l = np.eye(3)
        for x, y, want in ((a, k, 2.0 * l), (a, l, -2.0 * k), (k, l, -8.0 * a)):
            np.testing.assert_array_equal(bracket(x, y), want)
            for block in blocks:
                got = _dense_bracket(_triple_dense(block, x), _triple_dense(block, y))
                np.testing.assert_allclose(
                    got[:-1, :-1], _triple_dense(block, want)[:-1, :-1], rtol=0.0, atol=1e-12
                )
        for x, y in np.random.default_rng(7).normal(size=(20, 2, 3)):
            for block in blocks:
                want = _dense_bracket(_triple_dense(block, x), _triple_dense(block, y))[:-1, :-1]
                got = _triple_dense(block, bracket(x, y))[:-1, :-1]
                assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)

    def test_h0_in_own_basis_is_diagonal(self):
        # omega (N + 1/2) on every level; the dense products of x and p
        # agree except on the top level, where a a^dagger loses its entry in
        # the truncation
        n = np.arange(30)
        got = np.zeros((30, 30), dtype=complex)
        for s, block in zip(fock_oracle._PARITIES, fock_oracle._bands(30)):
            h = fock_oracle._band(block, (0.7, 0.0, 0.0))
            np.testing.assert_allclose(h[1], 0.0, atol=1e-12)
            np.testing.assert_allclose(h[0], (n[s] + 0.5) * 0.7, atol=1e-12)
            got[s, s] = _dense(*h)
        want = oracles.dense_h0(0.7, 30, 0.7)
        np.testing.assert_allclose(got[:-1, :-1], want[:-1, :-1], atol=1e-13)

    def test_cd_matrix_is_hermitian(self):
        # H0 - (omegadot / 4 omega)(xp + px) in the number basis of omega,
        # the matrix cd_level_energies diagonalizes, against the dense
        # products below the top level
        x, p = oracles.dense_operators(0.8, 30)
        want = oracles.dense_h0(0.8, 30, 0.8) + (0.3 / 3.2) * (x @ p + p @ x)
        got = np.zeros((30, 30), dtype=complex)
        for s, block in zip(fock_oracle._PARITIES, fock_oracle._bands(30)):
            h = fock_oracle._band(block, (0.8, 0.3 / 3.2, 0.0))  # omegadot = -0.3
            # a real diagonal and the upper off-diagonal: Hermitian
            assert np.isrealobj(h[0])
            got[s, s] = _dense(*h)
        np.testing.assert_allclose(got[:-1, :-1], want[:-1, :-1], atol=1e-13)

    def test_quadratic_operators_are_real_or_imaginary(self):
        # N + 1/2 real, K imaginary: their bands at x = (1, 0, 0), (0, 1, 0)
        for block in fock_oracle._bands(61):
            number, k = (fock_oracle._band(block, x) for x in np.eye(3)[:2])
            assert not np.any(np.imag(number[1]))
            assert not np.any(k[0]) and not np.any(np.real(k[1]))

    @pytest.mark.parametrize("dim", [4, 61, 344])
    def test_real_products_match_the_complex_construction(self, dim):
        # the closed-form bands against the complex products of the dense
        # a / a^dagger construction at two frequencies, parity coupling
        # included: K = xp + px everywhere, N + 1/2 = (p^2 / w + w x^2) / 2
        # below the top level
        blocks = fock_oracle._bands(dim)
        for w in (0.59, 1.7):
            x, p = oracles.dense_operators(w, dim)
            number = 0.5 * (p @ p / w + w * (x @ x))
            cases = [((0, 1, 0), x @ p + p @ x, dim), ((1, 0, 0), number, dim - 1)]
            for coefficients, want, top in cases:
                got = np.zeros((dim, dim), dtype=complex)
                for s, block in zip(fock_oracle._PARITIES, blocks):
                    got[s, s] = _dense(*fock_oracle._band(block, coefficients))
                gap = np.max(np.abs(got[:top, :top] - want[:top, :top]))
                assert gap <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("ratio", [0.35, 1.25, 1.0 / 0.35])
    def test_k_moves_the_number_basis_with_omega(self, ratio):
        # the frame: d|n_t>/dt = i (omegadot / 4 omega) K |n_t>, with K the
        # same matrix in every number basis, so the number states of
        # omega' = ratio omega are exp(i ln(ratio) K / 4) applied to those of
        # omega; that rotation makes the dense H0(omega') diagonal,
        # omega' (N + 1/2), on the lowest levels, far below the truncation
        dim, w = 120, 0.8
        k = np.zeros((dim, dim), dtype=complex)
        for s, block in zip(fock_oracle._PARITIES, fock_oracle._bands(dim)):
            k[s, s] = _dense(*fock_oracle._band(block, (0.0, 1.0, 0.0)))
        lam, v = np.linalg.eigh(k)
        t = (v * np.exp(0.25j * math.log(ratio) * lam)) @ v.conj().T
        got = (t.conj().T @ oracles.dense_h0(w, dim, ratio * w) @ t)[:16, :16]
        want = np.diag(ratio * w * (np.arange(16) + 0.5))
        assert np.max(np.abs(got - want)) <= 1e-12

    @pytest.mark.parametrize("ref_omega", [0.0, -1.0, math.nan])
    def test_bad_reference_frequency_is_refused(self, ref_omega):
        # a state's number basis needs a positive frequency
        with pytest.raises(ValueError, match="omega must be positive"):
            thermal_fock_in(10, 2.0, ref_omega)

    def test_truncation_above_the_cap_is_refused(self):
        # refused before any band or state is allocated, whatever asked for it
        cap = fock_oracle._MAX_LEVELS
        assert sum(block.number.size for block in fock_oracle._bands(cap)) == cap
        message = f"needs {cap + 1} levels, over the {cap} allowed"
        asks = [
            lambda: fock_oracle._bands(cap + 1),
            lambda: thermal_fock_in(cap + 1, 2.0, 0.35),
            lambda: cd_level_energies(cap + 1, 0.7, -0.1, 4),
        ]
        for ask in asks:
            tracemalloc.start()
            try:
                with pytest.raises(CutoffError, match=message):
                    ask()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # the smallest array of cap + 1 levels takes 32 KiB
            assert peak < 16 * 1024


class TestThermalStates:
    def test_energy_matches_closed_form(self):
        dim = thermal_dim(2.0, 0.35)
        want = oracles.thermal_energy(2.0, 0.35)
        for st in (thermal_fock(2.0, 0.35, dim), thermal_fock_in(dim, 2.0, 0.35)):
            assert mean_energy_fock(st) == pytest.approx(want, rel=1e-9)

    def test_populations_are_gibbs(self):
        # in its own number basis the Gibbs state is diagonal
        st = thermal_fock_in(140, 2.0, 0.35)
        assert st.omega == 0.35
        rho = oracles.dense_rho(st)
        assert not np.any(rho - np.diag(np.diagonal(rho)))
        want = np.exp(-2.0 * 0.35 * np.arange(140))
        np.testing.assert_allclose(np.diagonal(rho).real, want / want.sum(), rtol=1e-12, atol=0.0)

    def test_state_validation(self):
        even, odd = np.diag([0.5, 0.25, 0.0]), np.diag([0.25, 0.0])
        st = FockState(even, odd, 1.0)
        assert st.dim == 5 and not st.even.flags.writeable
        with pytest.raises(ValueError, match="trace"):
            FockState(np.eye(2), np.eye(2), 1.0)  # trace 4, not 1
        bad = even.astype(complex)
        bad[0, 1] = 0.1
        with pytest.raises(ValueError, match="not Hermitian"):
            FockState(bad, odd, 1.0)
        with pytest.raises(ValueError, match="parity blocks"):
            FockState(np.diag([0.5, 0.25, 0.25]), np.zeros((1, 1)), 1.0)  # 3 and 1
        with pytest.raises(ValueError, match="parity blocks"):
            FockState(even, odd[:, :1], 1.0)
        with pytest.raises(ValueError):
            FockState(np.diag([math.nan, 0.5]), np.diag([0.5]), 1.0)

    def test_nan_beta_is_refused(self):
        with pytest.raises(ValueError, match="beta must be positive"):
            thermal_fock_in(60, math.nan, 0.35)

    @pytest.mark.parametrize("dim", [7, 60])
    def test_dense_round_trip(self, dim):
        # dense -> parity blocks -> dense is exact on a random state without
        # coherences between the parities, at odd and even dims; a state
        # with one has no parity blocks and is refused
        rho = random_rho(np.random.default_rng(dim), dim)
        st = oracles.fock_state(rho, 0.6)
        assert st.dim == dim
        assert st.even.shape == ((dim + 1) // 2,) * 2 and st.odd.shape == (dim // 2,) * 2
        assert np.array_equal(oracles.dense_rho(st), rho)
        mixed = rho.copy()
        mixed[0, 1] = mixed[1, 0] = 1e-3
        with pytest.raises(ValueError, match="coherence between even and odd"):
            oracles.fock_state(mixed, 0.6)


class TestBarePropagation:
    def test_matches_gaussian_adiabaticity(self):
        beta = 2.0
        st0 = thermal_fock_in(stroke_dim(beta, REF), beta, 0.35)
        st = propagate_fock_path(st0, REF, [3.0])[-1]
        assert st.omega == 1.0
        e_ad = (1.0 / 0.35) * oracles.thermal_energy(beta, 0.35)
        q_fock = mean_energy_fock(st) / e_ad
        q_gauss = 1.3537365188419324
        assert q_fock == pytest.approx(q_gauss, rel=1e-6)

    def test_matches_the_dense_fixed_basis_route(self):
        # the instantaneous frame against a dense propagation in the fixed
        # number basis of sqrt(omega_i omega_f): at each checkpoint the
        # state is in the number basis of omega(t), so its diagonal is the
        # dense route's populations on the H0(omega(t)) levels and its
        # energy omega(t) sum (n + 1/2) rho_nn is the dense Tr[rho H0]
        beta, ts = 2.0, np.linspace(0.75, 3.0, 4)
        got = propagate_fock_path(thermal_fock_in(stroke_dim(beta, REF), beta, 0.35), REF, ts)
        ref, want = dense_reference(REF, beta, ts, cd=False)
        for t, st, rho in zip(ts, got, want):
            w = REF.eval(float(t))[0]
            assert st.omega == w
            e = float(np.trace(rho @ oracles.dense_h0(ref, st.dim, w)).real)
            assert mean_energy_fock(st) == pytest.approx(e, rel=1e-7)
            pops = oracles.dense_populations(rho, ref, w)
            gap = np.max(np.abs(fock_oracle._diagonal(st)[:60] - pops[:60]))
            assert gap <= 1e-8

    def test_trace_is_preserved(self):
        st0 = thermal_fock_in(stroke_dim(2.0, REF), 2.0, 0.35)
        st = propagate_fock_path(st0, REF, [3.0])[-1]
        assert float(np.trace(oracles.dense_rho(st)).real) == pytest.approx(1.0, abs=1e-12)

    def test_reference_basis_mismatch_is_rejected(self):
        # a start state must be in the number basis of the stroke's omega_i
        for omega in (0.5, 0.35 * (1.0 + 1e-9)):
            with pytest.raises(ValueError, match="does not match"):
                propagate_fock_path(thermal_fock(2.0, omega, 60), REF, [1.0])

    def test_nan_checkpoint_is_refused(self):
        st0 = thermal_fock_in(60, 2.0, 0.35)
        with pytest.raises(ValueError, match="finite"):
            propagate_fock_path(st0, REF, [math.nan])

    def test_truncation_leak_raises(self):
        # a deliberately tiny space cannot hold the driven state; here the
        # start state already fills the top two of its 12 levels
        st0 = thermal_fock_in(12, 2.0, 0.35)
        with pytest.raises(CutoffError, match="enlarge the truncation"):
            propagate_fock_path(st0, REF, [3.0])

    def test_clipped_step_lands_on_its_checkpoint(self):
        # t + h of a step clipped to target - t can fall one ulp short of
        # the checkpoint when t < target / 2; the next trial would then be
        # one ulp wide and refused as a step size underflow
        st0 = thermal_fock_in(40, 4.0, 0.5)
        tau = 2.962818336518323
        protocol = FrequencyProtocol(ProtocolKind.POLY5, 0.5, 0.6, tau)
        ts = [0.23335226440986848, 0.41608014772947566, tau]
        out = propagate_fock_path(st0, protocol, ts)
        end = propagate_fock_path(st0, protocol, [tau])[-1]
        assert len(out) == 3
        assert mean_energy_fock(out[-1]) == pytest.approx(mean_energy_fock(end), rel=0.0, abs=1e-10)

    def test_trace_drift_raises(self):
        st = thermal_fock(2.0, 0.35, 40)
        rho = fock_oracle._Rho(st.even * (1.0 + 1e-6), st.odd * (1.0 + 1e-6))
        with pytest.raises(NumericsError, match="trace drift"):
            fock_oracle._check_and_clean(rho)
        rho = fock_oracle._Rho(st.even * math.nan, st.odd)
        with pytest.raises(NumericsError, match="trace drift"):
            fock_oracle._check_and_clean(rho)

    def test_leak_counts_the_top_level_of_each_parity(self):
        # 6e-7 on each of the top two levels, one even and one odd: neither
        # alone exceeds the 1e-6 limit, their sum does
        pops = np.zeros(40)
        pops[0] = 1.0 - 1.2e-6
        pops[-2:] = 6e-7
        rho = loop_rho(oracles.fock_state(np.diag(pops), 1.0))
        with pytest.raises(CutoffError, match="top two Fock levels"):
            fock_oracle._check_and_clean(rho)

    def test_lagging_window_redoes_the_step(self, monkeypatch):
        # a fast front on a wide stroke: the window, sized from the last
        # step's front speed, falls behind an accelerating front long
        # before the cap of stroke_dim levels. Each step that leaves more
        # than the truncation's tail weight _DIM_TAIL = 1e-10 in the
        # window's top two levels is redone on a larger window, so the
        # stroke returns below its cap of 2487 levels; the top two levels
        # then hold at most 9.8e-11 after an accepted step (the parent
        # refused the stroke at 1.36e-6). The end energy is 1.3e-8 from the
        # full-dim run (_WINDOW_TAIL = 0, too slow for the suite),
        # 89.59521094944355
        beta = 0.5
        protocol = FrequencyProtocol(ProtocolKind.POLY5, 0.3, 3.0, 0.723)
        dim = stroke_dim(beta, protocol)
        st0 = thermal_fock_in(dim, beta, protocol.omega_i)
        tops, sizes = [], _recording_sizes(monkeypatch)
        clean = fock_oracle._check_and_clean

        def recorded(rho):
            tops.append(fock_oracle._top_weight(rho))
            return clean(rho)

        monkeypatch.setattr(fock_oracle, "_check_and_clean", recorded)
        end = propagate_fock_path(st0, protocol, [protocol.tau])[-1]
        assert end.dim == dim
        assert 0.0 < max(tops) <= 9.8e-11
        assert sizes == sorted(sizes) and sizes[-1] < dim
        assert mean_energy_fock(end) == pytest.approx(89.59521094944355, rel=1.5e-8, abs=0.0)


class TestCounterdiabaticPropagation:
    """In the instantaneous frame the counterdiabatic drive is the diagonal
    omega (N + 1/2), so the oracle never propagates it: the populations of
    its start state are the transported ones. The dense fixed-basis route
    checks that premise."""

    def test_populations_are_frozen_along_the_ramp(self):
        beta = 2.0
        pops0 = fock_oracle._diagonal(thermal_fock_in(stroke_dim(beta, REF), beta, 0.35))
        ts = np.linspace(0.3, 3.0, 4)
        ref, rhos = dense_reference(REF, beta, ts, cd=True)
        for t, rho in zip(ts, rhos):
            pops = oracles.dense_populations(rho, ref, REF.eval(float(t))[0])
            assert np.max(np.abs(pops[:40] - pops0[:40])) < 1e-10

    def test_energy_tracks_adiabatic_transport(self):
        # the dense route against the closed form and against the RK4 run
        # of the counterdiabatic moment equations
        beta = 2.0
        ref, (rho,) = dense_reference(REF, beta, [1.8], cd=True)
        w = REF.eval(1.8)[0]
        e = float(np.trace(rho @ oracles.dense_h0(ref, len(rho), w)).real)
        e_ad = (w / 0.35) * oracles.thermal_energy(beta, 0.35)
        assert e == pytest.approx(e_ad, rel=1e-8)
        c = 1.0 / math.tanh(0.35)
        y0 = [0.0, 0.0, c / 0.7, 0.0, 0.175 * c]
        rhs = oracles.covariance_rhs("poly5", 0.35, 1.0, 3.0, cd=True)
        _, _, sxx, _, spp = oracles.rk4_fixed(rhs, y0, 0.0, 1.8, 6000)
        assert e == pytest.approx(0.5 * (spp + w * w * sxx), rel=1e-8)


class TestDenseReference:
    """The dense fixed-basis route of oracles.dense_stroke, the reference
    for counterdiabatic transitionlessness and for the instantaneous frame,
    against the Gaussian moment propagation under the bare drive and the
    closed-form transported energy (omega_t / omega_i) E0 under the
    counterdiabatic one."""

    @pytest.mark.parametrize("cd", [False, True], ids=["bare", "cd"])
    @pytest.mark.parametrize("kind", ["poly3", "cosine"])
    def test_energy_matches_the_gaussian_route(self, kind, cd):
        p = FrequencyProtocol(kind, 0.35, 1.0, 3.0)
        ts = [1.5, 3.0]
        ref, rhos = dense_reference(p, 2.0, ts, cd=cd)
        if cd:
            e0 = oracles.thermal_energy(2.0, 0.35)
            want = [p.eval(t)[0] / 0.35 * e0 for t in ts]
        else:
            gauss = states(thermal_state(2.0, 0.35), p, ts)
            want = [mean_energy(st, p.eval(t)[0]) for t, st in zip(ts, gauss)]
        for t, rho, e_want in zip(ts, rhos, want):
            w = p.eval(t)[0]
            e = float(np.trace(rho @ oracles.dense_h0(ref, len(rho), w)).real)
            assert e == pytest.approx(e_want, rel=1e-7)


class TestMixedParity:
    """A superposition of |0> and |1> carries coherences between the even
    and the odd number states, which thermal starts never have, so the Fock
    oracle never carries them; under the counterdiabatic drive, through the
    dense route in the fixed number basis of omega_i, its means must follow
    the classical equations of motion."""

    def test_means_follow_classical_motion(self):
        psi = np.zeros(60, dtype=complex)
        psi[:2] = 1.0 / math.sqrt(2.0)
        rho0 = np.outer(psi, psi.conj())
        ts = np.linspace(0.75, 3.0, 4)
        rhos = oracles.dense_stroke("poly5", 0.35, 1.0, 3.0, rho0, 0.35, ts, True, 50)
        x, p = oracles.dense_operators(0.35, 60)
        mean = lambda rho, op: float(np.sum(rho * op.T).real)
        y0 = [mean(rho0, x), mean(rho0, p), 0.0, 0.0, 0.0]
        rhs = oracles.covariance_rhs("poly5", 0.35, 1.0, 3.0, cd=True)
        for t, rho in zip(ts, rhos):
            want = oracles.rk4_fixed(rhs, y0, 0.0, float(t), 4000)[:2]
            got = [mean(rho, x), mean(rho, p)]
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-6)

    @pytest.mark.parametrize("dim", [7, 60, 344])
    def test_mean_energy_matches_the_dense_trace(self, dim):
        # omega sum (n + 1/2) rho_nn against Tr[rho omega (a^dagger a + 1/2)]
        # with the dense annihilator, on a random state with coherences
        # within each parity
        st = random_state(np.random.default_rng(dim), dim, 0.6)
        x, p = oracles.dense_operators(0.6, dim)
        a = (math.sqrt(0.6) * x + 1j * p / math.sqrt(0.6)) / math.sqrt(2.0)
        h0 = 0.6 * (a.conj().T @ a + 0.5 * np.eye(dim))
        want = float(np.trace(oracles.dense_rho(st) @ h0).real)
        assert mean_energy_fock(st) == pytest.approx(want, rel=1e-12)


def _dense_expm(m):
    """exp(-i M) from a dense complex eigensolve, V exp(-i lam) V^dagger."""
    lam, v = np.linalg.eigh(m)
    return (v * np.exp(-1j * lam)) @ v.conj().T


def _dense(diag, off):
    """The Hermitian tridiagonal matrix with diagonal ``diag`` and upper
    off-diagonal ``off``."""
    m = np.diag(diag).astype(complex)
    k = np.arange(len(off))
    m[k, k + 1] = off
    m[k + 1, k] = np.conj(off)
    return m


def _random_triple(rng, n, scale):
    """A random parity block of n levels, even or odd, and a random triple
    (x_A, x_K, x_L) whose band there has entries up to about ``scale``:
    x_K and x_L each drawn zero or not, so that the off-diagonal unit
    c = x_L - i x_K is zero, real of either sign, imaginary or complex."""
    block = fock_oracle._bands(2 * n)[int(rng.integers(0, 2))]
    x = rng.normal(size=3) * (rng.uniform(size=3) < [1.0, 2.0 / 3.0, 2.0 / 3.0])
    return block, tuple((scale / (2.0 * n)) * x)


def _block_unitary(us, n):
    """The dense block-diagonal U_even + U_odd on n levels in Fock order."""
    u = np.zeros((n, n), dtype=complex)
    for s, ub in zip(fock_oracle._PARITIES, us):
        u[s, s] = ub
    return u


def _random_unitary(rng, n):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


# The two strokes of the default `cycle --oracle --grid tau=3:3:1`:
# (protocol, beta, truncation, Magnus exponentials per parity block).
_DEFAULT = CycleConfig(omega1=0.35, omega2=1.0, beta1=2.0, beta2=0.2, tau1=3.0, tau3=3.0)
_DEFAULT_STROKES = {
    "compression": (_DEFAULT.compression_protocol(), 2.0, 123, 8),
    "expansion": (_DEFAULT.expansion_protocol(), 0.2, 344, 8),
}


def _default_protocol(name, tau):
    """The protocol of the default cycle's stroke ``name`` at duration tau."""
    config = dataclasses.replace(_DEFAULT, tau1=tau, tau3=tau)
    return getattr(config, f"{name}_protocol")()


def _stroke_end(name, tau=3.0):
    _, beta, dim, _ = _DEFAULT_STROKES[name]
    protocol = _default_protocol(name, tau)
    assert stroke_dim(beta, protocol) == dim
    st0 = thermal_fock_in(dim, beta, protocol.omega_i)
    return oracles.dense_rho(propagate_fock_path(st0, protocol, [protocol.tau])[-1])


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
        block, x = _random_triple(np.random.default_rng(seed), n, scale)
        want = _dense_expm(_triple_dense(block, x))
        got = fock_oracle._expm_tridiagonal(block, x)
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


class TestBandArithmetic:
    @given(
        n=st.integers(2, 200),
        seed=st.integers(0, 2**32 - 1),
        scale=st.sampled_from([1e-3, 1.0, 20.0]),
    )
    def test_commutator_matches_dense(self, n, seed, scale):
        # the banded product D @ M of the commutator [D, rho], for the band
        # D of a triple, against dense matrices
        rng = np.random.default_rng(seed)
        block, x = _random_triple(rng, n, scale)
        y = _random_triple(rng, n, scale)[1]
        dense_a, dense_b = _triple_dense(block, x), _triple_dense(block, y)
        tol = 1e-13 * np.linalg.norm(dense_a) * np.linalg.norm(dense_b)
        got = fock_oracle._band_times(block, y, dense_a)
        assert np.linalg.norm(got - dense_b @ dense_a) <= tol

    @pytest.mark.parametrize("dim", [4, 7, 40, 61])
    def test_apply_matches_dense_update(self, dim):
        rng = np.random.default_rng(dim)
        us = (_random_unitary(rng, (dim + 1) // 2), _random_unitary(rng, dim // 2))
        u = _block_unitary(us, dim)
        rho = random_rho(rng, dim)
        rho_blocks = loop_rho(oracles.fock_state(rho, 1.0))
        got = oracles.dense_rho(fock_oracle._apply(us, rho_blocks))
        assert np.max(np.abs(got - u @ rho @ u.conj().T)) <= 1e-13


def _counting(monkeypatch):
    """Patch the Magnus trial step, the exponential and the ramp to count
    trials, exponentials, ramp calls and ramp nodes; returns the counts."""
    counts = {"trials": 0, "exps": 0, "evals": 0, "nodes": 0}
    pair = fock_oracle._magnus_pair
    expm = fock_oracle._expm_tridiagonal
    evaluate = FrequencyProtocol.eval

    def counted(key, fn):
        def wrapped(*args):
            counts[key] += 1
            return fn(*args)

        return wrapped

    def evaluated(protocol, t):
        counts["nodes"] += np.size(t)
        return counted("evals", evaluate)(protocol, t)

    monkeypatch.setattr(fock_oracle, "_magnus_pair", counted("trials", pair))
    monkeypatch.setattr(fock_oracle, "_expm_tridiagonal", counted("exps", expm))
    monkeypatch.setattr(FrequencyProtocol, "eval", evaluated)
    return counts


class TestMagnusStepSequence:
    @pytest.mark.parametrize("name", sorted(_DEFAULT_STROKES))
    def test_default_strokes_keep_their_step_count(self, name, monkeypatch):
        # one exponential per parity block per accepted step, and one ramp
        # evaluation at seven nodes per trial step, accepted or not
        counts = _counting(monkeypatch)
        _stroke_end(name)
        # one more ramp evaluation reads omega at the checkpoint
        assert counts["exps"] == 2 * _DEFAULT_STROKES[name][3]
        assert counts["evals"] == counts["trials"] + 1
        assert counts["nodes"] == 7 * counts["trials"] + 1

    @pytest.mark.parametrize("tau, exps", [(2.25, 8), (3.0, 8), (6.0, 11), (12.0, 16)])
    def test_exponentials_at_every_default_tau(self, tau, exps, monkeypatch):
        # per parity block, on both strokes of the default cycle: at most 10
        # at tau = 3 and at most 20 at tau = 12
        counts = _counting(monkeypatch)
        for name in _DEFAULT_STROKES:
            counts["exps"] = 0
            _stroke_end(name, tau)
            assert counts["exps"] == 2 * exps, name

    @pytest.mark.parametrize(
        "ts, exps",
        [
            ([3.0], 8),
            ([1.0, 1.0 + 1e-9, 3.0], 10),
            (np.linspace(0.75, 3.0, 4), 9),
            (np.linspace(0.3, 3.0, 10), 11),
        ],
        ids=["end", "close_pair", "four", "ten"],
    )
    def test_clipped_step_keeps_the_proposal(self, ts, exps, monkeypatch):
        # per parity block, on the default hot stroke at tau = 3: a step
        # clipped to a checkpoint keeps the controller's proposal, so a
        # checkpoint 1e-9 past the previous one costs two exponentials more
        # than the end alone, not a restart from a 1e-9 step (23 in all)
        protocol, beta, dim, _ = _DEFAULT_STROKES["expansion"]
        counts = _counting(monkeypatch)
        propagate_fock_path(thermal_fock_in(dim, beta, protocol.omega_i), protocol, ts)
        assert counts["exps"] == 2 * exps

    def test_rejected_trial_makes_no_exponential(self, monkeypatch):
        # a trial is rejected when the next one starts at the same time; the
        # default compression stroke at tau = 6 rejects three of its 14
        # trials
        events = []
        pair = fock_oracle._magnus_pair
        expm = fock_oracle._expm_tridiagonal

        def trial(protocol, t, h):
            events.append(t)
            return pair(protocol, t, h)

        def exponential(block, x):
            events.append("exp")
            return expm(block, x)

        monkeypatch.setattr(fock_oracle, "_magnus_pair", trial)
        monkeypatch.setattr(fock_oracle, "_expm_tridiagonal", exponential)
        _stroke_end("compression", 6.0)
        starts = [i for i, e in enumerate(events) if e != "exp"] + [len(events)]
        rejected = 0
        for i, j, k in zip(starts, starts[1:], starts[2:] + [None]):
            retried = k is not None and events[j] == events[i]
            rejected += retried
            assert j - i - 1 == (0 if retried else 2)
        assert rejected == 3

    def test_matches_dense_eigh_route(self, monkeypatch):
        got = _stroke_end("compression")
        monkeypatch.setattr(
            fock_oracle, "_expm_tridiagonal", lambda block, x: _dense_expm(_triple_dense(block, x))
        )
        want = _stroke_end("compression")
        assert np.max(np.abs(got - want)) <= 1e-13


def _dense_bracket(a, b):
    """-i[A, B] for Hermitian A and B, from one product: BA = (AB)^dagger."""
    p = a @ b
    return -1j * (p - p.conj().T)


def _triple_dense(block, x):
    """The dense x_A (N + 1/2) + x_K K + x_L L on one parity block, from
    the bands of N + 1/2 and K: L's band is i times K's."""
    return _dense(*fock_oracle._band(block, x))


# dexp^{-1}_X = sum_k B_k/k! ad_X^k, cut after ad^6.
_BERNOULLI = (1.0, -0.5, 1.0 / 12.0, 0.0, -1.0 / 720.0, 0.0, 1.0 / 30240.0)
# Levels the dense route needs above a window: each of its brackets
# corrupts one more level of each parity block from the top, and Omega8
# nests 7 x 6 of them.
_DENSE_PAD = 86


def _dense_tridiagonal_bracket(a, b):
    """The tridiagonal part of -i[A, B] for Hermitian A and B, from one
    dense product P = AB: -i(P - P^dagger) on three diagonals. Every exact
    bracket of the Magnus pair is a combination of N + 1/2, K and L,
    tridiagonal in a parity block, so the cut drops roundoff and, on the
    top levels, the truncation's artefacts, which nested brackets would
    otherwise amplify to overflow."""
    p = a @ b
    out = np.zeros_like(p)
    for k in (-1, 0, 1):
        i = np.arange(len(p) - abs(k))
        out[i + max(-k, 0), i + max(k, 0)] = -1j * (
            np.diagonal(p, k) - np.diagonal(p, -k).conj()
        )
    return out


def _dense_dexpinv(x, y):
    """dexp^{-1}_X(Y) as its Bernoulli series of six nested dense brackets."""
    out, term = y.copy(), y
    for c in _BERNOULLI[1:]:
        term = _dense_tridiagonal_bracket(x, term)
        out += c * term
    return out


def _dense_pair(blocks, protocol, t, h):
    """(Omega8, Omega8 - Omega6) of each parity block from dense matrices
    and dense brackets -i[A, B]: Blanes' three-node
    Omega6 = a1 + a3/12 + {-20 a1 - a3 + C1, a2 + C2}/240, and Omega8 of
    the four-stage Gauss collocation on the Magnus equation, its stages
    from seven fixed-point sweeps with the Bernoulli series of dexp^{-1}.
    Valid on the window _DENSE_PAD levels below the top of ``blocks``."""
    r = math.sqrt(15.0)
    nodes3 = [protocol.eval(t + c * h) for c in (0.5 - r / 10.0, 0.5, 0.5 + r / 10.0)]
    nodes4 = [protocol.eval(t + c * h) for c in fock_oracle._NODES8]
    out = []
    for block in blocks:
        h1, h2, h3 = (h * _triple_dense(block, (w, wd / (4.0 * w), 0.0)) for w, wd in nodes3)
        a1 = h2
        a2 = (r / 3.0) * (h3 - h1)
        a3 = (10.0 / 3.0) * (h3 - 2.0 * h2 + h1)
        c1 = _dense_tridiagonal_bracket(a1, a2)
        c2 = -_dense_tridiagonal_bracket(a1, 2.0 * a3 + c1) / 60.0
        tail = _dense_tridiagonal_bracket(-20.0 * a1 - a3 + c1, a2 + c2)
        omega6 = a1 + a3 / 12.0 + tail / 240.0
        hs = [h * _triple_dense(block, (w, wd / (4.0 * w), 0.0)) for w, wd in nodes4]
        fs = hs
        for _ in range(7):
            stages = [sum(a * f for a, f in zip(row, fs)) for row in fock_oracle._MATRIX8]
            fs = [_dense_dexpinv(x, y) for x, y in zip(stages, hs)]
        omega8 = sum(b * f for b, f in zip(fock_oracle._WEIGHTS8, fs))
        out.append((omega8, omega8 - omega6))
    return out


@functools.lru_cache(maxsize=None)
def _dense_default_pair(name, t, h):
    """_dense_pair of the default stroke ``name`` on its truncation plus
    _DENSE_PAD levels, valid on every window up to the truncation; computed
    once per session, read-only."""
    protocol, _, dim, _ = _DEFAULT_STROKES[name]
    pair = _dense_pair(fock_oracle._bands(dim + _DENSE_PAD), protocol, t, h)
    for m in (m for ms in pair for m in ms):
        m.setflags(write=False)
    return pair


class TestCollocationTableau:
    def test_gauss_order_conditions(self):
        # the four Gauss-Legendre nodes are the roots of the shifted
        # Legendre polynomial P4(2c - 1); the weights integrate polynomials
        # of degree 7 exactly, and the stage matrix those of degree 3 over
        # [0, c_i]
        c = np.array(fock_oracle._NODES8)
        x = 2.0 * c - 1.0
        np.testing.assert_allclose((35.0 * x**4 - 30.0 * x**2 + 3.0) / 8.0, 0.0, atol=1e-14)
        b, a = np.array(fock_oracle._WEIGHTS8), np.array(fock_oracle._MATRIX8)
        for k in range(1, 9):
            assert b @ c ** (k - 1) == pytest.approx(1.0 / k, rel=1e-14)
        for k in range(1, 5):
            np.testing.assert_allclose(a @ c ** (k - 1), c**k / k, rtol=0.0, atol=1e-15)

    def test_dexpinv_matches_the_bernoulli_series(self):
        # the two-bracket form against six nested brackets, on random
        # triples of both signs of s = 16 (x_K^2 + x_L^2) - 4 x_A^2
        bracket = fock_oracle._su11_bracket
        for x, y in np.random.default_rng(11).normal(size=(40, 2, 3)):
            want, term = np.array(y), y
            for c in _BERNOULLI[1:]:
                term = bracket(x, term)
                want = want + c * np.array(term)
            got = fock_oracle._dexpinv(tuple(x), tuple(y))
            assert np.linalg.norm(np.array(got) - want) <= 1e-14 * np.linalg.norm(want)


class TestErrorEstimate:
    """The step's error estimate ||[Omega8 - Omega6, rho]||_F, built on
    bands from rho's parity blocks."""

    @pytest.mark.parametrize("at_cap", [False, True], ids=["below_cap", "at_cap"])
    @pytest.mark.parametrize("name", sorted(_DEFAULT_STROKES))
    def test_matches_dense_route(self, name, at_cap):
        protocol, _, dim, _ = _DEFAULT_STROKES[name]
        n = dim if at_cap else dim - 40
        blocks = fock_oracle._bands(n)
        # the dense route on _DENSE_PAD more levels than the truncation, cut
        # to the window: the truncation corrupts its nested brackets only on
        # the top levels of each parity block, so the cut is the compression
        # of the exact pair
        sizes = ((n + 1) // 2, n // 2)
        # a random state without off-parity coherences, as every state of
        # the oracle, decaying slowly enough that the top of the window is
        # occupied
        rng = np.random.default_rng(n)
        z = (rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3))) * np.exp(
            -3.0 * np.arange(n) / n
        )[:, None]
        rho = parity_diagonal(z @ z.conj().T / np.linalg.norm(z) ** 2)
        rho_blocks = loop_rho(oracles.fock_state(rho, 1.0))
        for t in (0.0, 1.0, 2.5):
            omega8, gap = fock_oracle._magnus_pair(protocol, t, 0.05)
            want = _dense_default_pair(name, t, 0.05)
            d = np.zeros((n, n), dtype=complex)
            gap_error, scale = 0.0, 0.0
            for s, k, block, (omega8_dense, gap_dense) in zip(
                fock_oracle._PARITIES, sizes, blocks, want
            ):
                scale = max(scale, float(np.max(np.abs(omega8_dense[:k, :k]))))
                np.testing.assert_allclose(
                    _triple_dense(block, omega8), omega8_dense[:k, :k], rtol=0.0, atol=1e-14 * scale
                )
                miss = _triple_dense(block, gap) - gap_dense[:k, :k]
                gap_error = max(gap_error, float(np.max(np.abs(miss))))
                d[s, s] = gap_dense[:k, :k]
            # D = Omega8 - Omega6 is a difference of generators, so both
            # routes carry the roundoff of Omega8 in it
            assert gap_error <= 1e-14 * scale
            est = fock_oracle._frobenius(fock_oracle._commutator(blocks, gap, rho_blocks))
            want_est = np.linalg.norm(d @ rho - rho @ d)
            # ||[E, rho]||_F <= 2 ||E||_2 ||rho||_F, and a tridiagonal E has
            # ||E||_2 <= 3 max|E_ij|: the estimates differ by that roundoff
            assert abs(est - want_est) <= 6.0 * gap_error * np.linalg.norm(rho)
            assert est == pytest.approx(want_est, rel=1e-4)

    @pytest.mark.parametrize("name", sorted(_DEFAULT_STROKES))
    def test_estimates_the_one_step_gap(self, name):
        # one small step from the thermal start: the estimate is the leading
        # term of ||e^{-i Omega8} rho e^{i Omega8} - e^{-i Omega6} rho e^{i Omega6}||
        protocol, beta, dim, _ = _DEFAULT_STROKES[name]
        st = thermal_fock_in(dim, beta, protocol.omega_i)
        rho = oracles.dense_rho(st)
        blocks = fock_oracle._bands(dim)
        omega8, gap = fock_oracle._magnus_pair(protocol, 1.0, 0.05)
        u6, u8 = np.zeros((dim, dim), complex), np.zeros((dim, dim), complex)
        for s, block in zip(fock_oracle._PARITIES, blocks):
            u6[s, s] = _dense_expm(_triple_dense(block, omega8) - _triple_dense(block, gap))
            u8[s, s] = _dense_expm(_triple_dense(block, omega8))
        want = np.linalg.norm(u8 @ rho @ u8.conj().T - u6 @ rho @ u6.conj().T)
        est = fock_oracle._frobenius(fock_oracle._commutator(blocks, gap, loop_rho(st)))
        assert est == pytest.approx(want, rel=0.1)


def _rho_distance(a, b):
    return fock_oracle._frobenius(fock_oracle._Rho(*(x - y for x, y in zip(a, b))))


class TestLocalExtrapolation:
    """An accepted step advances rho under exp(-i Omega8), exponentiated
    directly on its tridiagonal bands; Omega6 = Omega8 - D only steers h."""

    def test_step_is_of_eighth_order(self):
        # one step from the thermal start against eight Omega8 steps: halving
        # h cuts the Omega8 step's error by 2^9 = 512 in the limit, the
        # Omega6 step's by 2^7 = 128. On the expansion stroke at t = 1 both
        # ratios are near their limits at h = 0.4 (496 and 107); on the
        # compression stroke there the Omega8 ratio still climbs (235 at
        # h = 0.4, 302 at h = 0.3), and at h = 0.1 the error is roundoff.
        protocol, beta, dim, _ = _DEFAULT_STROKES["expansion"]
        blocks = fock_oracle._bands(dim)
        rho = loop_rho(thermal_fock_in(dim, beta, protocol.omega_i))

        def errors(t, h):
            want = rho
            for k in range(8):
                omega8, _ = fock_oracle._magnus_pair(protocol, t + k * h / 8, h / 8)
                want = fock_oracle._advance(blocks, omega8, want)
            omega8, gap = fock_oracle._magnus_pair(protocol, t, h)
            sixth = fock_oracle._advance(blocks, tuple(np.subtract(omega8, gap)), rho)
            eighth = fock_oracle._advance(blocks, omega8, rho)
            return [_rho_distance(r, want) for r in (sixth, eighth)]

        (sixth_h, eighth_h), (sixth_half, eighth_half) = errors(1.0, 0.4), errors(1.0, 0.2)
        assert 80.0 < sixth_h / sixth_half < 200.0
        assert 350.0 < eighth_h / eighth_half < 700.0
        assert eighth_h < 0.01 * sixth_h

    def test_fixed_steps_converge_at_eighth_order(self):
        # N fixed Omega8 steps over the whole compression stroke against 64:
        # the global error falls by 2^8 = 256 per halving of the step
        protocol, beta, dim, _ = _DEFAULT_STROKES["compression"]
        blocks = fock_oracle._bands(dim)
        rho0 = loop_rho(thermal_fock_in(dim, beta, protocol.omega_i))

        def fixed(steps):
            rho, h = rho0, protocol.tau / steps
            for k in range(steps):
                omega8, _ = fock_oracle._magnus_pair(protocol, k * h, h)
                rho = fock_oracle._advance(blocks, omega8, rho)
            return rho

        want = fixed(64)
        ratio = _rho_distance(fixed(8), want) / _rho_distance(fixed(16), want)
        assert ratio == pytest.approx(256.0, rel=0.3)


def _recording_sizes(monkeypatch):
    """Patch _commutator, the error estimate of every trial step, to record
    the window size (both parity blocks) of each; returns the list it
    appends to."""
    sizes = []
    commutator = fock_oracle._commutator

    def recorded(blocks, *args):
        sizes.append(sum(b.number.size for b in blocks))
        return commutator(blocks, *args)

    monkeypatch.setattr(fock_oracle, "_commutator", recorded)
    return sizes


# The default expansion stroke's end energy at each default tau, propagated
# with the window opened at its cap, the full dim 344 (_WINDOW_TAIL = 0).
_FULL_DIM_ENERGY = {
    2.25: 2.538765736230576,
    3.0: 2.376930445628413,
    6.0: 1.9233633507344619,
    12.0: 1.7831314693402027,
}


class TestActiveWindow:
    @pytest.fixture(scope="class")
    def expansion(self):
        # the default expansion stroke: (truncation, protocol, end state,
        # window size of every trial step)
        protocol, beta, dim, _ = _DEFAULT_STROKES["expansion"]
        st0 = thermal_fock_in(dim, beta, protocol.omega_i)
        with pytest.MonkeyPatch.context() as mp:
            sizes = _recording_sizes(mp)
            end = propagate_fock_path(st0, protocol, [protocol.tau])[-1]
        return dim, protocol, end, sizes

    def test_window_grows_below_the_cap(self, expansion):
        dim, _, _, sizes = expansion
        assert sizes == sorted(sizes)
        assert sizes[0] < sizes[-1] < dim

    def test_padded_levels_are_exactly_zero(self, expansion):
        dim, _, end, sizes = expansion
        n = sizes[-1]
        assert end.dim == dim
        rho = oracles.dense_rho(end)
        assert not np.any(rho[n:, :])
        assert not np.any(rho[:, n:])

    @pytest.mark.parametrize("tau", sorted(_FULL_DIM_ENERGY))
    def test_final_energy_matches_the_full_dim_propagation(self, tau):
        protocol = _default_protocol("expansion", tau)
        st0 = thermal_fock_in(344, 0.2, protocol.omega_i)
        end = propagate_fock_path(st0, protocol, [tau])[-1]
        assert mean_energy_fock(end) == pytest.approx(_FULL_DIM_ENERGY[tau], rel=1e-10, abs=0.0)

    def test_leak_at_the_cap_raises_after_growing(self, monkeypatch):
        # a fast eightfold compression squeezes the vacuum beyond dim 40 of
        # the instantaneous frame: the window opens far below its cap of 40
        # levels, grows into it and is refused there
        # by the same leak check as a propagation opened at the cap
        rho = np.zeros((40, 40), dtype=complex)
        rho[0, 0] = 1.0
        st0 = oracles.fock_state(rho, 1.0)
        protocol = FrequencyProtocol(ProtocolKind.POLY5, 1.0, 8.0, 0.25)
        sizes = _recording_sizes(monkeypatch)
        with pytest.raises(CutoffError, match="top two Fock levels"):
            propagate_fock_path(st0, protocol, [0.25])
        assert sizes[0] < sizes[-1] == 40


class TestSpectralData:
    def test_cd_levels_match_closed_forms(self):
        t = 1.5
        w, wd = REF.eval(t)
        q = float(q_cd(REF, [t])[0])
        evals, h0_exp = cd_level_energies(160, w, wd, 4)
        n = np.arange(4) + 0.5
        np.testing.assert_allclose(evals, (w / q) * n, rtol=1e-14)
        np.testing.assert_allclose(h0_exp, (w * q) * n, rtol=1e-14)
        assert evals[0] == pytest.approx(0.3021045295529447, abs=1e-12)
        assert h0_exp[0] == pytest.approx(0.37704250965240029, abs=1e-12)

    @pytest.mark.parametrize("kind", ["poly5", "poly3", "cosine"])
    def test_cd_levels_match_closed_forms_along_the_ramp(self, kind):
        # omega/Q*_CD (n + 1/2) and omega Q*_CD (n + 1/2) to 1e-14 at the
        # lowest 8 levels, at five instants of each shortcut ramp
        p = FrequencyProtocol(kind, 0.35, 1.0, 3.0)
        ts = np.linspace(0.3, 2.7, 5)
        n = np.arange(8) + 0.5
        for t, q in zip(ts, q_cd(p, ts)):
            w, wd = p.eval(float(t))
            evals, h0_exp = cd_level_energies(160, w, wd, 8)
            np.testing.assert_allclose(evals, (w / q) * n, rtol=1e-14)
            np.testing.assert_allclose(h0_exp, (w * q) * n, rtol=1e-14)

    @pytest.mark.parametrize("n_levels", [4, 80])
    def test_cd_levels_match_dense_eigh_route(self, n_levels):
        # the two parity eigensolves, merged by eigenvalue, against one dense
        # complex eigh of the full counterdiabatic Hamiltonian in the number
        # basis of the instant's omega, H0 = omega (a^dagger a + 1/2) with
        # the dense annihilator
        w, wd = REF.eval(1.5)
        x, p = oracles.dense_operators(w, 160)
        a = (math.sqrt(w) * x + 1j * p / math.sqrt(w)) / math.sqrt(2.0)
        h0 = w * (a.conj().T @ a + 0.5 * np.eye(160))
        lam, v = np.linalg.eigh(h0 - (wd / (4.0 * w)) * (x @ p + p @ x))
        v = v[:, :n_levels]
        evals, h0_exp = cd_level_energies(160, w, wd, n_levels)
        np.testing.assert_allclose(evals, lam[:n_levels], rtol=0.0, atol=1e-12)
        want = np.sum(v.conj() * (h0 @ v), axis=0).real
        np.testing.assert_allclose(h0_exp, want, rtol=0.0, atol=1e-11)

    def test_truncation_guard_on_level_count(self):
        with pytest.raises(ValueError):
            cd_level_energies(40, 0.7, -0.1, 30)


class TestTwoPointMeasurement:
    def test_excess_matches_closed_form(self):
        got = tpm_variance_excess(REF, 2.0, 1.5)
        want = variance_term(REF, 2.0, 1.5)
        assert got == pytest.approx(want, abs=1e-8)
        assert got == pytest.approx(0.11298335917402848, abs=1e-8)

    def test_zero_at_stroke_end(self):
        got = tpm_variance_excess(REF, 2.0, 3.0)
        assert got == pytest.approx(0.0, abs=1e-8)

    def test_refused_below_tau_min(self):
        # poly5 0.35 -> 1 at tau = 1.5, below tau_min = 2.0678498, where the
        # validity margin at t = 0.45 is about -0.90: the closed form and
        # the matrix route refuse alike
        p = FrequencyProtocol(ProtocolKind.POLY5, 0.35, 1.0, 1.5)
        with pytest.raises(TrapInversionError):
            work_variance_excess([p], [[0.45]])
        with pytest.raises(TrapInversionError, match="tau_min"):
            tpm_variance_excess(p, 2.0, 0.45)


class TestRelativeEntropy:
    def test_reference_values(self):
        dim = 40
        vac = np.zeros((dim, dim), dtype=complex)
        vac[0, 0] = 1.0
        th = oracles.dense_rho(thermal_fock(2.0, 0.35, dim))
        s = oracles.relative_entropy(vac, th)
        # for a pure ground state, S(vac || thermal) = -ln(1 - e^{-beta omega})
        assert s == pytest.approx(-math.log(1.0 - math.exp(-0.7)), abs=1e-12)
        assert s == pytest.approx(0.68634100280838511, abs=1e-10)
        assert oracles.relative_entropy(th, vac) == math.inf
        assert oracles.relative_entropy(th, th) == pytest.approx(0.0, abs=1e-12)

    def test_nonnegative_on_random_states(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            a = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
            rho = a @ a.conj().T
            rho /= np.trace(rho).real
            b = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
            sig = b @ b.conj().T
            sig /= np.trace(sig).real
            assert oracles.relative_entropy(rho, sig) >= -1e-12

    def test_irreversible_work_positive_for_bare_drive(self):
        beta = 2.0
        st0 = thermal_fock_in(stroke_dim(beta, REF), beta, 0.35)
        st = propagate_fock_path(st0, REF, [3.0])[-1]
        # in the number basis of omega_f the adiabatically transported state
        # has the start's populations, so its matrix is st0's
        ad = oracles.dense_rho(st0)
        # W_irr = S(rho || rho_adiabatic) / beta
        w_irr = oracles.relative_entropy(oracles.dense_rho(st), ad) / beta
        assert w_irr > 0.0
        # and it is tiny for the counterdiabatic drive, by the dense
        # fixed-basis route: the transported state is the Gibbs state at
        # omega_f and beta omega_i / omega_f there
        ref, (rho_cd,) = dense_reference(REF, beta, [3.0], cd=True)
        ad_dense = oracles.dense_thermal(beta * 0.35, 1.0, ref, len(rho_cd))
        assert oracles.relative_entropy(rho_cd, ad_dense) / beta < 1e-6 * w_irr
