import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ottosta import dynamics
from ottosta.dynamics import (
    _transfer_matrices,
    adiabaticity_stack,
    coth_half,
    q_cd_grid,
    transfer_matrices,
)
from ottosta.errors import NumericsError, TrapInversionError
from ottosta.protocols import FrequencyProtocol, ProtocolKind
from readouts import GaussianState, mean_energy, pair, q_star, states, thermal_state

REF = FrequencyProtocol(ProtocolKind.POLY5, 0.35, 1.0, 3.0)
EXPANSION = FrequencyProtocol(ProtocolKind.COSINE, 1.0, 0.35, 3.0)


def grown(state0, m):
    """The GaussianState M mean(0), M cov(0) M^T for each transfer matrix
    M of the stack m (K, 2, 2)."""
    return [GaussianState(mean=mk @ state0.mean, cov=mk @ state0.cov @ mk.T) for mk in m]


def cd_states(state0, protocol, ts, steps=6000):
    """The GaussianState grown from ``state0`` under the counterdiabatic
    drive at each ascending checkpoint, from the transfer matrices of the
    RK4 oracle (the package books that drive in closed form and never
    propagates it)."""
    p = protocol
    return grown(
        state0, oracles.cd_transfer_matrices(p.kind.value, p.omega_i, p.omega_f, p.tau, ts, steps)
    )


class TestStatesAndEnergies:
    def test_thermal_state_moments(self):
        st_ = thermal_state(2.0, 0.35)
        c = 1.0 / math.tanh(0.35)
        assert st_.mean == pytest.approx([0.0, 0.0])
        assert st_.cov[0, 0] == pytest.approx(c / (2 * 0.35), rel=1e-15)
        assert st_.cov[1, 1] == pytest.approx(c * 0.35 / 2, rel=1e-15)
        assert st_.cov[0, 1] == 0.0

    def test_thermal_energy_closed_form(self):
        st_ = thermal_state(2.0, 0.35)
        want = oracles.thermal_energy(2.0, 0.35)
        assert mean_energy(st_, 0.35) == pytest.approx(want, rel=1e-15)
        assert want == pytest.approx(0.52025185227206215, abs=1e-16)

    def test_high_beta_limits_to_ground_state(self):
        st_ = thermal_state(1e6, 1.0)
        assert mean_energy(st_, 1.0) == pytest.approx(0.5, rel=1e-12)
        # 1 / tanh(z) rounds to exactly 1 from z of about 19.1 up, and at inf
        for beta in (40.0, 1400.0, math.inf):  # z = beta omega / 2 = 20, 700, inf
            assert coth_half(beta, 1.0) == 1.0

    def test_mean_contributes_to_energy(self):
        base = thermal_state(2.0, 1.0)
        shifted = GaussianState(mean=np.array([0.3, -0.4]), cov=base.cov)
        extra = 0.5 * (0.4**2 + 1.0**2 * 0.3**2)
        assert mean_energy(shifted, 1.0) == pytest.approx(mean_energy(base, 1.0) + extra, rel=1e-14)

    def test_state_validation(self):
        with pytest.raises(ValueError):
            GaussianState(mean=np.zeros(3), cov=np.eye(2))
        with pytest.raises(ValueError):
            GaussianState(mean=np.zeros(2), cov=np.array([[1.0, 0.5], [0.4, 1.0]]))
        with pytest.raises(ValueError):
            # determinant below the uncertainty floor of 1/4
            GaussianState(mean=np.zeros(2), cov=np.diag([0.1, 0.1]))
        with pytest.raises(ValueError):
            GaussianState(mean=np.zeros(2), cov=np.full((2, 2), math.nan))

    def test_states_are_read_only(self):
        st_ = thermal_state(2.0, 0.35)
        with pytest.raises((ValueError, AttributeError)):
            st_.cov[0, 0] = 99.0


class TestPropagation:
    def test_matches_brute_force_reference(self):
        st_ = states(thermal_state(2.0, 0.35), REF, [3.0])[0]
        c = 1.0 / math.tanh(0.35)
        y0 = np.array([0.0, 0.0, c / (2 * 0.35), 0.0, c * 0.35 / 2])
        brute = oracles.rk4_fixed(
            oracles.covariance_rhs("poly5", 0.35, 1.0, 3.0, cd=False), y0, 0.0, 3.0, 40000
        )
        assert st_.cov[0, 0] == pytest.approx(brute[2], rel=1e-8)
        assert st_.cov[0, 1] == pytest.approx(brute[3], rel=1e-8)
        assert st_.cov[1, 1] == pytest.approx(brute[4], rel=1e-8)

    def test_determinant_is_preserved(self):
        st0 = thermal_state(2.0, 0.35)
        d0 = float(np.linalg.det(st0.cov))
        for t in (0.7, 1.5, 3.0):
            st_ = states(st0, REF, [t])[0]
            assert float(np.linalg.det(st_.cov)) == pytest.approx(d0, rel=1e-9)

    def test_path_checkpoints_match_single_calls(self):
        ts = np.array([0.0, 0.9, 1.8, 3.0])
        path = states(thermal_state(2.0, 0.35), REF, ts)
        for t, sp in zip(ts, path):
            ss = states(thermal_state(2.0, 0.35), REF, [t])[0]
            np.testing.assert_allclose(sp.cov, ss.cov, rtol=1e-9, atol=1e-13)

    def test_step_budget_exhaustion_raises(self, monkeypatch):
        import ottosta.dynamics as dyn

        monkeypatch.setattr(dyn, "_MAX_STEPS", 3)
        with pytest.raises(NumericsError):
            transfer_matrices([REF], [[3.0]])


class TestAdiabaticity:
    def test_reference_value_both_routes(self):
        q_cov, q_pair = q_star(REF, 3.0, beta=2.0)
        assert q_cov == pytest.approx(1.3537365188419324, abs=1e-10)
        assert q_pair == pytest.approx(q_cov, abs=1e-9)

    def test_against_brute_rk4(self):
        q_brute = oracles.brute_adiabaticity("poly5", 0.35, 1.0, 3.0, 2.0)
        q_cov, q_pair = q_star(REF, 3.0, beta=2.0)
        assert q_cov == pytest.approx(q_brute, abs=1e-8)
        q_brute_pair = oracles.brute_pair_q("poly5", 0.35, 1.0, 3.0)
        assert q_pair == pytest.approx(q_brute_pair, abs=1e-8)

    @pytest.mark.parametrize("beta", [0.2, 1.0, 5.0])
    def test_energy_route_is_beta_independent(self, beta):
        assert q_star(REF, 3.0, beta=beta)[0] == pytest.approx(1.3537365188419324, abs=1e-8)

    def test_final_factor_at_least_one(self):
        for tau in (0.5, 1.0, 3.0, 8.0):
            p = FrequencyProtocol(ProtocolKind.LINEAR, 0.35, 1.0, tau)
            assert q_star(p, tau)[1] >= 1.0 - 1e-12

    def test_slow_limit_approaches_one(self):
        qs = [q_star(FrequencyProtocol(ProtocolKind.POLY5, 0.35, 1.0, tau), tau)[1]
              for tau in (5.0, 10.0, 20.0, 40.0)]
        assert qs[0] > qs[1] > qs[2] > qs[3] >= 1.0
        assert qs[3] == pytest.approx(1.0, abs=1e-4)

    def test_paths_are_consistent(self):
        ts = np.linspace(0.0, 3.0, 5)
        qe, qp = (q[0] for q in adiabaticity_stack([REF], [2.0], [ts]))
        np.testing.assert_allclose(qp, qe, rtol=1e-8)

    def test_wronskian_is_conserved(self):
        ts = np.linspace(0.0, 3.0, 9)
        rows = pair(REF, ts)
        w = rows[:, 0] * rows[:, 3] - rows[:, 2] * rows[:, 1]
        np.testing.assert_allclose(w, -1.0, atol=1e-10)

    def test_sudden_quench_closed_form(self):
        assert oracles.sudden_quench_q(0.35, 1.0) == pytest.approx(1.6035714285714286, abs=1e-15)
        # symmetric in the two frequencies
        assert oracles.sudden_quench_q(1.0, 0.35) == oracles.sudden_quench_q(0.35, 1.0)

    def test_fast_ramp_approaches_quench(self):
        p = FrequencyProtocol(ProtocolKind.LINEAR, 0.35, 1.0, 1e-4)
        assert q_star(p, 1e-4)[1] == pytest.approx(oracles.sudden_quench_q(0.35, 1.0), abs=1e-3)

    @given(
        st.sampled_from([ProtocolKind.POLY5, ProtocolKind.POLY3, ProtocolKind.COSINE, ProtocolKind.LINEAR]),
        st.floats(0.2, 0.8),
        st.floats(0.9, 1.6),
        st.floats(0.5, 6.0),
    )
    def test_random_ramps_factor_at_least_one(self, kind, wi, wf, tau):
        p = FrequencyProtocol(kind, wi, wf, tau)
        assert q_star(p, tau)[1] >= 1.0 - 1e-11


class TestCounterdiabatic:
    """The closed-form CD accounting, and the premise behind it, checked on
    the RK4 oracle's counterdiabatic moments: the drive transports the
    thermal state onto the instantaneous thermal state."""

    def test_cd_tracks_adiabatic_energy_exactly(self):
        ts = np.linspace(0.0, 3.0, 11)
        path = cd_states(thermal_state(2.0, 0.35), REF, ts)
        e0 = oracles.thermal_energy(2.0, 0.35)
        for t, st_ in zip(ts, path):
            w = REF.eval(t)[0]
            # the bare-Hamiltonian mean energy in the driven state equals
            # (w / w_i) * E0 exactly at every instant
            assert mean_energy(st_, w) == pytest.approx((w / 0.35) * e0, rel=1e-10)

    def test_cd_final_state_is_adiabatic_target(self):
        st_ = cd_states(thermal_state(2.0, 0.35), REF, [3.0])[0]
        c = 1.0 / math.tanh(0.35)
        assert st_.cov[0, 0] == pytest.approx(c / 2.0, rel=1e-9)  # omega_f = 1
        assert st_.cov[1, 1] == pytest.approx(c / 2.0, rel=1e-9)
        assert st_.cov[0, 1] == pytest.approx(0.0, abs=1e-9)

    def test_q_cd_closed_form_midpoint(self):
        assert q_cd_grid([REF], [[1.5]])[0, 0] == pytest.approx(1.1171629915626675, abs=1e-14)

    def test_q_cd_equals_inverse_sqrt_margin(self):
        ts = np.linspace(0.0, 3.0, 7)
        qs = q_cd_grid([REF], [ts])[0]
        margins = oracles.validity_margin(REF, ts)
        np.testing.assert_allclose(qs, 1.0 / np.sqrt(margins), rtol=1e-14)

    def test_q_cd_is_one_at_ends_for_sta_ramps(self):
        for kind in (ProtocolKind.POLY5, ProtocolKind.POLY3, ProtocolKind.COSINE):
            p = FrequencyProtocol(kind, 0.35, 1.0, 3.0)
            q_start, q_end = q_cd_grid([p], [[0.0, p.tau]])[0]
            assert q_start == pytest.approx(1.0, abs=1e-14)
            assert q_end == pytest.approx(1.0, abs=1e-14)

    def test_q_cd_linear_nonzero_at_ends(self):
        p = FrequencyProtocol(ProtocolKind.LINEAR, 0.35, 1.0, 3.0)
        assert q_cd_grid([p], [[3.0]])[0, 0] == pytest.approx(1.005920217065088, abs=1e-12)
        assert q_cd_grid([p], [[0.0]])[0, 0] > 1.5  # slope over 4 w^4 is large at the slow end

    def test_q_cd_raises_on_trap_inversion(self):
        fast = FrequencyProtocol(ProtocolKind.POLY5, 0.35, 1.0, 1.5)
        with pytest.raises(TrapInversionError):
            q_cd_grid([fast], [np.linspace(0.0, 1.5, 101)])

    def test_q_cd_rows_equal_their_one_row_calls_bit_for_bit(self):
        protocols = [
            FrequencyProtocol(kind, wi, wf, tau)
            for kind in (ProtocolKind.POLY5, ProtocolKind.COSINE, ProtocolKind.LINEAR)
            for wi, wf, tau in ((0.35, 1.0, 3.0), (1.0, 0.35, 7.5))
        ]
        ts = [np.linspace(0.0, p.tau, 9) for p in protocols]
        stacked = q_cd_grid(protocols, ts)
        assert stacked.shape == (len(protocols), 9)
        for b, p in enumerate(protocols):
            assert stacked[b].tobytes() == q_cd_grid([p], [ts[b]])[0].tobytes(), b

    def test_q_cd_refuses_bad_checkpoints(self):
        with pytest.raises(ValueError, match="exceeds tau"):
            q_cd_grid([REF], [[0.0, 3.5]])
        with pytest.raises(ValueError, match="same number of checkpoints"):
            q_cd_grid([REF, REF], [[1.0], [1.0, 2.0]])
        with pytest.raises(ValueError, match="2 strokes but 1 rows"):
            q_cd_grid([REF, REF], [[1.0, 2.0]])

    def test_cd_interior_state_is_instantaneous_thermal(self):
        """Under the counterdiabatic drive the state at every interior time
        is the thermal state of the instantaneous bare Hamiltonian (same
        occupations, zero position-momentum correlation)."""
        c = 1.0 / math.tanh(0.35)
        for t in (0.6, 1.1, 2.4):
            st_ = cd_states(thermal_state(2.0, 0.35), REF, [t])[0]
            w = REF.eval(t)[0]
            assert st_.cov[0, 0] == pytest.approx(c / (2 * w), rel=1e-9)
            assert st_.cov[1, 1] == pytest.approx(c * w / 2, rel=1e-9)
            assert st_.cov[0, 1] == pytest.approx(0.0, abs=1e-9)


class TestStackedReadout:
    """The energy-ratio readout of adiabaticity_stack reads energies off the
    stacked moments M C0 M^T; the states, one GaussianState per checkpoint,
    are its reference. It reads any transfer matrix alike: the bare drive's
    of the package, and the counterdiabatic drive's of the RK4 oracle, on
    which it reads 1."""

    @pytest.mark.parametrize("drive", ["bare", "cd"])
    @pytest.mark.parametrize("beta", [0.2, 2.0, math.inf])
    def test_matches_per_state_energies(self, beta, drive):
        ts = np.linspace(0.0, 3.0, 101)
        state0 = thermal_state(beta, 0.35)
        if drive == "bare":
            ts_, m = transfer_matrices([REF], [ts])
        else:
            ts_ = ts[None]
            m = oracles.cd_transfer_matrices("poly5", 0.35, 1.0, 3.0, ts, 3000)[None]
        path = grown(state0, m[0])
        energies = np.array([mean_energy(s, REF.eval(t)[0]) for s, t in zip(path, ts)])
        want = energies / (REF.eval(ts)[0] / 0.35 * mean_energy(state0, 0.35))
        got = dynamics._thermal_q(m, [REF], [beta], REF.eval(ts_)[0])[0]
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)
        if drive == "bare":
            assert got.tobytes() == adiabaticity_stack([REF], [beta], [ts])[0][0].tobytes()
        else:
            np.testing.assert_allclose(got, 1.0, rtol=0.0, atol=1e-10)

    def test_every_checkpoint_is_validated(self, monkeypatch):
        import ottosta.dynamics as dynamics

        exact = dynamics._transfer_matrices

        def shrunk(*args):
            m = exact(*args)
            # det M = 1/4 at one checkpoint: det C falls to det C0 / 16 < 1/4
            m[0, 50] *= 0.5
            return m

        monkeypatch.setattr(dynamics, "_transfer_matrices", shrunk)
        with pytest.raises(ValueError, match="uncertainty floor"):
            adiabaticity_stack([REF], [2.0], [np.linspace(0.0, 3.0, 101)])


class TestTransferMatrix:
    """Properties of the Magnus transfer-matrix propagator itself."""

    @settings(deadline=None)
    @given(
        st.sampled_from([ProtocolKind.POLY5, ProtocolKind.POLY3, ProtocolKind.COSINE, ProtocolKind.LINEAR]),
        st.floats(0.25, 1.0),
        st.floats(0.25, 1.0),
        st.floats(0.5, 12.0),
    )
    def test_unimodular_and_path_matches_endpoint(self, kind, wi, wf, tau):
        p = FrequencyProtocol(kind, wi, wf, tau)
        path = _transfer_matrices([p], np.linspace(0.0, tau, 101)[None], 1e-10)[0]
        end = _transfer_matrices([p], np.array([[tau]]), 1e-10)[0, 0]
        # det M = 1 is the Wronskian -1 of the classical pair
        np.testing.assert_allclose(np.linalg.det(path), 1.0, rtol=0.0, atol=1e-12)
        assert np.linalg.det(end) == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(path[0], np.eye(2), rtol=0.0, atol=0.0)
        assert np.max(np.abs(path[-1] - end)) <= 1e-9 * np.max(np.abs(end))

    @pytest.mark.parametrize(
        "protocol", [REF, EXPANSION], ids=["compression", "expansion"]
    )
    def test_step_is_sixth_order(self, protocol):
        # the error of an n-step product falls 2^6 = 64-fold per doubling of n
        def product(n):
            stack = dynamics._Stack.of([protocol])
            edges = np.array([[0.0, protocol.tau]])
            return dynamics._gap_products(stack, np.array([0]), edges, np.array([[n]]))[:, 0, 0]

        exact = product(4096)
        errors = [np.max(np.abs(product(n) - exact)) for n in (16, 32, 64)]
        for coarse, fine in zip(errors, errors[1:]):
            assert 0.75 * 64 <= coarse / fine <= 1.25 * 64, errors

    def test_lone_stroke_step_sequence(self, monkeypatch):
        # 4 and 8 steps give the first error estimate; the skip lands on the
        # pair of levels predicted to meet the default rtol
        steps = []
        exact = dynamics._gap_products

        def counted(stack, rows, edges, counts):
            steps.append(int(counts.sum()))
            return exact(stack, rows, edges, counts)

        monkeypatch.setattr(dynamics, "_gap_products", counted)
        for protocol in (REF, EXPANSION):
            steps.clear()
            transfer_matrices([protocol], [[protocol.tau]])
            assert steps == [4, 8, 32, 64], protocol


# (kind, omega_i, omega_f, tau, path row): both directions, taus across the
# default grid. Alone, these rows stop at different step levels (0, 1, 3, 4
# for the first, 0, 1, 2 for the fourth, 0 to 3 for the others).
STACK = [
    (ProtocolKind.POLY5, 0.35, 1.0, 3.0, False),
    (ProtocolKind.POLY5, 1.0, 0.35, 12.0, False),
    (ProtocolKind.COSINE, 0.35, 1.0, 5.0, True),
    (ProtocolKind.COSINE, 1.0, 0.35, 2.25, True),
    (ProtocolKind.POLY5, 0.35, 1.0, 7.5, False),
    (ProtocolKind.COSINE, 1.0, 0.35, 9.0, True),
]
STACK_K = 11


def _stack(rows=STACK):
    """Protocols and (B, K) checkpoints of a stack. A path row is read at K
    points along the stroke; an endpoint row at its end, K times."""
    protocols = [FrequencyProtocol(kind, wi, wf, tau) for kind, wi, wf, tau, _ in rows]
    ts = np.array([
        np.linspace(0.0, tau, STACK_K) if path else np.full(STACK_K, tau)
        for _, _, _, tau, path in rows
    ])
    return protocols, ts


class TestStackedPropagator:
    """_transfer_matrices on a stack of strokes that differ in ramp,
    direction, duration and checkpoints."""

    def test_rows_equal_their_lone_calls_bit_for_bit(self):
        protocols, ts = _stack()
        stacked = _transfer_matrices(protocols, ts, 1e-10)
        assert stacked.shape == (len(STACK), STACK_K, 2, 2)
        for b, (p, row) in enumerate(zip(protocols, STACK)):
            if row[4]:
                lone = _transfer_matrices([p], ts[b][None], 1e-10)[0]
                assert stacked[b].tobytes() == lone.tobytes(), b
            else:
                lone = _transfer_matrices([p], np.array([[p.tau]]), 1e-10)[0, 0]
                for j in range(STACK_K):
                    assert stacked[b, j].tobytes() == lone.tobytes(), (b, j)

    def test_ramp_orders_equal_eval_bit_for_bit(self):
        """The omega-only ramp of the Magnus nodes and the (omega, omegadot)
        one of the CD grids equal FrequencyProtocol.eval, for every kind,
        alone and in a mixed-kind stack."""
        protocols = [
            FrequencyProtocol(kind, 0.35, 0.35 if kind is ProtocolKind.CONSTANT else 1.0, tau)
            for kind, tau in zip(ProtocolKind, (3.0, 2.25, 5.0, 7.5, 9.0))
        ]
        ts = np.array([np.linspace(0.0, p.tau, STACK_K) for p in protocols])
        mixed = dynamics._Stack.of(protocols)
        rows = np.arange(len(protocols))[:, None]
        for order in (0, 1):
            got = mixed.ramp(rows, ts, order)
            assert len(got) == order + 1
            for b, p in enumerate(protocols):
                want = p.eval(ts[b])[: order + 1]
                alone = dynamics._Stack.of([p]).ramp(np.zeros(1, dtype=int), ts[b], order)
                for g, a, w in zip(got, alone, want):
                    assert g[b].tobytes() == a.tobytes() == w.tobytes(), (p.kind, order)

    def test_block_size_does_not_change_the_bits(self, monkeypatch):
        """Chunks of a power-of-two length are whole subtrees of a gap's
        pairwise product, so cutting gaps finer changes no bit."""
        import ottosta.dynamics as dyn

        protocols, ts = _stack()
        want = _transfer_matrices(protocols, ts, 1e-10)
        monkeypatch.setattr(dyn, "_BLOCK_STEPS", 16)
        got = _transfer_matrices(protocols, ts, 1e-10)
        assert got.tobytes() == want.tobytes()

    def test_unimodular(self):
        protocols, ts = _stack()
        m = _transfer_matrices(protocols, ts, 1e-10)
        np.testing.assert_allclose(np.linalg.det(m), 1.0, rtol=0.0, atol=1e-12)

    def test_stacked_readout_against_brute_rk4(self):
        rows = [STACK[0], STACK[3]]
        protocols, _ = _stack(rows)
        q_energy, q_pair = adiabaticity_stack(
            protocols, [2.0, 0.5], [[p.tau] for p in protocols]
        )
        for b, (kind, wi, wf, tau, _) in enumerate(rows):
            want = oracles.brute_pair_q(kind.value, wi, wf, tau)
            assert q_pair[b, 0] == pytest.approx(want, abs=1e-8)
            assert q_energy[b, 0] == pytest.approx(want, abs=1e-8)

    def test_stacked_readout_equals_single_stroke_calls(self):
        """Every row of the stack, of mixed kinds, directions, durations and
        checkpoints, equals its one-row call bit for bit."""
        protocols, ts = _stack()
        betas = [0.2 + b for b in range(len(STACK))]
        q_energy, q_pair = adiabaticity_stack(protocols, betas, ts)
        assert q_energy.shape == q_pair.shape == (len(STACK), STACK_K)
        for b, (p, beta) in enumerate(zip(protocols, betas)):
            lone_energy, lone_pair = adiabaticity_stack([p], [beta], ts[b][None])
            assert q_energy[b].tobytes() == lone_energy[0].tobytes(), b
            assert q_pair[b].tobytes() == lone_pair[0].tobytes(), b

    def test_one_row_over_budget_fails_the_stack(self, monkeypatch):
        import ottosta.dynamics as dyn

        short, long_ = _stack([STACK[3], STACK[0]])[0]
        # Alone, the short row ends at 32 steps and the long one at 64.
        monkeypatch.setattr(dyn, "_MAX_STEPS", 48)
        ends = np.array([[short.tau], [long_.tau]])
        _transfer_matrices([short], ends[:1], 1e-10)
        with pytest.raises(NumericsError):
            _transfer_matrices([short, long_], ends, 1e-10)


class TestExtremeInputs:
    """Durations and tolerances that the config schema accepts but whose
    step count overflows int64 are refused before any step is taken."""

    def test_tiny_rtol_is_refused_not_wrapped(self):
        # The doubling skip reaches level 158: an int64 count that large
        # wraps to 0 steps, M to the identity and Q* to its sudden-quench
        # value.
        p = FrequencyProtocol(ProtocolKind.LINEAR, 0.35, 1.0, 3.0)
        with pytest.raises(NumericsError, match="budget"):
            adiabaticity_stack([p], [2.0], [np.linspace(0.0, 3.0, 1001)], rtol=1e-300)

    def test_huge_duration_is_refused_before_allocating(self):
        p = FrequencyProtocol(ProtocolKind.LINEAR, 0.35, 1.0, 1e20)
        with pytest.raises(NumericsError, match="budget"):
            adiabaticity_stack([p], [2.0], [np.linspace(0.0, 1e20, 3)])

    @pytest.mark.parametrize(
        "kind", [ProtocolKind.POLY5, ProtocolKind.POLY3, ProtocolKind.COSINE, ProtocolKind.LINEAR]
    )
    def test_largest_duration_evaluates_then_is_refused(self, kind):
        p = FrequencyProtocol(kind, 0.35, 1.0, 1e308)
        ts = np.linspace(0.0, 1e308, 1001)
        w, wd = p.eval(ts)
        assert np.isfinite(w).all() and np.isfinite(wd).all()
        assert (q_cd_grid([p], [ts]) >= 1.0).all()
        with pytest.raises(NumericsError, match="budget"):
            adiabaticity_stack([p], [2.0], [ts])


class TestNaNInputs:
    """Every comparison with NaN is false, so each range check is written to
    refuse NaN, before any arithmetic on it."""

    @pytest.mark.parametrize("beta, omega", [(math.nan, 0.35), (2.0, math.nan)])
    def test_coth_half_refuses_nan(self, beta, omega):
        with pytest.raises(ValueError, match="must be positive"):
            coth_half(beta, omega)

    def test_nan_beta_is_refused(self):
        with pytest.raises(ValueError, match="beta must be positive"):
            adiabaticity_stack([REF], [math.nan], [[3.0]])

    def test_nan_checkpoint_is_refused(self):
        with pytest.raises(ValueError, match="finite"):
            adiabaticity_stack([REF], [2.0], [[math.nan]])
