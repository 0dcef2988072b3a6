import math

import numpy as np
import pytest

import oracles
from ottosta.errors import PhysicsError, TrapInversionError
from ottosta.protocols import FrequencyProtocol, ProtocolKind
from ottosta.quadrature import simpson_uniform, stroke_grid
from ottosta import sta_cost
from ottosta.datasets import cost_dataset
from ottosta.dynamics import occupation_spread, thermal_energy
from ottosta.sta_cost import (
    friction_stack,
    variance_cost_stack,
    work_cost_stack,
    work_excess,
    work_variance_excess,
)
from readouts import q_cd, variance_cost, variance_term, work_cost, work_term

COMP = FrequencyProtocol(ProtocolKind.POLY5, 0.35, 1.0, 3.0)
EXP = FrequencyProtocol(ProtocolKind.POLY5, 1.0, 0.35, 3.0)


class TestQuadrature:
    def test_simpson_exact_for_cubic(self):
        xs = np.linspace(0.0, 2.0, 11)
        y = xs**3 - 2 * xs**2 + 5
        got = simpson_uniform(y, xs[1] - xs[0])
        assert got == pytest.approx(4.0 - 16.0 / 3.0 + 10.0, rel=1e-14)

    def test_simpson_requires_odd_node_count(self):
        with pytest.raises(ValueError):
            simpson_uniform(np.zeros(4), 0.1)

    def test_stroke_grid(self):
        ts = stroke_grid(3.0, 5)
        np.testing.assert_allclose(ts, [0.0, 0.75, 1.5, 2.25, 3.0])


class TestThermalStart:
    """The thermal prefactors of the costs: <H(0)> for the work and
    sqrt(n_bar (n_bar + 1)) for the fluctuations, the one place where the
    temperature of the start enters them."""

    def test_derived_thermal_quantities(self):
        n_bar = oracles.thermal_nbar(2.0, 0.35)
        assert n_bar == pytest.approx(0.9864338636344633, abs=1e-14)
        spread = occupation_spread(2.0, 0.35)
        assert spread == pytest.approx(math.sqrt(n_bar * (n_bar + 1.0)), rel=1e-14)
        assert thermal_energy(2.0, 0.35) == pytest.approx(0.52025185227206215, abs=1e-14)

    def test_variance_of_occupation(self):
        var_n = occupation_spread(2.0, 0.35) ** 2
        assert var_n == pytest.approx(1.9594856309592782, abs=1e-13)

    @pytest.mark.parametrize("beta", [0.0, -1.0, math.nan])
    def test_every_stack_refuses_a_bad_beta(self, beta):
        # the cost stacks take no beta: it is refused where the prefactor
        # is computed, and by the friction stack, which propagates it
        prefactors = [
            lambda: thermal_energy(beta, 0.35),
            lambda: occupation_spread(beta, 0.35),
            lambda: friction_stack([COMP], [beta], [[3.0]]),
            lambda: cost_dataset({
                "kind": "poly5", "omega_i": 0.35, "omega_f": 1.0, "beta": beta,
                "taus": [3.0], "nodes": 101, "rtol": 1e-10,
            }),
        ]
        for prefactor in prefactors:
            with pytest.raises(ValueError, match="beta must be positive"):
                prefactor()

    def test_one_beta_per_protocol(self):
        with pytest.raises(ValueError):
            friction_stack([COMP, COMP], [2.0], [[3.0], [3.0]])


class TestMeanCost:
    def test_midpoint_integrand_value(self):
        got = work_term(COMP, 2.0, 1.5)
        assert got == pytest.approx(0.11755465080084085, abs=1e-14)

    def test_midpoint_decomposition(self):
        # integrand = (w_t / w_i) (Q - 1) * E0; at the midpoint
        # w Q = 0.75408501930480058 for the reference ramp
        w = COMP.eval(1.5)[0]
        q = q_cd(COMP, [1.5])[0]
        assert w * q == pytest.approx(0.75408501930480058, abs=1e-13)
        want = (w / 0.35) * (q - 1.0) * 0.52025185227206215
        assert work_term(COMP, 2.0, 1.5) == pytest.approx(want, rel=1e-14)

    def test_closed_form_is_free_of_temperature(self):
        # work_excess is the integrand per unit <H(0)>: (w_t / w_i) (Q - 1)
        ts = np.linspace(0.0, 3.0, 7)
        w = COMP.eval(ts)[0]
        want = (w / 0.35) * (q_cd(COMP, ts) - 1.0)
        np.testing.assert_array_equal(work_excess([COMP], [ts])[0], want)

    def test_vanishes_at_stroke_ends(self):
        assert work_term(COMP, 2.0, 0.0) == pytest.approx(0.0, abs=1e-14)
        assert work_term(COMP, 2.0, 3.0) == pytest.approx(0.0, abs=1e-14)

    def test_average_reference_values(self):
        assert work_cost(COMP, 2.0) == pytest.approx(0.07982655330359724, abs=1e-12)
        assert work_cost(EXP, 0.2) == pytest.approx(
            0.2694114637405115, abs=1e-12
        )

    def test_average_matches_trapezoid_oracle(self):
        want = oracles.trapezoid_mean(lambda t: work_term(COMP, 2.0, t), 0.0, 3.0, n=20001)
        assert work_cost(COMP, 2.0) == pytest.approx(want, rel=1e-9)

    def test_node_count_convergence(self):
        assert work_cost(COMP, 2.0, nodes=257) == pytest.approx(
            work_cost(COMP, 2.0, nodes=2049), rel=1e-10
        )

    def test_inverse_square_time_scaling(self):
        c24 = work_cost(FrequencyProtocol(ProtocolKind.POLY5, 0.35, 1.0, 24.0), 2.0)
        c48 = work_cost(FrequencyProtocol(ProtocolKind.POLY5, 0.35, 1.0, 48.0), 2.0)
        assert c48 / c24 == pytest.approx(0.25, abs=2e-3)
        assert c48 / c24 == pytest.approx(0.24931277414163455, abs=1e-10)

    def test_trap_inversion_propagates(self):
        fast = FrequencyProtocol(ProtocolKind.POLY5, 0.35, 1.0, 1.5)
        with pytest.raises(TrapInversionError):
            work_cost(fast, 2.0)


class TestVarianceCost:
    def test_midpoint_excess_closed_form(self):
        got = variance_term(COMP, 2.0, 1.5)
        assert got == pytest.approx(0.11298335917402848, abs=1e-13)
        assert math.sqrt(got) == pytest.approx(0.33612997363226695, abs=1e-13)

    def test_excess_formula(self):
        t = 0.9
        w = COMP.eval(t)[0]
        q = q_cd(COMP, [t])[0]
        n_bar = oracles.thermal_nbar(2.0, 0.35)
        want = ((w * q - 0.35) ** 2 - (w - 0.35) ** 2) * n_bar * (n_bar + 1.0)
        assert variance_term(COMP, 2.0, t) == pytest.approx(want, rel=1e-13)

    def test_average_reference_value(self):
        assert variance_cost(COMP, 2.0) == pytest.approx(0.18274471987550409, abs=1e-12)

    def test_closed_form_is_free_of_temperature(self):
        # work_variance_excess is the excess per unit n_bar (n_bar + 1)
        ts = np.linspace(0.0, 3.0, 7)
        w = COMP.eval(ts)[0]
        want = (w * q_cd(COMP, ts) - 0.35) ** 2 - (w - 0.35) ** 2
        np.testing.assert_array_equal(work_variance_excess([COMP], [ts])[0], want)

    def test_compression_excess_nonnegative(self):
        ts = np.linspace(0.0, 3.0, 101)
        assert np.all(work_variance_excess([COMP], [ts])[0] >= -1e-15)

    def test_ground_state_compression_books_no_variance_cost(self):
        assert variance_cost(COMP, math.inf) == 0.0

    def test_expansion_excess_is_negative_and_rejected(self):
        # on an expansion stroke the counterdiabatic factor pulls the
        # instantaneous frequency toward the initial one, so the excess
        # spread is negative and an averaged "cost" would be meaningless;
        # the refusal reads the protocol alone, so the ground state
        # (beta = inf, no spread) is refused too
        assert variance_term(EXP, 0.2, 1.5) < 0.0
        for beta in (0.2, 2.0, math.inf):
            with pytest.raises(PhysicsError):
                variance_cost(EXP, beta)

    def test_refusal_reports_the_minimum_of_the_bracket(self):
        ts = stroke_grid(EXP.tau, 1001)
        excess = work_variance_excess([EXP], [ts])[0]
        i = int(np.argmin(excess))
        want = f"min {excess[i]:.6g} at t = {ts[i]:.6g}"
        with pytest.raises(PhysicsError) as refused:
            variance_cost_stack([EXP])
        assert want in str(refused.value)


# Mixed kinds, durations and temperatures: (kind, omega_i, omega_f, tau, beta).
_COMPRESSIONS = [
    (kind, 0.35, wf, tau, beta)
    for kind in (ProtocolKind.POLY5, ProtocolKind.POLY3, ProtocolKind.COSINE)
    for wf, tau, beta in ((1.0, 3.0, 2.0), (0.7, 4.5, 0.2), (1.0, 9.0, math.inf))
]
_EXPANSIONS = [(k, wf, wi, tau, beta) for k, wi, wf, tau, beta in _COMPRESSIONS]


def _strokes(rows):
    """(protocols, betas) of the rows; only friction_stack reads the betas."""
    protocols = [FrequencyProtocol(k, wi, wf, tau) for k, wi, wf, tau, _ in rows]
    return protocols, [beta for *_, beta in rows]


class TestCostStack:
    """The stacked costs: each row is its one-row call, bit for bit, also
    across the blocks the grid is evaluated in."""

    def test_work_cost_rows_equal_their_one_row_calls_bit_for_bit(self):
        protocols, _ = _strokes(_COMPRESSIONS + _EXPANSIONS)
        assert len(protocols) > sta_cost._BLOCK_SAMPLES // 1001  # more than one block
        stacked = work_cost_stack(protocols)
        assert stacked.shape == (len(protocols),)
        for b, p in enumerate(protocols):
            assert stacked[b].tobytes() == work_cost_stack([p])[0].tobytes(), b

    def test_variance_cost_rows_equal_their_one_row_calls_bit_for_bit(self):
        protocols, _ = _strokes(_COMPRESSIONS)
        assert len(protocols) > sta_cost._BLOCK_SAMPLES // 1001
        stacked = variance_cost_stack(protocols)
        for b, p in enumerate(protocols):
            assert stacked[b].tobytes() == variance_cost_stack([p])[0].tobytes(), b

    @pytest.mark.parametrize("closed_form", [work_excess, work_variance_excess])
    def test_closed_form_rows_equal_their_one_row_calls_bit_for_bit(self, closed_form):
        protocols, _ = _strokes(_COMPRESSIONS + _EXPANSIONS)
        ts = np.array([np.linspace(0.0, p.tau, 11) for p in protocols])
        stacked = closed_form(protocols, ts)
        assert stacked.shape == (len(protocols), 11)
        for b, p in enumerate(protocols):
            one_row = closed_form([p], ts[b][None])[0]
            assert stacked[b].tobytes() == one_row.tobytes(), b

    @pytest.mark.parametrize("nodes", [257, 1001, 9001])
    def test_blocks_hold_at_most_the_block_samples(self, monkeypatch, nodes):
        exact = sta_cost.work_excess
        blocks = []

        def recorded(protocols, ts):
            blocks.append(ts.shape)
            return exact(protocols, ts)

        monkeypatch.setattr(sta_cost, "work_excess", recorded)
        protocols, _ = _strokes(_COMPRESSIONS * 4)
        work_cost_stack(protocols, nodes=nodes)
        assert sum(rows for rows, _ in blocks) == len(protocols)
        assert all(k == nodes for _, k in blocks)
        assert all(rows * k <= max(sta_cost._BLOCK_SAMPLES, k) for rows, k in blocks)
        assert len(blocks) == -(-len(protocols) // max(sta_cost._BLOCK_SAMPLES // nodes, 1))

    def test_an_expansion_stroke_refuses_the_variance_cost_of_the_stack(self):
        with pytest.raises(PhysicsError, match="negative"):
            variance_cost_stack(_strokes(_COMPRESSIONS[:2] + _EXPANSIONS[:1])[0])

    def test_one_infeasible_stroke_refuses_the_stack(self):
        rows = _COMPRESSIONS[:2] + [(ProtocolKind.POLY5, 0.35, 1.0, 2.0, 2.0)]
        for cost in (work_cost_stack, variance_cost_stack):
            with pytest.raises(TrapInversionError, match="tau_min"):
                cost(_strokes(rows)[0])

    def test_empty_stack(self):
        assert work_cost_stack([]).shape == (0,)
        assert variance_cost_stack([]).shape == (0,)


def _friction(protocol, beta, t):
    """Inner friction of one stroke at time t: the one-row, one-checkpoint
    friction_stack."""
    return float(friction_stack([protocol], [beta], [[t]])[0, 0])


class TestFriction:
    def test_reference_value(self):
        assert _friction(COMP, 2.0, 3.0) == pytest.approx(0.5258059404, abs=1e-8)

    def test_equals_bare_excess_over_adiabatic(self):
        from ottosta.dynamics import adiabaticity_stack

        q = adiabaticity_stack([COMP], [2.0], [[3.0]])[0][0, 0]
        want = (1.0 / 0.35) * (q - 1.0) * thermal_energy(2.0, 0.35)
        assert _friction(COMP, 2.0, 3.0) == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("beta", [0.2, 2.0, math.inf])
    def test_path_is_bare_energy_minus_adiabatic_transport(self, beta):
        from readouts import mean_energy, states, thermal_state

        ts = np.linspace(0.0, 3.0, 101)
        w_t = COMP.eval(ts)[0]
        path = states(thermal_state(beta, 0.35), COMP, ts)
        energies = np.array([mean_energy(s, w) for s, w in zip(path, w_t)])
        want = energies - (w_t / 0.35) * thermal_energy(beta, 0.35)
        got = friction_stack([COMP], [beta], [ts])[0]
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13)

    def test_zero_at_start(self):
        path = friction_stack([COMP], [2.0], [[0.0, 3.0]])[0]
        assert path[0] == pytest.approx(0.0, abs=1e-12)
        assert path[1] == pytest.approx(_friction(COMP, 2.0, 3.0), rel=1e-10)

    def test_decreases_with_duration(self):
        taus = (2.25, 3.0, 6.0, 12.0)
        protocols = [FrequencyProtocol(ProtocolKind.POLY5, 0.35, 1.0, tau) for tau in taus]
        vals = friction_stack(protocols, [2.0] * 4, [[tau] for tau in taus])[:, 0].tolist()
        assert vals == sorted(vals, reverse=True)
        assert all(v > 0 for v in vals)

    def test_rows_equal_their_one_row_calls_bit_for_bit(self):
        """A stack of mixed kinds, directions, durations, temperatures and
        checkpoints (a path, or the end K times)."""
        rows = [
            (ProtocolKind.POLY5, 0.35, 1.0, 3.0, 2.0, True),
            (ProtocolKind.COSINE, 1.0, 0.35, 2.25, 0.2, False),
            (ProtocolKind.LINEAR, 0.35, 1.0, 12.0, math.inf, True),
            (ProtocolKind.POLY3, 1.0, 0.35, 7.5, 1.0, False),
        ]
        protocols, betas = _strokes([row[:5] for row in rows])
        ts = np.array([
            np.linspace(0.0, tau, 11) if path else np.full(11, tau)
            for _, _, _, tau, _, path in rows
        ])
        stacked = friction_stack(protocols, betas, ts)
        assert stacked.shape == (len(rows), 11)
        for b, (p, beta) in enumerate(zip(protocols, betas)):
            one_row = friction_stack([p], [beta], ts[b][None])[0]
            assert stacked[b].tobytes() == one_row.tobytes(), b


class TestEndpointCosts:
    def test_sta_ramps_have_zero_endpoint_cost(self):
        for kind in (ProtocolKind.POLY5, ProtocolKind.POLY3, ProtocolKind.COSINE):
            p = FrequencyProtocol(kind, 0.35, 1.0, 3.0)
            assert work_term(p, 2.0, p.tau) == pytest.approx(0.0, abs=1e-12)

    def test_linear_ramp_has_nonzero_endpoint_cost(self):
        p = FrequencyProtocol(ProtocolKind.LINEAR, 0.35, 1.0, 3.0)
        assert work_term(p, 2.0, p.tau) > 1e-3
