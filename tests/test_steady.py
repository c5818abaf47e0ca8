import math

import numpy as np
import pytest

from gasflow import (
    SteadySolveError,
    nondimensionalize,
    parse_network,
    solve_steady,
)
from gasflow import configs
from gasflow.physics import Kernel, kernel


def two_node_net(p_slack=5.0e6, length=2.0e4):
    return parse_network(
        {
            "wave_speed": 377.0,
            "nodes": [
                {
                    "id": "S",
                    "kind": "slack",
                    "slack_pressure": p_slack,
                    "pressure_min": 1.0e6,
                    "pressure_max": 7.0e6,
                },
                {"id": "L", "kind": "flow", "pressure_min": 1.0e6, "pressure_max": 7.0e6},
            ],
            "pipes": [
                {"id": "P", "from": "S", "to": "L", "length": length, "diameter": 0.9144,
                 "friction": 0.01}
            ],
            "compressors": [],
        }
    )


def small_tree_net():
    # slack -> A branches to B and C
    return parse_network(
        {
            "wave_speed": 377.0,
            "nodes": [
                {"id": "A", "kind": "flow", "pressure_min": 1e6, "pressure_max": 7e6},
                {"id": "B", "kind": "flow", "pressure_min": 1e6, "pressure_max": 7e6},
                {"id": "C", "kind": "flow", "pressure_min": 1e6, "pressure_max": 7e6},
                {"id": "S", "kind": "slack", "slack_pressure": 5e6, "pressure_min": 1e6,
                 "pressure_max": 7e6},
            ],
            "pipes": [
                {"id": "p0", "from": "S", "to": "A", "length": 2e4, "diameter": 0.9144,
                 "friction": 0.01},
                {"id": "p1", "from": "A", "to": "B", "length": 3e4, "diameter": 0.9144,
                 "friction": 0.01},
                {"id": "p2", "from": "A", "to": "C", "length": 1e4, "diameter": 0.9144,
                 "friction": 0.01},
            ],
            "compressors": [],
        }
    )


def star_net():
    # the slack feeds three loads through a pipe each
    return parse_network(
        {
            "wave_speed": 377.0,
            "nodes": [
                {"id": "S", "kind": "slack", "slack_pressure": 5e6, "pressure_min": 1e6,
                 "pressure_max": 7e6},
            ] + [
                {"id": n, "kind": "flow", "pressure_min": 1e6, "pressure_max": 7e6}
                for n in "ABC"
            ],
            "pipes": [
                {"id": f"p{n}", "from": "S", "to": n, "length": length, "diameter": 0.9144,
                 "friction": 0.01}
                for n, length in zip("ABC", (2e4, 3e4, 1.3e4))
            ],
            "compressors": [],
        }
    )


class TestAnalyticOracle:
    def test_two_node_pressure_drop(self):
        net = two_node_net()
        q = 120.0
        state = solve_steady(net, None, {"L": q})
        kappa = net.kappa()[0]
        expected = net.slack_node.slack_pressure**2 - kappa * q * abs(q)
        assert state.squared_pressure_at("L") == pytest.approx(expected, rel=1e-10)
        assert state.flow_at("P") == pytest.approx(q, rel=1e-12)

    def test_two_node_reverse_flow(self):
        net = two_node_net()
        q = -80.0  # injection at L pushes flow back toward the slack
        state = solve_steady(net, None, {"L": q})
        kappa = net.kappa()[0]
        expected = net.slack_node.slack_pressure**2 - kappa * q * abs(q)
        assert state.squared_pressure_at("L") == pytest.approx(expected, rel=1e-10)

    def test_zero_load_equilibrium(self):
        net = configs.load("single_pipe")
        state = solve_steady(net, {"C1": 1.0}, {"N3": 0.0})
        np.testing.assert_allclose(state.phi, 0.0, atol=1e-8)
        np.testing.assert_allclose(state.Pi, net.slack_node.slack_pressure**2, rtol=1e-10)

    def test_compressor_boost(self):
        net = configs.load("single_pipe")
        alpha = 1.21
        state = solve_steady(net, {"C1": alpha}, {"N3": 0.0})
        assert state.squared_pressure_at("N2") == pytest.approx(
            alpha * net.slack_node.slack_pressure**2, rel=1e-10
        )


class TestConservation:
    def test_slack_injection_balances_demand(self):
        net = configs.load("eight_node")
        q = {"J3": 150.0, "J5": 80.0}
        state = solve_steady(net, None, q)
        assert state.slack_injection == pytest.approx(230.0, rel=1e-10)

    def test_eight_node_loop_converges(self):
        net = configs.load("eight_node")
        state = solve_steady(net, {"C1": 1.1, "C2": 1.2, "C3": 1.05}, {"J3": 250.0, "J5": 96.0})
        assert state.residual_norm <= 1e-10
        assert np.all(state.Pi > 0)


class TestNewtonBehavior:
    def test_warm_start_is_fast(self):
        net = configs.load("eight_node")
        first = solve_steady(net, None, {"J3": 150.0, "J5": 80.0})
        warm = solve_steady(
            net, None, {"J3": 151.0, "J5": 80.0}, x0=(first.Pi, first.phi)
        )
        assert warm.iterations <= 3

    def test_quadratic_convergence_tail(self):
        net = configs.load("eight_node")
        state = solve_steady(net, {"C1": 1.1, "C2": 1.2, "C3": 1.05}, {"J3": 250.0, "J5": 96.0})
        hist = state.residual_history
        # once the residual is small the next full Newton step squares it
        pairs = [
            (a, b)
            for a, b in zip(hist, hist[1:])
            if 1e-8 < a < 1e-2
        ]
        assert pairs, f"no tail pairs observed in {hist}"
        for a, b in pairs:
            assert b <= 50.0 * a * a

    def test_far_start_halves_a_step_and_certifies(self, monkeypatch):
        # every node at the slack's squared pressure and the pipes' flows at
        # -4 and 2 times the solved 250 kg/s: one full Newton step fails the
        # Armijo test and is halved once (one residual for the start, one
        # per tried step)
        net = configs.load("single_pipe")
        calls = []
        residual = Kernel.residual

        def counted(self, *args):
            calls.append(args)
            return residual(self, *args)

        monkeypatch.setattr(Kernel, "residual", counted)
        pi0 = np.full(3, net.slack_node.slack_pressure**2)
        st = solve_steady(net, x0=(pi0, np.array([-1000.0, 500.0])))
        assert st.iterations == 3
        assert len(calls) == st.iterations + 2
        assert st.residual_norm <= 1e-10 and np.all(st.Pi > 0)
        cold = solve_steady(net)
        np.testing.assert_allclose(st.Pi, cold.Pi, rtol=1e-12)
        np.testing.assert_allclose(st.phi, cold.phi, rtol=1e-12)
        assert solve_steady(net, x0=(st.Pi, st.phi)).iterations == 0

    def test_nonconvergence_reports_residual(self):
        # start far from the solution so one iteration cannot finish
        net = two_node_net()
        pi0 = np.full(2, (5.0e6) ** 2)
        phi0 = np.zeros(1)
        with pytest.raises(SteadySolveError) as err:
            solve_steady(net, None, {"L": 120.0}, x0=(pi0, phi0), max_iter=1)
        assert err.value.residual is not None

    def test_singular_jacobian_reports_iteration(self):
        # at zero flow every pipe slope vanishes, and the loop's pressure rows
        # outnumber the free pressures
        net = configs.load("eight_node")
        pi0 = np.full(8, net.slack_node.slack_pressure**2)
        with pytest.raises(SteadySolveError, match="singular Jacobian at iteration 0") as err:
            solve_steady(net, x0=(pi0, np.zeros(8)))
        assert err.value.residual > 0

    def test_negative_pressure_reports_node(self):
        net = two_node_net()
        with pytest.raises(SteadySolveError) as err:
            solve_steady(net, None, {"L": 900.0})
        assert err.value.node == "L"

    def test_alpha_out_of_bounds(self):
        net = configs.load("single_pipe")
        with pytest.raises(SteadySolveError, match="ratio"):
            solve_steady(net, {"C1": 2.0}, {"N3": 100.0})
        # the first compressor out of [1, alpha_max] is named
        net = configs.load("eight_node")
        for alpha, first in (([1.1, 2.0, 0.5], "C2"), ([np.nan, 1.1, 1.1], "C1")):
            with pytest.raises(SteadySolveError, match=f"{first}.*ratio") as err:
                solve_steady(net, np.array(alpha))
            assert err.value.node == first

    def test_unknown_withdrawal_node(self):
        net = configs.load("single_pipe")
        with pytest.raises(SteadySolveError, match="N9"):
            solve_steady(net, None, {"N9": 1.0})


class TestRatioCache:
    """The network's kernel keeps the square system of each ratio vector."""

    ALPHAS = (np.array([1.1, 1.2, 1.05]), np.array([1.3, 1.0, 1.15]))
    LOADS = ({"J3": 200.0, "J5": 64.0}, {"J3": 180.0, "J5": 96.0})

    def test_alternating_ratios_match_a_fresh_kernel(self):
        net = configs.load("eight_node")
        for _ in range(2):
            for alpha, q in zip(self.ALPHAS, self.LOADS):
                state = solve_steady(net, alpha, q)
                fresh = solve_steady(configs.load("eight_node"), alpha, q)
                np.testing.assert_array_equal(state.Pi, fresh.Pi)
                np.testing.assert_array_equal(state.phi, fresh.phi)
                assert state.iterations == fresh.iterations
        assert list(kernel(net).squares) == [a.tobytes() for a in self.ALPHAS]

    def test_out_of_range_ratio_after_a_cached_one(self):
        net = configs.load("eight_node")
        solve_steady(net, self.ALPHAS[0], self.LOADS[0])
        with pytest.raises(SteadySolveError, match="C2.*ratio") as err:
            solve_steady(net, np.array([1.1, 2.0, 1.05]), self.LOADS[0])
        assert err.value.node == "C2"
        assert len(kernel(net).squares) == 1

    def test_dict_and_array_ratios_agree(self):
        net = configs.load("eight_node")
        alpha = self.ALPHAS[1]
        by_id = solve_steady(net, dict(zip(["C1", "C2", "C3"], alpha)), self.LOADS[1])
        by_order = solve_steady(net, alpha, self.LOADS[1])
        np.testing.assert_array_equal(by_id.Pi, by_order.Pi)
        np.testing.assert_array_equal(by_id.phi, by_order.phi)
        assert len(kernel(net).squares) == 1

    def test_cache_holds_at_most_eight_systems(self):
        net = configs.load("eight_node")
        ratios = [np.array([1.0 + 0.01 * i, 1.1, 1.1]) for i in range(10)]
        for alpha in ratios:
            solve_steady(net, alpha, self.LOADS[0])
        assert list(kernel(net).squares) == [a.tobytes() for a in ratios[2:]]


class TestSlackInjection:
    """The slack's injection is derived from the returned flows on both exits:
    its outflows less its inflows."""

    @staticmethod
    def exact(net, phi):
        slack = net.slack_node.id
        return math.fsum((e.from_node == slack) * f - (e.to_node == slack) * f
                         for e, f in zip(net.edges, phi))

    @staticmethod
    def both_exits(net, alpha, q):
        st = solve_steady(net, alpha, q)
        again = solve_steady(net, alpha, q, x0=(st.Pi, st.phi))
        assert st.iterations > 0 and again.iterations == 0
        return st, again

    @pytest.mark.parametrize("name", ["eight_node", "single_pipe", "single_pipe_truncnormal"])
    def test_bit_equal_where_the_slack_has_one_edge(self, name):
        net = configs.load(name)
        for st in self.both_exits(net, None, None):
            assert st.slack_injection == self.exact(net, st.phi)

    def test_within_one_ulp_where_the_slack_has_three_edges(self):
        net = star_net()
        q = {"A": 120.0, "B": 75.5, "C": 301.25}
        for st in self.both_exits(net, None, q):
            np.testing.assert_array_max_ulp(st.slack_injection, self.exact(net, st.phi), 1)
            assert st.slack_injection == pytest.approx(sum(q.values()), rel=1e-10)


class TestInputs:
    """Non-finite or wrongly sized inputs name what is wrong."""

    Q = {"J3": 200.0, "J5": 96.0}

    @pytest.fixture(scope="class")
    def eight_node(self):
        net = configs.load("eight_node")
        return net, solve_steady(net, np.array([1.1, 1.2, 1.05]), self.Q)

    def test_nan_start_names_the_node(self, eight_node):
        net, st = eight_node
        Pi = st.Pi.copy()
        Pi[3] = np.nan
        with pytest.raises(SteadySolveError, match="not finite") as err:
            solve_steady(net, np.array([1.1, 1.2, 1.05]), self.Q, x0=(Pi, st.phi))
        assert err.value.node == net.nodes[3].id

    @pytest.mark.parametrize("as_dict", [False, True])
    def test_nan_withdrawal_names_the_node(self, eight_node, as_dict):
        net, st = eight_node
        q = np.array([self.Q.get(n.id, 0.0) for n in net.nodes])
        q[2] = np.nan
        if as_dict:
            q = {n.id: v for n, v in zip(net.nodes, q)}
        for x0 in (None, (st.Pi, st.phi)):
            with pytest.raises(SteadySolveError, match="not finite") as err:
                solve_steady(net, np.array([1.1, 1.2, 1.05]), q, x0=x0)
            assert err.value.node == net.nodes[2].id

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_infinite_start_flow_names_the_edge(self, eight_node):
        net, st = eight_node
        phi = st.phi.copy()
        phi[4] = np.inf
        with pytest.raises(SteadySolveError, match="not finite") as err:
            solve_steady(net, np.array([1.1, 1.2, 1.05]), self.Q, x0=(st.Pi, phi))
        assert err.value.node == net.edges[4].id

    def test_one_ratio_is_not_broadcast(self):
        net = configs.load("eight_node")
        with pytest.raises(ValueError, match="alpha: expected 3 entries.*got 1"):
            solve_steady(net, np.array([1.2]), self.Q)

    def test_two_ratios_for_three_compressors(self):
        net = configs.load("eight_node")
        with pytest.raises(ValueError, match="alpha: expected 3 entries.*got 2"):
            solve_steady(net, np.array([1.2, 1.1]), self.Q)

    @pytest.mark.parametrize("extra", [1, -1])
    def test_withdrawals_of_the_wrong_length(self, extra):
        net = configs.load("eight_node")
        q = np.zeros(len(net.nodes) + extra)
        with pytest.raises(ValueError, match=f"q: expected 8 entries.*got {8 + extra}"):
            solve_steady(net, None, q)

    def test_start_flows_one_short(self, eight_node):
        net, st = eight_node
        with pytest.raises(ValueError, match="x0 flows: expected 8 entries.*got 7"):
            solve_steady(net, np.array([1.1, 1.2, 1.05]), self.Q, x0=(st.Pi, st.phi[:-1]))

    def test_start_parts_checked_apart(self, eight_node):
        # one squared pressure too many and one flow too few have the right
        # total length, so each part's own length must be checked
        net, st = eight_node
        Pi = np.append(st.Pi, st.Pi[0])
        with pytest.raises(ValueError, match="x0 squared pressures: expected 8 entries.*got 9"):
            solve_steady(net, np.array([1.1, 1.2, 1.05]), self.Q, x0=(Pi, st.phi[:-1]))

    def test_ratio_dict_without_a_compressor(self):
        net = configs.load("eight_node")
        with pytest.raises(SteadySolveError, match="C2") as err:
            solve_steady(net, {"C1": 1.1, "C3": 1.1}, self.Q)
        assert err.value.node == "C2"

    def test_ratio_dict_with_an_unknown_compressor(self):
        net = configs.load("eight_node")
        with pytest.raises(SteadySolveError, match="CX") as err:
            solve_steady(net, {"C1": 1.1, "C2": 1.1, "C3": 1.1, "CX": 1.5}, self.Q)
        assert err.value.node == "CX"


class TestCertifiedStart:
    """A start that already meets the law is returned as given."""

    ALPHA = np.array([1.1, 1.2, 1.05])
    Q = {"J3": 200.0, "J5": 96.0}

    def test_start_comes_back_as_given(self):
        net = configs.load("eight_node")
        st = solve_steady(net, self.ALPHA, self.Q)
        Pi0, phi0 = st.Pi.copy(), st.phi.copy()
        slack = net.node_index[net.slack_node.id]
        Pi0[slack] *= 1.0 + 1e-9  # the slack's squared pressure meets no row
        x0 = (Pi0.copy(), phi0.copy())
        again = solve_steady(net, self.ALPHA, self.Q, x0=x0)
        assert again.iterations == 0
        assert len(again.residual_history) == 1
        want = Pi0.copy()
        want[slack] = nondimensionalize(net).squared_pressure
        np.testing.assert_array_equal(again.Pi, want)
        np.testing.assert_array_equal(again.phi, phi0)
        again.Pi[:] = 0.0
        again.phi[:] = 0.0
        np.testing.assert_array_equal(x0[0], Pi0)
        np.testing.assert_array_equal(x0[1], phi0)

    def test_uncertified_start_steps_from_the_scaled_rows(self):
        # the certification rows agree with the scaled ones only to rounding; Newton
        # must start from the scaled residual, bit for bit, or warm starts move
        net = configs.load("eight_node")
        st = solve_steady(net, self.ALPHA, self.Q)
        q = np.array([self.Q.get(n.id, 0.0) for n in net.nodes]) * 1.01
        again = solve_steady(net, self.ALPHA, q, x0=(st.Pi, st.phi))
        assert again.iterations > 0
        kern, sc = kernel(net), nondimensionalize(net)
        A, b_slack = kern.squares[self.ALPHA.tobytes()][:2]
        x = np.concatenate([st.Pi[kern.free] / sc.squared_pressure, st.phi / sc.flow])
        b = np.concatenate([b_slack, -q[kern.free] / sc.flow])
        assert again.residual_history[0] == np.abs(kern.residual(A, b, x, 0.0)).max()

    def test_infeasible_exact_state_names_the_node(self):
        # at 900 kg/s the pipe's drop exceeds the slack's squared pressure:
        # the law's exact state has Pi_L < 0 and must still be refused
        net = two_node_net()
        pi_s = net.slack_node.slack_pressure**2
        pi_l = pi_s - net.kappa()[0] * 900.0**2
        assert pi_l < 0
        with pytest.raises(SteadySolveError, match="negative squared pressure") as err:
            solve_steady(net, None, {"L": 900.0}, x0=(np.array([pi_s, pi_l]), np.array([900.0])))
        assert err.value.node == "L"

    def test_ratio_range_is_checked_before_certifying(self):
        net = configs.load("eight_node")
        st = solve_steady(net, self.ALPHA, self.Q)
        assert solve_steady(net, self.ALPHA, self.Q, x0=(st.Pi, st.phi)).iterations == 0
        bad = np.array([1.1, 2.0, 1.05])
        with pytest.raises(SteadySolveError, match="C2.*ratio") as err:
            solve_steady(net, bad, self.Q, x0=(st.Pi, st.phi))
        assert err.value.node == "C2"


class TestMonotonicity:
    def test_single_pipe_withdrawal_monotone(self):
        net = configs.load("single_pipe")
        prev = None
        for q in (200.0, 240.0, 280.0, 300.0):
            state = solve_steady(net, {"C1": 1.25}, {"N3": q})
            if prev is not None:
                assert np.all(state.Pi <= prev + 1e-6)
            prev = state.Pi

    def test_tree_single_withdrawal_monotone(self):
        net = small_tree_net()
        base = solve_steady(net, None, {"B": 100.0, "C": 50.0})
        bumped = solve_steady(net, None, {"B": 140.0, "C": 50.0})
        assert np.all(bumped.Pi <= base.Pi + 1e-6)

    def test_eight_node_loop_monotone_in_uncertain_load(self):
        net = configs.load("eight_node")
        alpha = {"C1": 1.1, "C2": 1.2, "C3": 1.05}
        base = solve_steady(net, alpha, {"J3": 200.0, "J5": 64.0})
        bumped = solve_steady(net, alpha, {"J3": 200.0, "J5": 96.0})
        assert np.all(bumped.Pi <= base.Pi + 1e-6)


class TestScaling:
    def test_pressure_scale_is_slack(self):
        net = configs.load("eight_node")
        s = nondimensionalize(net)
        assert s.pressure == pytest.approx(5.0e6)
        assert s.squared_pressure == pytest.approx(2.5e13)

    def test_max_scaled_resistance_is_one(self):
        net = configs.load("eight_node")
        s = nondimensionalize(net)
        kappa_nd = net.kappa() * s.flow**2 / s.squared_pressure
        assert kappa_nd.max() == pytest.approx(1.0, rel=1e-12)

    def test_round_trip_identity(self):
        net = configs.load("single_pipe")
        s = nondimensionalize(net)
        rng = np.random.default_rng(0)
        pi = rng.uniform(1e13, 3e13, 5)
        phi = rng.uniform(-400, 400, 5)
        np.testing.assert_allclose((pi / s.squared_pressure) * s.squared_pressure, pi,
                                   rtol=1e-14)
        np.testing.assert_allclose((phi / s.flow) * s.flow, phi, rtol=1e-14)

    def test_scaling_improves_jacobian_conditioning(self):
        # single-pipe square system at the solution, assembled both ways:
        # unknowns [Pi2, Pi3, phi_C, phi_P]
        net = configs.load("single_pipe")
        alpha, q = 1.2, 250.0
        state = solve_steady(net, {"C1": alpha}, {"N3": q})
        kappa = net.kappa()[0]
        phi = state.flow_at("P1")

        def jacobian(kappa_val, phi_val):
            return np.array(
                [
                    [1.0, 0.0, 0.0, 0.0],
                    [-1.0, 1.0, 0.0, 2.0 * kappa_val * abs(phi_val)],
                    [0.0, 0.0, 1.0, -1.0],
                    [0.0, 0.0, 0.0, 1.0],
                ]
            )

        s = nondimensionalize(net)
        raw = jacobian(kappa, phi)
        scaled = jacobian(kappa * s.flow**2 / s.squared_pressure, phi / s.flow)
        assert np.linalg.cond(scaled) < np.linalg.cond(raw)
