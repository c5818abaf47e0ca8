"""The shared physics kernel against a per-edge loop evaluation of the steady
equations, written here from the network data alone, and against central
differences of itself."""

import math

import numpy as np
import pytest

from gasflow import configs
from gasflow.physics import kernel
from gasflow.steady import solve_steady

NETWORKS = ("eight_node", "single_pipe")
# the exact law of the simulation oracle and a smoothing wide enough to matter
DELTAS = (0.0, 0.05)


def scaled_resistances(net):
    """Pipe resistances scaled so the largest is one (the slack squared
    pressure is the pressure unit)."""
    res = [p.resistance(net.wave_speed) for p in net.pipes]
    return [r / max(res) for r in res]


def friction(phi, delta):
    """phi * s(phi) and its slope, one edge at a time."""
    if delta == 0.0:
        return phi * abs(phi), 2.0 * abs(phi)
    s = math.sqrt(phi * phi + delta * delta)
    return phi * s, s + phi * phi / s


def loop_residual(net, Pi, phi, alpha, q, delta):
    """Rows: pipes, compressors, then the balance of every node."""
    idx = net.node_index
    kappa = scaled_resistances(net)
    rows = []
    for k, p in enumerate(net.pipes):
        drop = kappa[k] * friction(phi[k], delta)[0]
        rows.append(Pi[idx[p.to_node]] - Pi[idx[p.from_node]] + drop)
    for c, comp in enumerate(net.compressors):
        rows.append(Pi[idx[comp.to_node]] - alpha[c] * Pi[idx[comp.from_node]])
    for j, node in enumerate(net.nodes):
        inflow = 0.0
        for k, e in enumerate(net.edges):
            if e.to_node == node.id:
                inflow += phi[k]
            if e.from_node == node.id:
                inflow -= phi[k]
        rows.append(inflow - q[j])
    return np.array(rows)


def loop_jacobian(net, phi, alpha, delta):
    """Dense Jacobian of ``loop_residual`` in the squared pressures of the
    non-slack nodes (node order), then the edge flows."""
    idx = net.node_index
    slack = net.slack_node.id
    free = [n.id for n in net.nodes if n.id != slack]
    col = {nid: i for i, nid in enumerate(free)}
    n_pipe, n_comp, nv, ne = len(net.pipes), len(net.compressors), len(net.nodes), len(net.edges)
    kappa = scaled_resistances(net)
    J = np.zeros((n_pipe + n_comp + nv, len(free) + ne))
    for k, p in enumerate(net.pipes):
        if p.to_node != slack:
            J[k, col[p.to_node]] += 1.0
        if p.from_node != slack:
            J[k, col[p.from_node]] -= 1.0
        J[k, len(free) + k] = kappa[k] * friction(phi[k], delta)[1]
    for c, comp in enumerate(net.compressors):
        if comp.to_node != slack:
            J[n_pipe + c, col[comp.to_node]] += 1.0
        if comp.from_node != slack:
            J[n_pipe + c, col[comp.from_node]] -= alpha[c]
    for k, e in enumerate(net.edges):
        J[n_pipe + n_comp + idx[e.to_node], len(free) + k] += 1.0
        J[n_pipe + n_comp + idx[e.from_node], len(free) + k] -= 1.0
    return J


def random_state(net, rng, batch):
    kern = kernel(net)
    Pi = rng.uniform(0.6, 1.4, (batch, kern.nv))
    Pi[:, kern.slack] = kern.pi_slack
    phi = rng.normal(size=(batch, kern.ne))
    alpha = rng.uniform(1.0, 1.4, kern.n_comp)
    q = rng.normal(size=(batch, kern.nv))
    return Pi, phi, alpha, q


def states(kern, Pi, phi):
    """The kernel's states: free squared pressures, then the edge flows."""
    return np.concatenate([Pi[..., kern.free], phi], axis=-1)


def rows(kern, Pi, phi, alpha, q, delta):
    """The kernel's residual at the states of ``Pi`` and ``phi``."""
    A = kern.affine(alpha)
    return kern.residual(A, kern.offset(A, q), states(kern, Pi, phi), delta)


@pytest.mark.parametrize("name", NETWORKS)
@pytest.mark.parametrize("delta", DELTAS)
@pytest.mark.parametrize("batch", [1, 7])
class TestAgainstLoops:
    def test_residual(self, name, delta, batch):
        net = configs.load(name)
        Pi, phi, alpha, q = random_state(net, np.random.default_rng(1), batch)
        got = rows(kernel(net), Pi, phi, alpha, q, delta)
        want = [loop_residual(net, Pi[b], phi[b], alpha, q[b], delta) for b in range(batch)]
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13)

    def test_jacobian(self, name, delta, batch):
        net = configs.load(name)
        kern = kernel(net)
        Pi, phi, alpha, _ = random_state(net, np.random.default_rng(2), batch)
        J = kern.jacobian(kern.affine(alpha), states(kern, Pi, phi), delta)
        for b in range(batch):
            want = loop_jacobian(net, phi[b], alpha, delta)
            np.testing.assert_allclose(J[b], want, rtol=1e-13, atol=1e-13)
        # the NLP reads the Jacobian at (jac_rows, jac_cols) only
        outside = np.ones(J.shape[1:], dtype=bool)
        outside[kern.jac_rows, kern.jac_cols] = False
        assert not J[:, outside].any()


@pytest.mark.parametrize("name", NETWORKS)
@pytest.mark.parametrize("delta", DELTAS)
class TestCentralDifferences:
    h = 1e-6

    def test_state_jacobian(self, name, delta):
        net = configs.load(name)
        kern = kernel(net)
        Pi, phi, alpha, q = random_state(net, np.random.default_rng(3), 1)
        A = kern.affine(alpha)
        b = kern.offset(A, q)[0]
        z = states(kern, Pi, phi)[0]
        fd = np.column_stack([
            (kern.residual(A, b, z + self.h * e, delta) - kern.residual(A, b, z - self.h * e, delta))
            / (2 * self.h) for e in np.eye(z.size)
        ])
        np.testing.assert_allclose(kern.jacobian(A, z, delta), fd, rtol=1e-7, atol=1e-7)

    def test_ratio_jacobian(self, name, delta):
        net = configs.load(name)
        kern = kernel(net)
        Pi, phi, alpha, q = random_state(net, np.random.default_rng(4), 3)
        comp = slice(kern.n_pipe, kern.n_pipe + kern.n_comp)
        for c in range(kern.n_comp):
            e = np.zeros(kern.n_comp)
            e[c] = self.h
            fd = (rows(kern, Pi, phi, alpha + e, q, delta)
                  - rows(kern, Pi, phi, alpha - e, q, delta))[:, comp] / (2 * self.h)
            np.testing.assert_allclose(fd[:, c], kern.ratio_jacobian(Pi)[:, c], rtol=1e-8)
            np.testing.assert_allclose(np.delete(fd, c, axis=1), 0.0, atol=1e-12)

    def test_pipe_hessian(self, name, delta):
        net = configs.load(name)
        kern = kernel(net)
        rng = np.random.default_rng(5)
        Pi, phi, alpha, _ = random_state(net, rng, 3)
        A = kern.affine(alpha)
        y = rng.normal(size=(3, kern.n_pipe))
        fd = np.empty_like(y)
        for k in range(kern.n_pipe):
            e = np.zeros(kern.ne)
            e[k] = self.h
            diff = (kern.jacobian(A, states(kern, Pi, phi + e), delta)
                    - kern.jacobian(A, states(kern, Pi, phi - e), delta))
            fd[:, k] = y[:, k] * diff[:, k, kern.nv - 1 + k] / (2 * self.h)
        np.testing.assert_allclose(kern.pipe_hessian(phi, y, delta), fd, rtol=1e-6, atol=1e-8)


@pytest.mark.parametrize("name", NETWORKS)
def test_exact_slope_finite_at_zero_flow(name):
    # loop chords of the steady solve's spanning-tree start carry zero flow
    net = configs.load(name)
    kern = kernel(net)
    Pi, _, _, _ = random_state(net, np.random.default_rng(0), 1)
    phi, alpha = np.zeros((1, kern.ne)), np.ones(kern.n_comp)
    J = kern.jacobian(kern.affine(alpha), states(kern, Pi, phi), 0.0)
    assert np.all(np.isfinite(J))
    assert np.all(np.isfinite(kern.pipe_hessian(phi, np.ones((1, kern.n_pipe)), 0.0)))
    np.testing.assert_array_equal(J[0], loop_jacobian(net, phi[0], alpha, 0.0))


@pytest.mark.parametrize("name", NETWORKS)
def test_square_rows_of_one_state(name):
    # the steady solve's system is the exact law's rows without the slack
    # balance, at one state, for ratios at one, at their caps and at random
    net = configs.load(name)
    kern = kernel(net)
    rng = np.random.default_rng(6)
    alphas = [np.ones(kern.n_comp), kern.alpha_max] + [
        rng.uniform(1.0, kern.alpha_max) for _ in range(3)
    ]
    for alpha in alphas:
        Pi, phi, _, q = random_state(net, rng, 1)
        A = kern.affine(alpha)
        b = kern.offset(A, q[0])[kern.square_rows]
        A = A[kern.square_rows]
        x = states(kern, Pi, phi)[0]
        want = loop_residual(net, Pi[0], phi[0], alpha, q[0], 0.0)[kern.square_rows]
        np.testing.assert_allclose(kern.residual(A, b, x, 0.0), want, rtol=1e-13, atol=1e-13)
        want = loop_jacobian(net, phi[0], alpha, 0.0)[kern.square_rows]
        np.testing.assert_allclose(kern.jacobian(A, x, 0.0), want, rtol=1e-13, atol=1e-13)


def test_kernel_is_cached_per_network():
    net = configs.load("eight_node")
    assert kernel(net) is kernel(net)
    changed = net.with_node(net.node("J3"))
    assert kernel(changed) is not kernel(net)
    assert changed == net


CONFIGS = ("eight_node", "single_pipe", "single_pipe_truncnormal")


def physical_vector(kern, Pi, phi, q):
    """The certification rows' input ``[Pi, phi, q, phi_p*|phi_p|, 1]``."""
    phi_p = phi[: kern.n_pipe]
    return np.concatenate([Pi, phi, q, phi_p * np.abs(phi_p), [1.0]])


@pytest.mark.parametrize("name", CONFIGS)
def test_folded_rows_are_the_scaled_rows(name):
    # the signed certification matrix [C, -C] on the caller's physical
    # [Pi, phi, q, phi_p*|phi_p|, 1] gives the scaled rows at the same state,
    # then their negatives, for three ratio vectors and 200 random physical
    # states and withdrawals each
    net = configs.load(name)
    kern = kernel(net)
    pi_sc, flow = kern.scaling.squared_pressure, kern.scaling.flow
    n = len(kern.square_rows)
    rng = np.random.default_rng(18)
    alphas = [np.ones(kern.n_comp), kern.alpha_max, rng.uniform(1.0, kern.alpha_max)]
    for alpha in alphas:
        A, b_slack, signed = kern.square(alpha)
        assert signed.shape == (2 * kern.nv + kern.ne + kern.n_pipe + 1, 2 * n)
        for _ in range(200):
            Pi = rng.uniform(0.6, 1.4, kern.nv) * pi_sc
            phi, q = rng.normal(size=kern.ne) * flow, rng.normal(size=kern.nv) * flow
            folded = physical_vector(kern, Pi, phi, q) @ signed
            x = np.concatenate([Pi[kern.free] / pi_sc, phi / flow])
            b = np.concatenate([b_slack, -q[kern.free] / flow])
            r = kern.residual(A, b, x, 0.0)
            np.testing.assert_allclose(folded[:n], r, rtol=0, atol=1e-14)
            np.testing.assert_allclose(folded[n:], -r, rtol=0, atol=1e-14)


@pytest.mark.parametrize("name", CONFIGS)
def test_signed_rows_give_the_largest_absolute_row(name):
    # the certified exit reads max|r| as the largest entry of u @ [C, -C],
    # with no abs; on starts near the law (solved states moved by up to 1e-9
    # relative, residuals near the tolerance) it is max|u @ C| bit for bit
    net = configs.load(name)
    kern = kernel(net)
    rng = np.random.default_rng(26)
    alphas = [np.ones(kern.n_comp), rng.uniform(1.0, kern.alpha_max)]
    for alpha in alphas:
        signed = kern.square(alpha)[2]
        C = signed[:, : len(kern.square_rows)]
        for _ in range(300):
            q = np.array([nd.base_withdrawal for nd in net.nodes])
            q *= rng.uniform(0.8, 1.2, kern.nv)
            st = solve_steady(net, alpha, q)
            Pi = st.Pi * (1.0 + rng.uniform(-1e-9, 1e-9, kern.nv))
            phi = st.phi * (1.0 + rng.uniform(-1e-9, 1e-9, kern.ne))
            u = physical_vector(kern, Pi, phi, q)
            assert np.maximum.reduce(u @ signed) == np.abs(u @ C).max()
