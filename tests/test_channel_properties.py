"""Property tests of the channel layer and the graph algebra.

A CouplingMatrix or ChannelEnd built on an (E, 1) weight array and a
DelayLine built on an (E,) delay array must give, bit for bit, what E
one-edge objects give row by row.  The recovered port pair must imply the
incoming wave and satisfy the wave power identity, a delay line must hand
each sample out exactly its delay later, and the Laplacian of a connected
network must be symmetric positive semidefinite with the ones vector in
its null space, and equal the dense matrix built from the input weights.
The sums by owning agent, which the port efforts, the storages and the
defects share, must equal a plain loop bit for bit, and so must the one
sum of a step that gives both the constraint force and the port efforts.
On any such network, the engine's in-place steps must be the fresh-record
steps bit for bit, and a scattering run with unequal delays must follow the
textbook wave exchange.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dcopt import AgentState, ReferencePoint, SimConfig, simulate
from dcopt.dynamics import CompensatorParams, derivatives
from dcopt.engine import MODES, _Run
from dcopt.graph import Network, _owner_sums, laplacian_apply, ring
from dcopt.problem import (
    AffineFunction,
    DistributedProblem,
    LocalProblem,
    QuadraticFunction,
    constraint_force,
    make_linear_nonneg_bound,
)
from test_engine import assert_matches_direct_flow, assert_steps_are_the_fresh_path, ring_matrix
from dcopt.scattering import (
    ChannelEnd,
    CouplingMatrix,
    DelayLine,
    wave_identity_residual,
)

PROPERTY = settings(derandomize=True, deadline=None, max_examples=60)

finite = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
weights = st.floats(0.05, 20.0)


@st.composite
def edge_stacks(draw):
    """(weights (E,), eta, dim, s_in, x, xi) with E edges of width 2 dim."""
    n_edges = draw(st.integers(1, 6))
    dim = draw(st.integers(1, 4))
    w = draw(arrays(float, n_edges, elements=weights))
    eta = draw(st.floats(0.05, 20.0))
    s_in, x, xi = (
        draw(arrays(float, (n_edges, width), elements=finite))
        for width in (2 * dim, dim, dim)
    )
    return w, eta, dim, s_in, x, xi


@PROPERTY
@given(edge_stacks())
def test_stacked_coupling_equals_scalar(case):
    w, _, dim, s_in, _, _ = case
    pairs = s_in.reshape(-1, 2, dim)
    coupling = CouplingMatrix(w.reshape(-1, 1), dim)
    stacked = np.matmul(coupling.blocks, pairs)
    for e, a in enumerate(w):
        assert np.array_equal(stacked[e], np.matmul(CouplingMatrix(a, dim).blocks, pairs[e])[0])
    # into out, as the engine's planned views: the same bits
    out = np.full((len(w), 2, dim), 7.0)
    assert np.matmul(coupling.blocks, pairs, out) is out
    assert out.tobytes() == stacked.tobytes()


@PROPERTY
@given(edge_stacks())
def test_stacked_channel_end_equals_scalar(case):
    w, eta, dim, s_in, x, xi = case
    end = ChannelEnd(CouplingMatrix(w.reshape(-1, 1), dim), eta)
    u = np.concatenate([x, xi], axis=1)
    block = end.recover(s_in, u)
    assert block.shape == (len(w), 3, 2 * dim)
    # a second call of the same shape joins into the same buffer
    assert end.recover(s_in, u).tobytes() == block.tobytes()
    for e, a in enumerate(w):
        one = ChannelEnd(CouplingMatrix(a, dim), eta)
        assert np.array_equal(block[e], one.recover(s_in[e], u[e]))


def split(block):
    """(r, p, s_out) of a block that ChannelEnd.recover returns."""
    return block[..., 0, :], block[..., 1, :], block[..., 2, :]


def per_op_end(w, eta, dim, s_in, x, xi):
    """(r, p, s_out) of stacked channel ends by elementwise formulas: the
    2x2 solve of (E + eta I) r = sqrt(2 eta) s_in + E [x; xi] per
    coordinate, then p = E (r - [x; xi]) and s_out = (eta r - p) / sqrt(2 eta)."""
    a = w.reshape(-1, 1)
    det = eta * (a + eta) + a * a
    sq2e = np.sqrt(2.0 * eta)
    u = sq2e * s_in[:, :dim] + a * (x - xi)
    v = sq2e * s_in[:, dim:] + a * x
    r_x = (eta / det) * u + (a / det) * v
    r_xi = (-a / det) * u + ((a + eta) / det) * v
    dx = r_x - x
    r = np.concatenate([r_x, r_xi], axis=1)
    p = np.concatenate([a * (dx - (r_xi - xi)), a * dx], axis=1)
    return r, p, (eta * r - p) / sq2e


@PROPERTY
@given(edge_stacks())
def test_channel_end_matches_per_op_oracle(case):
    w, eta, dim, s_in, x, xi = case
    end = ChannelEnd(CouplingMatrix(w.reshape(-1, 1), dim), eta)
    got = split(end.recover(s_in, np.concatenate([x, xi], axis=1)))
    want = per_op_end(w, eta, dim, s_in, x, xi)
    # both round to a few ulps of the largest input or output magnitude
    scale = max(np.abs(a).max() for a in (s_in, x, xi) + want)
    for g, o in zip(got, want):
        np.testing.assert_allclose(g, o, rtol=0.0, atol=1e-13 * (1.0 + scale))


@PROPERTY
@given(edge_stacks(), st.data())
def test_non_finite_input_stays_on_its_edge(case, data):
    w, eta, dim, s_in, x, xi = case
    end = ChannelEnd(CouplingMatrix(w.reshape(-1, 1), dim), eta)
    u = np.concatenate([x, xi], axis=1)
    clean = end.recover(s_in, u)
    edge = data.draw(st.integers(0, len(w) - 1))
    col = data.draw(st.integers(0, 2 * dim - 1))
    bad = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    s_bad, u_bad = s_in.copy(), u.copy()
    (s_bad if data.draw(st.booleans()) else u_bad)[edge, col] = bad
    others = np.arange(len(w)) != edge
    assert np.array_equal(end.recover(s_bad, u_bad)[others], clean[others])


@PROPERTY
@given(
    st.lists(st.integers(1, 7), min_size=1, max_size=6),
    st.integers(1, 3),
    st.integers(0, 20),
)
def test_multi_line_delay_equals_single_lines(steps, width, n_steps):
    h = 0.1
    delays = np.array(steps) * h
    rng = np.random.default_rng(len(steps) * 31 + width)
    stacked = DelayLine(delays, h, width)
    single = [DelayLine(d, h, width) for d in delays]
    # the lines popped in another order, one given at construction
    order = rng.permutation(len(steps))
    reordered = DelayLine(delays, h, width, order)
    assert stacked.steps.tolist() == [line.steps for line in single]
    for k in range(n_steps):
        t = k * h
        got = stacked.pop(t)
        assert np.array_equal(reordered.pop(t), got[order])
        sent = rng.normal(size=(len(steps), width))
        for e, line in enumerate(single):
            assert np.array_equal(got[e], line.pop(t))
            line.push(sent[e], t)
        stacked.push(sent, t)
        reordered.push(sent, t)


@PROPERTY
@given(edge_stacks())
def test_recovered_pair_implies_incoming_wave(case):
    # s_in = (p + eta r) / sqrt(2 eta) is what recover inverts
    w, eta, dim, s_in, x, xi = case
    end = ChannelEnd(CouplingMatrix(w.reshape(-1, 1), dim), eta)
    r, p, _ = split(end.recover(s_in, np.concatenate([x, xi], axis=1)))
    implied = (p + eta * r) / np.sqrt(2.0 * eta)
    scale = (np.abs(p).max() + eta * np.abs(r).max()) / np.sqrt(2.0 * eta)
    np.testing.assert_allclose(implied, s_in, rtol=0.0, atol=1e-13 * (1.0 + scale))


@PROPERTY
@given(edge_stacks())
def test_wave_power_identity(case):
    # |s_in|^2 - |s_out|^2 = 2 r'p per edge, to rounding of the terms
    w, eta, dim, s_in, x, xi = case
    end = ChannelEnd(CouplingMatrix(w.reshape(-1, 1), dim), eta)
    r, p, s_out = split(end.recover(s_in, np.concatenate([x, xi], axis=1)))
    res = wave_identity_residual(s_in, s_out, r, p)
    terms = np.sum(s_in**2 + s_out**2 + 2.0 * np.abs(r * p), axis=1)
    assert np.all(np.abs(res) <= 1e-13 * (1.0 + terms))


@PROPERTY
@given(
    st.lists(st.integers(1, 7), min_size=1, max_size=6),
    st.integers(1, 3),
    st.integers(0, 20),
)
def test_delay_line_hands_out_each_sample_its_delay_later(steps, width, n_steps):
    h = 0.1
    line = DelayLine(np.array(steps) * h, h, width)
    pushed = []
    for k in range(n_steps):
        got = line.pop(k * h)
        for e, d in enumerate(steps):
            want = pushed[k - d][e] if k >= d else np.zeros(width)
            assert np.array_equal(got[e], want)
        # every entry of every sample distinct: the step, line and component
        sample = 1000.0 * (k + 1) + 10.0 * np.arange(len(steps))[:, None] + np.arange(width)
        pushed.append(sample)
        line.push(sample, k * h)


@st.composite
def connected_adjacency(draw):
    """A symmetric weight matrix over 2..8 agents whose edges connect
    them: a random spanning tree plus random extra edges."""
    n = draw(st.integers(2, 8))
    a = np.zeros((n, n))
    for i in range(1, n):
        j = draw(st.integers(0, i - 1))
        a[i, j] = a[j, i] = draw(weights)
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                a[i, j] = a[j, i] = draw(weights)
    return a


@PROPERTY
@given(connected_adjacency())
def test_laplacian_symmetric_psd_with_ones_null_space(a):
    lap = laplacian_apply(Network(a), np.eye(len(a)))
    assert np.array_equal(lap, lap.T)
    scale = float(a.sum(axis=1).max())
    assert np.linalg.eigvalsh(lap).min() >= -1e-12 * scale
    np.testing.assert_allclose(lap @ np.ones(len(a)), 0.0, rtol=0.0, atol=1e-13 * scale)


@PROPERTY
@given(connected_adjacency(), st.integers(0, 3), st.data())
def test_laplacian_apply_equals_the_dense_matrix(a, width, data):
    # the network stores only its edge table; the dense Laplacian is built
    # here from the matrix it was given.  width 0 is a (N,) input
    n = len(a)
    shape = (n,) if width == 0 else (n, width)
    v = data.draw(arrays(float, shape, elements=finite))
    dense = (np.diag(a.sum(1)) - a) @ v
    scale = float(a.sum(axis=1).max()) * max(1.0, float(np.abs(v).max(initial=0.0)))
    got = laplacian_apply(Network(a), v)
    assert got.shape == shape
    np.testing.assert_allclose(got, dense, rtol=1e-12, atol=1e-12 * scale)


def test_laplacian_apply_is_bit_equal_on_the_cli_ring():
    # on ring(N, 4), the CLI's graph, the edge sums round exactly as the
    # dense deg_i v_i - (A v)_i did
    rng = np.random.default_rng(19)
    for n in range(3, 11):
        a = ring_matrix(n, 4.0)
        for v in (rng.normal(size=(n, 6)), rng.normal(size=n)):
            dense = (a.sum(1) * v.T).T - a @ v
            assert laplacian_apply(ring(n, 4.0), v).tobytes() == dense.tobytes()


def loop_sums(owner, n_agents, rows, axis):
    """_owner_sums by one addition per entry, in entry order."""
    lead, tail = rows.shape[:axis], rows.shape[axis + 1:]
    out = np.zeros(lead + (n_agents,) + tail)
    for b in np.ndindex(lead):
        for k, i in enumerate(owner):
            for w in np.ndindex(tail):
                out[b + (i,) + w] += rows[b + (k,) + w]
    return out


@st.composite
def owned_rows(draw):
    """(owner (K,), N, rows B + (K,) + W, axis of K): N may exceed the
    owners drawn, so some agents own nothing; 0-2 leading axes and a
    trailing width 0-3 or none."""
    n_agents = draw(st.integers(1, 5))
    owner = np.array(draw(st.lists(st.integers(0, n_agents - 1), max_size=6)), dtype=np.intp)
    lead = tuple(draw(st.lists(st.integers(1, 3), max_size=2)))
    tail = draw(st.sampled_from([(), (0,), (1,), (2,), (3,)]))
    rows = draw(arrays(float, lead + (owner.size,) + tail, elements=finite))
    axis = len(lead) - draw(st.sampled_from([0, rows.ndim]))  # as given, or negative
    return owner, n_agents, rows, axis


@PROPERTY
@given(owned_rows(), st.data())
def test_owner_sums_equal_a_loop_and_keep_a_nan_in_its_agent(case, data):
    owner, n_agents, rows, axis = case
    got = _owner_sums(owner, n_agents, rows, axis)
    lead = len(rows.shape[:axis])
    assert got.shape == rows.shape[:lead] + (n_agents,) + rows.shape[lead + 1:]
    assert np.array_equal(got, loop_sums(owner, n_agents, rows, lead))
    if rows.size:
        at = tuple(data.draw(st.integers(0, s - 1)) for s in rows.shape)
        bad = rows.copy()
        bad[at] = np.nan
        want = at[:lead] + (owner[at[lead]],) + at[lead + 1:]
        assert np.argwhere(np.isnan(_owner_sums(owner, n_agents, bad, axis))).tolist() == [
            list(want)]


@settings(derandomize=True, deadline=None, max_examples=40)
@given(connected_adjacency(), st.sampled_from(MODES), st.integers(1, 200), st.integers(1, 2),
       st.booleans(), st.booleans(), st.data())
def test_in_place_steps_are_the_fresh_path(a, mode, steps, dim, with_reference, affine, data):
    # quadratic pulls toward drawn targets under one bound each (the loop
    # path of local_terms), or affine objectives with nonnegativity bounds
    # and one equality row per agent, like the matching LP (the stacked
    # path, whose buffers a run plans); delays of 1-5 steps, and with a
    # reference the certificates' slot rows: whether the run completes or
    # aborts, each logged step is the fresh path's
    n, h = len(a), 1e-3
    targets = data.draw(arrays(float, (n, dim), elements=st.floats(-5.0, 5.0)))
    if affine:
        locs = [LocalProblem(AffineFunction(c),
                             inequalities=[make_linear_nonneg_bound(k, dim) for k in range(dim)],
                             equalities=[AffineFunction(np.ones(dim), -1.0)]) for c in targets]
    else:
        locs = [LocalProblem(QuadraticFunction(np.eye(dim), -c),
                             inequalities=[AffineFunction(np.ones(dim), -10.0)]) for c in targets]
    prob = DistributedProblem(Network(a), locs)
    assert (prob._affine is not None) == affine
    delays = h * data.draw(arrays(np.int64, prob.network.own.shape, elements=st.integers(1, 5)))
    ref = None
    if with_reference:
        ref = ReferencePoint(np.zeros((n, dim)), np.zeros((n, dim)),
                             np.ones(prob.ineq_owner.size), np.zeros(prob.eq_owner.size))
    log = simulate(prob, SimConfig(step=h, duration=steps * h, mode=mode, delays=delays,
                                   log_every=1, diag_interval=h, reference=ref))
    assert len(log.t) >= 1
    assert_steps_are_the_fresh_path(log)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(connected_adjacency(), st.integers(1, 2), st.booleans(), st.booleans(),
       st.floats(0.25, 4.0), st.data())
def test_scattering_matches_the_wave_oracle_on_any_network(a, dim, affine, integrator, eta,
                                                           data):
    # the scattering engine against the textbook wave exchange, each agent
    # solving its 2n x 2n port system densely at every step: on any
    # connected network, with a whole-step delay of 1-6 steps drawn for
    # each directed edge, so the two ends of a channel mostly lag unequally
    n = len(a)
    targets = data.draw(arrays(float, (n, dim), elements=st.floats(-5.0, 5.0)))
    if affine:
        locs = [LocalProblem(AffineFunction(c),
                             inequalities=[make_linear_nonneg_bound(k, dim) for k in range(dim)],
                             equalities=[AffineFunction(np.ones(dim), -1.0)]) for c in targets]
    else:
        locs = [LocalProblem(QuadraticFunction(np.eye(dim), -c),
                             inequalities=[AffineFunction(np.ones(dim), -10.0)]) for c in targets]
    prob = DistributedProblem(Network(a), locs)
    edges = list(zip(prob.network.own.tolist(), prob.network.nbr.tolist()))
    lags = data.draw(st.lists(st.integers(1, 6), min_size=len(edges), max_size=len(edges)))
    comp = CompensatorParams.pure_integrator() if integrator else SimConfig().compensator
    assert_matches_direct_flow(comp, "scattering", dict(zip(edges, lags)), prob=prob, a=a,
                               duration=0.03, eta=eta)


@st.composite
def force_and_ports(draw):
    """(problem, state, p) of a network of one agent (no edges) or of 2-8,
    each agent with 0-2 affine inequalities and 0-1 equalities whose
    coefficients may be zero, so some agents own no constraint and some
    rows are all zero; affine objectives (the stacked path) or quadratic
    ones (the loop path).  At most one entry of lam, mu or p is NaN or
    +-inf."""
    a = draw(st.one_of(st.just(np.zeros((1, 1))), connected_adjacency()))
    n, dim, affine = len(a), draw(st.integers(1, 3)), draw(st.booleans())
    coefficient = st.one_of(st.just(0.0), st.floats(-3.0, 3.0))

    def constraints(most):
        return [AffineFunction(draw(arrays(float, dim, elements=coefficient)),
                               draw(st.floats(-2.0, 2.0)))
                for _ in range(draw(st.integers(0, most)))]

    locs = []
    for _ in range(n):
        c = draw(arrays(float, dim, elements=finite))
        objective = AffineFunction(c) if affine else QuadraticFunction(np.eye(dim), c)
        locs.append(LocalProblem(objective, constraints(2), constraints(1)))
    prob = DistributedProblem(Network(a), locs)
    assert (prob._affine is not None) == affine
    state = AgentState(draw(arrays(float, (n, 2, dim), elements=finite)),
                       draw(arrays(float, (n, dim), elements=finite)),
                       draw(arrays(float, prob.ineq_owner.shape, elements=st.floats(0.1, 2.0))),
                       draw(arrays(float, prob.eq_owner.shape, elements=finite)))
    p = draw(arrays(float, (prob.network.own.size, 2 * dim), elements=finite))
    fields = [name for name, v in (("lam", state.lam), ("mu", state.mu), ("p", p)) if v.size]
    bad = None
    if fields and draw(st.booleans()):
        name = draw(st.sampled_from(fields))
        values = p if name == "p" else getattr(state, name)
        at = tuple(draw(st.integers(0, s - 1)) for s in values.shape)
        values[at] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        bad = (name, at)
    return prob, state, p, bad


def non_finite(a):
    return {tuple(k) for k in np.argwhere(~np.isfinite(a)).tolist()}


def alone_unconstrained(objective):
    """One agent with no constraints: no edges, no force entries, so the
    owner sum has no weights at all."""
    prob = DistributedProblem(Network([[0.0]]), [LocalProblem(objective)])
    state = AgentState(np.ones((1, 2, 2)), np.ones((1, 2)), np.zeros(0), np.zeros(0))
    return prob, state, np.zeros((0, 4)), None


def matching_lp(agents):
    """The CLI's LP at a random state: at N = 5 a row holds 1 or 5 nonzeros
    of 25 entries, and a sum over all 25 (einsum's) differs in the last
    bits from the bincount over the nonzeros, where on the drawn problems'
    rows of 1-3 entries the two agreed bit for bit."""
    from dcopt.cli import build_scenario, validate_config
    _, prob, sim = build_scenario(validate_config(None, {"agents": agents}), "no_delay")
    rng = np.random.default_rng(agents)
    zeros = AgentState.zeros(sim.compensator, prob)
    state = AgentState(rng.normal(size=zeros.rho.shape), rng.normal(size=zeros.xi.shape),
                       rng.uniform(0.1, 2.0, size=zeros.lam.shape),
                       rng.normal(size=zeros.mu.shape))
    return prob, state, rng.normal(size=(prob.network.own.size, 2 * prob.dim)), None


@PROPERTY
@given(force_and_ports())
@example(alone_unconstrained(AffineFunction([1.0, -2.0])))
@example(alone_unconstrained(QuadraticFunction(np.eye(2), [1.0, -2.0])))
@example(matching_lp(5))
def test_one_owner_sum_gives_the_force_and_the_efforts(case):
    # derivatives sums the force's weighted entries, the edges' p and, on
    # the affine path, the constraint values' products in one bincount:
    # zeta must be constraint_force, the efforts the owner sums of p's
    # halves, and lam_dot and mu_dot local_terms' g and h times [2 lam; 1],
    # bit for bit, from a run's row with its plan and in a fresh call; one
    # non-finite multiplier or port entry stays in its own agent's bins
    prob, state, p, bad = case
    sim = SimConfig()
    comp = sim.compensator
    own, n, dim = prob.network.own, prob.n_agents, prob.dim
    with np.errstate(all="ignore"):
        run = _Run(prob, sim, state, 1)
        deriv, (_, p_row, _, _) = run.at[0][:2]
        np.copyto(p_row, p)
        got = [derivatives(prob, comp, run.states[0], p_row, deriv, run.plan),
               derivatives(prob, comp, state, p)]
        terms = prob.local_terms(state.x)
        zeta = constraint_force(prob, terms, state.lam, state.mu)
        effort_x, effort_xi = (np.asarray(_owner_sums(own, n, half), dtype=float)
                               for half in (p[:, :dim], p[:, dim:]))
        nu = (terms.neg_grad - zeta) + effort_x
        lam_dot = (2.0 * state.lam) * terms.g
    for d in got:
        for name, want in (("zeta", zeta), ("nu", nu), ("xi_dot", effort_xi),
                           ("lam_dot", lam_dot), ("mu_dot", terms.h)):
            assert getattr(d, name).tobytes() == want.tobytes(), name
    if bad is None:
        assert not non_finite(zeta) and not non_finite(nu) and not non_finite(effort_xi)
        return
    name, at = bad
    if name == "p":  # one bin of one half of agent own[e]
        e, j = at
        reached = {(int(own[e]), j % dim)}
        assert (non_finite(effort_x), non_finite(effort_xi)) == (
            (reached, set()) if j < dim else (set(), reached))
        assert not non_finite(zeta)
        return
    k = at[0] + (prob.ineq_owner.size if name == "mu" else 0)
    agent = int(prob._owner[k])
    # the stacked path reads only the row's nonzero coefficients; the
    # loop path reads every entry, and 0 * inf is NaN
    row = terms.rows[k]
    columns = np.flatnonzero(row) if prob._affine is not None else range(dim)
    assert non_finite(zeta) == {(agent, int(c)) for c in columns}
    assert not non_finite(effort_x) and not non_finite(effort_xi)
