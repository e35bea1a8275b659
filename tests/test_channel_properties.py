"""Property tests: the stacked channel layer equals its one-edge form.

A CouplingMatrix or ChannelEnd built on an (E, 1) weight array and a
DelayLine built on an (E,) delay array must give, bit for bit, what E
one-edge objects give row by row.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dcopt import ChannelEnd, CouplingMatrix, DelayLine

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
    stacked = CouplingMatrix(w.reshape(-1, 1), dim).apply(s_in)
    for e, a in enumerate(w):
        assert np.array_equal(stacked[e], CouplingMatrix(a, dim).apply(s_in[e]))


@PROPERTY
@given(edge_stacks())
def test_stacked_channel_end_equals_scalar(case):
    w, eta, dim, s_in, x, xi = case
    end = ChannelEnd(CouplingMatrix(w.reshape(-1, 1), dim), eta)
    r, p = end.recover(s_in, x, xi)
    s_out = end.outgoing_wave(r, p)
    for e, a in enumerate(w):
        one = ChannelEnd(CouplingMatrix(a, dim), eta)
        r_e, p_e = one.recover(s_in[e], x[e], xi[e])
        assert np.array_equal(r[e], r_e)
        assert np.array_equal(p[e], p_e)
        assert np.array_equal(s_out[e], one.outgoing_wave(r_e, p_e))


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
    assert stacked.steps.tolist() == [line.steps for line in single]
    for k in range(n_steps):
        t = k * h
        got = stacked.pop(t)
        sent = rng.normal(size=(len(steps), width))
        for e, line in enumerate(single):
            assert np.array_equal(got[e], line.pop(t))
            line.push(sent[e], t)
        stacked.push(sent, t)
