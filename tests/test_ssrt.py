import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssdr import scenes, ssrt
from ssdr.core import ContractError, normalize, project, unproject
from ssdr.ssrt import SsrtConfig, Status


CFG = SsrtConfig()


def test_uncertainty_values():
    assert float(ssrt.uncertainty(0.0)) == 0.0
    assert abs(float(ssrt.uncertainty(0.1)) - np.tanh(1.0)) < 1e-12
    assert float(ssrt.uncertainty(1e9)) < 1.0  # capped below exactly 1
    with pytest.raises(ContractError):
        ssrt.uncertainty(-0.1)


@given(st.floats(0.0, 1.2), st.floats(1e-3, 0.3))
@settings(max_examples=200)
def test_uncertainty_strictly_increasing_on_grid(a, step):
    assert float(ssrt.uncertainty(a + step)) > float(ssrt.uncertainty(a))


@given(st.floats(0.0, 100.0), st.floats(0.0, 100.0))
@settings(max_examples=100)
def test_uncertainty_monotone_nondecreasing(a, b):
    lo, hi = sorted((a, b))
    assert float(ssrt.uncertainty(hi)) >= float(ssrt.uncertainty(lo))


def test_slide_along_plane_hits_at_origin():
    camera = scenes.default_camera(64, 64)
    depth = np.full((64, 64), 2.0)
    p = unproject(camera, np.array([20.0, 32.0]), 2.0)
    q = unproject(camera, np.array([50.0, 32.0]), 2.0)
    hit = ssrt.trace_batch(depth, camera, p[None], normalize(q - p)[None], CFG)
    assert hit.status[0] == Status.HIT
    # the first intersection of an in-plane ray is the ray origin itself
    assert np.linalg.norm(hit.pixel[0] - [20.0, 32.0]) <= 1.0
    assert hit.delta_d[0] <= 1e-9
    assert hit.u[0] < 1e-6


def test_ray_into_sky_exits():
    camera = scenes.default_camera(64, 64)
    depth = np.full((64, 64), np.inf)
    depth[40:, :] = 2.0
    p = unproject(camera, np.array([32.0, 45.0]), 2.0)
    hit = ssrt.trace_batch(depth, camera, p[None], normalize(np.array([[0.0, -0.5, -0.05]])),
                          CFG)
    assert hit.status[0] in (Status.EXITED_VIEW, Status.EXHAUSTED_STEPS)
    assert hit.u[0] == 1.0


def test_two_plane_oracle_agreement():
    g, camera, _, (floor, wall) = scenes.two_plane(64, 64)
    rng = np.random.default_rng(7)
    n = 10_000
    floor_mask = g.normal[:, :, 1] < -0.5
    fy, fx = np.nonzero(floor_mask)
    wy, wx = np.nonzero(~floor_mask)
    si = rng.integers(0, fy.size, n)
    ti = rng.integers(0, wy.size, n)
    p = unproject(camera, np.stack([fx[si], fy[si]], -1).astype(float),
                  g.depth[fy[si], fx[si]])
    q = unproject(camera, np.stack([wx[ti], wy[ti]], -1).astype(float),
                  g.depth[wy[ti], wx[ti]])
    d = normalize(q - p)
    hits = ssrt.trace_batch(g.depth, camera, p, d, CFG)
    analytic_px, _ = project(camera, scenes.ray_plane_point(p, d, wall))
    err = np.linalg.norm(hits.pixel - analytic_px, axis=1)
    hit = hits.status == int(Status.HIT)
    assert np.mean(hit & (err <= 1.0)) >= 0.95
    assert np.all(hits.u[~hit] == 1.0)


def test_single_plane_in_view_intersection():
    camera = scenes.default_camera(64, 64)
    depth = np.full((64, 64), 2.0)
    # point on the plane, aimed at another in-view plane point
    p = unproject(camera, np.array([10.0, 10.0]), 2.0)
    q = unproject(camera, np.array([40.0, 55.0]), 2.0)
    hit = ssrt.trace_batch(depth, camera, p[None], normalize(q - p)[None], CFG)
    assert hit.status[0] == Status.HIT
    assert np.linalg.norm(hit.pixel[0] - [10.0, 10.0]) <= 1.0  # first crossing at t=0+


@pytest.mark.parametrize("dz", [1.0, -1.0])
def test_ray_along_the_view_axis(dz):
    """A ray along the optical axis projects to one pixel.  Forward from
    (0, 0, 1) it hits the back wall at (0, 0, 4) with no depth gap, as the
    plane oracle says; backward it leaves the view."""
    g, camera, _, (_, wall) = scenes.two_plane(15, 15)
    p, d = np.array([[0.0, 0.0, 1.0]]), np.array([[0.0, 0.0, dz]])
    hit = ssrt.trace_batch(g.depth, camera, p, d, CFG)
    if dz > 0:
        assert hit.status[0] == Status.HIT
        assert hit.delta_d[0] == 0.0 and hit.u[0] == 0.0
        assert np.allclose(hit.s[0], scenes.ray_plane_point(p, d, wall)[0], rtol=0,
                           atol=1e-12)
        assert np.allclose(hit.s[0], [0.0, 0.0, 4.0], rtol=0, atol=1e-12)
    else:
        assert hit.status[0] == Status.EXITED_VIEW
        assert hit.u[0] == 1.0


def test_trace_determinism():
    g, camera, _, _ = scenes.two_plane(32, 32)
    p = unproject(camera, np.array([[10.0, 25.0]]), np.array([g.depth[25, 10]]))
    d = normalize(np.array([[0.2, -0.7, 0.4]]))
    a = ssrt.trace_batch(g.depth, camera, p, d, CFG)
    b = ssrt.trace_batch(g.depth, camera, p, d, CFG)
    assert np.array_equal(a.pixel, b.pixel)
    assert np.array_equal(a.u, b.u)
    assert np.array_equal(a.status, b.status)


def test_status_uncertainty_coupling():
    g, camera, _, _ = scenes.two_plane(48, 48)
    rng = np.random.default_rng(12)
    fy, fx = np.nonzero(g.depth < np.inf)
    idx = rng.integers(0, fy.size, 512)
    p = unproject(camera, np.stack([fx[idx], fy[idx]], -1).astype(float),
                  g.depth[fy[idx], fx[idx]])
    d = normalize(rng.normal(size=(512, 3)))
    # keep rays in front of the camera
    d[p[:, 2] + d[:, 2] <= 0.05] *= -1
    hits = ssrt.trace_batch(g.depth, camera, p, d, CFG)
    is_hit = hits.status == int(Status.HIT)
    assert np.all((hits.u == 1.0) == ~is_hit)


def test_occluder_in_front_keeps_hit_with_large_gap():
    camera = scenes.default_camera(64, 64)
    depth = np.full((64, 64), 4.0)
    depth[:, 40:] = 1.0  # near occluder on the right
    p = unproject(camera, np.array([20.0, 32.0]), 4.0)
    q = unproject(camera, np.array([60.0, 32.0]), 2.0)  # in front of the wall
    hit = ssrt.trace_batch(depth, camera, p[None], normalize(q - p)[None], CFG)
    assert hit.status[0] == Status.HIT
    assert hit.delta_d[0] > CFG.thickness
    assert hit.u[0] > 0.9999  # discounted almost entirely


def test_refinement_converges_with_stride():
    """Hits approach analytic intersections as stride shrinks and
    refinement deepens."""
    g, camera, _, (floor, wall) = scenes.two_plane(64, 64)
    rng = np.random.default_rng(3)
    floor_mask = g.normal[:, :, 1] < -0.5
    fy, fx = np.nonzero(floor_mask)
    wy, wx = np.nonzero(~floor_mask)
    si = rng.integers(0, fy.size, 2000)
    ti = rng.integers(0, wy.size, 2000)
    p = unproject(camera, np.stack([fx[si], fy[si]], -1).astype(float),
                  g.depth[fy[si], fx[si]])
    q = unproject(camera, np.stack([wx[ti], wy[ti]], -1).astype(float),
                  g.depth[wy[ti], wx[ti]])
    d = normalize(q - p)
    analytic_px, _ = project(camera, scenes.ray_plane_point(p, d, wall))
    fine = SsrtConfig(max_steps=512, stride=0.5, refinement_steps=16)
    hits = ssrt.trace_batch(g.depth, camera, p, d, fine)
    err = np.linalg.norm(hits.pixel - analytic_px, axis=1)
    ok = hits.status == int(Status.HIT)
    assert np.mean(ok & (err <= 1.0)) >= 0.95


def test_exhausted_steps_status():
    camera = scenes.default_camera(64, 64)
    depth = np.full((64, 64), np.inf)
    depth[:, -2:] = 2.0  # the only geometry sits far to the right
    p = unproject(camera, np.array([2.0, 32.0]), 2.0)
    q = unproject(camera, np.array([62.0, 32.0]), 2.0)
    tiny = SsrtConfig(max_steps=4, stride=1.0)
    hit = ssrt.trace_batch(depth, camera, p[None], normalize(q - p)[None], tiny)
    assert hit.status[0] == Status.EXHAUSTED_STEPS
    assert hit.u[0] == 1.0


def test_contract_violations():
    camera = scenes.default_camera(16, 16)
    depth = np.full((16, 16), 2.0)
    with pytest.raises(ContractError):
        ssrt.trace_batch(depth, camera, np.array([[0.0, 0.0, 1.0]]),
                         np.zeros((1, 3)), CFG)
    with pytest.raises(ContractError):
        ssrt.trace_batch(depth, camera, np.array([[np.nan, 0.0, 1.0]]),
                         np.array([[0.0, 0.0, 1.0]]), CFG)
    with pytest.raises(ContractError, match="in front of the camera"):
        ssrt.trace_batch(depth, camera, np.array([[0.0, 0.0, -1.0]]),
                         np.array([[0.0, 0.0, 1.0]]), CFG)
    with pytest.raises(ContractError):
        SsrtConfig(max_steps=0)
