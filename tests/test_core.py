import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssdr.core import (BehindCameraError, Camera, ContractError, GBuffer,
                       ImageBuffer, bilinear, dot, normalize, project, unproject,
                       validate_gbuffer)
from ssdr.sampling import derive_seed, uniform, uniform_block


def test_project_principal_point(camera100):
    for depth in (0.5, 2.0, 37.0):
        px, inside = project(camera100, np.array([0.0, 0.0, depth]))
        assert np.allclose(px, [50.0, 50.0])
        assert inside


def test_project_pinhole_example(camera100):
    px, inside = project(camera100, np.array([1.0, 0.0, 2.0]))
    assert np.allclose(px, [100.0, 50.0])
    assert not inside  # u == width is just off the right edge


def test_project_behind_camera(camera100):
    with pytest.raises(BehindCameraError):
        project(camera100, np.array([0.0, 0.0, -1.0]))


def test_unproject_center_and_example(camera100):
    assert np.allclose(unproject(camera100, np.array([50.0, 50.0]), 3.0),
                       [0.0, 0.0, 3.0])
    assert np.allclose(unproject(camera100, np.array([100.0, 50.0]), 2.0),
                       [1.0, 0.0, 2.0])
    with pytest.raises(ContractError):
        unproject(camera100, np.array([10.0, 10.0]), -1.0)


@st.composite
def cameras(draw):
    w = draw(st.integers(4, 256))
    h = draw(st.integers(4, 256))
    fx = draw(st.floats(10.0, 500.0))
    fy = draw(st.floats(10.0, 500.0))
    cx = draw(st.floats(0.0, w - 1.0))
    cy = draw(st.floats(0.0, h - 1.0))
    return Camera(fx=fx, fy=fy, cx=cx, cy=cy, width=w, height=h)


@given(cameras(), st.floats(0.05, 0.95), st.floats(0.05, 0.95), st.floats(0.01, 50.0))
@settings(max_examples=200)
def test_project_unproject_roundtrip(cam, fu, fv, depth):
    pixel = np.array([fu * (cam.width - 1), fv * (cam.height - 1)])
    point = unproject(cam, pixel, depth)
    back, inside = project(cam, point)
    assert np.allclose(back, pixel, atol=1e-6)
    assert inside
    assert np.isclose(point[2], depth)


def test_uniform_block_determinism():
    a = uniform_block(7, 11, 3, 8)
    b = uniform_block(7, 11, 3, 8)
    assert np.array_equal(a, b)
    c = uniform_block(8, 11, 3, 8)
    assert not np.array_equal(a, c)


def test_uniform_block_matches_scalar_stream():
    block = uniform_block(5, np.array([3, 9]), 2, 4)
    for i, pix in enumerate((3, 9)):
        for d in range(4):
            assert block[i, d] == uniform(5, pix, 2, d)


def test_uniform_statistics():
    u = uniform_block(0, np.arange(20000), 0, 2)
    assert 0.0 <= u.min() and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.01
    assert abs(np.corrcoef(u[:, 0], u[:, 1])[0, 1]) < 0.02


def test_derive_seed_decorrelates():
    seeds = {derive_seed(1, k) for k in range(100)}
    assert len(seeds) == 100


def test_uniform_stream_pinned():
    # regression pin: a stream change would silently re-seed every
    # statistical test in the suite
    assert float(uniform(1, 2, 3, 0)) == 0.5592572361054737


def _valid_gbuffer(h=4, w=5):
    return GBuffer(albedo=np.full((h, w, 3), 0.5),
                   normal=np.tile([0.0, 0.0, -1.0], (h, w, 1)),
                   depth=np.full((h, w), 2.0),
                   roughness=np.full((h, w), 0.5),
                   metallic=np.zeros((h, w)))


def test_validate_clean_buffer():
    report = validate_gbuffer(_valid_gbuffer())
    assert report.ok()
    assert report.summary() == "gbuffer valid"


def test_validate_counts_non_unit_normal():
    g = _valid_gbuffer()
    g.normal[1, 2] = [0.0, 0.0, 2.0]
    assert validate_gbuffer(g).counts == {"non-unit normal": 1}


def test_validate_counts_roughness_out_of_range():
    g = _valid_gbuffer()
    g.roughness[0, 0] = 1.5
    assert validate_gbuffer(g).counts == {"roughness out of range": 1}


def test_validate_accepts_pixels_without_geometry():
    """Depths that mark "no geometry" (sky pixels) are legal G-buffer
    content, so they are no issue of the report."""
    g = _valid_gbuffer()
    g.depth[0, :4] = [0.0, -1.0, np.inf, np.nan]
    report = validate_gbuffer(g)
    assert report.ok(), report.counts
    assert report.summary() == "gbuffer valid"


@pytest.mark.parametrize("length,unit", [(1.0005, True), (1.0015, False), (0.0, False),
                                         (np.nan, False)])
def test_one_unit_length_rule_for_brdf_and_ssrt(length, unit):
    """The one unit-length rule |w.w - 1| <= 2.1e-3 of `core.check_unit`,
    which `ssrt.trace_batch` applies to its directions: a direction of
    length 1.0005 is unit, one of 1.0015 or 0 is not, and neither is a NaN
    direction.  (The BRDF takes its directions unchecked; the test keeps
    the name it had when `brdf.eval` applied the rule too.)"""
    from ssdr import scenes, ssrt
    d = length * normalize(np.array([0.2, -0.1, 1.0]))

    def call():
        ssrt.trace_batch(np.full((8, 8), 2.0), scenes.default_camera(8, 8),
                         np.array([[0.0, 0.0, 1.0]]), d[None], ssrt.SsrtConfig())

    if unit:
        call()
    else:
        with pytest.raises(ContractError, match="not unit length"):
            call()


def test_gbuffer_dimension_mismatch_fatal():
    """A map of another size than depth, or a depth map that is not (H, W),
    is a ContractError naming the map, not a bare ValueError from
    unpacking depth's shape."""
    maps = dict(albedo=np.zeros((4, 4, 3)), normal=np.zeros((4, 4, 3)),
                depth=np.zeros((4, 4)), roughness=np.zeros((4, 4)),
                metallic=np.zeros((4, 4)))
    for name, bad in (("albedo", np.zeros((4, 5, 3))), ("depth", np.zeros(4)),
                      ("depth", np.zeros((4, 4, 1)))):
        with pytest.raises(ContractError, match=f"{name} shape"):
            GBuffer(**{**maps, name: bad})



def test_image_buffer_shape_contract():
    """An image is (H, W, 1) or (H, W, 3); its size is its array's."""
    assert ImageBuffer(np.zeros((2, 5, 1))).data.shape == (2, 5, 1)
    for shape in ((2, 2), (2, 2, 2), (2, 2, 3, 1)):
        with pytest.raises(ContractError, match=r"\(H, W, 1\) or \(H, W, 3\)"):
            ImageBuffer(np.zeros(shape))


@pytest.mark.parametrize("sa,sb", [((3,), (3,)), ((40, 3), (40, 3)), ((3,), (40, 3)),
                                   ((40, 1, 3), (40, 16, 3)), ((2, 5, 1, 3), (7, 3))])
def test_dot_matches_np_sum_bytes(sa, sb):
    """dot is np.sum(a * b, axis=-1) bit for bit, also on the broadcast
    (n, 1, 3) x (n, s, 3) shapes of the renderer."""
    rng = np.random.default_rng(len(sa) + len(sb))
    a, b = rng.normal(size=sa), rng.normal(size=sb)
    got, want = dot(a, b), np.sum(a * b, axis=-1)
    assert type(got) is type(want) and np.shape(got) == np.shape(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_dot_signed_zero_products():
    """Three -0.0 products sum to +0.0, as np.sum gives."""
    a = np.array([[-0.0, 0.0, -0.0], [1.0, -1.0, 0.0], [-1e-300, 1e-300, -0.0],
                  [0.0, 0.0, 0.0], [-0.0, -0.0, -0.0]])
    b = np.array([[1.0, -1.0, 1.0], [-0.0, -0.0, 5.0], [1e-300, 1e-300, 2.0],
                  [-1.0, -1.0, -1.0], [-0.0, -0.0, -0.0]])
    got = dot(a, b)
    assert got.tobytes() == np.sum(a * b, axis=-1).tobytes()
    assert not np.any(np.signbit(got[[0, 1, 3]]))


def test_normalize_matches_linalg_norm_bytes():
    """normalize is v / np.linalg.norm(v) bit for bit; zero vectors stay
    zero."""
    rng = np.random.default_rng(7)
    v = rng.normal(size=(6, 4, 3)) * np.logspace(-150, 150, 6)[:, None, None]
    v[0, 0] = 0.0
    v[1, 1] = -0.0
    v[2, 2] = [1e-310, 0.0, -0.0]
    n = np.linalg.norm(v, axis=-1, keepdims=True)
    want = v / np.where(n > 0, n, 1.0)
    assert normalize(v).tobytes() == want.tobytes()
    assert normalize(v[3, 0]).tobytes() == want[3, 0].tobytes()
    assert np.all(normalize(np.zeros((2, 3))) == 0.0)


def test_bilinear_channels_and_nodes():
    """A 3-channel lookup is three 1-channel lookups, byte for byte, and an
    integer position returns the stored value."""
    rng = np.random.default_rng(5)
    image = rng.normal(size=(5, 7, 3))
    x = np.concatenate([rng.uniform(-1.0, 8.0, 200), [0.0, 6.0, 3.0]])
    y = np.concatenate([rng.uniform(-1.0, 6.0, 200), [0.0, 4.0, 2.0]])
    got = bilinear(image, x, y)
    for c in range(3):
        assert got[:, c].tobytes() == bilinear(image[:, :, c], x, y).tobytes()
    ys, xs = np.mgrid[0:5, 0:7]
    nodes = bilinear(image, xs.ravel().astype(np.float64), ys.ravel().astype(np.float64))
    assert nodes.tobytes() == image.reshape(-1, 3).tobytes()
