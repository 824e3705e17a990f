import json
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ssdr import io as sio, mlp, scenes
from ssdr.core import Camera, ContractError, ImageBuffer
from ssdr.lighting import FeatureGrid, GridLight


def test_pfm_single_texel(tmp_path):
    raw = b"Pf\n1 1\n-1.0\n" + struct.pack("<f", 3.25)
    path = tmp_path / "one.pfm"
    path.write_bytes(raw)
    img = sio.read_pfm(path)
    assert (img.width, img.height, img.channels) == (1, 1, 1)
    assert img.data[0, 0, 0] == 3.25


def test_pfm_endianness_fixture(tmp_path):
    le = tmp_path / "le.pfm"
    le.write_bytes(b"Pf\n1 1\n-1.0\n" + struct.pack("<f", 7.5))
    be = tmp_path / "be.pfm"
    be.write_bytes(b"Pf\n1 1\n1.0\n" + struct.pack(">f", 7.5))
    assert sio.read_pfm(le).data[0, 0, 0] == 7.5
    assert sio.read_pfm(be).data[0, 0, 0] == 7.5


def test_pfm_bottom_up_scanlines(tmp_path):
    # 1x2 single-channel: first stored scanline is the BOTTOM row
    raw = b"Pf\n1 2\n-1.0\n" + struct.pack("<ff", 1.0, 2.0)
    path = tmp_path / "rows.pfm"
    path.write_bytes(raw)
    img = sio.read_pfm(path)
    assert img.data[1, 0, 0] == 1.0  # bottom
    assert img.data[0, 0, 0] == 2.0  # top


@given(hnp.arrays(np.float32, hnp.array_shapes(min_dims=2, max_dims=2,
                                               min_side=1, max_side=8),
                  elements=st.floats(-1e6, 1e6, width=32)),
       st.sampled_from([1, 3]))
@settings(max_examples=60, deadline=None)
def test_pfm_roundtrip_bitexact(tmp_path_factory, arr, channels):
    tmp = tmp_path_factory.mktemp("pfm")
    data = np.repeat(arr[:, :, None], channels, axis=2).astype(np.float64)
    img = ImageBuffer(width=data.shape[1], height=data.shape[0], channels=channels,
                      data=data)
    p1 = tmp / "a.pfm"
    p2 = tmp / "b.pfm"
    sio.write_pfm(p1, img)
    back = sio.read_pfm(p1)
    sio.write_pfm(p2, back)
    assert p1.read_bytes() == p2.read_bytes()
    assert np.array_equal(back.data.astype(np.float32), data.astype(np.float32))


@pytest.mark.parametrize("value", [1e39, -1e308])
def test_write_pfm_refuses_finite_values_beyond_float32(tmp_path, value):
    """A finite value that float32 cannot hold is an OverflowError naming
    the file, and no file is written; the float32 maximum and infinities
    themselves are stored as they are."""
    path = tmp_path / "big.pfm"
    with pytest.raises(OverflowError, match="big.pfm"):
        sio.write_pfm(path, np.array([[1.0, value]]))
    assert not path.exists()
    edge = np.array([[np.finfo(np.float32).max, -np.inf, np.inf]])
    sio.write_pfm(path, edge)
    assert sio.read_pfm(path).plane().tobytes() == edge.tobytes()


def test_pfm_trailing_garbage_rejected(tmp_path):
    path = tmp_path / "bad.pfm"
    path.write_bytes(b"Pf\n1 1\n-1.0\n" + struct.pack("<f", 1.0) + b"x")
    with pytest.raises(sio.ParseError, match="trailing"):
        sio.read_pfm(path)


def test_pfm_truncated_payload(tmp_path):
    path = tmp_path / "short.pfm"
    path.write_bytes(b"PF\n2 2\n-1.0\n" + b"\0" * 10)
    with pytest.raises(sio.ParseError, match="truncated"):
        sio.read_pfm(path)


@pytest.mark.parametrize("data,message", [
    (b"PF\n1", "unexpected EOF at byte 4"),
    (b"PF\n" + b"1" * 40, "header token longer than 32 bytes at byte 35")],
    ids=["eof-in-token", "token-over-32-bytes"])
def test_pfm_header_token_errors_are_reported_once(tmp_path, data, message):
    """A header that ends inside a token, or a token longer than 32 bytes, is
    one ParseError naming the file and the byte, not wrapped in another."""
    path = tmp_path / "short.pfm"
    path.write_bytes(data)
    with pytest.raises(sio.ParseError) as err:
        sio.read_pfm(path)
    assert str(err.value) == f"{path}: {message}"


def test_pfm_bad_magic(tmp_path):
    path = tmp_path / "nope.pfm"
    path.write_bytes(b"P6\n1 1\n-1.0\n" + b"\0" * 4)
    with pytest.raises(sio.ParseError, match="magic"):
        sio.read_pfm(path)


def test_png_black_for_zero_image(tmp_path):
    path = tmp_path / "z.png"
    sio.write_png_preview(path, np.zeros((4, 4, 3)), exposure=1.0)
    raw = path.read_bytes()
    assert raw[:8] == b"\x89PNG\r\n\x1a\n"
    # decode the IDAT payload and confirm every byte is zero
    idat = raw[raw.index(b"IDAT") + 4:raw.index(b"IEND") - 8]
    rows = zlib.decompress(idat)
    assert set(rows) <= {0}


def test_png_zero_exposure_black(tmp_path):
    path = tmp_path / "e0.png"
    sio.write_png_preview(path, np.ones((4, 4, 3)), exposure=0.0)
    raw = path.read_bytes()
    idat = raw[raw.index(b"IDAT") + 4:raw.index(b"IEND") - 8]
    assert set(zlib.decompress(idat)) <= {0}


@pytest.mark.parametrize("write,image", [
    (sio.write_png_preview, np.arange(6.0).reshape(2, 3) / 4.0),
    (sio.write_png_preview, np.arange(6.0).reshape(2, 3, 1) / 4.0),
    (sio.write_png, np.arange(6, dtype=np.uint8).reshape(2, 3))],
    ids=["preview-2d", "preview-one-channel", "png-2d"])
def test_png_of_a_gray_image_repeats_it_in_rgb(tmp_path, write, image):
    write(tmp_path / "gray.png", image)
    write(tmp_path / "rgb.png", np.repeat(image.reshape(2, 3, 1), 3, axis=2))
    assert (tmp_path / "gray.png").read_bytes() == (tmp_path / "rgb.png").read_bytes()


@pytest.mark.parametrize("write,data,message", [
    (sio.write_pfm, np.zeros((2, 2, 2)), "1 or 3 channels, not 2"),
    (sio.write_png, np.zeros((2, 2, 2), dtype=np.uint8), "3 channels"),
    (sio.write_png_preview, np.array([[0.0, np.nan]]), "finite image")],
    ids=["pfm-two-channels", "png-two-channels", "preview-non-finite"])
def test_image_writers_reject_what_they_cannot_store(tmp_path, write, data, message):
    with pytest.raises(ContractError, match=message):
        write(tmp_path / "out", data)
    assert not (tmp_path / "out").exists()


def test_png_midgray_byte(tmp_path):
    # radiance chosen so the tonemapped value is exactly 0.5
    x = -np.log(1.0 - 0.5 ** 2.2)
    path = tmp_path / "mid.png"
    sio.write_png_preview(path, np.full((2, 2, 3), x), exposure=1.0)
    raw = path.read_bytes()
    idat = raw[raw.index(b"IDAT") + 4:raw.index(b"IEND") - 8]
    rows = zlib.decompress(idat)
    vals = {b for i, b in enumerate(rows) if i % 7 != 0}  # drop filter bytes
    assert vals <= {127, 128, 129}


def test_weight_blob_roundtrip(tmp_path):
    dims = (5, 8, 3)
    w = mlp.MlpWeights(dims, np.random.default_rng(0).normal(
        size=mlp.param_count(dims)).astype(np.float32).astype(np.float64))
    p1 = tmp_path / "w1.blob"
    p2 = tmp_path / "w2.blob"
    sio.write_mlp_weights(p1, w)
    back = sio.read_mlp_weights(p1)
    sio.write_mlp_weights(p2, back)
    assert p1.read_bytes() == p2.read_bytes()
    assert back.dims == dims


def test_grid_light_blob_roundtrip(tmp_path):
    vals = np.random.default_rng(2).random((2, 2, 2, 3, 4, 3)).astype(
        np.float32).astype(np.float64)
    gl = GridLight(vals, [[-1, -1, -1], [1, 1, 1]])
    p1 = tmp_path / "g1.blob"
    sio.write_grid_light(p1, gl)
    back = sio.read_grid_light(p1)
    assert np.array_equal(back.values.astype(np.float32),
                          gl.values.astype(np.float32))
    assert np.array_equal(back.bounds, gl.bounds)


def test_blob_header_mismatch(tmp_path):
    path = tmp_path / "bad.blob"
    path.write_bytes(json.dumps({"kind": "mlp_weights", "dims": [2, 2],
                                 "count": 99}).encode() + b"\n" + b"\0" * 8)
    with pytest.raises(sio.ParseError):
        sio.read_blob(path)


def test_feature_grid_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    grid = FeatureGrid(rng.normal(size=(6, 5, 7)).astype(np.float32)
                       .astype(np.float64))
    p1, p2 = tmp_path / "f1.blob", tmp_path / "f2.blob"
    sio.write_feature_grid(p1, grid)
    back = sio.read_feature_grid(p1)
    assert back.data.shape == (6, 5, 7)
    assert back.data.tobytes() == grid.data.tobytes()
    sio.write_feature_grid(p2, back)
    assert p1.read_bytes() == p2.read_bytes()


def test_write_feature_grid_refuses_finite_values_beyond_float32(tmp_path):
    """A finite value beyond float32 is an OverflowError naming the blob,
    and nothing is written, as for a PFM."""
    path = tmp_path / "big.blob"
    with pytest.raises(OverflowError, match="big.blob"):
        sio.write_feature_grid(path, FeatureGrid(np.full((2, 2, 3), 1e39)))
    assert not path.exists()


def test_bundle_roundtrip(tmp_path):
    g, camera, spec, _ = scenes.two_plane(12, 12)
    path = sio.write_bundle(tmp_path / "b", g, camera, lighting_spec=spec,
                            specular_scale=0.5)
    bundle = sio.read_bundle(path)
    assert bundle.camera == camera
    assert bundle.specular_scale == 0.5
    assert np.allclose(bundle.gbuffer.depth.astype(np.float32),
                       g.depth.astype(np.float32))
    light = bundle.light_field()
    assert np.allclose(light.radiance(np.zeros((1, 3)),
                                      np.array([[0.0, 0.0, 1.0]])), 1.0)


def test_bundle_roundtrip_every_optional_key(tmp_path):
    """Every optional piece a bundle carries reads back with the float32
    values it was written with."""
    g, camera, _, _ = scenes.two_plane(8, 8)
    rng = np.random.default_rng(5)
    f32 = lambda shape: rng.normal(size=shape).astype(np.float32).astype(np.float64)
    grid = FeatureGrid(f32((8, 8, 5)))
    decoder = mlp.MlpWeights((4, 6, 3), f32(mlp.param_count((4, 6, 3))))
    volume = mlp.MlpWeights((3, 5, 4), f32(mlp.param_count((3, 5, 4))))
    light = GridLight(f32((2, 2, 2, 3, 4, 3)), [[-1, -1, 0], [1, 1, 4]])
    target = f32((8, 8, 3))
    path = sio.write_bundle(tmp_path / "b", g, camera, extras={
        "target": target, "feature_grid": grid, "decoder_weights": decoder,
        "volume_weights": volume, "grid_light": light})
    bundle = sio.read_bundle(path)
    assert bundle.target.data.tobytes() == target.tobytes()
    assert bundle.feature_grid.data.tobytes() == grid.data.tobytes()
    for back, weights in ((bundle.decoder_weights, decoder),
                          (bundle.volume_weights, volume)):
        assert back.dims == weights.dims and back.flat.tobytes() == weights.flat.tobytes()
    back = bundle.light_field()
    assert back.values.tobytes() == light.values.tobytes()
    assert back.bounds.tobytes() == light.bounds.tobytes()


def test_bundle_with_legacy_scene_scale_loads(tmp_path):
    """Older manifests carry `scene_scale` and `reference` keys; they are
    ignored."""
    g, camera, spec, _ = scenes.two_plane(8, 8)
    path = sio.write_bundle(tmp_path / "b", g, camera, lighting_spec=spec,
                            specular_scale=0.5)
    manifest = json.loads((path / "bundle.json").read_text())
    assert "scene_scale" not in manifest
    manifest["scene_scale"] = 2.0
    manifest["reference"] = "reference.pfm"
    (path / "bundle.json").write_text(json.dumps(manifest))
    bundle = sio.read_bundle(path)
    assert bundle.specular_scale == 0.5
    assert bundle.camera == camera
    assert bundle.light_field() is not None


def test_bundle_missing_map(tmp_path):
    g, camera, spec, _ = scenes.two_plane(8, 8)
    path = sio.write_bundle(tmp_path / "b", g, camera)
    (path / "depth.pfm").unlink()
    with pytest.raises(sio.BundleError, match="missing map: depth.pfm"):
        sio.read_bundle(path)


def test_bundle_dimension_mismatch(tmp_path):
    g, camera, spec, _ = scenes.two_plane(8, 8)
    path = sio.write_bundle(tmp_path / "b", g, camera)
    sio.write_pfm(path / "depth.pfm", np.ones((4, 4, 1)))
    with pytest.raises(sio.BundleError, match="disagree"):
        sio.read_bundle(path)


def test_camera_json_roundtrip():
    cam = Camera(fx=120.0, fy=110.0, cx=31.5, cy=23.5, width=64, height=48)
    assert Camera.from_dict(cam.to_dict()) == cam
