import json
import struct

import numpy as np
import pytest

from ssdr import io as sio
from ssdr.cli import EXIT_INPUT, EXIT_NUMERIC, EXIT_OK, main


@pytest.fixture(scope="module")
def two_plane_bundle(tmp_path_factory):
    out = tmp_path_factory.mktemp("bundles") / "tp"
    assert main(["make-scene", "--kind", "two-plane", "--out", str(out),
                 "--res", "16x16"]) == EXIT_OK
    return out


def test_make_scene_writes_all_maps(two_plane_bundle):
    for name in ("albedo.pfm", "normal.pfm", "depth.pfm", "roughness.pfm",
                 "metallic.pfm", "camera.json", "bundle.json"):
        assert (two_plane_bundle / name).exists()


def test_make_scene_depth_matches_formula(two_plane_bundle):
    from ssdr import scenes
    bundle = sio.read_bundle(two_plane_bundle)
    g, camera, _, (floor, wall) = scenes.two_plane(16, 16)
    assert np.allclose(bundle.gbuffer.depth, g.depth.astype(np.float32), rtol=1e-6)


def test_make_scene_glossy_floor_roughness(tmp_path):
    out = tmp_path / "gf"
    assert main(["make-scene", "--kind", "glossy-floor", "--out", str(out),
                 "--res", "12x12"]) == EXIT_OK
    bundle = sio.read_bundle(out)
    floor = bundle.gbuffer.metallic > 0.5
    assert np.allclose(bundle.gbuffer.roughness[floor], 0.1)


def test_make_scene_cornell_lambertian(tmp_path):
    """cornell-like is the pure Lambertian scene.  Its bundle carries no
    reference image: baseline-compare renders its own."""
    out = tmp_path / "cb"
    assert main(["make-scene", "--kind", "cornell-like", "--out", str(out),
                 "--res", "12x12"]) == EXIT_OK
    bundle = sio.read_bundle(out)
    assert bundle.specular_scale == 0.0
    assert not (out / "reference.pfm").exists()
    assert "reference" not in json.loads((out / "bundle.json").read_text())


@pytest.mark.parametrize("width,height", [(0, 8), (8, 0), (0, 0), (-1, 8)])
def test_make_scene_rejects_size_below_one(width, height):
    """A zero size is an error, not the scene's default size."""
    from ssdr import scenes
    from ssdr.core import ContractError
    with pytest.raises(ContractError, match="scene size"):
        scenes.make_scene("two-plane", width, height)


def test_make_scene_rejects_unknown_kind():
    from ssdr import scenes
    from ssdr.core import ContractError
    with pytest.raises(ContractError, match="unknown scene kind 'nope'"):
        scenes.make_scene("nope")


def test_render_outputs_and_stats(two_plane_bundle, tmp_path):
    out = tmp_path / "r"
    assert main(["render", "--bundle", str(two_plane_bundle), "--out", str(out),
                 "--spp", "16", "--seed", "3"]) == EXIT_OK
    for name in ("rerender.pfm", "rerender.png", "stats.json"):
        assert (out / name).exists()
    stats = json.loads((out / "stats.json").read_text())
    assert stats["spp"] == 16
    assert 0.0 < stats["mean_luminance"] < 2.0


def test_render_lambertian_mean_luminance(tmp_path):
    """Lambertian bundle under constant unit light: the estimator is exact,
    so the reported mean luminance equals the albedo luminance."""
    from ssdr import scenes
    from ssdr.core import luminance
    g, camera, _, _ = scenes.two_plane(16, 16)
    bundle = sio.write_bundle(tmp_path / "lam", g, camera,
                              lighting_spec={"kind": "constant",
                                             "value": [1.0, 1.0, 1.0]},
                              specular_scale=0.0)
    out = tmp_path / "lr"
    assert main(["render", "--bundle", str(bundle), "--out", str(out),
                 "--spp", "8", "--seed", "1"]) == EXIT_OK
    stats = json.loads((out / "stats.json").read_text())
    expected = float(luminance(sio.read_bundle(bundle).gbuffer.albedo).mean())
    assert abs(stats["mean_luminance"] - expected) < 1e-3


def test_render_same_seed_identical_bytes(two_plane_bundle, tmp_path):
    outs = []
    for i, threads in enumerate((1, 4)):
        out = tmp_path / f"r{i}"
        assert main(["render", "--bundle", str(two_plane_bundle), "--out",
                     str(out), "--spp", "8", "--seed", "7", "--threads",
                     str(threads)]) == EXIT_OK
        outs.append((out / "rerender.pfm").read_bytes())
    assert outs[0] == outs[1]


def test_render_missing_map_exit_2(two_plane_bundle, tmp_path):
    import shutil
    broken = tmp_path / "broken"
    shutil.copytree(two_plane_bundle, broken)
    (broken / "depth.pfm").unlink()
    assert main(["render", "--bundle", str(broken), "--out",
                 str(tmp_path / "x")]) == EXIT_INPUT


def test_render_invalid_gbuffer_exit_2(two_plane_bundle, tmp_path, caplog):
    """Every hard G-buffer issue is counted in the one error line."""
    import shutil
    broken = shutil.copytree(two_plane_bundle, tmp_path / "broken")
    g = sio.read_bundle(broken).gbuffer
    g.normal[0, 0] = [0.0, 0.0, 5.0]
    g.albedo[1, 2, 1] = np.nan
    g.roughness[3, 4] = 1.5
    for name in ("normal", "albedo", "roughness"):
        sio.write_pfm(broken / f"{name}.pfm", getattr(g, name))
    assert main(["render", "--bundle", str(broken), "--out",
                 str(tmp_path / "v")]) == EXIT_INPUT
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert errors == ["bundle failed validation: gbuffer issues: albedo non-finite: 1 px, "
                      "non-unit normal: 1 px, roughness out of range: 1 px"]


def test_render_sentinel_depth_only_exit_0(two_plane_bundle, tmp_path):
    """Depth sentinels mark pixels without geometry; they are no error."""
    import shutil
    bundle = shutil.copytree(two_plane_bundle, tmp_path / "sky")
    depth = sio.read_bundle(bundle).gbuffer.depth
    depth[2, 3] = 0.0
    sio.write_pfm(bundle / "depth.pfm", depth)
    assert main(["render", "--bundle", str(bundle), "--out", str(tmp_path / "r"),
                 "--spp", "2"]) == EXIT_OK


def test_gradcheck_passes_and_fails_by_tolerance(two_plane_bundle, tmp_path):
    ok = main(["gradcheck", "--bundle", str(two_plane_bundle), "--out",
               str(tmp_path / "gc"), "--spp", "16", "--tol", "1e-4",
               "--patch", "4"])
    assert ok == EXIT_OK
    report = json.loads((tmp_path / "gc" / "gradcheck.json").read_text())
    assert all(v["passed"] for v in report.values())
    # an impossible tolerance must flip the exit code
    bad = main(["gradcheck", "--bundle", str(two_plane_bundle), "--out",
                str(tmp_path / "gc0"), "--spp", "16", "--tol", "0",
                "--patch", "4"])
    assert bad == EXIT_NUMERIC


def test_gradcheck_unknown_param_usage_error(two_plane_bundle, tmp_path):
    assert main(["gradcheck", "--bundle", str(two_plane_bundle), "--out",
                 str(tmp_path / "g"), "--params", "bogus"]) == EXIT_INPUT


def test_baseline_compare_outputs(two_plane_bundle, tmp_path):
    out = tmp_path / "bc"
    assert main(["baseline-compare", "--bundle", str(two_plane_bundle),
                 "--out", str(out), "--spp", "32", "--grid", "16x32",
                 "--ref-cells", "48"]) == EXIT_OK
    table = (out / "compare.csv").read_text().strip().splitlines()
    assert table[0] == "estimator,mse"
    assert len(table) == 3
    for name in ("reference.pfm", "mc.pfm", "discretized.pfm"):
        assert (out / name).exists()


def test_optimize_writes_recovered_maps(two_plane_bundle, tmp_path):
    render_out = tmp_path / "target"
    assert main(["render", "--bundle", str(two_plane_bundle), "--out",
                 str(render_out), "--spp", "32", "--seed", "1"]) == EXIT_OK
    out = tmp_path / "opt"
    assert main(["optimize", "--bundle", str(two_plane_bundle), "--target",
                 str(render_out / "rerender.pfm"), "--params", "a",
                 "--iters", "5", "--spp", "4", "--out", str(out)]) == EXIT_OK
    assert (out / "albedo.pfm").exists()
    trace = (out / "loss.csv").read_text().strip().splitlines()
    assert trace[0].startswith("iteration,loss")
    assert len(trace) == 6


def test_optimize_without_target_exit_2(two_plane_bundle, tmp_path):
    assert main(["optimize", "--bundle", str(two_plane_bundle), "--out",
                 str(tmp_path / "o")]) == EXIT_INPUT


def test_unknown_lighting_choice_rejected(two_plane_bundle, tmp_path):
    # argparse rejects a bad choice and we map it to the input exit code
    assert main(["render", "--bundle", str(two_plane_bundle), "--out",
                 str(tmp_path / "y"), "--lighting", "plasma"]) == EXIT_INPUT


def test_resolve_light_rejects_unknown_choice(two_plane_bundle):
    """A choice argparse would refuse, asked of `resolve_light` directly, is
    a UsageError (exit 2 in `main`), not a KeyError."""
    from ssdr.cli import UsageError, resolve_light
    with pytest.raises(UsageError, match="unknown lighting choice 'plasma'"):
        resolve_light(sio.read_bundle(two_plane_bundle), "plasma")


def test_grid_lighting_requires_grid_bundle(two_plane_bundle, tmp_path):
    assert main(["render", "--bundle", str(two_plane_bundle), "--out",
                 str(tmp_path / "z"), "--lighting", "grid"]) == EXIT_INPUT


def test_grid_light_bundle_renders(tmp_path):
    from ssdr import scenes
    from ssdr.lighting import GridLight
    g, camera, _, _ = scenes.two_plane(12, 12)
    # constant 1.0 stored as a degenerate single-cell grid field
    gl = GridLight(np.ones((1, 1, 1, 1, 1, 3)), [[-5, -5, 0], [5, 5, 10]])
    out = sio.write_bundle(tmp_path / "gb", g, camera, specular_scale=0.0,
                           extras={"grid_light": gl})
    res = tmp_path / "gr"
    assert main(["render", "--bundle", str(out), "--out", str(res),
                 "--spp", "8", "--seed", "1", "--lighting", "grid"]) == EXIT_OK
    img = sio.read_pfm(res / "rerender.pfm")
    # Lambertian under unit light: image equals the albedo map
    bundle = sio.read_bundle(out)
    assert np.allclose(img.data, bundle.gbuffer.albedo.astype(np.float32),
                       atol=1e-6)


def test_learned_lighting_path(tmp_path):
    """A bundle carrying a feature grid and weights renders with the full
    traced + volumetric light path."""
    import ssdr.mlp as mlp
    import ssdr.volumetric as vol
    from ssdr import scenes
    from ssdr.lighting import FeatureGrid, decoder_input_dim

    g, camera, spec, _ = scenes.two_plane(12, 12)
    rng = np.random.default_rng(0)
    grid = FeatureGrid(rng.normal(size=(12, 12, 6)).astype(np.float32)
                       .astype(np.float64))
    dec = mlp.MlpWeights.random((decoder_input_dim(6), 16, 16, 3), seed=1, scale=0.2)
    vw = mlp.MlpWeights.random((vol.field_input_dim(10), 16, 16, 4), seed=2, scale=0.2)
    out = tmp_path / "lb"
    sio.write_bundle(out, g, camera, lighting_spec=spec,
                     extras={"feature_grid": grid, "decoder_weights": dec,
                             "volume_weights": vw})
    res = tmp_path / "lr"
    assert main(["render", "--bundle", str(out), "--out", str(res),
                 "--spp", "4", "--seed", "2", "--lighting", "learned"]) == EXIT_OK
    img = sio.read_pfm(res / "rerender.pfm")
    assert np.all(np.isfinite(img.data))
    assert img.data.max() > 0.0


def test_learned_lighting_missing_assets(two_plane_bundle, tmp_path):
    assert main(["render", "--bundle", str(two_plane_bundle), "--out",
                 str(tmp_path / "q"), "--lighting", "learned"]) == EXIT_INPUT


def _broken_copy(src, dst, name, edit):
    """Copy a bundle and rewrite one of its files with `edit(text)`, or
    delete it where that returns None; bytes that are not UTF-8, as in a
    PFM payload, pass through as lone surrogates."""
    import shutil
    shutil.copytree(src, dst)
    text = edit((dst / name).read_bytes().decode(errors="surrogateescape"))
    if text is None:
        (dst / name).unlink()
    else:
        (dst / name).write_bytes(text.encode(errors="surrogateescape"))
    return dst


def _edit_json(**changes):
    def edit(text):
        d = json.loads(text)
        for key, value in changes.items():
            if value is None:
                del d[key]
            else:
                d[key] = value
        return json.dumps(d)
    return edit


def _assert_input_error(argv, caplog, *words):
    """Exit 2 with exactly one one-line error message containing `words`."""
    caplog.clear()
    assert main(argv) == EXIT_INPUT
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and "\n" not in errors[0], errors
    for word in words:
        assert word in errors[0], errors[0]


@pytest.mark.parametrize("name,edit,words", [
    ("camera.json", lambda text: text[:-3], ("camera.json",)),
    ("camera.json", _edit_json(cy=None), ("camera.json", "'cy'")),
    ("bundle.json", _edit_json(lighting={"kind": "sky"}), ("'sky'", "'zenith'")),
    ("bundle.json", _edit_json(specular_scale="abc"),
     ("bundle.json", "'specular_scale'")),
    ("bundle.json", _edit_json(maps=[]), ("bundle.json", "'maps'")),
    ("bundle.json", _edit_json(maps={"depth": 3}), ("bundle.json", "'maps.depth'")),
    ("bundle.json", _edit_json(camera=5), ("bundle.json", "'camera'")),
    ("bundle.json", _edit_json(target=["t.pfm"]), ("bundle.json", "'target'")),
    ("bundle.json", _edit_json(volume_weights={}), ("bundle.json", "'volume_weights'")),
    ("bundle.json", _edit_json(lighting={"kind": "grid", "path": 5}),
     ("bundle.json", "'lighting.path'")),
    ("bundle.json", _edit_json(lighting={"kind": "grid", "path": None}),
     ("'grid'", "'path'")),
    ("bundle.json", _edit_json(camera="."), ("Is a directory",)),
    ("bundle.json", _edit_json(maps={"albedo": "."}), ("Is a directory",)),
    ("bundle.json", _edit_json(lighting={"kind": "constant", "value": "abc"}),
     ("'value'",)),
    ("bundle.json", _edit_json(lighting={"kind": "constant", "value": [1, 2]}),
     ("'value'",)),
    ("bundle.json", _edit_json(lighting={"kind": "sky", "zenith": [1, 1, 1],
                                         "horizon": [1, 1]}), ("'horizon'",)),
    ("bundle.json", _edit_json(lighting={"kind": "sky", "zenith": [1, 1, 1],
                                         "horizon": [1, 1, 1], "up": [0, 0, 0]}),
     ("'up'",)),
    ("bundle.json", _edit_json(lighting={
        "kind": "sky_disc", "zenith": [1, 1, 1], "horizon": [1, 1, 1],
        "disc_direction": [0, -1, 0], "disc_radius": "x", "disc_color": [5, 5, 5]}),
     ("'disc_radius'",)),
    ("bundle.json", _edit_json(specular_scale=True), ("bundle.json", "'specular_scale'")),
    ("bundle.json", _edit_json(specular_scale=float("inf")), ("specular_scale", "inf")),
    ("bundle.json", _edit_json(specular_scale=float("nan")), ("specular_scale", "nan")),
    ("bundle.json", _edit_json(specular_scale=-3), ("specular_scale", "-3")),
    ("camera.json", _edit_json(fx=float("nan")), ("camera.json", "'fx'")),
    ("camera.json", _edit_json(fx=True), ("camera.json", "'fx'")),
    ("camera.json", _edit_json(cy="7.5"), ("camera.json", "'cy'")),
    ("camera.json", _edit_json(width=16.5), ("camera.json", "'width'")),
    ("camera.json", _edit_json(height=True), ("camera.json", "'height'")),
    # JSON integers beyond the float range
    ("bundle.json", _edit_json(specular_scale=10**400), ("bundle.json", "'specular_scale'")),
    ("bundle.json", _edit_json(lighting={"kind": "constant", "value": 10**400}),
     ("'value'",)),
    ("camera.json", _edit_json(fx=10**400), ("camera.json", "'fx'")),
    # PFM headers claiming more bytes than the file holds
    ("albedo.pfm", lambda text: text.replace("16 16\n", "100000000 100000000\n", 1),
     ("albedo.pfm", "truncated payload")),
    ("albedo.pfm", lambda text: text.replace("16 16\n", f"{10**30} 16\n", 1),
     ("albedo.pfm", "truncated payload")),
    # PFM scales that are zero or not finite
    ("albedo.pfm", lambda text: text.replace("\n-1.0\n", "\n0\n", 1), ("albedo.pfm", "scale")),
    ("albedo.pfm", lambda text: text.replace("\n-1.0\n", "\n-inf\n", 1),
     ("albedo.pfm", "scale")),
    ("camera.json", _edit_json(fx=0), ("camera.json", "focal lengths must be positive")),
    ("camera.json", _edit_json(cx=16.0), ("camera.json", "principal point outside")),
    ("camera.json", _edit_json(width=8), ("camera dimensions disagree with the maps",)),
    ("camera.json", lambda text: None, ("missing camera.json",)),
    # a 3-channel depth map of the maps' size, all zeros
    ("depth.pfm", lambda text: "PF\n16 16\n-1.0\n" + "\0" * 3 * 16 * 16 * 4,
     ("depth.pfm", "expected 1 channel")),
    ("albedo.pfm", lambda text: text.replace("16 16\n", "1.5 16\n", 1),
     ("albedo.pfm", "bad header")),
    ("albedo.pfm", lambda text: text.replace("16 16\n", "0 16\n", 1),
     ("albedo.pfm", "non-positive dimensions")),
    ("bundle.json", _edit_json(lighting={"value": [1, 1, 1]}), ("bundle.json", "'kind'")),
], ids=["malformed-camera", "camera-without-cy", "sky-without-zenith",
        "specular-scale-not-a-number", "maps-not-an-object", "map-path-not-a-string",
        "camera-not-a-string", "target-not-a-string", "weights-not-a-string",
        "grid-path-not-a-string", "grid-path-null", "camera-is-a-directory",
        "map-is-a-directory", "constant-value-not-a-number", "constant-value-two-numbers",
        "sky-horizon-two-numbers", "sky-up-zero-length", "sky-disc-radius-not-a-number",
        "specular-scale-bool", "specular-scale-inf", "specular-scale-nan",
        "specular-scale-negative", "camera-fx-nan", "camera-fx-bool", "camera-cy-string",
        "camera-width-not-an-int", "camera-height-bool", "specular-scale-huge-int",
        "constant-value-huge-int", "camera-fx-huge-int", "pfm-size-beyond-memory",
        "pfm-width-huge-int", "pfm-scale-zero", "pfm-scale-inf", "camera-fx-zero",
        "camera-cx-outside", "camera-width-disagrees", "no-camera-json",
        "depth-3-channels", "pfm-width-not-an-int", "pfm-width-zero",
        "lighting-without-kind"])
def test_render_bad_bundle_exit_2(two_plane_bundle, tmp_path, caplog, name, edit, words):
    """Each bad bundle is the same one-line input error in every command
    that renders it."""
    broken = _broken_copy(two_plane_bundle, tmp_path / "broken", name, edit)
    sio.write_pfm(tmp_path / "target.pfm", np.zeros((16, 16, 3)))
    for command in (["render"], ["gradcheck"],
                    ["optimize", "--target", str(tmp_path / "target.pfm")]):
        _assert_input_error([*command, "--bundle", str(broken), "--out",
                             str(tmp_path / "r"), "--spp", "2"], caplog, *words)


def test_render_zero_filled_pfm_exits_2_at_once(two_plane_bundle, tmp_path, caplog):
    """A 300 KB zero-filled map is a garbled header: the error comes at its
    first header token, which may be no longer than 32 bytes, not after the
    reader has scanned the whole file for whitespace."""
    import re
    import shutil
    broken = tmp_path / "zeros"
    shutil.copytree(two_plane_bundle, broken)
    (broken / "albedo.pfm").write_bytes(bytes(300_000))
    _assert_input_error(["render", "--bundle", str(broken), "--out", str(tmp_path / "r"),
                         "--spp", "2"], caplog, "albedo.pfm")
    message = caplog.records[-1].getMessage()
    assert int(re.search(r"byte (\d+)", message).group(1)) < 100, message


@pytest.mark.parametrize("iters", ["0", "1"])
def test_optimize_target_of_another_size_exit_2(tmp_path, caplog, iters):
    """A target that is not the bundle's size exits 2 before any render,
    also when no iteration would run."""
    bundle = tmp_path / "tp8"
    assert main(["make-scene", "--kind", "two-plane", "--out", str(bundle),
                 "--res", "8x8"]) == EXIT_OK
    sio.write_pfm(tmp_path / "target.pfm", np.zeros((6, 6, 3)))
    _assert_input_error(["optimize", "--bundle", str(bundle), "--target",
                         str(tmp_path / "target.pfm"), "--iters", iters, "--spp", "2",
                         "--out", str(tmp_path / "o")], caplog, "target", "(6, 6, 3)")
    assert not (tmp_path / "o").exists()


@pytest.fixture(scope="module")
def grid_bundle(tmp_path_factory):
    from ssdr import scenes
    from ssdr.lighting import GridLight
    g, camera, _, _ = scenes.two_plane(8, 8)
    gl = GridLight(np.ones((2, 2, 2, 2, 2, 3)), [[-5, -5, 0], [5, 5, 10]])
    return sio.write_bundle(tmp_path_factory.mktemp("bundles") / "grid", g, camera,
                            extras={"grid_light": gl})


@pytest.mark.parametrize("edit,words", [
    (_edit_json(dims=None), ("light.grid", "'dims'")),
    (_edit_json(dims=[2, 2, 2, 2, 3]), ("light.grid", "'dims'", "payload")),
    (_edit_json(bounds=[[-5, -5, 0], [5, 5, float("nan")]]), ("light.grid", "finite (2, 3)")),
    (_edit_json(bounds=[-5, -5, 0, 5, 5, 10]), ("light.grid", "finite (2, 3)")),
    (_edit_json(bounds=None), ("light.grid", "bounds")),
    (_edit_json(bounds=[[-5, 5, 0], [5, -5, 10]]), ("light.grid", "lo <= hi")),
    (lambda text: "[1]", ("light.grid", "JSON object")),
    (_edit_json(count="x"), ("light.grid", "'count'")),
    (_edit_json(bounds=[[-5, -5, 0], [5, 5, 10**400]]), ("light.grid", "bounds")),
], ids=["no-dims", "dims-disagree-with-payload", "nan-bound", "flat-bounds",
        "no-bounds", "lo-above-hi", "header-not-object", "count-not-int", "huge-int-bound"])
def test_render_bad_grid_light_exit_2(grid_bundle, tmp_path, caplog, edit, words):
    import shutil
    blob = shutil.copytree(grid_bundle, tmp_path / "broken") / "light.grid"
    head, payload = blob.read_bytes().split(b"\n", 1)
    blob.write_bytes(edit(head.decode()).encode() + b"\n" + payload)
    _assert_input_error(["render", "--bundle", str(blob.parent), "--out",
                         str(tmp_path / "r"), "--spp", "2", "--lighting", "grid"],
                        caplog, *words)


def test_grid_light_flat_extent_renders(grid_bundle, tmp_path):
    """lo == hi on an axis is a flat extent, not an error."""
    import shutil
    from ssdr.lighting import GridLight
    bundle = shutil.copytree(grid_bundle, tmp_path / "flat")
    flat = GridLight(np.ones((2, 2, 2, 2, 2, 3)), [[-5, -5, 2], [5, 5, 2]])
    sio.write_grid_light(bundle / "light.grid", flat)
    assert main(["render", "--bundle", str(bundle), "--out", str(tmp_path / "r"),
                 "--spp", "2", "--lighting", "grid"]) == EXIT_OK


@pytest.fixture(scope="module")
def learned_bundle(tmp_path_factory):
    import ssdr.volumetric as vol
    from ssdr import mlp, scenes
    from ssdr.lighting import FeatureGrid, decoder_input_dim
    g, camera, spec, _ = scenes.two_plane(8, 8)
    return sio.write_bundle(tmp_path_factory.mktemp("bundles") / "learned", g, camera,
                            lighting_spec=spec, extras={
        "feature_grid": FeatureGrid(np.zeros((8, 8, 4))),
        "decoder_weights": mlp.MlpWeights.zeros((decoder_input_dim(4), 8, 3)),
        "volume_weights": mlp.MlpWeights.zeros((vol.field_input_dim(10), 8, 4))})


# The start of a feature grid file of the old format, a JSON manifest of
# 3-channel PFM slices; a reader fails on its first line
_OLD_FEATURE_MANIFEST = json.dumps(
    {"kind": "feature_grid", "width": 8, "height": 8, "channels": 4,
     "slices": ["features_000.pfm", "features_001.pfm"]}, indent=2)


@pytest.mark.parametrize("name,edit,words", [
    ("features.blob", _edit_json(dims=[8, "x", 4]), ("features.blob", "'dims'")),
    ("features.blob", _edit_json(dims=[8, 10**400, 4]),
     ("features.blob", "'dims'", "payload")),
    ("features.blob", _edit_json(dims=[10**12, 8, 4]),
     ("features.blob", "'dims'", "payload")),
    ("features.blob", lambda text: "[1]", ("features.blob", "JSON object")),
    ("features.blob", lambda text: "\udcff" + text, ("features.blob", "utf-8")),
    ("features.blob", lambda text: _OLD_FEATURE_MANIFEST, ("features.blob", "blob header")),
    ("features.blob", _edit_json(dims=[8, 8, 5]), ("features.blob", "'dims'", "payload")),
    ("features.blob", _edit_json(dims=[8, 32]), ("features.blob", "'dims'", "three")),
    ("decoder.weights", _edit_json(dims=None), ("decoder.weights", "'dims'")),
    ("decoder.weights", _edit_json(dims="abc"), ("decoder.weights", "'dims'")),
    ("decoder.weights", _edit_json(dims=[5]), ("decoder.weights", "'dims'")),
    ("decoder.weights", _edit_json(dims=[True, 3]), ("decoder.weights", "'dims'")),
    ("decoder.weights", _edit_json(dims=[4, 4]), ("decoder.weights", "flat size")),
    ("decoder.weights", _edit_json(kind="grid_light"),
     ("decoder.weights", "not an MLP weight blob")),
    ("features.blob", _edit_json(kind="grid"), ("features.blob", "not a feature grid")),
], ids=["width-not-an-int", "width-huge-int", "height-beyond-memory",
        "features-header-not-object", "features-header-not-utf-8", "old-manifest",
        "features-dims-disagree-with-count", "features-two-dims", "no-dims",
        "dims-a-string", "one-dim", "dims-bool", "dims-disagree-with-payload",
        "decoder-of-another-kind", "features-of-another-kind"])
def test_render_bad_learned_assets_exit_2(learned_bundle, tmp_path, caplog, name, edit,
                                          words):
    """A feature grid or weight blob whose header (its first line) is not
    a JSON object with valid `dims`, such as a feature grid manifest of the
    old PFM-slice format, is an input error naming the file.  An edit may
    return bytes that are not UTF-8 as lone surrogates."""
    import shutil
    path = shutil.copytree(learned_bundle, tmp_path / "broken") / name
    head, sep, rest = path.read_bytes().partition(b"\n")
    path.write_bytes(edit(head.decode()).encode(errors="surrogateescape") + sep + rest)
    _assert_input_error(["render", "--bundle", str(path.parent), "--out",
                         str(tmp_path / "r"), "--spp", "2", "--lighting", "learned"],
                        caplog, *words)


@pytest.mark.parametrize("bundle,name,lighting,words", [
    ("grid_bundle", "light.grid", "grid", ("light.grid", "non-finite")),
    ("learned_bundle", "decoder.weights", "learned", ("decoder.weights", "non-finite")),
    ("learned_bundle", "volume.weights", "learned", ("volume.weights", "non-finite")),
    ("learned_bundle", "features.blob", "learned", ("features.blob", "non-finite"))],
    ids=["grid-light-values", "decoder-weights", "volume-weights", "features"])
def test_render_nan_in_blob_payload_exit_2(request, tmp_path, caplog, bundle, name,
                                           lighting, words):
    """A NaN among a blob's values, here its last one, is an input error
    naming the file."""
    import shutil
    path = shutil.copytree(request.getfixturevalue(bundle), tmp_path / "broken") / name
    path.write_bytes(path.read_bytes()[:-4] + struct.pack("<f", float("nan")))
    _assert_input_error(["render", "--bundle", str(path.parent), "--out",
                         str(tmp_path / "r"), "--spp", "2", "--lighting", lighting],
                        caplog, *words)


@pytest.mark.parametrize("command", ["render", "gradcheck", "baseline-compare", "optimize"])
def test_missing_bundle_directory_exit_2(tmp_path, caplog, command):
    _assert_input_error([command, "--bundle", str(tmp_path / "nowhere"), "--out",
                         str(tmp_path / "r")], caplog, "nowhere", "does not exist")


@pytest.mark.parametrize("command,flag,value", [
    ("render", "--threads", "-3"), ("gradcheck", "--patch", "0")])
def test_flag_below_one_exit_2(two_plane_bundle, tmp_path, caplog, command, flag, value):
    _assert_input_error([command, "--bundle", str(two_plane_bundle), "--out",
                         str(tmp_path / "r"), "--spp", "2", flag, value],
                        caplog, flag)


@pytest.mark.parametrize("command,flag,value,words", [
    ("optimize", "--step", "nan", ("step_size", "nan")),
    ("optimize", "--step", "inf", ("step_size", "inf")),
    ("optimize", "--step", "-0.05", ("step_size", "-0.05")),
    ("render", "--exposure", "nan", ("--exposure", "nan")),
    ("render", "--exposure", "-1", ("--exposure", "-1")),
    ("render", "--exposure", "0", ("--exposure", "0")),
    ("baseline-compare", "--exposure", "inf", ("--exposure", "inf"))])
def test_bad_step_or_exposure_exit_2(two_plane_bundle, tmp_path, caplog, command, flag,
                                     value, words):
    """A step that is not finite and >= 0, or an exposure that is not
    positive and finite, is an input error before any render, not a
    non-finite render (exit 1), a fit that ascends the loss, or a garbage
    or black preview (exit 0)."""
    extra = []
    if command == "optimize":
        sio.write_pfm(tmp_path / "target.pfm", np.zeros((16, 16, 3)))
        extra = ["--target", str(tmp_path / "target.pfm")]
    _assert_input_error([command, "--bundle", str(two_plane_bundle), "--out",
                         str(tmp_path / "r"), "--spp", "2", flag, value, *extra],
                        caplog, *words)
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("argv,words", [
    (["baseline-compare", "--ref-cells", "0"], ("reference cells", "0x0")),
    (["baseline-compare", "--ref-cells", "-3"], ("reference cells", "-3x-6")),
    (["baseline-compare", "--grid", "0x0"], ("discretized grid", "2x4")),
    (["baseline-compare", "--grid", "1x1"], ("discretized grid", "2x4", "1x1")),
    (["baseline-compare", "--grid", "2x3"], ("discretized grid", "2x4", "2x3")),
    (["gradcheck", "--tol", "nan"], ("--tol", "nan")),
    (["gradcheck", "--tol", "-1"], ("--tol", "-1")),
    (["gradcheck", "--tol", "inf"], ("--tol", "inf")),
    (["gradcheck", "--params", ""], ("--params",)),
    (["optimize", "--params", ","], ("--params", "','")),
    (["render", "--seed", "-5"], ("seed", "-5")),
    (["gradcheck", "--seed", "-1"], ("seed", "-1")),
    (["optimize", "--seed", "-1"], ("seed", "-1")),
    (["render", "--seed", str(2**64)], ("seed", str(2**64))),
    (["optimize", "--iters", "-1"], ("invalid loss config",)),
    (["gradcheck", "--params", "a,bogus"], ("unknown parameter class 'bogus'", "choose from")),
    (["optimize", "--params", "Light"], ("unknown parameter class 'Light'", "choose from")),
], ids=["ref-cells-0", "ref-cells-neg", "grid-0", "grid-1x1", "grid-2x3", "tol-nan",
        "tol-neg", "tol-inf", "gradcheck-params-empty", "optimize-params-empty", "render-seed-neg",
        "gradcheck-seed-neg", "optimize-seed-neg", "render-seed-2^64", "optimize-iters-neg",
        "gradcheck-params-unknown", "optimize-params-unknown"])
def test_bad_cells_tol_or_params_exit_2(two_plane_bundle, tmp_path, caplog, argv, words):
    """Reference cells below 1, a tolerance that is not finite and >= 0, a
    --params that selects nothing and a --seed outside [0, 2^64) are input
    errors, not a traceback, a check that fails (exit 1) or passes
    everything, or a fit of nothing.  Like a too-small --grid, they leave
    no output directory behind."""
    sio.write_pfm(tmp_path / "target.pfm", np.zeros((16, 16, 3)))
    extra = ["--target", str(tmp_path / "target.pfm")] if argv[0] == "optimize" else []
    _assert_input_error([*argv, "--bundle", str(two_plane_bundle), "--out",
                         str(tmp_path / "r"), "--spp", "2", *extra], caplog, *words)
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("res", ["2x0", "0x0", "0x16", "-1x4"])
def test_make_scene_size_below_one_exit_2(tmp_path, caplog, res):
    out = tmp_path / "s"
    _assert_input_error(["make-scene", "--kind", "two-plane", "--out", str(out),
                         f"--res={res}"], caplog, "scene size", res)
    assert not out.exists()


def test_make_scene_res_not_wxh_exit_2(tmp_path, caplog):
    out = tmp_path / "s"
    _assert_input_error(["make-scene", "--kind", "two-plane", "--out", str(out),
                         "--res", "64"], caplog, "WxH", "'64'")
    assert not out.exists()


@pytest.mark.parametrize("argv,module,name", [
    (["baseline-compare", "--ref-cells", "100000"], "ssdr.cli", "reference_render"),
    (["make-scene", "--kind", "two-plane", "--res", "100000x100000"], "ssdr.scenes",
     "bundle_for")], ids=["baseline-compare", "make-scene"])
def test_out_of_memory_exit_2(two_plane_bundle, tmp_path, caplog, monkeypatch, argv,
                              module, name):
    """A request larger than memory exits 2 with one line.  The failed
    allocation is faked: a real one of that size could be granted on a
    host that overcommits memory, and the host then run out."""
    def allocate(*args, **kwargs):
        raise MemoryError("Unable to allocate 149. GiB for an array")

    monkeypatch.setattr(f"{module}.{name}", allocate)
    bundle = ["--bundle", str(two_plane_bundle)] if argv[0] == "baseline-compare" else []
    _assert_input_error([*argv, *bundle, "--out", str(tmp_path / "r")], caplog,
                        "out of memory", "149. GiB")


@pytest.mark.parametrize("command,flag", [
    ("gradcheck", "--threads"), ("gradcheck", "--exposure"), ("optimize", "--exposure")])
def test_flag_the_command_does_not_read_exit_2(two_plane_bundle, tmp_path, capsys,
                                              command, flag):
    assert main([command, "--bundle", str(two_plane_bundle), "--out",
                 str(tmp_path / "r"), flag, "2"]) == EXIT_INPUT
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


@pytest.mark.parametrize("command,extra", [("render", []),
                                           ("gradcheck", ["--params", "light"])],
                         ids=["render", "gradcheck"])
def test_learned_misshaped_decoder_exit_2(tmp_path, caplog, command, extra):
    """A decoder blob with 1 output is rejected when the learned light is
    built, so the light's gradcheck exits 2 as the render does."""
    import ssdr.volumetric as vol
    from ssdr import mlp, scenes
    from ssdr.lighting import FeatureGrid, decoder_input_dim
    g, camera, spec, _ = scenes.two_plane(8, 8)
    bundle = sio.write_bundle(tmp_path / "lb", g, camera, lighting_spec=spec, extras={
        "feature_grid": FeatureGrid(np.zeros((8, 8, 4))),
        "decoder_weights": mlp.MlpWeights.zeros((decoder_input_dim(4), 8, 1)),
        "volume_weights": mlp.MlpWeights.zeros((vol.field_input_dim(10), 8, 4))})
    _assert_input_error([command, "--bundle", str(bundle), "--out", str(tmp_path / "r"),
                         "--spp", "2", "--lighting", "learned", *extra],
                        caplog, "decoder weights shaped", "output 3")


def test_gradcheck_patch_crops_each_axis(tmp_path, monkeypatch):
    """A 16x4 bundle at --patch 8 is checked on a 4x8 window whose pixels
    unproject to the same points as in the full bundle."""
    from ssdr import gradcheck
    from ssdr.core import unproject
    bundle = tmp_path / "wide"
    assert main(["make-scene", "--kind", "two-plane", "--out", str(bundle),
                 "--res", "16x4"]) == EXIT_OK
    seen = []
    check = gradcheck.check_render_material

    def spy(g, camera, *args, **kwargs):
        seen.append((g, camera))
        return check(g, camera, *args, **kwargs)

    monkeypatch.setattr(gradcheck, "check_render_material", spy)
    assert main(["gradcheck", "--bundle", str(bundle), "--out", str(tmp_path / "gc"),
                 "--spp", "8", "--patch", "8"]) == EXIT_OK
    [(g, camera)] = seen
    assert g.depth.shape == (4, 8)
    assert (camera.width, camera.height) == (8, 4)
    full = sio.read_bundle(bundle)
    x0 = 4  # (16 - 8) // 2: the window is centred on the principal point
    assert np.array_equal(g.depth, full.gbuffer.depth[:, x0:x0 + 8])
    ys, xs = np.mgrid[0:4, 0:8]
    pix = np.stack([xs, ys], axis=-1).astype(np.float64)
    assert np.allclose(unproject(camera, pix, g.depth),
                       unproject(full.camera, pix + [x0, 0], g.depth), rtol=0, atol=1e-12)


def test_optimize_light_params_file_is_the_library_result(two_plane_bundle, tmp_path):
    """`optimize --params a,light` writes the fitted light parameters: the
    `OptimizeResult.light_params` of the same library call."""
    from ssdr.inverse import LossConfig, optimize
    target = tmp_path / "target.pfm"
    sio.write_pfm(target, np.full((16, 16, 3), 0.3))
    out = tmp_path / "o"
    assert main(["optimize", "--bundle", str(two_plane_bundle), "--target", str(target),
                 "--params", "a,light", "--iters", "2", "--spp", "2",
                 "--out", str(out)]) == EXIT_OK
    bundle = sio.read_bundle(two_plane_bundle)
    result = optimize(bundle.gbuffer, bundle.camera, bundle.light_field(),
                      sio.read_pfm(target).data,
                      LossConfig(iterations=2, params=("albedo", "light"), spp=2,
                                 specular_scale=bundle.specular_scale))
    assert not np.array_equal(result.light_params, [1.0, 1.0, 1.0])
    assert np.array_equal(np.loadtxt(out / "light_params.txt"), result.light_params)


def test_optimize_without_target_flag_fits_the_bundle_target(tmp_path):
    """Without --target, optimize fits the bundle's own target: its loss
    trace is the one of that image passed as --target."""
    from ssdr import scenes
    g, camera, spec, _ = scenes.two_plane(8, 8)
    bundle = sio.write_bundle(tmp_path / "b", g, camera, lighting_spec=spec,
                              extras={"target": np.full((8, 8, 3), 0.3)})
    traces = []
    for i, extra in enumerate(([], ["--target", str(bundle / "target.pfm")])):
        out = tmp_path / f"o{i}"
        assert main(["optimize", "--bundle", str(bundle), "--iters", "2", "--spp", "2",
                     "--out", str(out), *extra]) == EXIT_OK
        traces.append((out / "loss.csv").read_text())
    assert len(traces[0].splitlines()) == 3
    assert traces[0] == traces[1]


def test_optimize_zero_iterations_writes_the_trace_header(two_plane_bundle, tmp_path):
    sio.write_pfm(tmp_path / "target.pfm", np.zeros((16, 16, 3)))
    out = tmp_path / "o"
    assert main(["optimize", "--bundle", str(two_plane_bundle), "--target",
                 str(tmp_path / "target.pfm"), "--iters", "0", "--out", str(out)]) == EXIT_OK
    assert (out / "loss.csv").read_text() == "iteration,loss\n"


def test_gradcheck_light_passes_on_a_constant_light(two_plane_bundle, tmp_path):
    out = tmp_path / "gc"
    assert main(["gradcheck", "--bundle", str(two_plane_bundle), "--out", str(out),
                 "--params", "light", "--spp", "8", "--patch", "4"]) == EXIT_OK
    report = json.loads((out / "gradcheck.json").read_text())
    assert list(report) == ["render/light-params"]
    assert report["render/light-params"]["passed"]


@pytest.fixture(scope="module")
def glossy_bundle(tmp_path_factory):
    """The glossy-floor scene at 8x8; its light is a sky_disc, without
    parameters."""
    out = tmp_path_factory.mktemp("bundles") / "gf"
    assert main(["make-scene", "--kind", "glossy-floor", "--out", str(out),
                 "--res", "8x8"]) == EXIT_OK
    return out


def test_gradcheck_light_without_parameters_exit_2(glossy_bundle, tmp_path, caplog):
    _assert_input_error(["gradcheck", "--bundle", str(glossy_bundle), "--out",
                         str(tmp_path / "gc"), "--params", "light", "--spp", "2"],
                        caplog, "has no parameters")


def test_render_constant_lighting_on_a_sky_bundle(glossy_bundle, tmp_path):
    """--lighting constant on a bundle whose light is a sky renders under
    the default constant light, as a copy of the bundle that declares it."""
    const = _broken_copy(glossy_bundle, tmp_path / "const", "bundle.json",
                         _edit_json(lighting={"kind": "constant", "value": [1.0, 1.0, 1.0]}))
    images = []
    for i, (bundle, extra) in enumerate(((glossy_bundle, ["--lighting", "constant"]),
                                         (const, []), (glossy_bundle, []))):
        out = tmp_path / f"r{i}"
        assert main(["render", "--bundle", str(bundle), "--out", str(out),
                     "--spp", "4", *extra]) == EXIT_OK
        images.append((out / "rerender.pfm").read_bytes())
    assert images[0] == images[1] != images[2]


@pytest.fixture(scope="module")
def overflow_bundle(tmp_path_factory):
    """A bundle whose constant light of 1e308 overflows every estimator."""
    from ssdr import scenes
    g, camera, _, _ = scenes.two_plane(8, 8)
    g.albedo[...] = 0.1
    return sio.write_bundle(tmp_path_factory.mktemp("bundles") / "overflow", g, camera,
                            lighting_spec={"kind": "constant", "value": [1e308] * 3})


def _cli_in_own_process(argv) -> int:
    """The exit code of `ssdr` run in a process of its own, so that its
    stderr is the real one, whatever warning filters the test runner sets."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import ssdr
    env = {**os.environ, "PYTHONPATH": str(Path(ssdr.__file__).resolve().parents[1])}
    return subprocess.run([sys.executable, "-m", "ssdr.cli", *argv],
                          env=env, timeout=120).returncode


@pytest.mark.parametrize("argv", [
    ["render", "--threads", "1"], ["render", "--threads", "2"],
    ["baseline-compare", "--spp", "4", "--grid", "2x4", "--ref-cells", "2"]],
    ids=["render-threads-1", "render-threads-2", "baseline-compare"])
def test_overflowing_render_exits_1_with_one_line(overflow_bundle, tmp_path, capfd, argv):
    """A render that overflows is a numerical failure: exit 1, and stderr
    holds the one ERROR line naming the pixel, no NumPy warning."""
    code = _cli_in_own_process([*argv, "--bundle", str(overflow_bundle),
                                "--out", str(tmp_path / "r")])
    assert capfd.readouterr().err.splitlines() == [
        "ERROR ssdr: non-finite radiance at pixel (0, 0)"]
    assert code == EXIT_NUMERIC


def test_render_beyond_float32_exits_1_and_writes_nothing(overflow_bundle, tmp_path,
                                                          capfd):
    """At spp 4 the same render is finite in float64 but beyond the float32
    range of a PFM: exit 1 with one ERROR line naming the file, and no
    image or stats.json of infinities is left behind."""
    out = tmp_path / "r"
    code = _cli_in_own_process(["render", "--spp", "4", "--bundle", str(overflow_bundle),
                                "--out", str(out)])
    err = capfd.readouterr().err.splitlines()
    assert len(err) == 1 and "rerender.pfm" in err[0] and "float32" in err[0], err
    assert code == EXIT_NUMERIC
    assert not any(out.iterdir())
