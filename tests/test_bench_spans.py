"""The benchmark's traced run wraps ssdr functions by name, from outside the
package (`perfbench/probes.py`).  If a call path stops going through a
probed function, its span never fires and the traced run fails, even when
every output bit is unchanged.  These tests hold the library to that
contract in seconds: on the setup and one fit iteration of a grid-light
bundle, and on a tiny learned render, its adjoint and one fit iteration.

The perfbench modules are imported read-only from their own directory.
"""

import sys
from pathlib import Path

import numpy as np

from ssdr import cli, inverse, scenes
from ssdr import io as sio
from ssdr import volumetric as vol
from ssdr.lighting import FeatureGrid, GridLight, decoder_input_dim
from ssdr.mlp import MlpWeights
from ssdr.render import PARAM_NAMES, RenderConfig, render_backward, render_mc

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import harness  # noqa: E402
import probes  # noqa: E402
import workloads  # noqa: E402


def test_bundle_setup_and_optimize_iteration_fire_every_bench_span(tmp_path):
    """Loading a bundle that carries a grid light file, as `ssdr optimize`
    does, and one albedo + roughness `optimize` iteration fire the setup,
    forward and fit spans of the bench's analytic workloads."""
    g, camera, _, _ = scenes.glossy_floor(4, 4)
    grid = GridLight(np.ones((2, 2, 2, 2, 2, 3)), [[-5, -5, 0], [5, 5, 10]])
    path = sio.write_bundle(tmp_path / "grid", g, camera, extras={"grid_light": grid})
    cfg = inverse.LossConfig(iterations=1, params=("albedo", "roughness"), spp=2, seed=3)

    tracer = harness.Tracer()
    inst = probes.install(tracer, GridLight)
    try:
        stale = inst.stale_bindings()
        bundle = cli.load_validated_bundle(path)
        light = cli.resolve_light(bundle, "grid")
        inverse.optimize(bundle.gbuffer, bundle.camera, light, np.full((4, 4, 3), 0.3),
                         cfg)
        fired = tracer.snapshot()["calls"]
    finally:
        inst.restore()

    assert stale == []
    expected = (workloads._SETUP_SPANS | workloads._FORWARD_SPANS | workloads._FIT_SPANS
                | {"io.read_blob"})
    assert sorted(expected - fired.keys()) == []


def _small_learned_light(g, camera):
    rng = np.random.default_rng(0)
    grid = FeatureGrid(rng.normal(size=g.depth.shape + (2,)))
    dec = MlpWeights.random((decoder_input_dim(2), 8, 3), seed=1, scale=0.2)
    vw = MlpWeights.random((vol.field_input_dim(2), 8, 4), seed=2, scale=0.3)
    return vol.BlendedLightField(grid, g, camera, dec, vol.HypernetParams.fixed(vw),
                                 volume_cfg=vol.VolumeConfig(n_samples=4))


def test_learned_render_and_adjoint_fire_every_bench_span():
    """The render alone fires the spans of the bench's learned render, and
    the adjoint alone those of its learned fit: the adjoint runs the light's
    forward pass too, so checked together, a render that bypassed a probed
    function would go unseen."""
    g, camera, _, _ = scenes.two_plane(4, 4)
    light = _small_learned_light(g, camera)
    cfg = RenderConfig(spp=2, seed=3)

    tracer = harness.Tracer()
    inst = probes.install(tracer, type(light))
    try:
        stale = inst.stale_bindings()
        image = render_mc(g, camera, light, cfg)
        after_render = tracer.snapshot()
        render_backward(g, camera, light, cfg, np.ones_like(image), params=PARAM_NAMES)
        adjoint = harness.snapshot_delta(tracer.snapshot(), after_render)["calls"]
    finally:
        inst.restore()

    assert stale == []
    # nothing is read from disk here, so the blob reader never runs
    rendered = after_render["calls"]
    assert sorted(workloads._LEARNED_SPANS - {"io.read_blob"} - rendered.keys()) == []
    assert sorted(workloads._LEARNED_FIT_SPANS - adjoint.keys()) == []


def test_learned_optimize_iteration_fires_every_bench_span():
    """One albedo + light `optimize` iteration, the operation of the
    bench's learned fit, fires the spans that workload expects, the light's
    own `radiance` among them: the adjoint reads the render's sample tape,
    so the render alone must reach the light through its probed methods."""
    g, camera, _, _ = scenes.two_plane(4, 4)
    light = _small_learned_light(g, camera)
    cfg = inverse.LossConfig(iterations=1, step_size=0.001, params=("albedo", "light"),
                             spp=2, seed=3)

    tracer = harness.Tracer()
    inst = probes.install(tracer, type(light))
    try:
        stale = inst.stale_bindings()
        inverse.optimize(g, camera, light, np.full((4, 4, 3), 0.3), cfg)
        fired = tracer.snapshot()["calls"]
    finally:
        inst.restore()

    assert stale == []
    expected = ((workloads._LEARNED_SPANS - {"io.read_blob"})
                | workloads._LEARNED_FIT_SPANS | {"light.radiance"})
    assert sorted(expected - fired.keys()) == []
