"""The benchmark's traced run wraps ssdr functions by name, from outside the
package (`perfbench/probes.py`).  If a learned-light call path stops going
through a probed function, its span never fires and the traced run fails,
even when every output bit is unchanged.  This test holds the library to
that contract on a tiny learned render and its adjoint, in seconds.

The perfbench modules are imported read-only from their own directory.
"""

import sys
from pathlib import Path

import numpy as np

from ssdr import scenes
from ssdr import volumetric as vol
from ssdr.lighting import FeatureGrid, decoder_input_dim
from ssdr.mlp import MlpWeights
from ssdr.render import RenderConfig, render_backward, render_mc

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import harness  # noqa: E402
import probes  # noqa: E402
import workloads  # noqa: E402


def test_learned_render_and_adjoint_fire_every_bench_span():
    """The render alone fires the spans of the bench's learned render, and
    the adjoint alone those of its learned fit: the adjoint runs the light's
    forward pass too, so checked together, a render that bypassed a probed
    function would go unseen."""
    g, camera, _, _ = scenes.two_plane(4, 4)
    rng = np.random.default_rng(0)
    grid = FeatureGrid(rng.normal(size=(4, 4, 2)))
    dec = MlpWeights.random((decoder_input_dim(2), 8, 3), seed=1, scale=0.2)
    vw = MlpWeights.random((vol.field_input_dim(2), 8, 4), seed=2, scale=0.3)
    light = vol.BlendedLightField(grid, g, camera, dec, volume_weights=vw,
                                  volume_cfg=vol.VolumeConfig(n_samples=4,
                                                              position_bands=2))
    cfg = RenderConfig(spp=2, seed=3)

    tracer = harness.Tracer()
    inst = probes.install(tracer, type(light))
    try:
        stale = inst.stale_bindings()
        image = render_mc(g, camera, light, cfg)
        after_render = tracer.snapshot()
        render_backward(g, camera, light, cfg, np.ones_like(image), want_light=True)
        adjoint = harness.snapshot_delta(tracer.snapshot(), after_render)["calls"]
    finally:
        inst.restore()

    assert stale == []
    # nothing is read from disk here, so the blob reader never runs
    rendered = after_render["calls"]
    assert sorted(workloads._LEARNED_SPANS - {"io.read_blob"} - rendered.keys()) == []
    assert sorted(workloads._LEARNED_FIT_SPANS - adjoint.keys()) == []
