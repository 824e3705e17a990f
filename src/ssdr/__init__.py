"""Screen-space differentiable Monte Carlo re-rendering.

Re-renders an image from its G-buffers (albedo, normal, depth, roughness,
metallic) under a queryable lighting field, exposes exact adjoints of the
estimator with respect to the material maps and lighting parameters, and
recovers materials from a target image by gradient descent.
"""

from .brdf import BrdfParams, BrdfSample
from .core import (Camera, ContractError, GBuffer, ImageBuffer, Spectrum,
                   project, unproject, validate_gbuffer)
from .inverse import LossConfig, loss_light_hdr, loss_rerender, optimize
from .lighting import (ConstantLight, FeatureGrid, GridLight, LightField,
                       SkyDiscLight, SkyGradientLight, analytic_lightfield,
                       positional_encoding)
from .mlp import MlpWeights
from .render import (GradientImage, RenderConfig, reference_render,
                     render_backward, render_discretized, render_mc)
from .sampling import SamplerState
from .ssrt import SsrtConfig, SsrtHit, Status, trace, trace_batch, uncertainty
from .volumetric import (BlendedLightField, HypernetParams, VolumeConfig, blend,
                         field_eval, hypernet_forward, volume_render)

__version__ = "0.1.0"

__all__ = [
    "BlendedLightField", "BrdfParams", "BrdfSample", "Camera", "ConstantLight",
    "ContractError", "FeatureGrid", "GBuffer", "GradientImage", "GridLight",
    "HypernetParams", "ImageBuffer", "LightField", "LossConfig", "MlpWeights",
    "RenderConfig", "SamplerState", "SkyDiscLight", "SkyGradientLight",
    "Spectrum", "SsrtConfig", "SsrtHit", "Status", "VolumeConfig",
    "analytic_lightfield", "blend", "field_eval", "hypernet_forward",
    "loss_light_hdr", "loss_rerender", "optimize", "positional_encoding",
    "project", "reference_render", "render_backward", "render_discretized",
    "render_mc", "trace", "trace_batch", "unproject", "uncertainty",
    "validate_gbuffer", "volume_render",
]
