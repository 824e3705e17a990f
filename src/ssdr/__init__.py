"""Screen-space differentiable Monte Carlo re-rendering.

Re-renders an image from its G-buffers (`core.GBUFFER_MAPS`) under a
queryable lighting field, exposes exact adjoints of the estimator with
respect to the material maps and lighting parameters, and recovers
materials from a target image by gradient descent.
"""

from .core import (Camera, ContractError, GBuffer, ImageBuffer, project, unproject,
                   validate_gbuffer)
from .inverse import LossConfig, loss_rerender, optimize
from .lighting import (ConstantLight, FeatureGrid, GridLight, LightField,
                       SkyDiscLight, SkyGradientLight, analytic_lightfield,
                       positional_encoding)
from .mlp import MlpWeights
from .render import RenderConfig, reference_render, render_backward, render_mc
from .ssrt import SsrtConfig, Status, trace_batch, uncertainty
from .volumetric import (BlendedLightField, HypernetParams, VolumeConfig, blend,
                         field_eval, hypernet_forward)

__version__ = "0.1.0"

__all__ = [
    "BlendedLightField", "Camera", "ConstantLight",
    "ContractError", "FeatureGrid", "GBuffer", "GridLight",
    "HypernetParams", "ImageBuffer", "LightField", "LossConfig", "MlpWeights",
    "RenderConfig", "SkyDiscLight", "SkyGradientLight",
    "SsrtConfig", "Status", "VolumeConfig",
    "analytic_lightfield", "blend", "field_eval", "hypernet_forward",
    "loss_rerender", "optimize", "positional_encoding",
    "project", "reference_render", "render_backward", "render_mc", "trace_batch", "unproject", "uncertainty",
    "validate_gbuffer",
]
