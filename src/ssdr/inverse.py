"""Loss functions and the analysis-by-synthesis recovery loop.

`optimize` renders the current parameter guess, measures the image loss,
pulls its adjoint back through the render layer, and applies per-parameter
adaptive first-order updates (Adam-style, bias corrected), re-projecting
each map into its valid range after every step.  Fixed seeds make entire
runs reproducible bit for bit.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from .brdf import ROUGHNESS_FLOOR
from .core import Camera, ContractError, GBuffer, normalize
from .lighting import LightField
from .render import RenderConfig, check_params, render_backward, render_mc
from .sampling import derive_seed

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


def loss_rerender(pred, target):
    """Mean squared error over all pixels and channels, with its adjoint."""
    p = np.asarray(pred, dtype=np.float64)
    t = np.asarray(target, dtype=np.float64)
    if p.shape != t.shape:
        raise ContractError(f"loss shapes differ: {p.shape} vs {t.shape}")
    resid = p - t
    n = resid.size
    return float(np.mean(resid * resid)), 2.0 * resid / n


@dataclass
class AdamState:
    """Per-parameter adaptive moments with bias correction."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def like(cls, x: np.ndarray) -> "AdamState":
        return cls(m=np.zeros_like(x, dtype=np.float64),
                   v=np.zeros_like(x, dtype=np.float64))

    def step(self, grad: np.ndarray, lr: float) -> np.ndarray:
        """Return the update to subtract from the parameter."""
        grad = np.asarray(grad, dtype=np.float64)
        self.t += 1
        self.m = ADAM_BETA1 * self.m + (1.0 - ADAM_BETA1) * grad
        self.v = ADAM_BETA2 * self.v + (1.0 - ADAM_BETA2) * grad * grad
        mh = self.m / (1.0 - ADAM_BETA1 ** self.t)
        vh = self.v / (1.0 - ADAM_BETA2 ** self.t)
        return lr * mh / (np.sqrt(vh) + ADAM_EPS)


@dataclass(frozen=True)
class LossConfig:
    """Recovery settings.  `params` selects which maps to optimize."""

    iterations: int = 200
    step_size: float = 0.05
    params: tuple[str, ...] = ("albedo",)
    spp: int = 16
    seed: int = 0
    specular_scale: float = 1.0

    def __post_init__(self):
        if self.iterations < 0:
            raise ContractError("invalid loss config")
        if not 0.0 <= self.step_size < np.inf:   # a negative step ascends the loss
            raise ContractError("step_size must be finite and >= 0, "
                                f"got {self.step_size}")
        # spp, seed and specular_scale obey the render's rules
        RenderConfig(spp=self.spp, seed=self.seed, specular_scale=self.specular_scale)
        check_params(self.params)


@dataclass
class OptimizeResult:
    gbuffer: GBuffer
    light_params: np.ndarray | None
    trace: list[dict] = field(default_factory=list)

    @property
    def losses(self) -> np.ndarray:
        return np.array([row["loss"] for row in self.trace])


def _reproject(g: GBuffer) -> None:
    np.clip(g.albedo, 0.0, 1.0, out=g.albedo)
    np.clip(g.roughness, ROUGHNESS_FLOOR, 1.0, out=g.roughness)
    np.clip(g.metallic, 0.0, 1.0, out=g.metallic)
    g.normal[...] = normalize(g.normal)


def _summary(name: str, x: np.ndarray) -> tuple[str, float]:
    """The trace column for one recovered parameter."""
    if name == "normal":
        return "normal_dev", float(np.abs(x - x.mean(axis=(0, 1))).mean())
    if name == "light":
        return "light_norm", float(np.linalg.norm(x))
    return f"{name}_mean", float(x.mean())


def optimize(g: GBuffer, camera: Camera, light: LightField, target,
             cfg: LossConfig, threads: int = 1) -> OptimizeResult:
    """Recover the selected parameter maps from a target image.

    The input GBuffer and light field are not modified; the recovered maps
    and, when "light" is fitted, the light's parameters are returned together
    with the full loss trace.
    """
    target = np.asarray(target, dtype=np.float64)
    if target.shape != g.depth.shape + (3,):
        raise ContractError(f"target shape {target.shape} != {g.depth.shape + (3,)}")
    if not np.all(np.isfinite(target)):
        raise ContractError("target has non-finite values")
    cur = g.copy()
    _reproject(cur)
    names = check_params(cfg.params)
    if "light" in names:
        if light.n_params == 0:
            raise ContractError("selected light recovery but the light field "
                                "has no parameters")
        light = copy.copy(light)  # set_params rebinds, so the caller's is untouched

    def value(name: str) -> np.ndarray:
        """The live map of `name`, or a copy of the light's parameters."""
        return light.get_params() if name == "light" else getattr(cur, name)

    adams = {n: AdamState.like(value(n)) for n in names}
    trace: list[dict] = []
    for it in range(cfg.iterations):
        rcfg = RenderConfig(spp=cfg.spp, seed=derive_seed(cfg.seed, it),
                            specular_scale=cfg.specular_scale)
        tape = []   # the render's samples and light queries, for its adjoint
        img = render_mc(cur, camera, light, rcfg, threads=threads, tape=tape)
        loss, dI = loss_rerender(img, target)
        if not np.isfinite(loss):
            raise ContractError(f"loss went non-finite at iteration {it}")
        grad = render_backward(cur, camera, light, rcfg, dI, threads=threads,
                               params=names, tape=tape)
        del tape    # its light state belongs to the parameters before this step

        for n in names:
            x = value(n)
            x -= adams[n].step(grad[n], cfg.step_size)
            if n == "light":
                light.set_params(x)
        _reproject(cur)

        row = {"iteration": it, "loss": loss}
        row.update(_summary(n, value(n)) for n in names)
        trace.append(row)

    return OptimizeResult(
        gbuffer=cur,
        light_params=light.get_params() if "light" in names else None,
        trace=trace)
