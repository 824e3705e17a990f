"""Fully analytic test scenes: every depth value comes from a closed-form
plane intersection, so traced hits and rendered images can be checked
against exact geometry.

All scenes use the package camera convention (+z forward, y down); "floor"
planes sit at positive y.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Camera, ContractError, GBuffer, normalize


def default_camera(width: int, height: int) -> Camera:
    return Camera(fx=float(width), fy=float(width), cx=(width - 1) / 2.0,
                  cy=(height - 1) / 2.0, width=width, height=height)


@dataclass(frozen=True)
class PlaneDef:
    """Axis-aligned plane `axis = offset` with an inward-facing normal."""
    axis: int           # 0 = x, 1 = y, 2 = z
    offset: float
    normal: tuple[float, float, float]
    albedo: tuple[float, float, float]
    roughness: float
    metallic: float


def _pixel_dirs(camera: Camera):
    ys, xs = np.mgrid[0:camera.height, 0:camera.width].astype(np.float64)
    rx = (xs - camera.cx) / camera.fx
    ry = (ys - camera.cy) / camera.fy
    return rx, ry  # direction per unit z


def plane_depth(camera: Camera, plane: PlaneDef):
    """z-depth at which each pixel ray meets the plane; +inf where it cannot."""
    rx, ry = _pixel_dirs(camera)
    if plane.axis == 2:
        z = np.full(rx.shape, plane.offset)
    else:
        r = rx if plane.axis == 0 else ry
        with np.errstate(divide="ignore", invalid="ignore"):
            z = plane.offset / r
    z = np.where(np.isfinite(z) & (z > 1e-6), z, np.inf)
    # reject intersections approached from behind the surface
    dirs = np.stack([rx, ry, np.ones_like(rx)], axis=-1)
    facing = dirs @ np.asarray(plane.normal)
    return np.where(facing < 0, z, np.inf)


def build_scene(camera: Camera, planes: list[PlaneDef]) -> GBuffer:
    h, w = camera.height, camera.width
    depth = np.full((h, w), np.inf)
    face = np.full((h, w), -1, dtype=np.int64)
    for i, pl in enumerate(planes):
        z = plane_depth(camera, pl)
        closer = z < depth
        depth = np.where(closer, z, depth)
        face = np.where(closer, i, face)
    if np.any(face < 0):
        raise ContractError("scene leaves uncovered pixels")
    albedo = np.zeros((h, w, 3))
    normal = np.zeros((h, w, 3))
    rough = np.zeros((h, w))
    metal = np.zeros((h, w))
    for i, pl in enumerate(planes):
        m = face == i
        albedo[m] = pl.albedo
        normal[m] = pl.normal
        rough[m] = pl.roughness
        metal[m] = pl.metallic
    return GBuffer(albedo=albedo, normal=normal, depth=depth,
                   roughness=rough, metallic=metal)


# ---------------------------------------------------------------------------
# the three canned scenes


def two_plane(width: int = 64, height: int = 64):
    """Diffuse floor meeting a fronto-parallel back wall; constant light."""
    camera = default_camera(width, height)
    floor = PlaneDef(axis=1, offset=1.0, normal=(0.0, -1.0, 0.0),
                     albedo=(0.6, 0.6, 0.6), roughness=0.8, metallic=0.0)
    wall = PlaneDef(axis=2, offset=4.0, normal=(0.0, 0.0, -1.0),
                    albedo=(0.5, 0.45, 0.4), roughness=0.9, metallic=0.0)
    g = build_scene(camera, [floor, wall])
    spec = {"kind": "constant", "value": [1.0, 1.0, 1.0]}
    return g, camera, spec, (floor, wall)


def cornell_like(width: int = 48, height: int = 48):
    """Five Lambertian faces of a box seen from inside; colored side walls."""
    camera = default_camera(width, height)
    planes = [
        PlaneDef(1, 1.0, (0.0, -1.0, 0.0), (0.7, 0.7, 0.7), 1.0, 0.0),   # floor
        PlaneDef(1, -1.0, (0.0, 1.0, 0.0), (0.7, 0.7, 0.7), 1.0, 0.0),   # ceiling
        PlaneDef(0, -1.2, (1.0, 0.0, 0.0), (0.75, 0.15, 0.15), 1.0, 0.0),  # left
        PlaneDef(0, 1.2, (-1.0, 0.0, 0.0), (0.15, 0.75, 0.15), 1.0, 0.0),  # right
        PlaneDef(2, 3.0, (0.0, 0.0, -1.0), (0.7, 0.7, 0.7), 1.0, 0.0),   # back
    ]
    g = build_scene(camera, planes)
    spec = {"kind": "sky", "zenith": [1.2, 1.2, 1.4], "horizon": [0.5, 0.45, 0.4]}
    return g, camera, spec, tuple(planes)


def glossy_floor(width: int = 32, height: int = 32):
    """Polished metallic floor under a sky with a compact bright source:
    the adversarial case for fixed-direction quadrature."""
    camera = default_camera(width, height)
    floor = PlaneDef(axis=1, offset=1.0, normal=(0.0, -1.0, 0.0),
                     albedo=(0.9, 0.88, 0.85), roughness=0.1, metallic=1.0)
    wall = PlaneDef(axis=2, offset=8.0, normal=(0.0, 0.0, -1.0),
                    albedo=(0.2, 0.2, 0.22), roughness=0.9, metallic=0.0)
    g = build_scene(camera, [floor, wall])
    # source placed to mirror into view off the floor
    src = normalize(np.array([0.15, -0.8, 0.35]))
    spec = {"kind": "sky_disc", "zenith": [0.25, 0.28, 0.35],
            "horizon": [0.12, 0.11, 0.1], "disc_direction": src.tolist(),
            "disc_radius": 0.08, "disc_color": [60.0, 55.0, 50.0]}
    return g, camera, spec, (floor, wall)


# scene kind -> its builder, in the order `ssdr make-scene --help` lists them
SCENES = {"two-plane": two_plane, "cornell-like": cornell_like,
          "glossy-floor": glossy_floor}


def make_scene(kind: str, width: int | None = None, height: int | None = None):
    if kind not in SCENES:
        raise ContractError(f"unknown scene kind {kind!r}; "
                            f"choose from {sorted(SCENES)}")
    # None keeps the scene's own default size
    kwargs = {k: v for k, v in (("width", width), ("height", height))
              if v is not None}
    if any(v < 1 for v in kwargs.values()):
        raise ContractError(f"scene size must be at least 1x1, got {width}x{height}")
    return SCENES[kind](**kwargs)


def bundle_for(kind: str, out_dir, width: int | None = None,
               height: int | None = None):
    """Materialize a scene as an on-disk bundle."""
    from . import io as ssdr_io
    g, camera, spec, _planes = make_scene(kind, width, height)
    # cornell-like is the pure Lambertian demo scene
    specular_scale = 0.0 if kind == "cornell-like" else 1.0
    return ssdr_io.write_bundle(out_dir, g, camera, lighting_spec=spec,
                                specular_scale=specular_scale)
