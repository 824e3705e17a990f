"""Shared value types: images, cameras, G-buffers.

Coordinate convention used throughout: right-handed view space with the
camera at the origin looking along +z, x right, y down.  Depth maps store
the z coordinate in meters (not ray length).  Pixel centers sit at integer
coordinates, so projecting the point behind pixel (i, j) yields exactly
(i, j).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class ContractError(ValueError):
    """Violated precondition of a documented operation."""


class BehindCameraError(ContractError):
    """Point has non-positive depth along the camera forward axis."""


def finite_number(value) -> float | None:
    """`value` as a float if it is a finite JSON number: an int or a float,
    not a boolean, NaN, an infinity or an integer beyond the float range;
    else None."""
    if type(value) not in (int, float):
        return None
    try:
        value = float(value)
    except OverflowError:
        return None
    return value if math.isfinite(value) else None


# Rec.709 luma weights of (r, g, b)
REC709 = np.array([0.2126, 0.7152, 0.0722])


def luminance(rgb: np.ndarray) -> np.ndarray:
    """Rec.709 luma of a (..., 3) array."""
    rgb = np.asarray(rgb, dtype=np.float64)
    wr, wg, wb = REC709
    return rgb[..., 0] * wr + rgb[..., 1] * wg + rgb[..., 2] * wb


@dataclass
class ImageBuffer:
    """Row-major image as a PFM holds it, row 0 at the top: `data` has
    shape (height, width, channels), with 1 or 3 channels.  Feature grids
    are blobs (`lighting.FeatureGrid`), not ImageBuffers."""

    data: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.ndim != 3 or self.data.shape[2] not in (1, 3):
            raise ContractError(f"image shape {self.data.shape}, "
                                f"expected (H, W, 1) or (H, W, 3)")


@dataclass(frozen=True)
class Camera:
    """Pinhole intrinsics; fx, fy, cx, cy in pixels."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        if self.fx <= 0 or self.fy <= 0:
            raise ContractError("focal lengths must be positive")
        if not (0 <= self.cx < self.width and 0 <= self.cy < self.height):
            raise ContractError("principal point outside the image")

    def to_dict(self) -> dict:
        return {
            "fx": self.fx, "fy": self.fy, "cx": self.cx, "cy": self.cy,
            "width": self.width, "height": self.height,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Camera":
        """fx, fy, cx, cy must be finite numbers and width, height integers,
        none a boolean: a missing key is a KeyError, a bad value a ContractError."""
        for key in ("fx", "fy", "cx", "cy"):
            if finite_number(d[key]) is None:
                raise ContractError(f"{key!r} must be a finite number, got {d[key]!r}")
        for key in ("width", "height"):
            if type(d[key]) is not int:
                raise ContractError(f"{key!r} must be an integer, got {d[key]!r}")
        return cls(fx=float(d["fx"]), fy=float(d["fy"]), cx=float(d["cx"]),
                   cy=float(d["cy"]), width=d["width"], height=d["height"])


def project(camera: Camera, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pinhole projection of view-space points (..., 3) to pixel coords.

    Returns (pixels (..., 2), inside flags).  Raises for non-positive depth.
    """
    x = np.asarray(x, dtype=np.float64)
    z = x[..., 2]
    if np.any(z <= 0):
        raise BehindCameraError("point behind camera (z <= 0)")
    u = camera.fx * x[..., 0] / z + camera.cx
    v = camera.fy * x[..., 1] / z + camera.cy
    px = np.stack([u, v], axis=-1)
    inside = (u >= 0) & (u < camera.width) & (v >= 0) & (v < camera.height)
    return px, inside


def unproject(camera: Camera, pixel: np.ndarray, depth: np.ndarray) -> np.ndarray:
    """Inverse of `project`: pixel coords (..., 2) + z-depth to view space."""
    pixel = np.asarray(pixel, dtype=np.float64)
    depth = np.asarray(depth, dtype=np.float64)
    if np.any(depth <= 0):
        raise ContractError("unproject requires depth > 0")
    x = (pixel[..., 0] - camera.cx) / camera.fx * depth
    y = (pixel[..., 1] - camera.cy) / camera.fy * depth
    return np.stack([x, y, np.broadcast_to(depth, x.shape)], axis=-1)


# the G-buffer's maps in GBuffer's field order, each with its channel
# count; a 1-channel map is an (H, W) array, a 3-channel one (H, W, 3)
GBUFFER_MAPS = {"albedo": 3, "normal": 3, "depth": 1, "roughness": 1, "metallic": 1}


@dataclass
class GBuffer:
    """Per-pixel scene description, one map per entry of GBUFFER_MAPS, each
    the size of the (H, W) depth map: albedo in [0,1]; normal unit
    view-space vectors; depth meters > 0 (non-positive or non-finite marks
    "no geometry"); roughness, metallic in [0,1].
    """

    albedo: np.ndarray
    normal: np.ndarray
    depth: np.ndarray
    roughness: np.ndarray
    metallic: np.ndarray

    def __post_init__(self):
        for name in GBUFFER_MAPS:
            setattr(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        if self.depth.ndim != 2:
            raise ContractError(f"depth shape {self.depth.shape}, expected (H, W)")
        for name, channels in GBUFFER_MAPS.items():
            want = self.depth.shape + ((channels,) if channels > 1 else ())
            got = getattr(self, name).shape
            if got != want:
                raise ContractError(f"{name} shape {got}, expected {want}")

    def copy(self) -> "GBuffer":
        return GBuffer(**{name: getattr(self, name).copy() for name in GBUFFER_MAPS})


@dataclass
class ValidationReport:
    counts: dict = field(default_factory=dict)  # issue kind -> pixel count

    def ok(self) -> bool:
        return not self.counts

    def add(self, kind: str, bad: np.ndarray) -> None:
        """Count the pixels flagged in the (H, W) mask `bad` under `kind`."""
        n = int(np.count_nonzero(bad))
        if n:
            self.counts[kind] = self.counts.get(kind, 0) + n

    def summary(self) -> str:
        if self.ok():
            return "gbuffer valid"
        parts = [f"{k}: {v} px" for k, v in sorted(self.counts.items())]
        return "gbuffer issues: " + ", ".join(parts)


_UNIT_TOL = 1e-4


def validate_gbuffer(g: GBuffer) -> ValidationReport:
    """Count the pixels that break each per-pixel invariant; a pixel with
    several bad channels counts once.  Depths that mark "no geometry" (see
    `GBuffer`) are legal and not counted."""
    report = ValidationReport()
    report.add("non-unit normal",
               np.abs(np.linalg.norm(g.normal, axis=-1) - 1.0) > _UNIT_TOL)
    for name in ("albedo", "roughness", "metallic"):
        arr = getattr(g, name)
        finite = np.isfinite(arr)
        oob = finite & ((arr < 0.0) | (arr > 1.0))
        if arr.ndim == 3:
            oob, finite = oob.any(axis=-1), finite.all(axis=-1)
        report.add(f"{name} out of range", oob)
        report.add(f"{name} non-finite", ~finite)
    return report


def has_geometry(depth: np.ndarray) -> np.ndarray:
    """Finite depths > 0; any other depth marks "no geometry"."""
    return np.isfinite(depth) & (depth > 0)


def nearest_pixel(px: np.ndarray, shape) -> tuple[np.ndarray, np.ndarray]:
    """(row, column) indices of the pixel nearest each continuous (x, y) of
    px (N, 2), clamped into an image of `shape` (H, W, ...)."""
    ix = np.clip(np.rint(px[:, 0]).astype(np.int64), 0, shape[1] - 1)
    iy = np.clip(np.rint(px[:, 1]).astype(np.int64), 0, shape[0] - 1)
    return iy, ix


def bilinear(image: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Bilinear lookup of an (H, W) or (H, W, C) image at continuous pixel
    coords x, y (N,), clamped at the borders.  Nodes sit at integer
    coordinates, so an integer position returns the stored value."""
    h, w = image.shape[:2]
    x, y = np.clip(x, 0.0, w - 1.0), np.clip(y, 0.0, h - 1.0)
    x0 = np.clip(np.floor(x).astype(np.int64), 0, w - 1)
    y0 = np.clip(np.floor(y).astype(np.int64), 0, h - 1)
    x1, y1 = np.minimum(x0 + 1, w - 1), np.minimum(y0 + 1, h - 1)
    fx, fy = x - x0, y - y0
    if image.ndim == 3:     # one weight per lane for all its channels
        fx, fy = fx[:, None], fy[:, None]
    top = image[y0, x0] * (1 - fx) + image[y0, x1] * fx
    bot = image[y1, x0] * (1 - fx) + image[y1, x1] * fx
    return top * (1 - fy) + bot * fy


def normalize(v: np.ndarray) -> np.ndarray:
    """v / |v| over the last axis (of length 3); zero vectors stay zero."""
    v = np.asarray(v, dtype=np.float64)
    n = np.sqrt(dot(v, v))[..., None]
    return v / np.where(n > 0, n, 1.0)


def check_unit(name: str, w: np.ndarray) -> None:
    """The unit-length rule for directions (..., 3): |w.w - 1| <= 2.1e-3 on
    every lane, else a ContractError naming `name`.  A zero or non-finite
    vector breaks it."""
    if not np.all(np.abs(dot(w, w) - 1.0) <= 2.1e-3):
        raise ContractError(f"{name} is not unit length")


def orthonormal_basis(n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Branchless tangent/bitangent frame for unit normals (..., 3), each
    stored in the memory layout of `n`."""
    n = np.asarray(n, dtype=np.float64)
    s = np.where(n[..., 2] >= 0.0, 1.0, -1.0)
    a = -1.0 / (s + n[..., 2])
    b = n[..., 0] * n[..., 1] * a
    t, bt = np.empty_like(n), np.empty_like(n)
    t[..., 0], t[..., 1], t[..., 2] = 1.0 + s * n[..., 0] ** 2 * a, s * b, -s * n[..., 0]
    bt[..., 0], bt[..., 1], bt[..., 2] = b, s + n[..., 1] ** 2 * a, -n[..., 1]
    return t, bt


def dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product over the last axis (of length 3), broadcasting the rest.

    Summed in the order of np.sum(a * b, axis=-1), bit for bit: the leading
    0.0 turns the sum of three -0.0 products into +0.0, as np.sum does."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return 0.0 + a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] + a[..., 2] * b[..., 2]


def as_rgb(value) -> np.ndarray:
    """Coerce a scalar or array-like to a float64 (..., 3) array."""
    a = np.asarray(value, dtype=np.float64)
    if a.ndim == 0:
        return np.full(3, float(a))
    return a
