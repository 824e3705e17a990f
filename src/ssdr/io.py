"""Bit-exact readers and writers for every on-disk format.

Formats:
  * PFM ("PF"/"Pf"): HDR interchange for all maps; bottom-up scanlines,
    negative scale token = little endian.  Write-then-read round-trips
    float32 payloads bit for bit.
  * weight, grid light and feature grid blobs: one UTF-8 JSON header line,
    then raw little-endian float32 data.
  * G-buffer bundle: a directory with albedo/normal/depth/roughness/metallic
    PFMs and camera.json; optional bundle.json adds lighting, weights,
    targets, and scene metadata.
  * PNG previews: tonemapped 8-bit, written with zlib only.
"""

from __future__ import annotations

import json
import math
import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import Camera, ContractError, GBuffer, ImageBuffer, finite_number
from .lighting import FeatureGrid, GridLight, LightField, analytic_lightfield
from .mlp import MlpWeights


class ParseError(ContractError):
    """Malformed file; message carries the byte offset where parsing died."""


class BundleError(ContractError):
    """Bundle directory failed validation (missing or inconsistent pieces)."""


# ---------------------------------------------------------------------------
# PFM


def _read_token(f, path) -> bytes:
    """The next whitespace-delimited header token.  No PFM header token is
    near 32 bytes long, so a longer one is a ParseError at its 33rd byte."""
    tok = b""
    while True:
        c = f.read(1)
        if not c:
            raise ParseError(f"{path}: unexpected EOF at byte {f.tell()}")
        if c in b" \t\r\n":
            if tok:
                return tok
            continue
        if len(tok) == 32:
            raise ParseError(f"{path}: header token longer than 32 bytes at byte "
                             f"{f.tell() - 1}")
        tok += c


def read_pfm(path) -> ImageBuffer:
    path = Path(path)
    with open(path, "rb") as f:
        magic = _read_token(f, path)
        if magic == b"PF":
            channels = 3
        elif magic == b"Pf":
            channels = 1
        else:
            raise ParseError(f"{path}: bad magic {magic!r} at byte 0")
        try:
            width = int(_read_token(f, path))
            height = int(_read_token(f, path))
            scale = float(_read_token(f, path))
        except ParseError:      # a ValueError too, and it names the file already
            raise
        except ValueError as e:
            raise ParseError(f"{path}: bad header near byte {f.tell()}: {e}") from None
        if width <= 0 or height <= 0:
            raise ParseError(f"{path}: non-positive dimensions {width}x{height}")
        if scale == 0 or not math.isfinite(scale):
            raise ParseError(f"{path}: scale {scale} is not a nonzero finite number")
        size = 4 * width * height * channels
        left = os.fstat(f.fileno()).st_size - f.tell()
        if left < size:     # before reading, so a huge claim allocates nothing
            raise ParseError(
                f"{path}: truncated payload at byte {f.tell() + left} "
                f"(got {left} of {size} bytes)")
        payload = f.read(size)
        trailing = f.read(1)
        if trailing:
            raise ParseError(f"{path}: trailing garbage at byte {f.tell() - 1}")
    dt = "<f4" if scale < 0 else ">f4"
    data = np.frombuffer(payload, dtype=dt).astype(np.float64)
    data = data.reshape(height, width, channels)[::-1]  # stored bottom-up
    return ImageBuffer(width=width, height=height, channels=channels, data=data.copy())


def _float32(path, data) -> np.ndarray:
    """`data` as contiguous little-endian float32 for the file `path`; a
    finite value that float32 cannot hold is an OverflowError naming it."""
    data = np.asarray(data)
    with np.errstate(over="ignore"):
        payload = np.ascontiguousarray(data, dtype="<f4")
    if np.any(np.isinf(payload) & np.isfinite(data)):
        raise OverflowError(f"{path}: values beyond the float32 range")
    return payload


def write_pfm(path, image) -> None:
    """A finite value that float32 cannot hold is an OverflowError naming
    the file, and nothing is written."""
    if isinstance(image, ImageBuffer):
        data = image.data
    else:
        data = np.asarray(image, dtype=np.float64)
        if data.ndim == 2:
            data = data[:, :, None]
    h, w, c = data.shape
    if c == 3:
        magic = b"PF"
    elif c == 1:
        magic = b"Pf"
    else:
        raise ContractError(f"PFM stores 1 or 3 channels, not {c}")
    payload = _float32(path, data[::-1])
    with open(path, "wb") as f:
        f.write(magic + b"\n")
        f.write(f"{w} {h}\n".encode())
        f.write(b"-1.0\n")  # little endian
        f.write(payload.tobytes())


# ---------------------------------------------------------------------------
# PNG previews


def tonemap(image: np.ndarray, exposure: float) -> np.ndarray:
    """x -> (1 - exp(-exposure x))^(1/2.2), into [0, 1]."""
    x = np.asarray(image, dtype=np.float64)
    return np.clip(1.0 - np.exp(-exposure * x), 0.0, 1.0) ** (1.0 / 2.2)


def _png_chunk(tag: bytes, payload: bytes) -> bytes:
    body = tag + payload
    return struct.pack(">I", len(payload)) + body + struct.pack(">I", zlib.crc32(body))


def write_png(path, rgb8: np.ndarray) -> None:
    """Minimal 8-bit RGB PNG encoder (filter 0 scanlines)."""
    rgb8 = np.asarray(rgb8, dtype=np.uint8)
    if rgb8.ndim == 2:
        rgb8 = np.repeat(rgb8[:, :, None], 3, axis=2)
    h, w, c = rgb8.shape
    if c != 3:
        raise ContractError("PNG preview expects 3 channels")
    raw = b"".join(b"\x00" + rgb8[y].tobytes() for y in range(h))
    ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
    with open(path, "wb") as f:
        f.write(b"\x89PNG\r\n\x1a\n")
        f.write(_png_chunk(b"IHDR", ihdr))
        f.write(_png_chunk(b"IDAT", zlib.compress(raw, 6)))
        f.write(_png_chunk(b"IEND", b""))


def write_png_preview(path, image, exposure: float = 1.0) -> None:
    """Tonemap an HDR buffer and quantize to an 8-bit PNG."""
    data = image.data if isinstance(image, ImageBuffer) else np.asarray(image)
    if not np.all(np.isfinite(data)):
        raise ContractError("preview requires a finite image")
    if data.ndim == 2:
        data = data[:, :, None]
    if data.shape[2] == 1:
        data = np.repeat(data, 3, axis=2)
    mapped = tonemap(data, exposure)
    write_png(path, np.rint(mapped * 255.0).astype(np.uint8))


# ---------------------------------------------------------------------------
# blobs: one JSON header line + little-endian f32 payload


def _json_object(raw: bytes, where, error) -> dict:
    """`raw` decoded as a UTF-8 JSON object; anything else is an `error`
    naming `where`."""
    try:
        obj = json.loads(raw.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise error(f"{where}: {e}") from None
    if not isinstance(obj, dict):
        raise error(f"{where}: expected a JSON object")
    return obj


def _read_json_object(path, error) -> dict:
    return _json_object(Path(path).read_bytes(), path, error)


def write_blob(path, header: dict, data: np.ndarray) -> None:
    """Like `write_pfm`, refuses finite values beyond float32."""
    payload = _float32(path, data)
    head = dict(header)
    head["count"] = int(payload.size)
    with open(path, "wb") as f:
        f.write(json.dumps(head, sort_keys=True).encode() + b"\n")
        f.write(payload.tobytes())


def read_blob(path) -> tuple[dict, np.ndarray]:
    path = Path(path)
    with open(path, "rb") as f:
        header = _json_object(f.readline(), f"{path}: blob header", ParseError)
        count = header.get("count")
        if type(count) is not int:
            raise ParseError(f"{path}: blob header 'count' must be an integer, "
                             f"got {count!r}")
        payload = f.read()
    if count < 0 or len(payload) != 4 * count:
        raise ParseError(
            f"{path}: payload {len(payload)} bytes, header promises {4 * count}")
    return header, np.frombuffer(payload, dtype="<f4").copy()


def write_mlp_weights(path, weights: MlpWeights) -> None:
    write_blob(path, {"kind": "mlp_weights", "dims": list(weights.dims)}, weights.flat)


def _positive_int(n) -> bool:
    """A JSON integer above 0 (bools and floats such as 2.0 are not)."""
    return type(n) is int and n > 0


def _read_dims_blob(path, kind: str, what: str, how_many: str, count_ok):
    """(header, payload, dims) of a `kind` blob whose `dims` lists `how_many`
    positive integers (a count that passes `count_ok`); else a ParseError."""
    header, data = read_blob(path)
    if header.get("kind") != kind:
        raise ParseError(f"{path}: not {what} blob")
    dims = header.get("dims")
    if not (isinstance(dims, list) and count_ok(len(dims)) and all(map(_positive_int, dims))):
        raise ParseError(f"{path}: 'dims' must list {how_many} positive integers, "
                         f"got {dims!r}")
    return header, data, dims


def _check_count(path, dims, per_cell: int, data) -> None:
    """A ParseError unless `per_cell` values per cell of `dims` fill the payload."""
    count = per_cell * math.prod(dims)
    if count != data.size:
        raise ParseError(f"{path}: 'dims' {dims} need {count} values, "
                         f"the payload holds {data.size}")


def read_mlp_weights(path) -> MlpWeights:
    """Load an MLP weight blob.  Its header needs `dims`, a list of at least
    two positive integers whose parameter count is the payload's value
    count; anything else is a ParseError naming the file."""
    _, data, dims = _read_dims_blob(path, "mlp_weights", "an MLP weight", "at least two",
                                    lambda n: n >= 2)
    try:
        return MlpWeights(tuple(dims), data.astype(np.float64))
    except ContractError as e:
        raise ParseError(f"{path}: {e}") from None


def write_grid_light(path, gl: GridLight) -> None:
    write_blob(path, {"kind": "grid_light", "dims": list(gl.values.shape[:5]),
                      "bounds": gl.bounds.tolist()}, gl.values.ravel())


def read_grid_light(path) -> GridLight:
    """Load a grid light blob.  Its header needs `dims`, five positive
    integers whose product times 3 is the payload's value count, and
    `bounds`, a finite (2, 3) array with lo <= hi on every axis; anything
    else is a ParseError naming the file."""
    header, data, dims = _read_dims_blob(path, "grid_light", "a grid light", "five",
                                         lambda n: n == 5)
    _check_count(path, dims, 3, data)
    try:
        return GridLight(data.astype(np.float64).reshape(*dims, 3), header.get("bounds"))
    except ContractError as e:
        raise ParseError(f"{path}: {e}") from None


def write_feature_grid(path, grid: FeatureGrid) -> None:
    write_blob(path, {"kind": "feature_grid", "dims": list(grid.data.shape)}, grid.data)


def read_feature_grid(path) -> FeatureGrid:
    """Load a feature grid blob.  Its header needs `dims`, three positive
    integers (H, W, C) whose product is the payload's value count; anything
    else, or a value that is not finite, is a ParseError naming the file."""
    _, data, dims = _read_dims_blob(path, "feature_grid", "a feature grid", "three",
                                    lambda n: n == 3)
    _check_count(path, dims, 1, data)
    try:
        return FeatureGrid(data.astype(np.float64).reshape(dims))
    except ContractError as e:
        raise ParseError(f"{path}: {e}") from None


# ---------------------------------------------------------------------------
# G-buffer bundles


_MAP_NAMES = ("albedo", "normal", "depth", "roughness", "metallic")


@dataclass
class Bundle:
    """Everything a render needs, loaded from one directory."""

    path: Path
    gbuffer: GBuffer
    camera: Camera
    specular_scale: float = 1.0
    lighting_spec: dict | None = None
    feature_grid: FeatureGrid | None = None
    decoder_weights: MlpWeights | None = None
    volume_weights: MlpWeights | None = None
    target: ImageBuffer | None = None

    def light_field(self) -> LightField | None:
        """The light the lighting spec declares; a grid spec's `path` names
        a grid light file in the bundle, read here."""
        if self.lighting_spec is None:
            return None
        spec = self.lighting_spec
        if spec["kind"] == "grid":
            return read_grid_light(self.path / spec["path"])
        return analytic_lightfield(**spec)


def _optional_files() -> dict:
    """Manifest key -> (the file name write_bundle gives it, its reader, its
    writer), in the order write_bundle lists them in bundle.json.  Built on
    each call, so it holds the module's functions as bound at that time
    (perfbench's probes rebind `read_pfm`)."""
    return {"target": ("target.pfm", read_pfm, write_pfm),
            "feature_grid": ("features.blob", read_feature_grid, write_feature_grid),
            "decoder_weights": ("decoder.weights", read_mlp_weights, write_mlp_weights),
            "volume_weights": ("volume.weights", read_mlp_weights, write_mlp_weights)}


def _path_value(value, where: str, default=None):
    """A file name from the manifest: absent or null gives `default`, and
    anything but a string is a BundleError naming `where`."""
    if value is None:
        return default
    if not isinstance(value, str):
        raise BundleError(f"{where} must be a file name string, got {value!r}")
    return value


def read_bundle(directory) -> Bundle:
    """Load a bundle; a missing, malformed or mistyped piece is a
    BundleError naming the file and, where there is one, the key."""
    directory = Path(directory)
    if not directory.is_dir():
        raise BundleError(f"bundle directory {directory} does not exist")
    manifest = {}
    mpath = directory / "bundle.json"
    if mpath.exists():
        manifest = _read_json_object(mpath, BundleError)

    overrides = manifest.get("maps", {})
    if not isinstance(overrides, dict):
        raise BundleError(f"{mpath}: 'maps' must be a JSON object, got {overrides!r}")
    optional = _optional_files()
    files = {key: _path_value(manifest.get(key), f"{mpath}: {key!r}") for key in optional}

    maps = {}
    for name in _MAP_NAMES:
        rel = _path_value(overrides.get(name), f"{mpath}: 'maps.{name}'", f"{name}.pfm")
        fpath = directory / rel
        if not fpath.exists():
            raise BundleError(f"missing map: {rel}")
        img = read_pfm(fpath)
        try:
            maps[name] = img, img.data if name in ("albedo", "normal") else img.plane()
        except ContractError as e:
            raise BundleError(f"{fpath}: {e}") from None

    cam_file = directory / _path_value(manifest.get("camera"), f"{mpath}: 'camera'",
                                       "camera.json")
    if not cam_file.exists():
        raise BundleError("missing camera.json")
    cam = _read_json_object(cam_file, BundleError)
    try:
        camera = Camera.from_dict(cam)
    except KeyError as e:
        raise BundleError(f"{cam_file}: missing key {e.args[0]!r}") from None
    except (TypeError, ValueError) as e:
        raise BundleError(f"{cam_file}: {e}") from None

    dims = {name: (img.width, img.height) for name, (img, _) in maps.items()}
    base = dims["depth"]
    for name, wh in dims.items():
        if wh != base:
            raise BundleError(f"map dimensions disagree: {name} is {wh}, depth is {base}")
    if (camera.width, camera.height) != base:
        raise BundleError("camera dimensions disagree with the maps")

    g = GBuffer(**{name: array for name, (_, array) in maps.items()})

    lighting_spec = manifest.get("lighting")
    if lighting_spec is not None and not (isinstance(lighting_spec, dict)
                                          and "kind" in lighting_spec):
        raise BundleError(f"{mpath}: the lighting spec needs a 'kind' key")
    if lighting_spec is not None and lighting_spec["kind"] == "grid":
        if _path_value(lighting_spec.get("path"), f"{mpath}: 'lighting.path'") is None:
            raise BundleError(f"{mpath}: a 'grid' lighting spec needs 'path', "
                              f"the name of its grid light file")
    # its sign is RenderConfig's to check
    specular_scale = finite_number(manifest.get("specular_scale", 1.0))
    if specular_scale is None:
        raise BundleError(f"{mpath}: 'specular_scale' must be a finite number, "
                          f"got {manifest['specular_scale']!r}")

    return Bundle(path=directory, gbuffer=g, camera=camera,
                  specular_scale=specular_scale, lighting_spec=lighting_spec,
                  **{key: optional[key][1](directory / rel)
                     for key, rel in files.items() if rel})


def write_bundle(directory, gbuffer: GBuffer, camera: Camera,
                 lighting_spec: dict | None = None, specular_scale: float = 1.0,
                 extras: dict | None = None) -> Path:
    """Write a bundle directory; `extras` maps manifest keys to arrays or
    objects that are serialized next to the maps."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for name in _MAP_NAMES:
        write_pfm(directory / f"{name}.pfm", getattr(gbuffer, name))
    (directory / "camera.json").write_text(json.dumps(camera.to_dict(), indent=2))

    manifest: dict = {"specular_scale": specular_scale}
    if lighting_spec is not None:
        manifest["lighting"] = lighting_spec
    extras = extras or {}
    for key, (name, _, write) in _optional_files().items():
        if key in extras:
            write(directory / name, extras[key])
            manifest[key] = name
    if "grid_light" in extras:
        write_grid_light(directory / "light.grid", extras["grid_light"])
        manifest["lighting"] = {"kind": "grid", "path": "light.grid"}
    (directory / "bundle.json").write_text(json.dumps(manifest, indent=2))
    return directory


def write_loss_trace(path, rows: list[dict]) -> None:
    """CSV loss trace: iteration, loss, then per-parameter summary columns."""
    if not rows:
        Path(path).write_text("iteration,loss\n")
        return
    cols = list(rows[0].keys())
    lines = [",".join(cols)]
    for row in rows:
        lines.append(",".join(f"{row[c]:.10g}" if isinstance(row[c], float)
                              else str(row[c]) for c in cols))
    Path(path).write_text("\n".join(lines) + "\n")
