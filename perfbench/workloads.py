"""The four benchmark workloads: how each one's inputs are generated from a
seed, how the workload process sets itself up from those inputs, and what
one operation is.

Inputs are generated by the benchmark (`make_inputs`) and written as an
ssdr bundle with `ssdr.io.write_bundle` before the workload process starts;
the workload process receives only that bundle.  The ground truth the
outputs are checked against is not computed by the program under test: it
is read from `perfbench/truth/` (`load_truth`), frozen by `freeze.py`.
"""

from __future__ import annotations

import hashlib
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                    # "render" or "fit"
    scene: str
    res: int
    spp: int
    lighting: str                # "grid", "bundle" (analytic spec) or "learned"
    parallel: bool = False       # render at min(2, nproc) threads
    params: tuple[str, ...] = ()
    step: float = 0.0
    iterations: int = 0          # optimize iterations per fit episode
    target_spp: int = 0
    start: dict = field(default_factory=dict)
    pool: int = 1                # inputs (light, target) repeat with seed % pool
    reference_cells: tuple[int, int] = (0, 0)   # frozen render references
    # The image checked against the frozen image -- the warm-up render
    # against the reference for renders, the program's own render of the
    # true maps against the target for fits -- must stay within this RMSE
    # over rms(frozen) and this |mean / mean(frozen) - 1|.
    rmse_rel_max: float = 0.0
    bias_max: float = 0.0
    loss_ratio_max: float = 1.0  # fit_loss_ratio must stay below
    tol_fraction: float = 0.0    # fit-analytic: loss < this * loss[0] is "solved"
    expected_spans: frozenset = frozenset()

    @property
    def specular_scale(self) -> float:
        return 0.0 if self.scene == "cornell-like" else 1.0

    def threads(self, nproc: int) -> int:
        return min(2, nproc) if self.parallel else 1

    @property
    def light_choice(self) -> str | None:
        """The `--lighting` choice the light is resolved with."""
        return {"grid": "grid", "bundle": None, "learned": "learned"}[self.lighting]


_SETUP_SPANS = {"io.read_bundle", "io.read_pfm", "core.validate_gbuffer",
                "cli.resolve_light"}
_FORWARD_SPANS = {"sampling.uniform_block", "brdf.sample_directions",
                  "brdf.mixture_pdf", "brdf.eval_raw", "light.radiance",
                  "render.render_mc"}
_FIT_SPANS = {"brdf.eval_pdf_with_partials", "render.render_backward",
              "inverse.optimize", "inverse.loss_rerender"}
_LEARNED_SPANS = {"io.read_blob", "lighting.traced_radiance_batch",
                  "lighting.decoder_inputs", "lighting.positional_encoding",
                  "ssrt.trace_batch", "volumetric.volume_render_batch",
                  "volumetric.composite", "mlp.forward"}
_LEARNED_FIT_SPANS = {"light.backprop", "mlp.backward",
                      "volumetric.volume_render_backward",
                      "volumetric.composite_backward"}

WORKLOADS = {w.name: w for w in (
    Workload("render-grid", "render", "glossy-floor", 64, 64, "grid",
             parallel=True, reference_cells=(16, 32), rmse_rel_max=0.05, bias_max=0.01,
             expected_spans=frozenset(_SETUP_SPANS | _FORWARD_SPANS | {"io.read_blob"})),
    Workload("fit-analytic", "fit", "glossy-floor", 32, 64, "bundle",
             params=("albedo", "roughness"), step=0.05, iterations=10,
             target_spp=256, start={"albedo": 0.5, "roughness": 0.4},
             rmse_rel_max=0.5, bias_max=0.04, loss_ratio_max=0.5, tol_fraction=0.4,
             expected_spans=frozenset(_SETUP_SPANS | _FORWARD_SPANS | _FIT_SPANS)),
    Workload("render-learned", "render", "two-plane", 12, 4, "learned",
             pool=16, reference_cells=(8, 16), rmse_rel_max=0.25, bias_max=0.06,
             expected_spans=frozenset(_SETUP_SPANS | _FORWARD_SPANS | _LEARNED_SPANS)),
    Workload("fit-learned", "fit", "cornell-like", 8, 4, "learned",
             params=("albedo", "light"), step=0.001, iterations=4,
             target_spp=32, start={"albedo": 0.5}, pool=16, rmse_rel_max=0.15,
             bias_max=0.04, loss_ratio_max=0.95,
             expected_spans=frozenset(_SETUP_SPANS | _FORWARD_SPANS | _FIT_SPANS
                                      | _LEARNED_SPANS | _LEARNED_FIT_SPANS)),
)}

FEATURE_CHANNELS = 8
POSITION_BANDS = 10
GRID_SHAPE = (4, 4, 4, 8, 16)


def derived_seed(seed: int, stream: int) -> int:
    """Independent child seed of the workload seed, one per input stream."""
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


def seeds(w: Workload, seed: int) -> dict:
    """Every seed the workload uses, derived from the one on the command line.
    The inputs (light weights and jitter, target) come from `seed % pool`,
    so that their ground truth can be frozen; the operations use the seed
    itself."""
    pool = seed % w.pool
    out = {"workload": seed, "render": seed, "inputs": pool, "light": pool}
    if w.kind == "fit":
        out["target"] = derived_seed(pool, 1)
    if w.lighting == "learned":
        out.update(features=derived_seed(pool, 2), decoder=derived_seed(pool, 3),
                   volume=derived_seed(pool, 4))
    return out


TRUTH_DIR = Path(__file__).resolve().parent / "truth"
QUERIES = 64            # fixed lanes the light and the BRDF are checked at
QUERIES_RTOL = 1e-4     # their outputs must repeat to this, element by element


def load_truth(w: Workload, seed: int) -> dict:
    """The frozen ground truth of the workload's inputs at this seed:
    "image" (the quadrature reference for renders, the target for fits)
    and the `query_outputs`."""
    prefix = f"{seed % w.pool}_"
    with np.load(TRUTH_DIR / f"{w.name}.npz") as data:
        return {k[len(prefix):]: data[k].astype(np.float64) for k in data.files
                if k.startswith(prefix)}


# ---------------------------------------------------------------------------
# input generation (benchmark side, before the workload process starts)


def _analytic(spec):
    from ssdr.lighting import analytic_lightfield
    return analytic_lightfield(spec["kind"], **{k: v for k, v in spec.items()
                                                if k != "kind"})


def _grid_light_from(light, g, camera):
    """GridLight over the visible surface points' bounding box, holding the
    analytic light's radiance at every grid node."""
    from ssdr.lighting import GridLight
    from ssdr.render import pixel_geometry
    points, _, valid = pixel_geometry(g, camera)
    bounds = np.stack([points[valid].min(axis=0), points[valid].max(axis=0)])
    probe = GridLight(np.zeros(GRID_SHAPE + (3,)), bounds)
    nodes = np.indices(GRID_SHAPE).reshape(5, -1).T
    pos, dirs = zip(*(probe.node_position(tuple(i)) for i in nodes))
    values = light.radiance(np.array(pos), np.array(dirs))
    return GridLight(values.reshape(GRID_SHAPE + (3,)), bounds)


def _learned_extras(s: dict, res: int) -> dict:
    from ssdr.lighting import FeatureGrid, default_decoder_dims
    from ssdr.mlp import MlpWeights
    from ssdr.volumetric import default_field_dims
    rng = np.random.default_rng(s["features"])
    return {
        "feature_grid": FeatureGrid(rng.uniform(0.0, 1.0, (res, res, FEATURE_CHANNELS))),
        "decoder_weights": MlpWeights.random(default_decoder_dims(FEATURE_CHANNELS),
                                             s["decoder"]),
        "volume_weights": MlpWeights.random(default_field_dims(POSITION_BANDS),
                                            s["volume"]),
    }


def write_bundle(w: Workload, seed: int, bundle_dir: Path, target=None):
    """Write the workload's bundle (start maps, light, and `target` if
    given); return the true maps, the camera and the light resolved from
    the bundle."""
    from ssdr import cli, io, scenes

    s = seeds(w, seed)
    g, camera, spec, _ = scenes.make_scene(w.scene, w.res, w.res)
    extras = {}
    if w.lighting == "grid":
        extras["grid_light"] = _grid_light_from(_analytic(spec), g, camera)
    elif w.lighting == "learned":
        extras.update(_learned_extras(s, w.res))
    if target is not None:
        extras["target"] = target.astype(np.float32)
    start = g.copy()
    for name, value in w.start.items():
        getattr(start, name)[...] = value
    io.write_bundle(bundle_dir, start, camera, lighting_spec=spec,
                    specular_scale=w.specular_scale, extras=extras)
    bundle = io.read_bundle(bundle_dir)
    return g, camera, cli.resolve_light(bundle, w.light_choice, seed=s["light"])


def render_target(w: Workload, seed: int, g, camera, light) -> np.ndarray:
    """A fit's target: the true maps rendered at target_spp, another seed."""
    from ssdr.render import RenderConfig, render_mc
    return render_mc(g, camera, light, RenderConfig(
        spp=w.target_spp, seed=seeds(w, seed)["target"], specular_scale=w.specular_scale))


def query_outputs(w: Workload, seed: int, g, camera, light) -> dict:
    """Outputs at QUERIES fixed lanes -- visible pixels and uniforms drawn
    from the pool seed -- free of Monte Carlo noise, so they are checked
    tightly: the BRDF's sampled-direction value, pdf and material partials
    (`sample_directions`, `_eval_raw`, `mixture_pdf`,
    `eval_pdf_with_partials`, as render and its backward call them); the
    light's radiance in directions on the normals' hemisphere; and, for
    fits that write the light, its parameter adjoints there under a random
    radiance adjoint, projected on 16 random directions (the full vector
    has some 50k entries)."""
    from ssdr import brdf
    from ssdr.render import pixel_geometry
    points, view, valid = pixel_geometry(g, camera)
    rng = np.random.default_rng(derived_seed(seed % w.pool, 5))
    pick = tuple(np.argwhere(valid)[rng.integers(0, np.count_nonzero(valid), QUERIES)].T)
    p, v, n = points[pick], view[pick], g.normal[pick]
    mat = (g.albedo[pick], g.roughness[pick], g.metallic[pick], w.specular_scale)
    d = brdf.sample_directions(v, n, *mat, rng.random((QUERIES, 3)))[0]
    partials = brdf.eval_pdf_with_partials(v, d, n, *mat)
    out = {"brdf_f": brdf._eval_raw(v, d, n, *mat), "brdf_pdf": brdf.mixture_pdf(v, d, n, *mat),
           "brdf_df_dA": partials["df_dA"], "brdf_df_dR": partials["df_dR"]}
    d = rng.normal(size=(QUERIES, 3))
    d *= np.sign(np.sum(d * n, axis=1, keepdims=True)) / np.linalg.norm(d, axis=1, keepdims=True)
    out["radiance"] = light.radiance(p, d)
    if "light" in w.params:
        adjoint = light.backprop(p, d, rng.normal(size=(QUERIES, 3)))
        out["backprop"] = rng.normal(size=(16, adjoint.size)) @ adjoint
    return out


def make_inputs(w: Workload, seed: int, bundle_dir: Path) -> dict:
    """Write the workload's bundle, with the frozen target for fits, and
    return the program's outputs that are checked against the frozen truth:
    `query_outputs` and, for fits, its own render of the true maps
    ("image", made the way the target was)."""
    target = load_truth(w, seed)["image"] if w.kind == "fit" else None
    g, camera, light = write_bundle(w, seed, bundle_dir, target)
    out = query_outputs(w, seed, g, camera, light)
    if w.kind == "fit":
        out["image"] = render_target(w, seed, g, camera, light)
    return out


# ---------------------------------------------------------------------------
# workload process side


@dataclass
class Setup:
    bundle: object
    light: object
    target: np.ndarray | None
    light_params: np.ndarray


def setup(w: Workload, bundle_dir, seed: int) -> Setup:
    """What `ssdr render` / `ssdr optimize` do before their first render:
    load and validate the bundle, resolve the light, load the target."""
    from ssdr import cli
    bundle = cli.load_validated_bundle(bundle_dir)
    light = cli.resolve_light(bundle, w.light_choice, seed=seeds(w, seed)["light"])
    target = bundle.target.data if w.kind == "fit" else None
    return Setup(bundle, light, target, light.get_params().copy())


def forward_lanes(w: Workload, st: Setup) -> int:
    """Shaded lanes of one forward pass: valid pixels x spp."""
    from ssdr.render import pixel_geometry
    _, _, valid = pixel_geometry(st.bundle.gbuffer, st.bundle.camera)
    return int(np.count_nonzero(valid)) * w.spp


def render_once(w: Workload, st: Setup, seed: int, threads: int) -> np.ndarray:
    from ssdr import cli
    from ssdr.render import RenderConfig
    cfg = RenderConfig(spp=w.spp, seed=seed, specular_scale=st.bundle.specular_scale)
    return cli.render_mc(st.bundle.gbuffer, st.bundle.camera, st.light, cfg,
                         threads=threads)


# Median time of one Calibrator probe, per thread count, over the 40 runs
# the bounds were set from (2-vCPU Intel Xeon VM, numpy 2.4.6 / OpenBLAS
# 0.3.31, BLAS at 1 thread).  Normalized times read as seconds on that
# machine at its median speed.
CALIB_REF_S = {1: 12e-3, 2: 15e-3}


class Calibrator:
    """Machine-speed probe.  The VMs this runs on change core speed by up
    to half within seconds (a fixed NumPy loop's CPU time tracks its wall
    time, so it is not time slicing), which moves a per-run median by more
    than any bound worth setting.  Each operation is bracketed by this
    fixed kernel -- transcendental ufuncs on a 1 MiB array and a small
    GEMM, like ssdr's hot loops -- run on as many threads as the operation
    uses, and its time is scaled by CALIB_REF_S / (mean probe time).  Two
    commits compared this way run the same kernel, so only ssdr's own time
    differs.  All buffers are allocated up front (about 5 MiB), so the
    probe adds a constant to the process's peak RSS, not a varying one."""

    def __init__(self, max_threads: int):
        rng = np.random.default_rng(0)
        self._a = rng.random(1 << 17)
        self._m = rng.random((512, 64))
        self._w = rng.random((64, 64))
        self._bufs = [(np.empty_like(self._a), np.empty_like(self._a), np.empty((512, 64)))
                      for _ in range(max_threads)]
        self._pool = ThreadPoolExecutor(max_threads) if max_threads > 1 else None
        for i in range(max_threads):     # fault the buffers in before any probe
            self._kernel(i)

    def _kernel(self, i: int) -> None:
        a, (b, c, g) = self._a, self._bufs[i]
        for _ in range(4):
            np.sin(a, out=b)
            np.exp(a, out=c)
            np.multiply(b, c, out=b)
            np.matmul(self._m, self._w, out=g)
            np.logaddexp(0.0, g, out=g)
            np.multiply(a, a, out=c)
            np.add(c, 1.0, out=c)
            np.sqrt(c, out=c)

    def __call__(self, threads: int = 1) -> float:
        """Seconds for one probe on `threads` threads at once."""
        t0 = time.perf_counter()
        if threads == 1:
            self._kernel(0)
        else:
            list(self._pool.map(self._kernel, range(threads)))
        return time.perf_counter() - t0

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()


class IterationClock:
    """Marks the start and end of every optimize iteration at the binding
    optimize calls (`ssdr.inverse.render_mc`), probes the machine speed
    between iterations (outside their timed spans), and keeps the last
    rendered image."""

    def __init__(self, clock, calibrate):
        self.clock = clock
        self.calibrate = calibrate
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.probes: list[float] = []
        self.last_image = None

    def mark(self) -> None:
        """Close the open iteration, if any, then probe the machine."""
        if len(self.ends) < len(self.starts):
            self.ends.append(self.clock())
        self.probes.append(self.calibrate())

    def __enter__(self):
        import ssdr.inverse
        self._inner = inner = ssdr.inverse.render_mc

        def render_mc(*args, **kwargs):
            self.mark()
            self.starts.append(self.clock())
            self.last_image = inner(*args, **kwargs)
            return self.last_image

        ssdr.inverse.render_mc = render_mc
        return self

    def __exit__(self, *exc):
        import ssdr.inverse
        ssdr.inverse.render_mc = self._inner
        return False


def fit_once(w: Workload, st: Setup, seed: int, iterations: int, clock, calibrate):
    """One fit episode from the bundle's start maps and the light's initial
    parameters.  Returns (iteration durations, mean probe time around each
    iteration, losses, last image, digest of the recovered maps and light)."""
    from ssdr import cli
    from ssdr.inverse import LossConfig
    b = st.bundle
    st.light.set_params(st.light_params.copy())   # optimize writes the light in place
    cfg = LossConfig(iterations=iterations, step_size=w.step, params=w.params,
                     spp=w.spp, seed=seed, specular_scale=b.specular_scale)
    with IterationClock(clock, calibrate) as ic:
        result = cli.optimize(b.gbuffer, b.camera, st.light, st.target, cfg, threads=1)
        ic.mark()
    durations = [e - s for s, e in zip(ic.starts, ic.ends)]
    probes = [(ic.probes[i] + ic.probes[i + 1]) / 2 for i in range(len(durations))]
    h = hashlib.sha256(result.losses.tobytes())
    g = result.gbuffer
    for arr in (g.albedo, g.roughness, g.metallic, g.normal, st.light.get_params()):
        h.update(np.ascontiguousarray(arr).tobytes())
    return durations, probes, [float(x) for x in result.losses], ic.last_image, h.hexdigest()


def image_digest(img: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(img).tobytes()).hexdigest()


def environment(nproc: int, blas_threads: int) -> dict:
    import platform
    info = {"nproc": nproc, "python": platform.python_version(),
            "numpy": np.__version__, "blas_threads": blas_threads,
            "git_sha": _git_sha()}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        info["blas"] = "unknown"
    return info


def _git_sha() -> str:
    """HEAD of the checkout, read from .git without running git (the
    benchmark may run in a plain source tree)."""
    head = Path(".git/HEAD")
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return Path(".git", ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"
