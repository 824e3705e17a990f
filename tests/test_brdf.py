import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from oracles import chi_square_sampler, sphere_pdf_integral, white_furnace_estimate
from ssdr import brdf
from ssdr.core import ContractError, dot, normalize
from ssdr.sampling import SamplerState, uniform_block

N_UP = np.array([0.0, 0.0, 1.0])
V30 = normalize(np.array([0.5, 0.0, np.sqrt(3) / 2]))


def test_diffuse_value_exact():
    params = brdf.BrdfParams(albedo=(0.9, 0.9, 0.9), roughness=1.0,
                             metallic=0.0, specular=0.0)
    f = brdf.eval(V30, N_UP, N_UP, params)
    assert np.allclose(f, 0.9 / np.pi, atol=1e-12)


def test_metal_has_no_diffuse():
    params = brdf.BrdfParams(albedo=(0.8, 0.2, 0.1), roughness=0.6, metallic=1.0)
    rng = np.random.default_rng(0)
    for _ in range(32):
        d = normalize(rng.normal(size=3) * [1, 1, 1] + [0, 0, 1.5])
        if d[2] <= 0:
            continue
        full = brdf.eval(V30, d, N_UP, params)
        spec_only = brdf.eval(V30, d, N_UP, brdf.BrdfParams(
            albedo=(0.8, 0.2, 0.1), roughness=0.6, metallic=1.0, specular=1.0))
        assert np.allclose(full, spec_only)
    # and with the microfacet term off a metal reflects nothing at all
    dark = brdf.eval(V30, N_UP, N_UP, brdf.BrdfParams(
        albedo=(0.8, 0.2, 0.1), roughness=0.6, metallic=1.0, specular=0.0))
    assert np.allclose(dark, 0.0)


def test_eval_below_horizon_zero():
    params = brdf.BrdfParams(albedo=(0.5, 0.5, 0.5), roughness=0.4, metallic=0.3)
    d = normalize(np.array([0.3, 0.1, -0.8]))
    assert np.allclose(brdf.eval(V30, d, N_UP, params), 0.0)


def test_eval_rejects_non_unit():
    params = brdf.BrdfParams(albedo=(0.5, 0.5, 0.5), roughness=0.4, metallic=0.0)
    with pytest.raises(ContractError):
        brdf.eval(np.array([0.0, 0.0, 2.0]), N_UP, N_UP, params)


@pytest.mark.parametrize("roughness", [0.1, 0.5, 1.0])
def test_white_furnace_bound(roughness):
    params = brdf.BrdfParams(albedo=(1.0, 1.0, 1.0), roughness=roughness,
                             metallic=1.0)
    mean, se = white_furnace_estimate(params, V30, N_UP, n_samples=200_000, seed=17)
    assert np.all(mean <= 1.0 + 3.0 * se)
    assert np.all(mean > 0.3)  # sanity: a white metal does reflect


def test_pure_diffuse_pdf_closed_form():
    assert np.isclose(float(brdf.diffuse_pdf(N_UP, N_UP)), 1.0 / np.pi)
    params = brdf.BrdfParams(albedo=(0.7, 0.7, 0.7), roughness=1.0,
                             metallic=0.0, specular=0.0)
    assert np.isclose(float(brdf.pdf(V30, N_UP, N_UP, params)), 1.0 / np.pi)
    rng = np.random.default_rng(1)
    d = normalize(rng.normal(size=(64, 3)) + [0, 0, 2.0])
    assert np.allclose(brdf.pdf(V30, d, N_UP, params),
                       np.maximum(d[:, 2], 0.0) / np.pi)


def test_pdf_below_horizon_zero():
    params = brdf.BrdfParams(albedo=(0.7, 0.7, 0.7), roughness=0.5, metallic=0.5)
    d = normalize(np.array([0.1, 0.2, -0.9]))
    assert float(brdf.pdf(V30, d, N_UP, params)) == 0.0


@pytest.mark.parametrize("roughness,metallic",
                         [(0.1, 0.0), (0.1, 1.0), (0.5, 0.5), (1.0, 0.0), (1.0, 1.0)])
def test_sampling_density_normalization(roughness, metallic):
    params = brdf.BrdfParams(albedo=(0.7, 0.6, 0.5), roughness=roughness,
                             metallic=metallic)
    integral = sphere_pdf_integral(params, V30, N_UP, seed=123, cells=(500, 500))
    assert abs(integral - 1.0) < 0.01


def test_sample_pdf_consistency():
    rng = np.random.default_rng(4)
    checked = 0
    for k in range(300):
        params = brdf.BrdfParams(albedo=rng.uniform(0.05, 1.0, 3),
                                 roughness=rng.uniform(0.02, 1.0),
                                 metallic=rng.uniform(0.0, 1.0))
        n = normalize(rng.normal(size=3))
        v = normalize(rng.normal(size=3))
        if dot(v, n) <= 0.05:
            continue
        s = brdf.sample(v, n, params, SamplerState(seed=k, pixel=1, sample=2))
        if s.pdf == 0.0:
            continue
        direct = float(brdf.pdf(v, s.direction, n, params))
        assert abs(s.pdf - direct) / direct <= 1e-6
        checked += 1
    assert checked > 100


def test_smooth_roughness_mirror_limit():
    params = brdf.BrdfParams(albedo=(0.9, 0.9, 0.9), roughness=0.01, metallic=1.0)
    mirror = 2.0 * dot(V30, N_UP) * N_UP - V30
    u = uniform_block(9, np.arange(2000, dtype=np.uint64), 0, 3)
    d, spec, ok = brdf.sample_directions(V30, N_UP, params.albedo, params.roughness,
                                         params.metallic, params.specular, u)
    assert spec.all()
    ang = np.arccos(np.clip(d[ok] @ mirror, -1, 1))
    assert np.mean(ang < 1e-2) >= 0.99


def test_invalid_samples_reported_with_zero_pdf():
    # grazing view on a rough metal mirrors many samples below the horizon
    v = normalize(np.array([0.995, 0.0, 0.0999]))
    params = brdf.BrdfParams(albedo=(0.9, 0.9, 0.9), roughness=0.9, metallic=1.0)
    seen_invalid = 0
    for k in range(200):
        s = brdf.sample(v, N_UP, params, SamplerState(seed=k))
        if s.pdf == 0.0:
            seen_invalid += 1
            assert np.all(s.value == 0.0)
    assert seen_invalid > 10  # the caller must be able to skip them


def test_metal_always_specular_lobe():
    params = brdf.BrdfParams(albedo=(0.3, 0.3, 0.3), roughness=0.4, metallic=1.0)
    u = uniform_block(11, np.arange(512, dtype=np.uint64), 0, 3)
    _, spec, _ = brdf.sample_directions(V30, N_UP, params.albedo, params.roughness,
                                        params.metallic, params.specular, u)
    assert spec.all()


def test_chi_square_sampler_agreement():
    params = brdf.BrdfParams(albedo=(0.6, 0.6, 0.6), roughness=0.5, metallic=0.5)
    stat, dof = chi_square_sampler(params, V30, N_UP, n_samples=100_000, seed=2024)
    assert stat < stats.chi2.ppf(0.95, dof)


def test_specular_reciprocity():
    rng = np.random.default_rng(8)
    params = brdf.BrdfParams(albedo=(0.7, 0.5, 0.4), roughness=0.35, metallic=1.0)
    for _ in range(64):
        n = normalize(rng.normal(size=3))
        v = normalize(rng.normal(size=3))
        d = normalize(rng.normal(size=3))
        if dot(v, n) <= 1e-3 or dot(d, n) <= 1e-3:
            continue
        assert np.allclose(brdf.eval(v, d, n, params), brdf.eval(d, v, n, params),
                           rtol=1e-10, atol=1e-12)


@given(st.floats(0.01, 1.0), st.floats(0.0, 1.0))
@settings(max_examples=60, deadline=None)
def test_eval_pdf_continuous_in_material(roughness, metallic):
    d = normalize(np.array([0.4, -0.2, 0.6]))
    eps = 1e-5
    params = brdf.BrdfParams(albedo=(0.6, 0.6, 0.6), roughness=roughness,
                             metallic=metallic)
    base_f = brdf.eval(V30, d, N_UP, params)
    base_p = float(brdf.pdf(V30, d, N_UP, params))
    bumped = brdf.BrdfParams(albedo=(0.6, 0.6, 0.6),
                             roughness=min(roughness + eps, 1.0),
                             metallic=min(metallic + eps, 1.0))
    assert np.all(np.abs(brdf.eval(V30, d, N_UP, bumped) - base_f) < 1e-2)
    assert abs(float(brdf.pdf(V30, d, N_UP, bumped)) - base_p) < 1e-2


def test_finite_difference_partials_exist():
    # derivative stencils stay finite across the roughness floor
    params = lambda r: brdf.BrdfParams(albedo=(0.6, 0.6, 0.6), roughness=r,
                                       metallic=0.7)
    d = normalize(np.array([0.2, 0.1, 0.95]))
    for r in (0.01, 0.05, 0.5, 0.99):
        lo = brdf.eval(V30, d, N_UP, params(max(r - 1e-6, 0.0)))
        hi = brdf.eval(V30, d, N_UP, params(r + 1e-6))
        assert np.all(np.isfinite((hi - lo) / 2e-6))


@pytest.mark.parametrize("specular", [0.0, 1.0])
def test_adjoint_pdf_is_the_forward_pdf_bytes(specular):
    """The adjoint's pdf is the forward's, bit for bit, on sampled
    directions: a render's sample tape gates its light query with the
    forward pdf, and the adjoint that reads the tape relies on the gate."""
    rng = np.random.default_rng(0)
    m = 20000
    n = normalize(rng.normal(size=(m, 3)))
    v = normalize(n + 0.8 * rng.normal(size=(m, 3)))
    albedo = rng.uniform(0.0, 1.0, (m, 3))
    albedo[: m // 4] = 0.0
    roughness = rng.uniform(0.0, 1.0, m)
    roughness[: m // 8] = 0.0
    metallic = rng.uniform(0.0, 1.0, m)
    metallic[m // 4: m // 2] = 1.0
    u = uniform_block(3, np.arange(m, dtype=np.uint64), 0, 3)
    args = (n, albedo, roughness, metallic, specular)
    d, _, valid = brdf.sample_directions(v, *args, u)
    forward = brdf.mixture_pdf(v, d, *args)
    adjoint = brdf.eval_pdf_with_partials(v, d, *args)["pdf"]
    assert np.count_nonzero(valid) > m // 2
    assert forward[valid].tobytes() == adjoint[valid].tobytes()


def _smooth_lanes(count, rng):
    """`count` random lanes away from every kink of f and the pdf: cos_nv,
    cos_nd, cos_nm and v.m above 0.2, roughness in (0.05, 0.95) and each
    channel's F0 at least 0.005 from the F90 clamp's 0.02."""
    lanes = []
    while sum(len(x[0]) for x in lanes) < count:
        m = 4 * count
        n = normalize(rng.normal(size=(m, 3)))
        v = normalize(n + 0.8 * rng.normal(size=(m, 3)))
        d = normalize(n + 0.8 * rng.normal(size=(m, 3)))
        albedo = rng.uniform(0.0, 1.0, (m, 3))
        roughness = rng.uniform(0.05, 0.95, m)
        metallic = rng.uniform(0.0, 1.0, m)
        h = normalize(v + d)
        f0 = brdf.f0_of(albedo, metallic)
        keep = ((dot(n, v) > 0.2) & (dot(n, d) > 0.2) & (dot(n, h) > 0.2)
                & (dot(v, h) > 0.2) & np.all(np.abs(f0 - 0.02) > 0.005, axis=-1))
        lanes.append(tuple(a[keep] for a in (v, d, n, albedo, roughness, metallic)))
    return tuple(np.concatenate(parts)[:count] for parts in zip(*lanes))


@pytest.mark.parametrize("specular", [0.5, 1.0])
def test_partials_match_central_differences(specular):
    """Every partial `eval_pdf_with_partials` returns, the normal's rebuilt
    from its rank-one factors, is the central difference of `_eval_raw`
    (f) and `mixture_pdf` (pdf), on 256 lanes away from the kinks.  The
    directions are held fixed and n is perturbed as a free 3-vector, as
    the render adjoint differentiates it."""
    v, d, n, albedo, roughness, metallic = _smooth_lanes(256, np.random.default_rng(4))
    parts = brdf.eval_pdf_with_partials(v, d, n, albedo, roughness, metallic, specular)
    df_dn = parts["fres"][:, :, None] * parts["dsc_dn"][:, None, :]
    eps = 1e-6

    def central(name, index):
        args = {"v": v, "d": d, "n": n, "albedo": albedo,
                "roughness": roughness, "metallic": metallic}
        out = []
        for sign in (1.0, -1.0):
            x = args[name].copy()
            x[index] += sign * eps
            a = dict(args, **{name: x})
            call = (a["v"], a["d"], a["n"], a["albedo"], a["roughness"], a["metallic"],
                    specular)
            out.append((brdf._eval_raw(*call), brdf.mixture_pdf(*call)))
        (f_hi, p_hi), (f_lo, p_lo) = out
        return (f_hi - f_lo) / (2 * eps), (p_hi - p_lo) / (2 * eps)

    def close(fd, adj):
        assert np.allclose(fd, adj, rtol=1e-5, atol=1e-6 * (1.0 + np.abs(adj).max()))

    everything = np.s_[:]
    for name, df, dpdf in (("roughness", parts["df_dR"], parts["dpdf_dR"]),
                           ("metallic", parts["df_dM"], parts["dpdf_dM"])):
        fd_f, fd_p = central(name, everything)
        close(fd_f, df)
        close(fd_p, dpdf)
    for c in range(3):
        fd_f, fd_p = central("albedo", (everything, c))
        close(fd_f[:, c], parts["df_dA"][:, c])
        close(fd_f[:, [k for k in range(3) if k != c]], 0.0)   # diagonal in channels
        close(fd_p, parts["dpdf_dA"][:, c])
        fd_f, fd_p = central("n", (everything, c))
        close(fd_f, df_dn[:, :, c])
        close(fd_p, parts["dpdf_dn"][:, c])


def test_partials_skip_what_is_not_asked():
    """Only the metallic and normal partials are optional; the rest keep
    their bytes whatever is asked."""
    v, d, n, albedo, roughness, metallic = _smooth_lanes(64, np.random.default_rng(5))
    args = (v, d, n, albedo, roughness, metallic, 1.0)
    full = brdf.eval_pdf_with_partials(*args)
    always = {"f", "pdf", "df_dA", "df_dR", "dpdf_dA", "dpdf_dR"}
    extra = {"metallic": {"df_dM", "dpdf_dM"}, "normal": {"fres", "dsc_dn", "dpdf_dn"}}
    assert set(full) == always | extra["metallic"] | extra["normal"]
    for params in ((), ("albedo", "roughness"), ("metallic",), ("normal", "light")):
        some = brdf.eval_pdf_with_partials(*args, params)
        want = always.union(*(extra.get(p, set()) for p in params))
        assert set(some) == want
        for key in want:
            assert some[key].tobytes() == full[key].tobytes(), key


def test_partials_outside_the_f90_clamp_keep_their_bytes():
    """The F90 clamp's term of dF/dF0 is formed only when some F0 lies in
    (0, 0.02): the lanes outside the clamp have the same bytes in a call
    that has lanes inside it and in one that has none."""
    v, d, n, albedo, roughness, metallic = _smooth_lanes(256, np.random.default_rng(6))
    f0 = brdf.f0_of(albedo, metallic)
    inside = np.any((f0 > 0) & (f0 < 0.02), axis=-1)
    assert 0 < np.count_nonzero(inside) < inside.size

    def partials(lanes):
        return brdf.eval_pdf_with_partials(v[lanes], d[lanes], n[lanes], albedo[lanes],
                                           roughness[lanes], metallic[lanes], 1.0)

    mixed, outside = partials(np.s_[:]), partials(~inside)
    assert set(mixed) == set(outside)
    for key in mixed:
        assert mixed[key][~inside].tobytes() == outside[key].tobytes(), key
