"""End-to-end acceptance checks, one per quantitative guarantee.

Each test prints a single pass/fail line (run with -s to see them all
even on success).  Tolerances are fixed here and nowhere else.
"""
import math

import numpy as np
import pytest

from dl_lab.correlations import (ObservableSpec, cone_absorption_check,
                                 decay_profile, distinguishing_measurement,
                                 entropy_gap_check)
from dl_lab.dl import (apply_pyramids, converge, dl_operator,
                       measure_shrinkage, norm_energy_check, pyramid_decompose,
                       step_inequality_margin)
from dl_lab.entanglement import (area_law_certificate,
                                 max_product_overlap, rank_growth, schmidt,
                                 shifted_cut_check, step_entropy_bound,
                                 subset_entropy, tail_bound_check)
from dl_lab.models import ModelDescriptor, build_model, site_observable
from dl_lab.states import ground_space, product_state, random_state, spectrum, \
    gaussian_filter_deviation

from oracles import dense_connected_correlation


def _criterion(num: int, description: str, ok: bool) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {num:02d}: {description}"


def _observable(model, name, site):
    return ObservableSpec((site,), site_observable(name, model.h.sites.d))


def _center_cut(model) -> int:
    return model.h.sites.n // 2


def _center_overlap(model) -> float:
    return max_product_overlap(model.gs.omega, _center_cut(model))[0]


def _center_window_entropy(model) -> float:
    """Entropy of the 4 sites around the centre cut: the window of half-width 2."""
    c = _center_cut(model)
    return subset_entropy(model.gs.omega, range(c - 2, c + 2))


def _delta(model) -> float:
    return min(1.0 - model.a.shrink_bound(model.gs.gap), 1.0 - 1e-12)


def _random_product(sites, seed):
    rng = np.random.default_rng(seed)
    locals_ = []
    for _ in range(sites.n):
        vec = rng.standard_normal(sites.d) + 1j * rng.standard_normal(sites.d)
        locals_.append(vec / np.linalg.norm(vec))
    return product_state(sites, locals_)


@pytest.fixture(scope="module")
def aklt12():
    h = build_model(ModelDescriptor.make("aklt", n=12, periodic=True))
    gs = ground_space(h, spectrum(h))
    return h, gs


# 1 ------------------------------------------------------------------------

def test_c01_shrinkage_bound(corpus):
    ok = True
    for model in corpus:
        measured = measure_shrinkage(model.a, model.gs)
        ok &= measured <= model.a.shrink_bound(model.gs.gap) + 1e-9
        if model.descriptor.name == "pinning":
            ok &= measured <= 1e-12
    _criterion(1, "contraction of the ground complement within the bound", ok)


# 2 ------------------------------------------------------------------------

def test_c02_norm_energy_sweep():
    rng = np.random.default_rng(2024)
    ok = True
    for _ in range(10_000):
        dim = int(rng.integers(2, 33))
        rank_x = int(rng.integers(1, dim))
        rank_y = int(rng.integers(1, dim))
        gx = rng.standard_normal((dim, rank_x)) + 1j * rng.standard_normal((dim, rank_x))
        gy = rng.standard_normal((dim, rank_y)) + 1j * rng.standard_normal((dim, rank_y))
        qx, _ = np.linalg.qr(gx)
        qy, _ = np.linalg.qr(gy)
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        v /= np.linalg.norm(v)
        lhs, rhs = norm_energy_check(qx, qy, v)
        ok &= lhs <= rhs + 1e-10
    # qubit equality case, X = |+><+| and Y = |0><0|: eps = 1/2 and both sides 1/4
    lhs, rhs = norm_energy_check(np.full((2, 1), np.sqrt(0.5)), np.array([[1.0], [0.0]]),
                                 np.array([1.0, 0.0]))
    ok &= abs(lhs - 0.25) <= 1e-12 and abs(rhs - 0.25) <= 1e-12
    _criterion(2, "norm-energy trade-off on 10^4 random projector pairs", ok)


# 3 ------------------------------------------------------------------------

def test_c03_pyramid_identity():
    ok = True
    for n in range(4, 13):
        h = build_model(ModelDescriptor.make("heisenberg-ferro", n=n))
        a = dl_operator(h)
        coverings = pyramid_decompose(a)
        rng = np.random.default_rng(n)
        for _ in range(50):
            psi = random_state(h.sites, rng)
            direct = a.apply(psi).amplitudes
            for dec in coverings:
                redone = apply_pyramids(a, dec, psi).amplitudes
                ok &= float(np.abs(direct - redone).max()) <= 1e-12
    _criterion(3, "pyramid reordering reproduces the operator on chains 4..12", ok)


# 4 ------------------------------------------------------------------------

def test_c04_convergence(unique_1d):
    ok = True
    for model in unique_1d:
        psi = random_state(model.h.sites, 11)
        trace = converge(model.a, model.gs, psi, 20)
        ok &= all(r <= b + 1e-9 for _, r, b in trace.rows())
        ok &= all(b <= a + 1e-14 for a, b in zip(trace.residuals, trace.residuals[1:]))
    _criterion(4, "powers of the operator converge at the bounded rate", ok)


# 5 ------------------------------------------------------------------------

def test_c05_gaussian_filter(corpus):
    ok = True
    for model in corpus:
        spec = spectrum(model.h)
        for q in (1.0, 4.0, 16.0):
            measured = gaussian_filter_deviation(q, model.gs, spectrum_data=spec)
            ok &= measured <= math.exp(-q * model.gs.gap ** 2 / 2.0) + 1e-9
    _criterion(5, "spectral filter approximates the ground projector", ok)


# 6 ------------------------------------------------------------------------

def test_c06_rank_growth(pinning6, heis8, aklt4, parent632, parent821, parent822):
    ok = True
    for model in (pinning6, heis8, aklt4, parent632, parent821, parent822):
        cut = _center_cut(model)
        psi0 = _random_product(model.h.sites, 5)
        trace = rank_growth(model.a, psi0, cut, 4)
        d = model.h.sites.d
        for step, rank in enumerate(trace.ranks, start=1):
            ok &= rank <= d ** (2 * step)
    _criterion(6, "entanglement rank grows at most d^2 per application", ok)


# 7 ------------------------------------------------------------------------

def test_c07_schmidt_tail(unique_1d):
    ok = True
    for model in unique_1d:
        cut = _center_cut(model)
        omega = model.gs.omega
        mu, _, _ = max_product_overlap(omega, cut)
        rows = tail_bound_check(schmidt(omega, cut), model.h.sites.d, mu, _delta(model), 4)
        ok &= all(tail <= bound + 1e-9 for _, tail, bound in rows)
    _criterion(7, "ground Schmidt tails decay at the squared rate", ok)


# 8 ------------------------------------------------------------------------

def test_c08_step_entropy_bound():
    ok = True
    points = 0
    for big_d in (2, 3, 4, 5):
        for big_k in (1.0, 2.0, 5.0, 10.0, 100.0):
            for theta in (0.1, 0.25, 0.5, 0.75, 0.9):
                result = step_entropy_bound(big_d, big_k, theta)
                ok &= result.oracle_entropy <= result.bound + 1e-9
                points += 1
    ok &= points >= 100
    reference = step_entropy_bound(2, 1.0, 0.5).bound
    ok &= abs(reference - 9.2384) <= 1e-3
    _criterion(8, "max-entropy step distributions stay below the closed form", ok)


# 9 ------------------------------------------------------------------------

def test_c09_area_law(unique_1d):
    ok = True
    for model in unique_1d:
        omega = model.gs.omega
        cert = area_law_certificate(model.h, model.gs, schmidt(omega, _center_cut(model)),
                                    _center_overlap(model))
        ok &= cert.entropy_measured <= cert.overlap_entropy_bound + 1e-9
        ok &= (cert.entropy_measured <= 0
               or math.log10(cert.entropy_measured) <= cert.gap_entropy_bound_log10)
        overlap_log10 = math.log10(cert.overlap_entropy_bound)
        ok &= cert.gap_entropy_bound_log10 >= overlap_log10
    _criterion(9, "cut entropy certified against both closed-form bounds", ok)


# 10 -----------------------------------------------------------------------

def test_c10_cone_absorption_and_identity(corpus, unique_1d):
    ok = True
    for model in corpus:
        b = _observable(model, "sx", model.h.sites.n // 2)
        for rounds in (1, 2):
            ok &= cone_absorption_check(model.a, model.gs, b, rounds) <= 1e-12
    for model in unique_1d:
        x = _observable(model, "sz", 0)
        n = model.h.sites.n
        max_m = n // 2 if model.h.sites.geometry.kind == "chain-periodic" else n - 1
        family = [_observable(model, "sz", m) for m in range(1, min(max_m, 5) + 1)]
        profile = decay_profile(model.a, model.gs, x, family)
        ok &= profile.identity_deviation <= 1e-12
        ok &= any(r >= 1 for r in profile.identity_rounds)
    _criterion(10, "out-of-cone projectors absorb exactly; correlations rewrite", ok)


# 11 -----------------------------------------------------------------------

def test_c11_correlation_decay(aklt12, parent632, parent821):
    ok = True
    h, gs = aklt12
    ok &= gs.degeneracy == 1
    x = ObservableSpec((0,), site_observable("sz", 3))
    family = [ObservableSpec((m,), site_observable("sz", 3)) for m in range(1, 6)]
    profile = decay_profile(dl_operator(h), gs, x, family)
    ok &= not profile.fit_skipped and profile.fitted_rate < 0

    x6 = _observable(parent632, "sz", 0)
    family6 = [_observable(parent632, "sz", m) for m in range(1, 6)]
    profile6 = decay_profile(parent632.a, parent632.gs, x6, family6)
    ok &= not profile6.fit_skipped and profile6.fitted_rate < 0

    xp = _observable(parent821, "sz", 0)
    for site in (2, 4, 6):
        yp = _observable(parent821, "sz", site)
        corr = dense_connected_correlation(parent821.gs, xp, yp)
        ok &= abs(corr) <= 1e-12
    _criterion(11, "correlations decay exponentially; product grounds factorize", ok)


# 12 -----------------------------------------------------------------------

def test_c12_distinguishing_measurement(unique_open):
    ok = True
    hypothesis_exercised = False
    for model in unique_open:
        check = distinguishing_measurement(model.a, _center_cut(model), 2, gs=model.gs,
                                           overlap=_center_overlap(model),
                                           window_entropy=_center_window_entropy(model))
        ok &= abs(check.trace_ground - 1.0) <= 1e-10
        ok &= check.identity_deviation <= 1e-10
        if check.hypothesis_met:
            hypothesis_exercised = True
            ok &= check.trace_product <= check.bound + 1e-9
    ok &= hypothesis_exercised
    _criterion(12, "window measurement separates the state from its halves", ok)


# 13 -----------------------------------------------------------------------

def test_c13_entropy_gap(unique_open):
    ok = True
    threshold_exercised = False
    for model in unique_open:
        cut = _center_cut(model)
        measurement = distinguishing_measurement(model.a, cut, 2, gs=model.gs,
                                                 overlap=_center_overlap(model),
                                                 window_entropy=_center_window_entropy(model))
        check = entropy_gap_check(measurement)
        ok &= check.mutual_information >= check.measurement_divergence - 1e-9
        if check.hypothesis_met:
            threshold_exercised = True
            ok &= check.mutual_information >= check.threshold - 1e-9
    ok &= threshold_exercised
    _criterion(13, "measurement divergence lower-bounds the entropy gap", ok)


# 14 -----------------------------------------------------------------------

def test_c14_shifted_cuts(unique_1d):
    ok = True
    for model in unique_1d:
        omega = model.gs.omega
        rows = shifted_cut_check(omega, _center_cut(model), 2)
        ok &= all(alpha <= cap + 1e-10 for _, alpha, cap in rows)
    _criterion(14, "product overlaps at nearby cuts within the d^|j| factor", ok)


# 15 -----------------------------------------------------------------------

def test_c15_scalar_step_inequality():
    xs = np.concatenate([np.array([1e-8, 1e-6, 1e-4]), np.linspace(1e-3, 1.0, 400)])
    ok = all(step_inequality_margin(float(x), m) >= -1e-12
             for m in range(1, 65) for x in xs)
    _criterion(15, "scalar step bound holds on the full grid", ok)
