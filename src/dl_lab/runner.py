"""Analysis pipelines binding the modules into reproducible, reported runs.

A run is described by a single structured-text config document naming a
model and a command; the outcome is a report of pass/fail records plus CSV
trace artifacts.  The library returns measurements and bounds only; the
records built here are the one place that decides pass or fail, each with
its tolerance fixed per check.  Conditional checks carry a three-state
status so that a bound whose hypothesis fails on the given model is
reported rather than asserted.
"""
from __future__ import annotations

import datetime
import hashlib
import json
import os
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import __version__
from .correlations import (ObservableSpec, cone_absorption_check,
                           decay_profile, distinguishing_measurement,
                           entropy_gap_check)
from .dl import (DLOperator, apply_pyramids, converge, dl_operator, measure_shrinkage,
                 norm_energy_check, pyramid_applicable, pyramid_decompose,
                 step_inequality_margin)
from .entanglement import (SchmidtData, area_law_certificate, rank_growth, schmidt,
                           shifted_cut_check, step_entropy_bound, subset_entropy,
                           tail_bound_check)
from .errors import ValidationError
from .hamiltonian import projectorize, validate_frustration_free
from .io import (SCHEMA_VERSION, atomic_write_text, dumps_document, loads_document,
                 load_hamiltonian, read_text, write_csv)
from .models import (BUNDLED_MODELS, SITE_OBSERVABLES, ModelDescriptor, build_model,
                     check_parameters, descriptor_from_document, refuse_unknown_keys,
                     site_observable)
from .states import (GroundSpaceData, SpectrumData, StateVector, check_dim,
                     gaussian_filter_deviation, ground_space, product_state, random_state,
                     single_blas_pool, spectrum)

COMMANDS = ("gap", "dl", "converge", "entropy", "arealaw", "correlate",
            "measurecheck", "verify")
FORMATS = ("structured", "csv")

# name -> (type, default, low, high) or (str, default, choices), where a default or
# bound may be a function of n, the number of sites; see models.check_parameters
RUN_PARAMETERS = {
    "seed": (int, 7, 0, None),
    "cut": (int, lambda n: n // 2, 1, lambda n: n - 1),
    "l_max": (int, 20, 1, None),
    "window": (int, 2, 1, None),
    "observable": (str, "sz", SITE_OBSERVABLES),
    "x_site": (int, 0, 0, lambda n: n - 1),
    "distances": (list, None, 1, None),  # the upper bound needs the geometry: _default_family
    "max_distance": (int, 5, 1, None),
    "count": (int, None, 1, None),
    "norm_energy_samples": (int, 1000, 1, None),
    "rank_steps": (int, 3, 1, None),
    "l_max_tail": (int, 4, 1, None),
    "cut_shift": (int, 2, 1, None),
    "cone_site": (int, lambda n: n // 2, 0, lambda n: n - 1),
    "cone_rounds": (int, 2, 1, None),
}

# Norm-energy samples of one dimension drawn and checked as one stack; it bounds the
# sweep's memory to a few MB, whatever the sample count
NORM_ENERGY_STACK = 16

PASS = "pass"
FAIL = "fail"
GATED = "hypothesis-not-met"


@dataclass(frozen=True)
class CheckRecord:
    """One verified statement: a measured value against a bound."""

    name: str
    anchor: str
    status: str
    measured: float | None = None
    bound: float | None = None
    tolerance: float | None = None

    @property
    def passed(self) -> bool:
        return self.status != FAIL


def bounded_record(name: str, anchor: str, measured: float, bound: float,
                   tolerance: float) -> CheckRecord:
    status = PASS if measured <= bound + tolerance else FAIL
    return CheckRecord(name, anchor, status, float(measured), float(bound), float(tolerance))


def gated_record(name: str, anchor: str, measured: float, bound: float,
                 tolerance: float, hypothesis_met: bool) -> CheckRecord:
    if not hypothesis_met:
        return CheckRecord(name, anchor, GATED, float(measured), float(bound),
                           float(tolerance))
    return bounded_record(name, anchor, measured, bound, tolerance)


def info_record(name: str, anchor: str, measured: float | None) -> CheckRecord:
    value = None if measured is None else float(measured)
    return CheckRecord(name, anchor, PASS, value, None, None)


@dataclass(frozen=True)
class Report:
    """Per-check records for one run plus artifact bookkeeping."""

    command: str
    model_label: str
    config_sha256: str
    package_version: str
    created_utc: str
    records: tuple[CheckRecord, ...]
    artifact_paths: tuple[str, ...] = ()
    tables: tuple[tuple[str, tuple[str, ...], tuple[tuple, ...]], ...] = field(
        default=(), compare=False)

    @property
    def overall_pass(self) -> bool:
        return all(r.passed for r in self.records)


@dataclass(frozen=True)
class RunConfig:
    """Everything a run needs: model, command, parameters, output policy."""

    command: str
    descriptor: ModelDescriptor | None
    model_path: str | None
    parameters: dict
    out_dir: str
    out_format: str
    quiet: bool
    sha256: str

    @staticmethod
    def from_document(doc: dict, out_dir: str | None = None,
                      out_format: str | None = None, quiet: bool = False) -> "RunConfig":
        if not isinstance(doc, dict):
            raise ValidationError("config document: expected an object at the top level, "
                                  f"got {type(doc).__name__}")
        refuse_unknown_keys(doc, ("schema_version", "model", "command", "parameters", "output"),
                            "")
        version = doc.get("schema_version", SCHEMA_VERSION)
        if type(version) is not int or version != SCHEMA_VERSION:
            raise ValidationError(f"field 'schema_version': expected {SCHEMA_VERSION}, "
                                  f"got {version!r}")
        command = doc.get("command")
        if command not in COMMANDS:
            raise ValidationError(f"field 'command': unknown command {command!r}; "
                                  f"expected one of {COMMANDS}")
        model_doc = doc.get("model")
        if not isinstance(model_doc, dict):
            raise ValidationError("field 'model': expected an object")
        refuse_unknown_keys(model_doc, ("path",) if "path" in model_doc
                            else ("name", "parameters", "expected"), "model.")
        descriptor = None
        model_path = None
        if "path" in model_doc:
            model_path = model_doc["path"]
            if not isinstance(model_path, str) or not os.path.isfile(model_path):
                raise ValidationError(f"field 'model.path': no such file {model_path!r}")
        elif "name" in model_doc:
            descriptor = descriptor_from_document(model_doc)
        else:
            raise ValidationError("field 'model': needs either 'name' or 'path'")
        parameters = doc.get("parameters", {})
        if not isinstance(parameters, dict):
            raise ValidationError("field 'parameters': expected an object")
        output = doc.get("output", {})
        if not isinstance(output, dict):
            raise ValidationError("field 'output': expected an object")
        refuse_unknown_keys(output, ("dir", "format"), "output.")
        directory = out_dir or output.get("dir", "out")
        if not isinstance(directory, str):
            raise ValidationError(f"field 'output.dir': expected a string, got {directory!r}")
        fmt = out_format or output.get("format", "structured")
        if fmt not in FORMATS:
            raise ValidationError(f"field 'output.format': expected one of {FORMATS}")
        digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
        return RunConfig(command, descriptor, model_path, parameters, directory,
                         fmt, quiet, digest)


def load_config(path: str, out_dir: str | None = None, out_format: str | None = None,
                quiet: bool = False) -> RunConfig:
    return RunConfig.from_document(loads_document(read_text(path)), out_dir, out_format, quiet)


# ---------------------------------------------------------------------------
# shared pipeline context
# ---------------------------------------------------------------------------

class _Context:
    """The per-run objects, each computed once on first use and shared by the steps."""

    def __init__(self, config: RunConfig):
        self.records: list[CheckRecord] = []
        self.tables: list[tuple[str, tuple[str, ...], tuple[tuple, ...]]] = []
        if config.model_path is not None:
            self.h = load_hamiltonian(config.model_path)
            self.label = os.path.basename(config.model_path)
        else:
            self.h = build_model(config.descriptor)
            self.label = config.descriptor.label()
        self.p = check_parameters(config.parameters, RUN_PARAMETERS, "parameters", self.h.sites.n)
        dim = self.h.sites.dim
        check_dim(dim)
        if self.p["count"] is not None and self.p["count"] > dim:
            raise ValidationError(f"field 'parameters.count': expected an integer in [1, {dim}] "
                                  f"(the dimension), got {self.p['count']!r}")
        if not self.h.all_projectors():
            self.h, max_term_norm = projectorize(self.h)
            self.records.append(info_record("projectorized-max-term-norm", "gap-rescale",
                                            max_term_norm))

    @cached_property
    def a(self) -> DLOperator:
        return dl_operator(self.h)

    @cached_property
    def spectrum_data(self) -> SpectrumData:
        """The one spectrum of H in the run, in the regime states.spectrum picks.

        The full spectrum in the dense regime; above it, the ground kernel in
        the first deg columns and the lowest states above it ('count').
        """
        return spectrum(self.h, self.p["count"])

    @cached_property
    def gs(self) -> GroundSpaceData:
        return ground_space(self.h, self.spectrum_data)

    @property
    def unique(self) -> bool:
        return self.gs.degeneracy == 1

    @cached_property
    def cut_schmidt(self) -> SchmidtData:
        """Schmidt spectrum of the ground state at the run's cut."""
        return schmidt(self.gs.omega, self.p["cut"])

    @property
    def overlap(self) -> float:
        """Largest product-state overlap of the ground state at the cut: its top Schmidt value,
        at most 1 for a normalized state, so clamped there (an SVD can round it to 1 + 2e-16)."""
        return min(float(self.cut_schmidt.coefficients[0]), 1.0)

    @property
    def window(self) -> int:
        """Half-width l of the window around the cut ('window', kept on the chain)."""
        return min(self.p["window"], self.p["cut"], self.h.sites.n - self.p["cut"])

    @cached_property
    def window_entropy(self) -> float:
        """S of the 2l sites around the cut: the recursion diagnostic's and the measurement's."""
        c = self.p["cut"]
        return subset_entropy(self.gs.omega, range(c - self.window, c + self.window))

    def observable(self, site: int) -> ObservableSpec:
        return ObservableSpec((site,), site_observable(self.p["observable"], self.h.sites.d))

    def add(self, record: CheckRecord) -> None:
        self.records.append(record)

    def add_table(self, name: str, header: tuple[str, ...], rows) -> None:
        self.tables.append((name, header, tuple(tuple(r) for r in rows)))


# ---------------------------------------------------------------------------
# pipeline steps
# ---------------------------------------------------------------------------

def _step_gap(ctx: _Context) -> None:
    gs = ctx.gs
    ctx.add(info_record("ground-energy", "plumbing", gs.ground_energy))
    ctx.add(info_record("spectral-gap", "plumbing", gs.gap))
    ctx.add(info_record("ground-degeneracy", "plumbing", float(gs.degeneracy)))
    check = validate_frustration_free(ctx.h, gs)
    ctx.add(bounded_record("frustration-free", "frustration-free",
                           check.max_residual, 0.0, 1e-8))
    rows = slice(ctx.p["count"])
    values, residuals = ctx.spectrum_data.values[rows], ctx.spectrum_data.residuals[rows]
    ctx.add(bounded_record("eigenpair-residuals", "plumbing", float(residuals.max()), 0.0, 1e-8))
    ctx.add_table("spectrum", ("index", "eigenvalue", "residual"),
                  [(i, float(v), float(r)) for i, (v, r) in enumerate(zip(values, residuals))])


def _step_dl(ctx: _Context) -> None:
    gs, a = ctx.gs, ctx.a
    fixed = float(np.linalg.norm(a.apply_array(gs.basis) - gs.basis, axis=0).max())
    ctx.add(bounded_record("ground-fixed-point", "dl-shrinkage", fixed, 0.0, 1e-12))
    ctx.add(info_record("dl-f-value", "dl-shrinkage", a.f_value or 0.0))
    ctx.add(bounded_record("dl-shrinkage", "dl-shrinkage", measure_shrinkage(a, gs),
                           a.shrink_bound(gs.gap), 1e-9))


def _step_converge(ctx: _Context) -> None:
    psi = random_state(ctx.h.sites, ctx.p["seed"])
    trace = converge(ctx.a, ctx.gs, psi, ctx.p["l_max"])
    rows = trace.rows()
    worst = max(r - b for _, r, b in rows)
    ctx.add(bounded_record("dl-convergence", "dl-convergence", worst, 0.0, 1e-9))
    mono = max((b - a for a, b in zip(trace.residuals, trace.residuals[1:])), default=0.0)
    ctx.add(bounded_record("convergence-monotone", "dl-convergence", mono, 0.0, 1e-12))
    ctx.add_table("convergence", ("l", "residual", "bound_pow_l"), rows)


def _step_pyramids(ctx: _Context) -> None:
    primary, shifted = pyramid_decompose(ctx.a)
    rng = np.random.default_rng(ctx.p["seed"])
    worst = 0.0
    for _ in range(10):
        psi = random_state(ctx.h.sites, rng)
        direct = ctx.a.apply(psi)
        for dec in (primary, shifted):
            redone = apply_pyramids(ctx.a, dec, psi)
            worst = max(worst, float(np.linalg.norm(direct.amplitudes - redone.amplitudes)))
    ctx.add(bounded_record("pyramid-identity", "pyramid-identity", worst, 0.0, 1e-12))


def _step_filter(ctx: _Context) -> None:
    worst = -np.inf
    for q in (1.0, 4.0, 16.0):
        measured = gaussian_filter_deviation(q, ctx.gs, ctx.spectrum_data)
        worst = max(worst, measured - float(np.exp(-q * ctx.gs.gap ** 2 / 2.0)))
    ctx.add(bounded_record("spectral-filter", "spectral-filter", worst, 0.0, 1e-9))


def _step_norm_energy(ctx: _Context) -> None:
    """The norm-energy trade-off on seeded random projectors X, Y and states v.

    The dimensions of all samples come first, uniform on [2, 32].  Each dimension,
    in ascending order, is then drawn and checked NORM_ENERGY_STACK samples at a
    time (_norm_energy_margin).
    """
    rng = np.random.default_rng(ctx.p["seed"])
    dims, counts = np.unique(rng.integers(2, 33, ctx.p["norm_energy_samples"]),
                             return_counts=True)
    worst = -np.inf
    for dim, count in zip(dims.tolist(), counts.tolist()):
        for start in range(0, count, NORM_ENERGY_STACK):
            m = min(NORM_ENERGY_STACK, count - start)
            worst = max(worst, _norm_energy_margin(rng, dim, m))
    ctx.add(bounded_record("norm-energy", "norm-energy", worst, 0.0, 1e-10))


def _norm_energy_margin(rng: np.random.Generator, dim: int, m: int) -> float:
    """Largest lhs - rhs over m samples of one dimension, drawn and checked as one stack.

    The ranks of X and Y are uniform on [1, dim - 1], and each span is uniformly
    random.  A span of rank r is drawn as the narrow side, r or dim - r columns
    of a complex Gaussian, orthonormalized by one QR of the stack: the orthogonal
    complement of a uniformly random subspace is uniformly random too.  So the
    projector is Q Q^H, or I - Q Q^H where r > dim - r.
    """
    ranks = rng.integers(1, dim, (2, m))
    re, im = rng.standard_normal((2, 2, m, dim, dim // 2))
    v_re, v_im = rng.standard_normal((2, m, dim))
    # the Gaussian's unused columns are zeroed before the QR, and the columns of Q
    # they give (orthogonal to the used ones) after it
    used = (np.arange(dim // 2) < np.minimum(ranks, dim - ranks)[..., None])[..., None, :]
    q = np.linalg.qr((re + 1j * im) * used)[0]
    q *= used
    proj = q @ np.swapaxes(q, -1, -2).conj()
    # I - Q Q^H, in place, on the members drawn on their narrow complement only
    np.subtract(np.eye(dim), proj, out=proj, where=(2 * ranks > dim)[..., None, None])
    v = v_re + 1j * v_im
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    lhs, rhs = norm_energy_check(*proj, v)
    return float((lhs - rhs).max())


def _step_scalar_inequality(ctx: _Context) -> None:
    worst = step_inequality_margin(np.linspace(1e-3, 1.0, 200), np.arange(1, 65)[:, None]).min()
    ctx.add(bounded_record("step-inequality", "step-inequality", -worst, 0.0, 1e-12))


def _step_entropy_grid(ctx: _Context) -> None:
    worst = -np.inf
    for big_d in (2, 3, 4):
        for big_k in (1.0, 2.0, 10.0):
            for theta in (0.1, 0.3, 0.5, 0.7, 0.9):
                result = step_entropy_bound(big_d, big_k, theta)
                worst = max(worst, result.oracle_entropy - result.bound)
    ctx.add(bounded_record("entropy-step-bound", "entropy-step-bound", worst, 0.0, 1e-9))


def _step_rank_growth(ctx: _Context) -> None:
    trace = rank_growth(ctx.a, _product_start(ctx), ctx.p["cut"], ctx.p["rank_steps"])
    worst = max((r - c for r, c in zip(trace.ranks, trace.caps)), default=0)
    ctx.add(bounded_record("rank-growth", "rank-growth", float(worst), 0.0, 0.0))


def _product_start(ctx: _Context) -> StateVector:
    d = ctx.h.sites.d
    rng = np.random.default_rng(ctx.p["seed"])
    locals_ = []
    for _ in range(ctx.h.sites.n):
        vec = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        locals_.append(vec / np.linalg.norm(vec))
    return product_state(ctx.h.sites, locals_)


def _step_entropy(ctx: _Context) -> None:
    data = ctx.cut_schmidt
    ctx.add(bounded_record("schmidt-normalization", "plumbing",
                           abs(float(data.eigenvalues.sum()) - 1.0), 0.0, 1e-10))
    c = ctx.p["cut"]
    max_entropy = min(c, ctx.h.sites.n - c) * np.log(ctx.h.sites.d)
    ctx.add(bounded_record("entropy-range", "plumbing", data.entropy, float(max_entropy), 1e-9))
    ctx.add_table("schmidt", ("j", "lambda_j"),
                  [(j + 1, float(l)) for j, l in enumerate(data.eigenvalues)])
    if not (ctx.unique and ctx.h.sites.is_chain()):
        return
    # a single layer projects exactly (delta = 1); stay inside the open domain
    delta = min(1.0 - ctx.a.shrink_bound(ctx.gs.gap), 1.0 - 1e-12)
    rows = tail_bound_check(data, ctx.h.sites.d, ctx.overlap, delta, ctx.p["l_max_tail"])
    worst = max(t - b for _, t, b in rows)
    ctx.add(bounded_record("schmidt-tail", "schmidt-tail", worst, 0.0, 1e-9))
    ctx.add_table("tail", ("l", "tail_mass", "bound"), rows)


def _step_arealaw(ctx: _Context) -> None:
    cut = ctx.p["cut"]
    cert = area_law_certificate(ctx.h, ctx.gs, ctx.cut_schmidt, ctx.overlap)
    ctx.add(info_record("max-product-overlap", "overlap-entropy-bound", cert.mu_measured))
    ctx.add(info_record("shrink-delta", "overlap-entropy-bound", cert.delta))
    ctx.add(info_record("cut-entropy", "overlap-entropy-bound", cert.entropy_measured))
    # None marks a bound too large for double precision; its log10 is always reported
    ctx.add(info_record("gap-entropy-bound", "gap-entropy-bound", cert.gap_entropy_bound))
    ctx.add(info_record("window-scale-log10", "gap-entropy-bound", cert.ell0_log10))
    worst = cert.worst_case_overlap_log10
    ctx.add(info_record("worst-case-overlap-log10", "overlap-entropy-bound",
                        None if not np.isfinite(worst) else worst))
    ctx.add(bounded_record("overlap-entropy-bound", "overlap-entropy-bound",
                           cert.entropy_measured, cert.overlap_entropy_bound, 1e-9))
    log_s = float(np.log10(cert.entropy_measured)) if cert.entropy_measured > 0 else -300.0
    ctx.add(bounded_record("gap-entropy-bound-log10", "gap-entropy-bound",
                           log_s, cert.gap_entropy_bound_log10, 1e-9))
    _window_recursion_diagnostic(ctx, cert.delta)
    n = ctx.h.sites.n
    shift = min(ctx.p["cut_shift"], cut - 1, n - 1 - cut)
    if shift >= 1:
        rows = shifted_cut_check(ctx.gs.omega, cut, shift)
        worst = max(a - cap for _, a, cap in rows)
        ctx.add(bounded_record("shifted-cut", "shifted-cut", worst, 0.0, 1e-10))


def _window_recursion_diagnostic(ctx: _Context, delta: float) -> None:
    """Report S(2l) against 2 S(l) - (delta/2) l + 1; diagnostic only.

    The recursion holds under a for-contradiction overlap hypothesis, so it
    is recorded, never asserted.
    """
    c, l = ctx.p["cut"], ctx.window
    if l < 2 or l % 2:
        return
    s_small = subset_entropy(ctx.gs.omega, range(c - l // 2, c + l // 2))
    ctx.add(info_record("window-entropy-small", "overlap-entropy-bound", s_small))
    ctx.add(info_record("window-entropy-large", "overlap-entropy-bound", ctx.window_entropy))
    ctx.add(info_record("window-recursion-margin", "overlap-entropy-bound",
                        2.0 * s_small - (delta / 2.0) * l + 1.0 - ctx.window_entropy))


def _default_family(ctx: _Context) -> tuple[ObservableSpec, list[ObservableSpec]]:
    n, x_site, distances = ctx.h.sites.n, ctx.p["x_site"], ctx.p["distances"]
    # a ring wraps round to distance n // 2; an open chain ends n - 1 - x_site sites on
    max_m = n // 2 if ctx.h.sites.geometry.kind == "chain-periodic" else n - 1 - x_site
    if distances is None:
        distances = list(range(1, min(ctx.p["max_distance"], max_m) + 1))
        if not distances:
            raise ValidationError(f"field 'parameters.x_site': no default distance from "
                                  f"site {x_site}, the last site")
    elif distances != sorted(set(distances)) or distances[-1] > max_m:
        raise ValidationError("field 'parameters.distances': expected strictly increasing "
                              f"integers in [1, {max_m}], got {distances!r}")
    x = ctx.observable(x_site)
    family = [ctx.observable((x_site + m) % n) for m in distances]
    return x, family


def _step_correlate(ctx: _Context) -> None:
    x, family = _default_family(ctx)
    profile = decay_profile(ctx.h, ctx.gs, x, family, ctx.a)
    ctx.add(bounded_record("correlation-identity", "correlation-identity",
                           profile.identity_deviation, 0.0, 1e-12))
    if profile.fit_skipped:
        ctx.add(CheckRecord("correlation-decay", "correlation-decay", GATED,
                            None, 0.0, None))
    else:
        status = PASS if profile.fitted_rate < 0 else FAIL
        ctx.add(CheckRecord("correlation-decay", "correlation-decay", status,
                            profile.fitted_rate, 0.0, 0.0))
    rate = ctx.a.shrink_bound(ctx.gs.gap)
    ctx.add_table("decay", ("m", "corr", "normalized_corr", "bound_r_pow_m"),
                  [(m, c, nc, rate ** m) for m, c, nc in profile.rows])


def _step_measurecheck(ctx: _Context) -> None:
    check = distinguishing_measurement(ctx.h, ctx.p["cut"], ctx.window, ctx.gs, ctx.a, ctx.overlap,
                                       ctx.window_entropy)
    ctx.add(bounded_record("measurement-ground-trace", "distinguishing-measurement",
                           abs(check.trace_ground - 1.0), 0.0, 1e-10))
    ctx.add(info_record("measurement-overlap", "distinguishing-measurement", check.overlap))
    ctx.add(gated_record("measurement-bound", "distinguishing-measurement",
                         check.trace_product, check.bound, 1e-9, check.hypothesis_met))
    if check.identity_deviation is not None:
        ctx.add(bounded_record("measurement-identity", "distinguishing-measurement",
                               check.identity_deviation, 0.0, 1e-10))
    gap_check = entropy_gap_check(check)
    ctx.add(bounded_record("entropy-gap", "entropy-gap",
                           gap_check.measurement_divergence - gap_check.mutual_information,
                           0.0, 1e-9))
    ctx.add(gated_record("entropy-threshold", "entropy-gap",
                         gap_check.threshold - gap_check.mutual_information, 0.0,
                         1e-9, gap_check.hypothesis_met))


def _step_cone(ctx: _Context) -> None:
    b = ObservableSpec((ctx.p["cone_site"],), site_observable("sx", ctx.h.sites.d))
    dev = cone_absorption_check(ctx.h, ctx.a, ctx.gs, b, ctx.p["cone_rounds"])
    ctx.add(bounded_record("cone-absorption", "cone-absorption", dev, 0.0, 1e-12))


# ---------------------------------------------------------------------------
# command dispatch
# ---------------------------------------------------------------------------

# The hypotheses a step may need, as (phrase, predicate on the run's context) pairs
_UNIQUE = ("a unique ground state", lambda ctx: ctx.unique)
_CHAIN = ("a 1D chain", lambda ctx: ctx.h.sites.is_chain())
_OPEN_CHAIN = ("an open chain", lambda ctx: ctx.h.sites.geometry.kind == "chain-open")
_FULL_SPECTRUM = ("the full spectrum",
                  lambda ctx: len(ctx.spectrum_data.values) == ctx.h.sites.dim)
_TWO_LAYERS = ("a two-layer open chain", lambda ctx: pyramid_applicable(ctx.a))


def run(config: RunConfig) -> Report:
    """Execute the configured pipeline and assemble the report.

    The whole run keeps numpy's BLAS on the calling thread (states.single_blas_pool).
    """
    with single_blas_pool():
        return _run(config)


def _run(config: RunConfig) -> Report:
    """Run the command's steps in order.  A step runs when each of its needs is met; else
    verify skips it, leaving its gated records, and any other command exits 2 before its
    first step runs."""
    ctx = _Context(config)
    # step -> (its needs, the records it leaves gated when verify skips it); none if absent
    table = {
        _step_filter: ((_FULL_SPECTRUM,), ()),
        _step_rank_growth: ((_OPEN_CHAIN,), ()),
        _step_pyramids: ((_TWO_LAYERS,), ()),
        _step_arealaw: ((_CHAIN, _UNIQUE), ()),
        _step_correlate: ((_UNIQUE,), ("correlation-decay",)),
        _step_measurecheck: ((_OPEN_CHAIN, _UNIQUE), ()),
    }
    steps = {
        "gap": [_step_gap],
        "dl": [_step_dl],
        "converge": [_step_converge],
        "entropy": [_step_gap, _step_entropy],
        "arealaw": [_step_gap, _step_arealaw],
        "correlate": [_step_gap, _step_correlate],
        "measurecheck": [_step_gap, _step_measurecheck],
        "verify": [_step_gap, _step_dl, _step_converge, _step_filter,
                   _step_norm_energy, _step_scalar_inequality, _step_entropy_grid,
                   _step_entropy, _step_cone, _step_rank_growth, _step_pyramids,
                   _step_arealaw, _step_correlate, _step_measurecheck],
    }[config.command]
    unmet = lambda step: next((phrase for phrase, met in table.get(step, ((), ()))[0]
                               if not met(ctx)), None)
    if config.command != "verify":
        for step in steps:
            if (need := unmet(step)) is not None:
                raise ValidationError(f"the {config.command} pipeline needs {need}")
    for step in steps:
        if unmet(step) is None:
            step(ctx)
        else:
            ctx.records.extend(CheckRecord(name, name, GATED) for name in table[step][1])
    created = datetime.datetime.now(datetime.timezone.utc).isoformat()
    return Report(config.command, ctx.label, config.sha256, __version__, created,
                  tuple(ctx.records), (), tuple(ctx.tables))


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------

def report_to_document(report: Report) -> dict:
    return {
        "schema_version": 1,
        "kind": "report",
        "meta": {
            "command": report.command,
            "model": report.model_label,
            "config_sha256": report.config_sha256,
            "package_version": report.package_version,
            "created_utc": report.created_utc,
        },
        "checks": [
            {
                "name": r.name,
                "anchor": r.anchor,
                "status": r.status,
                "measured": r.measured,
                "bound": r.bound,
                "tolerance": r.tolerance,
                "pass": r.passed,
            }
            for r in report.records
        ],
        "artifacts": list(report.artifact_paths),
        "overall_pass": report.overall_pass,
    }


def emit_report(report: Report, out_dir: str, out_format: str) -> tuple[Report, list[str]]:
    """Write the report document (and CSV traces for the csv format)."""
    paths = []
    if out_format == "csv":
        for name, header, rows in report.tables:
            path = os.path.join(out_dir, f"{name}.csv")
            write_csv(path, header, rows)
            paths.append(path)
    report = replace(report, artifact_paths=tuple(paths))
    report_path = os.path.join(out_dir, "report.json")
    atomic_write_text(report_path, dumps_document(report_to_document(report)) + "\n")
    paths.insert(0, report_path)
    return report, paths


def list_models() -> tuple[ModelDescriptor, ...]:
    return BUNDLED_MODELS
