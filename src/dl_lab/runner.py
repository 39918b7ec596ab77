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
from .entanglement import (CutSpec, SchmidtData, area_law_certificate, density_entropy,
                           max_product_overlap, rank_growth, reduced_density,
                           schmidt, shifted_cut_check, step_entropy_bound,
                           tail_bound_check)
from .errors import ValidationError
from .hamiltonian import projectorize, validate_frustration_free
from .io import (atomic_write_text, dumps_document, loads_document,
                 load_hamiltonian, read_text, write_csv)
from .models import (BUNDLED_MODELS, SITE_OBSERVABLES, ModelDescriptor, build_model,
                     check_parameters, descriptor_from_document, site_observable)
from .states import (GroundSpaceData, SpectrumData, StateVector, check_dim,
                     gaussian_filter_deviation, ground_space, product_state, random_state,
                     spectrum)

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

# Samples of one dimension checked as one stack; the queues hold a few MB at most
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
        command = doc.get("command")
        if command not in COMMANDS:
            raise ValidationError(f"field 'command': unknown command {command!r}; "
                                  f"expected one of {COMMANDS}")
        model_doc = doc.get("model")
        if not isinstance(model_doc, dict):
            raise ValidationError("field 'model': expected an object")
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
            self.h, proj_report = projectorize(self.h)
            self.records.append(info_record("projectorized-max-term-norm", "gap-rescale",
                                            proj_report.max_term_norm))

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
    def cut(self) -> CutSpec:
        return CutSpec.contiguous(self.p["cut"])

    @cached_property
    def cut_schmidt(self) -> SchmidtData:
        """Schmidt spectrum of the ground state at the run's cut."""
        return schmidt(self.gs.omega, self.cut)

    @cached_property
    def overlap(self) -> float:
        """Largest product-state overlap of the ground state at the run's cut."""
        return max_product_overlap(self.gs.omega, self.cut)[0]

    @cached_property
    def window(self) -> tuple[int, np.ndarray]:
        """Half-width l of the window around the cut ('window', kept on the chain) and
        the reduced density of the ground state on its 2l sites."""
        c = self.cut.position
        l = min(self.p["window"], c, self.h.sites.n - c)
        return l, reduced_density(self.gs.omega, tuple(range(c - l, c + l)))

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
    fixed = max(float(np.linalg.norm(a.apply_array(v) - v)) for v in gs.basis.T)
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
    if len(ctx.spectrum_data.values) < ctx.h.sites.dim:
        return
    worst = -np.inf
    for q in (1.0, 4.0, 16.0):
        measured = gaussian_filter_deviation(q, ctx.gs, ctx.spectrum_data)
        worst = max(worst, measured - float(np.exp(-q * ctx.gs.gap ** 2 / 2.0)))
    ctx.add(bounded_record("spectral-filter", "spectral-filter", worst, 0.0, 1e-9))


def _step_norm_energy(ctx: _Context) -> None:
    """The norm-energy trade-off on seeded random projectors X, Y and states v.

    A sample draws its dimension, the spans of X and Y, each of random rank,
    then v; samples queue by dimension and are checked NORM_ENERGY_STACK at a time.
    """
    rng = np.random.default_rng(ctx.p["seed"])
    queues: dict[int, list] = {}
    worst = -np.inf
    for _ in range(ctx.p["norm_energy_samples"]):
        dim = int(rng.integers(2, 33))
        queue = queues.setdefault(dim, [])
        spans = [_gaussian(rng, dim, int(rng.integers(1, dim))) for _ in "XY"]
        queue.append((*spans, _gaussian(rng, dim, 1)[:, 0]))
        if len(queue) == NORM_ENERGY_STACK:
            worst = max(worst, _norm_energy_margin(queues.pop(dim)))
    worst = max([worst] + [_norm_energy_margin(queue) for queue in queues.values()])
    ctx.add(bounded_record("norm-energy", "norm-energy", worst, 0.0, 1e-10))


def _gaussian(rng: np.random.Generator, dim: int, cols: int) -> np.ndarray:
    re, im = rng.standard_normal((2, dim, cols))  # the stream of two draws of (dim, cols)
    return re + 1j * im


def _norm_energy_margin(samples: list) -> float:
    """Largest lhs - rhs over samples of one dimension, checked as one stack."""
    dim = len(samples[0][2])
    spans = np.zeros((2, len(samples), dim, dim), complex)
    for i, sample in enumerate(samples):
        for j, span in enumerate(sample[:2]):
            spans[j, i, :, :span.shape[1]] = span
    # one QR of the zero-padded spans: the columns of Q that are not padding span the
    # Gaussian's columns, as in a QR of the Gaussian alone
    q = np.linalg.qr(spans)[0]
    x_proj, y_proj = (q * spans.any(axis=-2, keepdims=True)) @ np.swapaxes(q, -1, -2).conj()
    v = np.stack([sample[2] for sample in samples])
    lhs, rhs = norm_energy_check(x_proj, y_proj, v / np.linalg.norm(v, axis=1, keepdims=True))
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
    if ctx.h.sites.geometry.kind != "chain-open":
        return
    cut = ctx.cut
    psi0 = _product_start(ctx)
    trace = rank_growth(ctx.a, psi0, cut, ctx.p["rank_steps"])
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
    left, right = ctx.cut.sides(ctx.h.sites.n)
    max_entropy = min(len(left), len(right)) * np.log(ctx.h.sites.d)
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
    cut = ctx.cut
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
    shift = min(ctx.p["cut_shift"], cut.position - 1, n - 1 - cut.position)
    if shift >= 1:
        rows = shifted_cut_check(ctx.gs.omega, cut, shift)
        worst = max(a - cap for _, a, cap in rows)
        ctx.add(bounded_record("shifted-cut", "shifted-cut", worst, 0.0, 1e-10))


def _window_recursion_diagnostic(ctx: _Context, delta: float) -> None:
    """Report S(2l) against 2 S(l) - (delta/2) l + 1; diagnostic only.

    The recursion holds under a for-contradiction overlap hypothesis, so it
    is recorded, never asserted.
    """
    c, (l, rho_large) = ctx.cut.position, ctx.window
    if l < 2 or l % 2:
        return
    s_small = density_entropy(reduced_density(ctx.gs.omega, tuple(range(c - l // 2, c + l // 2))))
    s_large = density_entropy(rho_large)
    ctx.add(info_record("window-entropy-small", "overlap-entropy-bound", s_small))
    ctx.add(info_record("window-entropy-large", "overlap-entropy-bound", s_large))
    ctx.add(info_record("window-recursion-margin", "overlap-entropy-bound",
                        2.0 * s_small - (delta / 2.0) * l + 1.0 - s_large))


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
    if not ctx.unique:
        ctx.add(CheckRecord("correlation-decay", "correlation-decay", GATED))
        return
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
    if ctx.h.sites.geometry.kind != "chain-open" or not ctx.unique:
        return
    l, rho_win = ctx.window
    check = distinguishing_measurement(ctx.h, ctx.cut, l, ctx.gs, ctx.a, ctx.overlap, rho_win)
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

def _cmd_correlate(ctx: _Context) -> None:
    if not ctx.unique:
        raise ValidationError("the correlate pipeline needs a unique ground state")
    _step_correlate(ctx)


def _cmd_measurecheck(ctx: _Context) -> None:
    if ctx.h.sites.geometry.kind != "chain-open":
        raise ValidationError("the measurecheck pipeline needs an open chain")
    if not ctx.unique:
        raise ValidationError("the measurecheck pipeline needs a unique ground state")
    _step_measurecheck(ctx)


def run(config: RunConfig) -> Report:
    """Execute the configured pipeline and assemble the report."""
    ctx = _Context(config)
    steps = {
        "gap": [_step_gap],
        "dl": [_step_dl],
        "converge": [_step_converge],
        "entropy": [_step_gap, _step_entropy],
        "arealaw": [_step_gap, _step_arealaw],
        "correlate": [_step_gap, _cmd_correlate],
        "measurecheck": [_step_gap, _cmd_measurecheck],
        "verify": [_step_gap, _step_dl, _step_converge, _step_filter,
                   _step_norm_energy, _step_scalar_inequality, _step_entropy_grid,
                   _step_entropy, _step_cone, _step_rank_growth, _step_verify_1d,
                   _step_correlate, _step_measurecheck],
    }[config.command]
    for step in steps:
        step(ctx)
    created = datetime.datetime.now(datetime.timezone.utc).isoformat()
    return Report(config.command, ctx.label, config.sha256, __version__, created,
                  tuple(ctx.records), (), tuple(ctx.tables))


def _step_verify_1d(ctx: _Context) -> None:
    if pyramid_applicable(ctx.a):
        _step_pyramids(ctx)
    if ctx.unique and ctx.h.sites.is_chain():
        _step_arealaw(ctx)


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
