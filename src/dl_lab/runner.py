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

import numpy as np

from . import __version__
from .correlations import (ObservableSpec, cone_absorption_check,
                           decay_profile, distinguishing_measurement,
                           entropy_gap_check)
from .dl import (apply_pyramids, converge, dl_operator, fixed_space,
                 measure_shrinkage, norm_energy_check, pyramid_applicable,
                 pyramid_decompose, step_inequality_margin)
from .entanglement import (CutSpec, area_law_certificate, density_entropy,
                           max_product_overlap, rank_growth, reduced_density,
                           schmidt, shifted_cut_check, step_entropy_bound,
                           tail_bound_check)
from .errors import ValidationError
from .hamiltonian import projectorize, validate_frustration_free
from .io import (atomic_write_text, dumps_document, loads_document,
                 load_hamiltonian, write_csv)
from .models import (BUNDLED_MODELS, ModelDescriptor, build_model,
                     descriptor_from_document, site_observable)
from .states import (DENSE_CUTOFF, GroundSpaceData, SpectrumData, StateVector,
                     gaussian_filter_deviation, ground_space, product_state,
                     random_state, spectrum)

COMMANDS = ("gap", "dl", "converge", "entropy", "arealaw", "correlate",
            "measurecheck", "verify")
FORMATS = ("structured", "csv")

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
            if not os.path.exists(model_path):
                raise ValidationError(f"field 'model.path': no such file {model_path!r}")
        elif "name" in model_doc:
            descriptor = descriptor_from_document(model_doc)
        else:
            raise ValidationError("field 'model': needs either 'name' or 'path'")
        parameters = doc.get("parameters", {})
        if not isinstance(parameters, dict):
            raise ValidationError("field 'parameters': expected an object")
        for key in parameters:
            if key.endswith("tolerance"):
                raise ValidationError(f"field 'parameters.{key}': tolerances are fixed per "
                                      "check and cannot be set")
        output = doc.get("output", {})
        directory = out_dir or output.get("dir", "out")
        fmt = out_format or output.get("format", "structured")
        if fmt not in FORMATS:
            raise ValidationError(f"field 'output.format': expected one of {FORMATS}")
        digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
        return RunConfig(command, descriptor, model_path, parameters, directory,
                         fmt, quiet, digest)


def load_config(path: str, out_dir: str | None = None, out_format: str | None = None,
                quiet: bool = False) -> RunConfig:
    with open(path, "r", encoding="utf-8") as handle:
        doc = loads_document(handle.read())
    return RunConfig.from_document(doc, out_dir, out_format, quiet)


# ---------------------------------------------------------------------------
# shared pipeline context
# ---------------------------------------------------------------------------

class _Context:
    """Lazily computed quantities shared by the pipeline steps."""

    def __init__(self, config: RunConfig):
        self.config = config
        self.params = config.parameters
        self.records: list[CheckRecord] = []
        self.tables: list[tuple[str, tuple[str, ...], tuple[tuple, ...]]] = []
        if config.model_path is not None:
            self.h = load_hamiltonian(config.model_path)
            self.label = os.path.basename(config.model_path)
        else:
            self.h = build_model(config.descriptor)
            self.label = config.descriptor.label()
        if not self.h.all_projectors():
            self.h, proj_report = projectorize(self.h)
            self.records.append(info_record("projectorized-max-term-norm", "gap-rescale",
                                            proj_report.max_term_norm))
        self._spectrum: SpectrumData | None = None
        self._top: float | None = None  # top of A^dag A on the complement, iterative only
        self._gs: GroundSpaceData | None = None
        self._a = None

    @property
    def spectrum_data(self) -> SpectrumData:
        """The one spectrum of H in the run.

        Up to DENSE_CUTOFF it is the full dense spectrum.  Above, the ground
        space is the fixed space of A (dl.fixed_space), and one Lanczos solve
        finds the states of H above it.
        """
        if self._spectrum is None:
            if self.h.sites.dim <= DENSE_CUTOFF:
                self._spectrum = spectrum(self.h)
            else:
                fixed, self._top = fixed_space(self.a)
                if fixed.shape[1] == 0:
                    raise ValidationError("A^dag A has no eigenvalue 1: no state is annihilated "
                                          "by every term; the model is not frustration-free")
                self._spectrum = spectrum(self.h, self.int_param("count"), fixed)
        return self._spectrum

    @property
    def gs(self) -> GroundSpaceData:
        if self._gs is None:
            self._gs = ground_space(self.h, self.spectrum_data)
        return self._gs

    def shrinkage(self) -> float:
        """Norm of A on the ground complement: read from the fixed-space solve
        above DENSE_CUTOFF, one restricted-norm solve up to it."""
        gs = self.gs  # sets _top above DENSE_CUTOFF
        return measure_shrinkage(self.a, gs) if self._top is None else float(np.sqrt(self._top))

    @property
    def a(self):
        if self._a is None:
            self._a = dl_operator(self.h)
        return self._a

    @property
    def unique(self) -> bool:
        return self.gs.degeneracy == 1

    @property
    def omega(self) -> StateVector:
        return self.gs.ground_basis[0].normalized()

    def int_param(self, key: str, default: int | None = None) -> int | None:
        """The integer run parameter `key`; default when it is absent."""
        if key not in self.params:
            return default
        value = self.params[key]
        try:
            return int(value)
        except (TypeError, ValueError, OverflowError):
            raise ValidationError(f"field 'parameters.{key}': expected an integer, "
                                  f"got {value!r}") from None

    def default_cut(self) -> CutSpec:
        return CutSpec.contiguous(self.int_param("cut", self.h.sites.n // 2))

    def seed(self) -> int:
        return self.int_param("seed", 7)

    def observable(self, site: int) -> ObservableSpec:
        name = self.params.get("observable", "sz")
        return ObservableSpec((site,), site_observable(name, self.h.sites.d))

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
    check = validate_frustration_free(ctx.h, gs, tol=1e-8)
    ctx.add(bounded_record("frustration-free", "frustration-free",
                           check.max_residual, 0.0, 1e-8))
    rows = slice(ctx.int_param("count") or None)
    values, residuals = ctx.spectrum_data.values[rows], ctx.spectrum_data.residuals[rows]
    ctx.add(bounded_record("eigenpair-residuals", "plumbing", float(residuals.max()), 0.0, 1e-8))
    ctx.add_table("spectrum", ("index", "eigenvalue", "residual"),
                  [(i, float(v), float(r)) for i, (v, r) in enumerate(zip(values, residuals))])


def _step_dl(ctx: _Context) -> None:
    gs, a = ctx.gs, ctx.a
    fixed = max(float(np.linalg.norm(a.apply(v).amplitudes - v.amplitudes))
                for v in gs.ground_basis)
    ctx.add(bounded_record("ground-fixed-point", "dl-shrinkage", fixed, 0.0, 1e-12))
    ctx.add(info_record("dl-f-value", "dl-shrinkage", a.f_value or 0.0))
    ctx.add(bounded_record("dl-shrinkage", "dl-shrinkage", ctx.shrinkage(),
                           a.shrink_bound(gs.gap), 1e-9))


def _step_converge(ctx: _Context) -> None:
    psi = random_state(ctx.h.sites, ctx.seed())
    trace = converge(ctx.a, ctx.gs, psi, ctx.int_param("l_max", 20))
    rows = trace.rows()
    worst = max(r - b for _, r, b in rows)
    ctx.add(bounded_record("dl-convergence", "dl-convergence", worst, 0.0, 1e-9))
    mono = max((b - a for a, b in zip(trace.residuals, trace.residuals[1:])), default=0.0)
    ctx.add(bounded_record("convergence-monotone", "dl-convergence", mono, 0.0, 1e-12))
    ctx.add_table("convergence", ("l", "residual", "bound_pow_l"), rows)


def _step_pyramids(ctx: _Context) -> None:
    primary, shifted = pyramid_decompose(ctx.a)
    rng = np.random.default_rng(ctx.seed())
    worst = 0.0
    for _ in range(10):
        psi = random_state(ctx.h.sites, rng)
        direct = ctx.a.apply(psi)
        for dec in (primary, shifted):
            redone = apply_pyramids(ctx.a, dec, psi)
            worst = max(worst, float(np.linalg.norm(direct.amplitudes - redone.amplitudes)))
    ctx.add(bounded_record("pyramid-identity", "pyramid-identity", worst, 0.0, 1e-12))


def _step_filter(ctx: _Context) -> None:
    if ctx.h.sites.dim > DENSE_CUTOFF:
        return
    worst = -np.inf
    for q in (1.0, 4.0, 16.0):
        measured = gaussian_filter_deviation(q, ctx.gs, ctx.spectrum_data)
        worst = max(worst, measured - float(np.exp(-q * ctx.gs.gap ** 2 / 2.0)))
    ctx.add(bounded_record("spectral-filter", "spectral-filter", worst, 0.0, 1e-9))


def _step_norm_energy(ctx: _Context) -> None:
    rng = np.random.default_rng(ctx.seed())
    worst = -np.inf
    for _ in range(ctx.int_param("norm_energy_samples", 1000)):
        dim = int(rng.integers(2, 33))
        x = _random_projector(rng, dim)
        y = _random_projector(rng, dim)
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        v /= np.linalg.norm(v)
        lhs, rhs = norm_energy_check(x, y, v)
        worst = max(worst, lhs - rhs)
    ctx.add(bounded_record("norm-energy", "norm-energy", worst, 0.0, 1e-10))


def _random_projector(rng: np.random.Generator, dim: int) -> np.ndarray:
    rank = int(rng.integers(1, dim))
    gauss = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    q, _ = np.linalg.qr(gauss)
    return q @ q.conj().T


def _step_scalar_inequality(ctx: _Context) -> None:
    xs = np.linspace(1e-3, 1.0, 200)
    worst = min(step_inequality_margin(float(x), m)
                for m in range(1, 65) for x in xs)
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
    cut = ctx.default_cut()
    psi0 = _product_start(ctx)
    trace = rank_growth(ctx.a, psi0, cut, ctx.int_param("rank_steps", 3))
    worst = max((r - c for r, c in zip(trace.ranks, trace.caps)), default=0)
    ctx.add(bounded_record("rank-growth", "rank-growth", float(worst), 0.0, 0.0))


def _product_start(ctx: _Context) -> StateVector:
    d = ctx.h.sites.d
    rng = np.random.default_rng(ctx.seed())
    locals_ = []
    for _ in range(ctx.h.sites.n):
        vec = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        locals_.append(vec / np.linalg.norm(vec))
    return product_state(ctx.h.sites, locals_)


def _step_entropy(ctx: _Context) -> None:
    cut = ctx.default_cut()
    data = schmidt(ctx.omega, cut)
    ctx.add(bounded_record("schmidt-normalization", "plumbing",
                           abs(float(data.eigenvalues.sum()) - 1.0), 0.0, 1e-10))
    left, right = cut.sides(ctx.h.sites.n)
    max_entropy = min(len(left), len(right)) * np.log(ctx.h.sites.d)
    ctx.add(bounded_record("entropy-range", "plumbing", data.entropy, float(max_entropy), 1e-9))
    ctx.add_table("schmidt", ("j", "lambda_j"),
                  [(j + 1, float(l)) for j, l in enumerate(data.eigenvalues)])
    if ctx.unique and ctx.h.sites.is_chain():
        _step_tail(ctx, cut)


def _step_tail(ctx: _Context, cut: CutSpec) -> None:
    # a single layer projects exactly (delta = 1); stay inside the open domain
    delta = min(1.0 - ctx.a.shrink_bound(ctx.gs.gap), 1.0 - 1e-12)
    mu, _, _ = max_product_overlap(ctx.omega, cut)
    table = tail_bound_check(ctx.omega, cut, mu, delta, ctx.int_param("l_max_tail", 4))
    worst = max(t - b for _, t, b in table.rows)
    ctx.add(bounded_record("schmidt-tail", "schmidt-tail", worst, 0.0, 1e-9))
    ctx.add_table("tail", ("l", "tail_mass", "bound"), table.rows)


def _step_arealaw(ctx: _Context) -> None:
    cut = ctx.default_cut()
    cert = area_law_certificate(ctx.h, cut, ctx.gs)
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
    _window_recursion_diagnostic(ctx, cut, cert.delta)
    n = ctx.h.sites.n
    shift = min(ctx.int_param("cut_shift", 2), cut.position - 1, n - 1 - cut.position)
    if shift >= 1:
        table = shifted_cut_check(ctx.omega, cut, shift)
        worst = max(a - cap for _, a, cap in table.rows)
        ctx.add(bounded_record("shifted-cut", "shifted-cut", worst, 0.0, 1e-10))


def _window_recursion_diagnostic(ctx: _Context, cut: CutSpec, delta: float) -> None:
    """Report S(2l) against 2 S(l) - (delta/2) l + 1; diagnostic only.

    The recursion holds under a for-contradiction overlap hypothesis, so it
    is recorded, never asserted.
    """
    n = ctx.h.sites.n
    c = cut.position
    l = min(ctx.int_param("window", 2), c, n - c)
    if l < 2 or l % 2:
        return
    omega = ctx.omega
    half = l // 2
    s_small = density_entropy(reduced_density(omega, tuple(range(c - half, c + half))))
    s_large = density_entropy(reduced_density(omega, tuple(range(c - l, c + l))))
    ctx.add(info_record("window-entropy-small", "overlap-entropy-bound", s_small))
    ctx.add(info_record("window-entropy-large", "overlap-entropy-bound", s_large))
    ctx.add(info_record("window-recursion-margin", "overlap-entropy-bound",
                        2.0 * s_small - (delta / 2.0) * l + 1.0 - s_large))


def _default_family(ctx: _Context) -> tuple[ObservableSpec, list[ObservableSpec]]:
    n = ctx.h.sites.n
    x_site = ctx.int_param("x_site", 0)
    distances = ctx.params.get("distances")
    if distances is None:
        if ctx.h.sites.geometry.kind == "chain-periodic":
            max_m = n // 2
        else:
            max_m = n - 1 - x_site
        distances = list(range(1, min(ctx.int_param("max_distance", 5), max_m) + 1))
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
    cut = ctx.default_cut()
    l = min(ctx.int_param("window", 2), cut.position, ctx.h.sites.n - cut.position)
    if l < 1:
        return
    check = distinguishing_measurement(ctx.h, cut, l, ctx.gs, ctx.a)
    ctx.add(bounded_record("measurement-ground-trace", "distinguishing-measurement",
                           abs(check.trace_ground - 1.0), 0.0, 1e-10))
    ctx.add(info_record("measurement-overlap", "distinguishing-measurement", check.overlap))
    ctx.add(gated_record("measurement-bound", "distinguishing-measurement",
                         check.trace_product, check.bound, 1e-9, check.hypothesis_met))
    if check.identity_deviation is not None:
        ctx.add(bounded_record("measurement-identity", "distinguishing-measurement",
                               check.identity_deviation, 0.0, 1e-10))
    gap_check = entropy_gap_check(cut, l, ctx.gs, check)
    ctx.add(bounded_record("entropy-gap", "entropy-gap",
                           gap_check.measurement_divergence - gap_check.mutual_information,
                           0.0, 1e-9))
    ctx.add(gated_record("entropy-threshold", "entropy-gap",
                         gap_check.threshold - gap_check.mutual_information, 0.0,
                         1e-9, gap_check.hypothesis_met))


def _step_cone(ctx: _Context) -> None:
    site = ctx.int_param("cone_site", ctx.h.sites.n // 2)
    b = ObservableSpec((site,), site_observable("sx", ctx.h.sites.d))
    l = ctx.int_param("cone_rounds", 2)
    dev = cone_absorption_check(ctx.h, ctx.a, ctx.gs, b, l)
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


def report_from_document(doc: dict) -> Report:
    meta = doc["meta"]
    records = tuple(
        CheckRecord(c["name"], c["anchor"], c["status"], c["measured"], c["bound"],
                    c["tolerance"])
        for c in doc["checks"]
    )
    return Report(meta["command"], meta["model"], meta["config_sha256"],
                  meta["package_version"], meta["created_utc"], records,
                  tuple(doc.get("artifacts", ())))


def emit_report(report: Report, out_dir: str, out_format: str) -> tuple[Report, list[str]]:
    """Write the report document (and CSV traces for the csv format)."""
    os.makedirs(out_dir, exist_ok=True)
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
