"""The traced layers of dl_lab and the per-layer metrics derived from their spans.

Metric names read `<module>.<what>.<unit>`.  `.s` is inclusive time, `.self_s`
is time not covered by traced callees, `.calls` counts calls and the matvec
counts count vectors (a batched call on a (dim, b) array counts b).
NOTES.md lists which end-to-end metric each one should move, on which
workload.
"""
from __future__ import annotations

import math

from spans import SpanIndex, Target

VERIFY = "bench.verify"
TERM_KINDS = ("first", "middle", "last", "wrap", "batched")


def term_kind(support, ndim: int, n: int) -> str:
    """Which code path of the local-term contraction a call takes.

    A batched input (trailing axes after the state axis) is `batched`.  A
    single vector on a contiguous support is `first`, `middle` or `last` by
    where the support sits (a support ending at the last site is `last`, the
    case with a trailing axis of size 1).  Any other support, such as the
    periodic wrap bond, goes through the general tensordot path: `wrap`.
    """
    if ndim > 1:
        return "batched"
    s0, k = support[0], len(support)
    if tuple(support) != tuple(range(s0, s0 + k)):
        return "wrap"
    if s0 + k == n:
        return "last"
    return "first" if s0 == 0 else "middle"


def _apply_term(args, kwargs, result):
    matrix, support, arr, n = args[:4]
    return {"kind": term_kind(support, arr.ndim, n),
            "bytes": matrix.nbytes + arr.nbytes + result.nbytes}


def _second_arg_vectors(args, kwargs, result):
    return {"vectors": math.prod(args[1].shape[1:])}


def _written_bytes(args, kwargs, result):
    return {"bytes": len(args[1])}


TARGETS = (
    Target("states.apply_term", "dl_lab.states:apply_term_array", _apply_term),
    Target("states.hamiltonian_apply", "dl_lab.states:hamiltonian_apply", _second_arg_vectors),
    Target("states.hamiltonian_matrix", "dl_lab.states:hamiltonian_matrix"),
    Target("states.spectrum", "dl_lab.states:spectrum"),
    Target("states.ground_space", "dl_lab.states:ground_space"),
    Target("states.restricted_norm", "dl_lab.states:restricted_norm"),
    Target("states.gaussian_filter_deviation", "dl_lab.states:gaussian_filter_deviation"),
    Target("dl.a_apply", "dl_lab.dl:DLOperator.apply_array", _second_arg_vectors),
    Target("dl.a_apply", "dl_lab.dl:DLOperator.adjoint_apply_array", _second_arg_vectors),
    Target("dl.converge", "dl_lab.dl:converge"),
    Target("dl.pyramids", "dl_lab.dl:pyramid_decompose"),
    Target("dl.pyramids", "dl_lab.dl:apply_pyramids"),
    Target("dl.measure_shrinkage", "dl_lab.dl:measure_shrinkage"),
    Target("dl.norm_energy_check", "dl_lab.dl:norm_energy_check"),
    Target("dl.step_inequality_margin", "dl_lab.dl:step_inequality_margin"),
    Target("entanglement.step_entropy_bound", "dl_lab.entanglement:step_entropy_bound"),
    Target("entanglement.max_product_overlap", "dl_lab.entanglement:max_product_overlap"),
    Target("entanglement.schmidt", "dl_lab.entanglement:schmidt"),
    Target("entanglement.reduced_density", "dl_lab.entanglement:reduced_density"),
    Target("entanglement.shifted_cut_check", "dl_lab.entanglement:shifted_cut_check"),
    Target("entanglement.area_law_certificate", "dl_lab.entanglement:area_law_certificate"),
    Target("entanglement.rank_growth", "dl_lab.entanglement:rank_growth"),
    Target("correlations.cone_absorption_check", "dl_lab.correlations:cone_absorption_check"),
    Target("correlations.decay_profile", "dl_lab.correlations:decay_profile"),
    Target("correlations.distinguishing_measurement",
           "dl_lab.correlations:distinguishing_measurement"),
    Target("correlations.entropy_gap_check", "dl_lab.correlations:entropy_gap_check"),
    Target("hamiltonian.validate_frustration_free",
           "dl_lab.hamiltonian:validate_frustration_free"),
    Target("hamiltonian.partition_layers", "dl_lab.hamiltonian:partition_layers"),
    Target("models.build_model", "dl_lab.models:build_model"),
    Target("io.write", "dl_lab.io:atomic_write_bytes", _written_bytes),
    Target("runner.run", "dl_lab.runner:run"),
    Target("runner.emit_report", "dl_lab.runner:emit_report"),
)


def _kind_self(kind):
    return lambda ix: ix.self_total("states.apply_term", lambda a: a.get("kind") == kind)


def _inclusive(name):
    return name + ".s", "s", lambda ix: ix.total_s(name)


def _per_run(ix: SpanIndex) -> float:
    runs = ix.calls(VERIFY)
    return ix.calls("states.spectrum") / runs if runs else 0.0


# (name, unit, function of the span index); trace.* metrics are added by the caller
SPAN_METRICS = (
    ("states.apply_term.calls", "count", lambda ix: ix.calls("states.apply_term")),
    ("states.apply_term.self_s", "s", lambda ix: ix.self_total("states.apply_term")),
    *((f"states.apply_term.{kind}.self_s", "s", _kind_self(kind)) for kind in TERM_KINDS),
    ("states.apply_term.gb_computed", "GB",
     lambda ix: ix.attr_sum("states.apply_term", "bytes") / 1e9),
    ("states.hamiltonian_apply.calls", "count", lambda ix: ix.calls("states.hamiltonian_apply")),
    ("states.hamiltonian_apply.self_s", "s",
     lambda ix: ix.self_total("states.hamiltonian_apply")),
    ("states.spectrum.calls", "count", lambda ix: ix.calls("states.spectrum")),
    ("states.spectrum.self_s", "s", lambda ix: ix.self_total("states.spectrum")),
    ("states.spectrum.h_matvecs", "count",
     lambda ix: ix.attr_sum("states.hamiltonian_apply", "vectors", within="states.spectrum")),
    ("states.spectrum.per_run", "1/run", _per_run),
    _inclusive("states.ground_space"),
    ("states.ground_space.spectrum_calls", "count",
     lambda ix: ix.count_within("states.spectrum", "states.ground_space")),
    _inclusive("states.restricted_norm"),
    ("states.restricted_norm.a_matvecs", "count",
     lambda ix: ix.attr_sum("dl.a_apply", "vectors", within="states.restricted_norm")),
    _inclusive("states.hamiltonian_matrix"),
    _inclusive("states.gaussian_filter_deviation"),
    ("dl.a_apply.calls", "count", lambda ix: ix.calls("dl.a_apply")),
    _inclusive("dl.a_apply"),
    _inclusive("dl.converge"),
    _inclusive("dl.pyramids"),
    _inclusive("dl.measure_shrinkage"),
    _inclusive("dl.norm_energy_check"),
    _inclusive("dl.step_inequality_margin"),
    _inclusive("entanglement.step_entropy_bound"),
    ("runner.run.self_s", "s", lambda ix: ix.self_total("runner.run")),
    ("entanglement.max_product_overlap.calls", "count",
     lambda ix: ix.calls("entanglement.max_product_overlap")),
    _inclusive("entanglement.max_product_overlap"),
    _inclusive("entanglement.schmidt"),
    _inclusive("entanglement.reduced_density"),
    _inclusive("entanglement.shifted_cut_check"),
    _inclusive("entanglement.area_law_certificate"),
    _inclusive("entanglement.rank_growth"),
    _inclusive("correlations.cone_absorption_check"),
    _inclusive("correlations.decay_profile"),
    _inclusive("correlations.distinguishing_measurement"),
    _inclusive("correlations.entropy_gap_check"),
    _inclusive("hamiltonian.validate_frustration_free"),
    _inclusive("hamiltonian.partition_layers"),
    _inclusive("models.build_model"),
    _inclusive("io.write"),
    ("io.write.bytes", "B", lambda ix: ix.attr_sum("io.write", "bytes")),
    _inclusive("runner.emit_report"),
)

TRACE_METRICS = (("trace.overhead_s", "s"), ("trace.missing_targets", "count"))

METRIC_UNITS = {name: unit for name, unit, _ in SPAN_METRICS} | dict(TRACE_METRICS)


def layer_metrics(spans) -> dict[str, float]:
    """Every span-derived per-layer metric, by name."""
    index = SpanIndex(spans)
    return {name: float(fn(index)) for name, _, fn in SPAN_METRICS}
