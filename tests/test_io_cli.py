"""Serialization schemas, report round-trips, CLI driver behavior."""
import contextlib
import dataclasses
import io
import json
import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import dl_lab.cli as cli
from dl_lab import correlations, entanglement, models, runner, states
from dl_lab.errors import ConvergenceError, ValidationError
from dl_lab.hamiltonian import HamiltonianSpec, LocalTerm, SiteSpace, chain_geometry, \
    custom_geometry, torus_geometry
from dl_lab.io import (dumps_document, format_float, hamiltonian_from_document,
                       hamiltonian_to_document, load_hamiltonian, loads_document,
                       save_hamiltonian, write_csv)
from dl_lab.runner import (RUN_PARAMETERS, CheckRecord, Report, RunConfig, emit_report,
                           report_to_document, run)
from dl_lab.models import ModelDescriptor, build_model
from dl_lab.states import DENSE_CUTOFF

from oracles import planted_product_model


# ---------------------------------------------------------------------------
# structured text round trips
# ---------------------------------------------------------------------------

def test_float_17_digit_round_trip():
    values = [0.1, 1 / 3, np.pi, 1e-300, 123456.789012345678, 2 ** -52]
    for value in values:
        assert json.loads(format_float(value)) == value


def test_non_finite_floats_rejected():
    with pytest.raises(ValidationError):
        format_float(float("inf"))


def test_document_key_order_preserved():
    doc = {"b": 1, "a": [1.5, {"z": True, "y": None}]}
    assert dumps_document(doc) == '{"b":1,"a":[1.5,{"z":true,"y":null}]}'


def test_document_parse_error_reports_position():
    with pytest.raises(ValidationError, match="line 1"):
        loads_document("{bad json")


def test_hamiltonian_document_round_trip(parent632, toric22):
    for model in (parent632, toric22):
        doc = loads_document(dumps_document(hamiltonian_to_document(model.h)))
        back = hamiltonian_from_document(doc)
        assert back.sites == model.h.sites
        assert back.m == model.h.m
        for orig, redo in zip(model.h.terms, back.terms):
            assert orig.support == redo.support
            assert np.array_equal(np.asarray(orig.matrix, dtype=complex),
                                  np.asarray(redo.matrix, dtype=complex))
            assert orig.is_projector == redo.is_projector


def test_geometry_document_round_trip():
    from dl_lab.io import geometry_from_document, geometry_to_document

    for geom in (chain_geometry(), chain_geometry(True), torus_geometry(2, 3),
                 custom_geometry([(0, 3), (1, 2)])):
        assert geometry_from_document(geometry_to_document(geom), 12) == geom


def test_hamiltonian_file_round_trip(tmp_path, pinning6):
    path = str(tmp_path / "model.json")
    save_hamiltonian(path, pinning6.h)
    assert load_hamiltonian(path).m == pinning6.h.m


def test_hamiltonian_document_missing_field():
    with pytest.raises(ValidationError, match="terms"):
        hamiltonian_from_document({"sites": {"n": 2, "d": 2,
                                             "geometry": {"kind": "chain-open"}}})


def _fuzz_base_documents() -> list[dict]:
    pinning = build_model(ModelDescriptor.make("pinning", n=4))
    bond = np.diag([0.0, 1.0, 1.0, 0.0])  # projector onto the antiparallel pair
    custom = HamiltonianSpec(SiteSpace(4, 2, custom_geometry([(0, 1), (1, 3), (2, 3)])),
                             (LocalTerm((0, 1), bond, is_projector=True),
                              LocalTerm((1, 3), bond, is_projector=True),
                              LocalTerm((2,), np.diag([0.0, 1.0]), is_projector=True)))
    return [hamiltonian_to_document(pinning), hamiltonian_to_document(custom)]


_FUZZ_DOCUMENTS = _fuzz_base_documents()
_DROP = object()


def _document_paths(node, prefix=()):
    """Every key or index path inside a document."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from _document_paths(child, prefix + (key,))


@st.composite
def _mutated_document(draw):
    doc = json.loads(json.dumps(draw(st.sampled_from(_FUZZ_DOCUMENTS))))
    values = st.one_of(st.just(_DROP), st.none(), st.booleans(), st.integers(-3, 12),
                       st.integers(), st.floats(), st.text(max_size=3),
                       st.lists(st.one_of(st.integers(-2, 6), st.floats(), st.booleans(),
                                          st.lists(st.integers(-1, 5), max_size=3)),
                                max_size=3),
                       st.dictionaries(st.sampled_from(["n", "kind", "edges"]),
                                       st.integers(-1, 5), max_size=2))
    for _ in range(draw(st.integers(1, 3))):
        *parents, key = draw(st.sampled_from(list(_document_paths(doc))))
        parent = doc
        for step in parents:
            parent = parent[step]
        value = draw(values)
        if value is _DROP:
            del parent[key]
        else:
            parent[key] = value
    return doc


@settings(max_examples=300, deadline=None, database=None)
@given(_mutated_document())
# d**n beyond int64 used to reach np.log(d) with a Python int np.log cannot take
@example({**_FUZZ_DOCUMENTS[0], "sites": {**_FUZZ_DOCUMENTS[0]["sites"], "d": 2 ** 70}})
def test_hamiltonian_loader_fuzzed_documents(doc):
    # dropped keys and mixed-type values: a HamiltonianSpec or ValidationError, nothing else
    try:
        h = hamiltonian_from_document(doc)
    except ValidationError:
        return
    assert isinstance(h, HamiltonianSpec)


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------

def test_csv_format(tmp_path):
    path = str(tmp_path / "trace.csv")
    write_csv(path, ("l", "residual"), [(1, 0.5), (2, 0.25)])
    lines = open(path).read().splitlines()
    assert lines[0] == "l,residual"
    assert lines[1] == "1,0.5"


# ---------------------------------------------------------------------------
# reports and runs
# ---------------------------------------------------------------------------

def _config(command, tmp_path, model=None, parameters=None):
    doc = {
        "schema_version": 1,
        "model": model or {"name": "pinning", "parameters": {"n": 4}},
        "command": command,
        "parameters": parameters or {},
        "output": {"dir": str(tmp_path / "out"), "format": "csv"},
    }
    return RunConfig.from_document(doc)


def test_dl_pipeline_pinning(tmp_path):
    report = run(_config("dl", tmp_path))
    by_name = {r.name: r for r in report.records}
    shrink = by_name["dl-shrinkage"]
    assert shrink.measured <= 1e-12
    assert shrink.bound == 0.0
    assert report.overall_pass


def test_report_document_round_trip(tmp_path):
    doc = report_to_document(run(_config("gap", tmp_path)))
    assert loads_document(dumps_document(doc)) == doc


def test_reports_deterministic_modulo_timestamp(tmp_path):
    one = run(_config("converge", tmp_path, parameters={"seed": 3, "l_max": 5}))
    two = run(_config("converge", tmp_path, parameters={"seed": 3, "l_max": 5}))
    doc1 = report_to_document(one)
    doc2 = report_to_document(two)
    doc1["meta"]["created_utc"] = doc2["meta"]["created_utc"] = "X"
    assert dumps_document(doc1) == dumps_document(doc2)


def test_failing_record_fails_report():
    bad = CheckRecord("x", "plumbing", "fail", 1.0, 0.0, 0.0)
    report = Report("dl", "m", "0" * 64, "0", "now", (bad,))
    assert not report.overall_pass


def test_gated_record_does_not_fail_report():
    gated = CheckRecord("x", "distinguishing-measurement", "hypothesis-not-met",
                        1.0, 0.5, 0.0)
    report = Report("dl", "m", "0" * 64, "0", "now", (gated,))
    assert report.overall_pass


def test_emit_report_structured_and_csv(tmp_path):
    report = run(_config("converge", tmp_path, parameters={"l_max": 4}))
    out = str(tmp_path / "out")
    emitted, paths = emit_report(report, out, "csv")
    assert os.path.exists(os.path.join(out, "report.json"))
    assert os.path.exists(os.path.join(out, "convergence.csv"))
    assert emitted.artifact_paths
    _, structured_paths = emit_report(report, str(tmp_path / "out2"), "structured")
    assert structured_paths == [str(tmp_path / "out2" / "report.json")]


def _count_spectrum_calls(monkeypatch) -> list:
    calls = []
    original = states.spectrum

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(states, "spectrum", counting)
    monkeypatch.setattr(runner, "spectrum", counting)
    return calls


def _count_lanczos_calls(monkeypatch) -> list:
    """The Lanczos solves of the iterative spectrum, which follow the ground kernel."""
    calls = []
    original = states._lanczos
    monkeypatch.setattr(states, "_lanczos", lambda *args: calls.append(args) or original(*args))
    return calls


def test_dense_verify_diagonalizes_once(tmp_path, monkeypatch):
    calls = _count_spectrum_calls(monkeypatch)
    model = {"name": "parent-random", "parameters": {"n": 6, "d": 3, "bond": 2, "seed": 2}}
    # a `count` parameter slices the run's spectrum in the dense regime
    for parameters in ({}, {"count": 8}):
        calls.clear()
        report = run(_config("verify", tmp_path, model=model, parameters=parameters))
        assert report.overall_pass
        assert len(calls) == 1, parameters


@pytest.mark.parametrize("model, at_cut, densities, entropies", [
    # at the cut: rank_growth decomposes its product start and 3 iterates (4), then the
    # Schmidt spectrum (which also gives the product overlap), the shifted cuts' center
    # row and the measurement's thin SVD for the identity check, one each (7).  Densities:
    # the measurement's two d^l-square window halves (2).  Entropies from the (subset, rest)
    # fold: the window-recursion diagnostic's two windows, the larger of which is the
    # measurement's window and is measured once per run (2)
    ({"name": "parent-random", "parameters": {"n": 6, "d": 3, "bond": 2, "seed": 2}}, 7, 2, 2),
    # no open-chain steps: the Schmidt spectrum and the shifted cuts' center row (2), no
    # density, and the diagnostic's two window entropies (2)
    ({"name": "aklt", "parameters": {"n": 6, "periodic": True}}, 2, 0, 2),
], ids=["parent-random-6", "aklt-6-ring"])
def test_verify_measures_the_cut_once(tmp_path, monkeypatch, model, at_cut, densities,
                                      entropies):
    cut = 3
    calls = {"cut_matrix": 0, "reduced_density": 0, "subset_entropy": 0}
    cut_matrix = entanglement.cut_matrix
    reduced_density, subset_entropy = entanglement.reduced_density, entanglement.subset_entropy

    def counting_cut_matrix(psi, where):
        calls["cut_matrix"] += where == cut
        return cut_matrix(psi, where)

    def counting_reduced_density(psi, sites):
        calls["reduced_density"] += 1
        return reduced_density(psi, sites)

    def counting_subset_entropy(psi, sites):
        calls["subset_entropy"] += 1
        return subset_entropy(psi, sites)

    for module in (entanglement, correlations):
        monkeypatch.setattr(module, "cut_matrix", counting_cut_matrix)
        monkeypatch.setattr(module, "reduced_density", counting_reduced_density)
    monkeypatch.setattr(runner, "subset_entropy", counting_subset_entropy)
    report = run(_config("verify", tmp_path, model=model))
    assert report.overall_pass
    assert calls == {"cut_matrix": at_cut, "reduced_density": densities,
                     "subset_entropy": entropies}


def test_top_schmidt_value_rounded_above_one_is_mu_one(tmp_path, monkeypatch):
    # parent-random(8,2,1,4) has a product ground state, whose top Schmidt value a
    # values-only SVD can round to 1 + 2**-52; mu is clamped at 1, so verify passes
    true_schmidt = runner.schmidt

    def rounded_up(psi, cut):
        data = true_schmidt(psi, cut)
        coefficients = data.coefficients.copy()
        coefficients[0] = 1.0 + 2.0 ** -52
        return dataclasses.replace(data, coefficients=coefficients)

    monkeypatch.setattr(runner, "schmidt", rounded_up)
    model = {"name": "parent-random", "parameters": {"n": 8, "d": 2, "bond": 1, "seed": 4}}
    path = _write_config(tmp_path, command="verify", model=model)
    assert cli.main(["verify", "--config", path, "--quiet"]) == 0


AKLT8 = {"name": "aklt", "parameters": {"n": 8}}  # dim 6561, ground degeneracy 4


def test_iterative_verify_solves_once(tmp_path, monkeypatch):
    assert 3 ** 8 > DENSE_CUTOFF
    calls = _count_spectrum_calls(monkeypatch)
    # the 4 states of the ground kernel, then max(1, count - 4) pairs solved one per solve;
    # the table shows count rows
    for parameters, rows in (({}, 5), ({"count": 3}, 3)):
        calls.clear()
        report = run(_config("verify", tmp_path, model=AKLT8, parameters=parameters))
        assert report.overall_pass
        assert len(calls) == 1, parameters
        by_name = {r.name: r for r in report.records}
        assert by_name["ground-degeneracy"].measured == 4.0
        tables = {name: table_rows for name, _, table_rows in report.tables}
        assert len(tables["spectrum"]) == rows


def test_iterative_missed_ground_state_exits_two(tmp_path, monkeypatch, capsys):
    # stands in for a kernel sweep that misses a degenerate ground state
    true_ground_kernel = states.ground_kernel
    monkeypatch.setattr(states, "ground_kernel", lambda h: true_ground_kernel(h)[:, 1:])
    path = _write_config(tmp_path, command="verify", model=AKLT8)
    assert cli.main(["verify", "--config", path, "--quiet"]) == 2
    assert "not the zero-energy space" in capsys.readouterr().err
    with pytest.raises(ConvergenceError, match="ground kernel \\(3 states\\)"):
        run(_config("verify", tmp_path, model=AKLT8))


def test_kernel_width_guard_exits_two_before_any_solve(tmp_path, monkeypatch, capsys):
    # bond = d drops every interior term: the kernel width doubles per uncovered site
    # and reaches width * d = 4096 at site 12
    calls = _count_lanczos_calls(monkeypatch)
    model = {"name": "parent-random", "parameters": {"n": 13, "d": 2, "bond": 2, "seed": 7}}
    path = _write_config(tmp_path, command="gap", model=model)
    with pytest.warns(UserWarning, match="term dropped"):
        assert cli.main(["gap", "--config", path, "--quiet"]) == 2
    assert "at site 12: width * d = 4096 exceeds 2048" in capsys.readouterr().err
    assert calls == []


def test_iterative_gap_heisenberg_ferro_13(tmp_path):
    # dim 8192, ground degeneracy n + 1 = 14, gap 1 - cos(pi/n): the one-magnon band
    model = {"name": "heisenberg-ferro", "parameters": {"n": 13}}
    path = _write_config(tmp_path, command="gap", model=model)
    assert cli.main(["gap", "--config", path, "--quiet"]) == 0
    with open(tmp_path / "out" / "report.json") as handle:
        measured = {c["name"]: c["measured"] for c in json.load(handle)["checks"]}
    assert measured["ground-degeneracy"] == 14.0
    assert abs(measured["spectral-gap"] - (1.0 - np.cos(np.pi / 13))) < 1e-9


@pytest.mark.parametrize("extra", [np.diag([1.0, 0.0]), np.array([[0.5, -0.5], [-0.5, 0.5]])],
                         ids=["pin-zero", "pin-plus"])
def test_frustrated_iterative_model_exits_two_before_spectrum(tmp_path, monkeypatch, capsys,
                                                              extra):
    pinning = build_model(ModelDescriptor.make("pinning", n=13))  # dim 8192
    frustrated = HamiltonianSpec(pinning.sites,
                                 pinning.terms + (LocalTerm((0,), extra, is_projector=True),))
    model_path = str(tmp_path / "frustrated.json")
    save_hamiltonian(model_path, frustrated)
    calls = _count_lanczos_calls(monkeypatch)
    path = _write_config(tmp_path, command="gap", model={"path": model_path})
    assert cli.main(["gap", "--config", path, "--quiet"]) == 2
    assert "not frustration-free" in capsys.readouterr().err
    assert calls == []


def test_verify_pipeline_product_chain_labels_gated(tmp_path):
    report = run(_config("verify", tmp_path, model={"name": "pinning",
                                                    "parameters": {"n": 6}}))
    assert report.overall_pass
    statuses = {r.name: r.status for r in report.records}
    assert statuses["measurement-bound"] == "hypothesis-not-met"
    assert statuses["entropy-threshold"] == "hypothesis-not-met"
    assert statuses["correlation-decay"] == "hypothesis-not-met"


def test_verify_pipeline_aklt_ring(tmp_path):
    report = run(_config("verify", tmp_path,
                         model={"name": "aklt", "parameters": {"n": 6, "periodic": True}}))
    assert report.overall_pass
    names = {r.name for r in report.records}
    assert "dl-shrinkage" in names
    assert "schmidt-tail" in names
    assert "overlap-entropy-bound" in names
    assert "correlation-decay" in names
    # window measurements are not defined on rings
    assert "measurement-bound" not in names


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

def test_correlate_rejects_degenerate_ground(tmp_path):
    config = _config("correlate", tmp_path,
                     model={"name": "heisenberg-ferro", "parameters": {"n": 4}})
    with pytest.raises(ValidationError, match="unique ground state"):
        run(config)


def test_measurecheck_rejects_rings(tmp_path):
    config = _config("measurecheck", tmp_path,
                     model={"name": "aklt", "parameters": {"n": 6, "periodic": True}})
    with pytest.raises(ValidationError, match="open chain"):
        run(config)


def test_eigenpair_residuals_is_informational(tmp_path):
    # spectrum refuses a residual above 1e-8 before the record is made, so it asserts nothing
    records = {record.name: record for record in run(_config("gap", tmp_path)).records}
    record = records["eigenpair-residuals"]
    assert (record.status, record.bound, record.tolerance) == ("pass", None, None)
    assert 0.0 <= record.measured <= 1e-8


GAP_RECORDS = ["ground-energy", "spectral-gap", "ground-degeneracy", "frustration-free",
               "eigenpair-residuals"]
PINNING4 = {"name": "pinning", "parameters": {"n": 4}}  # a unique open chain
HEIS4 = {"name": "heisenberg-ferro", "parameters": {"n": 4}}  # a 5-fold ground space


@pytest.mark.parametrize("command, model, names", [
    ("gap", PINNING4, GAP_RECORDS),
    ("dl", PINNING4, ["ground-fixed-point", "dl-f-value", "dl-shrinkage"]),
    ("converge", PINNING4, ["dl-convergence", "convergence-monotone"]),
    ("entropy", PINNING4, [*GAP_RECORDS, "schmidt-normalization", "entropy-range",
                           "schmidt-tail"]),
    ("arealaw", PINNING4, [*GAP_RECORDS, "max-product-overlap", "shrink-delta", "cut-entropy",
                           "gap-entropy-bound", "window-scale-log10",
                           "worst-case-overlap-log10", "overlap-entropy-bound",
                           "gap-entropy-bound-log10", "window-entropy-small",
                           "window-entropy-large", "window-recursion-margin", "shifted-cut"]),
    ("correlate", PINNING4, [*GAP_RECORDS, "correlation-identity", "correlation-decay"]),
    ("measurecheck", PINNING4, [*GAP_RECORDS, "measurement-ground-trace", "measurement-overlap",
                                "measurement-bound", "measurement-identity", "entropy-gap",
                                "entropy-threshold"]),
    # the Schmidt tail needs a unique ground state; the rest of the entropy pipeline does not
    ("entropy", {"name": "aklt", "parameters": {"n": 4}},
     [*GAP_RECORDS, "schmidt-normalization", "entropy-range"]),
    ("arealaw", HEIS4, None),
    ("arealaw", {"name": "toric-code", "parameters": {"lx": 2, "ly": 2}}, None),
    ("correlate", HEIS4, None),
    ("measurecheck", {"name": "aklt", "parameters": {"n": 6, "periodic": True}}, None),
], ids=["gap", "dl", "converge", "entropy", "arealaw", "correlate", "measurecheck",
        "entropy-degenerate", "arealaw-degenerate", "arealaw-torus", "correlate-degenerate",
        "measurecheck-ring"])
def test_cli_command_records_and_unmet_needs(tmp_path, capsys, command, model, names):
    # names None: a need of the command fails on the model, exit status 2 and no report
    path = _write_config(tmp_path, command=command, model=model)
    code = cli.main([command, "--config", path, "--quiet"])
    report_path = str(tmp_path / "out" / "report.json")
    if names is None:
        assert code == 2
        assert "pipeline needs" in capsys.readouterr().err
        assert not os.path.exists(report_path)
    else:
        assert code == 0
        with open(report_path) as handle:
            assert [c["name"] for c in json.load(handle)["checks"]] == names


def test_cli_unmet_need_exits_before_the_first_step(tmp_path, monkeypatch, capsys):
    # the open-chain need of measurecheck fails on a ring: refused before the gap step solves
    calls = _count_spectrum_calls(monkeypatch)
    path = _write_config(tmp_path, command="measurecheck",
                         model={"name": "aklt", "parameters": {"n": 6, "periodic": True}})
    assert cli.main(["measurecheck", "--config", path, "--quiet"]) == 2
    assert "the measurecheck pipeline needs an open chain" in capsys.readouterr().err
    assert calls == []


def test_config_rejects_unknown_command():
    with pytest.raises(ValidationError, match="command"):
        RunConfig.from_document({"command": "explode", "model": {"name": "pinning"}})


def test_config_requires_model():
    with pytest.raises(ValidationError, match="model"):
        RunConfig.from_document({"command": "gap"})


def test_config_missing_model_file():
    with pytest.raises(ValidationError, match="no such file"):
        RunConfig.from_document({"command": "gap", "model": {"path": "/nope.json"}})


def test_config_rejects_bad_tolerance():
    # tolerances are fixed per check: a *tolerance key is an unknown run parameter
    with pytest.raises(ValidationError, match="tolerance"):
        run(RunConfig.from_document({
            "command": "gap",
            "model": {"name": "pinning", "parameters": {"n": 3}},
            "parameters": {"shrink_tolerance": -1.0},
        }))


def test_config_rejects_any_tolerance_parameter():
    with pytest.raises(ValidationError, match=r"parameters\.shrink_tolerance"):
        run(RunConfig.from_document({
            "command": "gap",
            "model": {"name": "pinning", "parameters": {"n": 3}},
            "parameters": {"shrink_tolerance": 1e-6},
        }))


def test_config_model_path_accepted(tmp_path, pinning6):
    path = str(tmp_path / "m.json")
    save_hamiltonian(path, pinning6.h)
    config = RunConfig.from_document({"command": "gap", "model": {"path": path}})
    report = run(config)
    assert report.overall_pass
    assert report.model_label == "m.json"


# ---------------------------------------------------------------------------
# CLI driver
# ---------------------------------------------------------------------------

def _write_config(tmp_path, command="dl", model=None):
    doc = {
        "schema_version": 1,
        "model": model or {"name": "pinning", "parameters": {"n": 4}},
        "command": command,
        "output": {"dir": str(tmp_path / "out"), "format": "structured"},
    }
    path = str(tmp_path / "config.json")
    with open(path, "w") as handle:
        json.dump(doc, handle)
    return path


def test_cli_run_exits_zero_on_pass(tmp_path, capsys):
    path = _write_config(tmp_path)
    assert cli.main(["dl", "--config", path, "--quiet"]) == 0
    assert os.path.exists(str(tmp_path / "out" / "report.json"))


def test_cli_exit_one_on_failing_record(tmp_path, monkeypatch):
    path = _write_config(tmp_path)
    bad = Report("dl", "m", "0" * 64, "0", "now",
                 (CheckRecord("x", "plumbing", "fail", 1.0, 0.0, 0.0),))
    monkeypatch.setattr(cli, "run", lambda config: bad)
    assert cli.main(["dl", "--config", path, "--quiet"]) == 1


def _swap_two_overlapping_bonds(monkeypatch):
    """The primary covering's order with its first two adjacent overlapping bonds swapped."""
    true_decompose = runner.pyramid_decompose

    def decompose(a):
        primary, shifted = true_decompose(a)
        order = list(primary.order)
        i = next(i for i, (t, u) in enumerate(zip(order, order[1:]))
                 if set(a.h.terms[t].support) & set(a.h.terms[u].support))
        order[i], order[i + 1] = order[i + 1], order[i]
        return dataclasses.replace(primary, order=tuple(order)), shifted

    monkeypatch.setattr(runner, "pyramid_decompose", decompose)


def _drop_an_inside_term(monkeypatch):
    """The cone with the lowest term of its last non-empty depth left out."""
    true_cone = correlations.causality_cone

    def cone(a, seed, l):
        found = true_cone(a, seed, l)
        inside = list(found.inside)
        depth = max(k for k, members in enumerate(inside) if members)
        inside[depth] = inside[depth] - {min(inside[depth])}
        return dataclasses.replace(found, inside=tuple(inside))

    monkeypatch.setattr(correlations, "causality_cone", cone)


def _tilt_a_ground_column(monkeypatch):
    """The first ground column turned by 1e-3 rad toward the first excited eigenvector:
    still orthonormal to the others, no longer in the kernel of the terms."""
    true_ground_space = runner.ground_space

    def ground_space(h, spectrum_data):
        gs = true_ground_space(h, spectrum_data)
        basis = gs.basis.copy()
        excited = spectrum_data.columns(gs.degeneracy + 1)[:, -1]
        basis[:, 0] = np.cos(1e-3) * basis[:, 0] + np.sin(1e-3) * excited
        return dataclasses.replace(gs, basis=basis)

    monkeypatch.setattr(runner, "ground_space", ground_space)


def _overstate_the_gap(monkeypatch):
    """The ground space with its gap reported 10 % larger than the spectrum's."""
    true_ground_space = runner.ground_space

    def ground_space(h, spectrum_data):
        gs = true_ground_space(h, spectrum_data)
        return dataclasses.replace(gs, gap=1.1 * gs.gap)

    monkeypatch.setattr(runner, "ground_space", ground_space)


@pytest.mark.parametrize("fault, records", [
    (_swap_two_overlapping_bonds, ["pyramid-identity"]),
    (_drop_an_inside_term, ["cone-absorption"]),
    # the cone's absorption is measured on the same column, so it fails too
    (_tilt_a_ground_column, ["frustration-free", "ground-fixed-point", "cone-absorption"]),
    # the filter's bound exp(-q gap^2 / 2) falls under the filter's measured norm
    (_overstate_the_gap, ["spectral-filter"]),
], ids=["pyramid-identity", "cone-absorption", "ground-column-off-the-kernel",
        "gap-overstated"])
def test_injected_fault_fails_its_record(tmp_path, monkeypatch, fault, records):
    # heisenberg-ferro(6) passes verify; each fault is the one its records exist to catch
    fault(monkeypatch)
    path = _write_config(tmp_path, command="verify",
                         model={"name": "heisenberg-ferro", "parameters": {"n": 6}})
    assert cli.main(["verify", "--config", path, "--quiet"]) == 1
    with open(str(tmp_path / "out" / "report.json")) as handle:
        checks = json.load(handle)["checks"]
    assert [c["name"] for c in checks if c["status"] == "fail"] == records


def test_cli_exit_two_on_bad_config(tmp_path):
    path = str(tmp_path / "broken.json")
    with open(path, "w") as handle:
        handle.write("{not json")
    assert cli.main(["gap", "--config", path]) == 2


@pytest.mark.parametrize("name", ["missing.json", "", "latin1.json"],
                         ids=["missing", "directory", "not-utf8"])
def test_cli_exit_two_on_unreadable_config(tmp_path, capsys, name):
    (tmp_path / "latin1.json").write_bytes(b'{"command": "gap", "model": "\xe9"}')
    path = str(tmp_path / name)
    assert cli.main(["gap", "--config", path, "--quiet"]) == 2
    assert repr(path) in capsys.readouterr().err


@pytest.mark.parametrize("case", ["model-path-directory", "output-dir-not-string",
                                  "output-dir-under-a-file"])
def test_cli_exit_two_on_unusable_path_in_config(tmp_path, capsys, case):
    pinning = {"name": "pinning", "parameters": {"n": 3}}
    blocked = str(tmp_path / "file.txt" / "out")  # under a regular file
    (tmp_path / "file.txt").write_text("x")
    model, out, named = {
        "model-path-directory": ({"path": str(tmp_path)}, str(tmp_path / "out"), "'model.path'"),
        "output-dir-not-string": (pinning, 5, "'output.dir'"),
        "output-dir-under-a-file": (pinning, blocked, blocked),
    }[case]
    path = str(tmp_path / "config.json")
    with open(path, "w") as handle:
        json.dump({"command": "gap", "model": model, "output": {"dir": out}}, handle)
    assert cli.main(["gap", "--config", path, "--quiet"]) == 2
    assert named in capsys.readouterr().err


def test_cli_model_emit_exit_two_on_directory(tmp_path, capsys):
    argv = ["model", "emit", "--name", "pinning", "--set", "n=3", "--out", str(tmp_path)]
    assert cli.main(argv) == 2
    assert repr(str(tmp_path)) in capsys.readouterr().err


def test_cli_exit_two_on_list_config(tmp_path, capsys):
    path = str(tmp_path / "list.json")
    with open(path, "w") as handle:
        json.dump([{"command": "gap", "model": {"name": "pinning"}}], handle)
    assert cli.main(["gap", "--config", path, "--quiet"]) == 2
    assert "top level" in capsys.readouterr().err


def test_cli_exit_two_on_hamiltonian_without_sites_n(tmp_path, capsys, pinning6):
    doc = hamiltonian_to_document(pinning6.h)
    del doc["sites"]["n"]
    model_path = str(tmp_path / "model.json")
    with open(model_path, "w") as handle:
        json.dump(doc, handle)
    path = _write_config(tmp_path, command="gap", model={"path": model_path})
    assert cli.main(["gap", "--config", path, "--quiet"]) == 2
    assert "'sites.n'" in capsys.readouterr().err


# |11><11| as the [re, im] rows of a Hamiltonian document: a projector on a pair of qubits
_PAIR_ROWS = [[[float(i == j == 3), 0.0] for j in range(4)] for i in range(4)]


@pytest.mark.parametrize("edit, field", [
    (lambda doc: doc["terms"][0].pop("matrix"), "terms[0].matrix"),
    (lambda doc: doc["terms"][2].pop("support"), "terms[2].support"),
    (lambda doc: doc["sites"].update(geometry={"kind": "torus-2d", "ly": 2}),
     "sites.geometry.lx"),
    (lambda doc: doc["sites"].update(geometry={"kind": "torus-2d", "lx": 2}),
     "sites.geometry.ly"),
    (lambda doc: doc["sites"].update(geometry={"kind": "custom-adjacency"}),
     "sites.geometry.edges"),
    # malformed values used to escape as ValueError or TypeError (exit 1), or to truncate
    (lambda doc: doc["sites"].update(n="x"), "sites.n"),
    (lambda doc: doc["sites"].update(n=4.5), "sites.n"),
    (lambda doc: doc["terms"][0].update(support=["a"]), "terms[0].support"),
    (lambda doc: doc.update(terms=5), "terms"),
    (lambda doc: doc["sites"].update(geometry={"kind": "custom-adjacency", "edges": [[0]]}),
     "sites.geometry.edges[0]"),
    (lambda doc: doc["sites"].update(geometry={"kind": "custom-adjacency",
                                               "edges": [[0, 1.5]]}),
     "sites.geometry.edges[0]"),
    (lambda doc: doc["terms"][0].update(matrix=[[[1, 0], [0, 0]]]), "terms[0].matrix"),
    # finite entries whose square overflows: the projector test used to run on nan
    (lambda doc: doc["terms"][0].update(matrix=[[[1.7e308, 0], [-1.7e308, 0]],
                                                [[-1.7e308, 0], [1.7e308, 0]]]),
     "terms[0].matrix"),
    # an empty support on a geometry that admits any support: used to escape as IndexError
    (lambda doc: doc["sites"].update(geometry={"kind": "custom-adjacency", "edges": []})
     or doc["terms"][0].update(support=[], matrix=[[[0, 0]]]), "terms[0].support"),
    # out of range: each exited 2 with a message naming no field
    (lambda doc: doc["sites"].update(n=0), "sites.n"),
    (lambda doc: doc["sites"].update(d=1), "sites.d"),
    (lambda doc: doc["sites"].update(geometry={"kind": "torus-2d", "lx": 1, "ly": 3}),
     "sites.geometry.lx"),
    (lambda doc: doc["sites"].update(geometry={"kind": "torus-2d", "lx": 3, "ly": 1}),
     "sites.geometry.ly"),
    (lambda doc: doc["sites"].update(geometry={"kind": 5}), "sites.geometry.kind"),
    (lambda doc: doc["terms"][0].update(support=[9]), "terms[0].support"),
    # two fields against each other: each exited 2 with a message naming no field
    (lambda doc: doc["sites"].update(geometry={"kind": "torus-2d", "lx": 2, "ly": 2}),
     "sites.n"),
    (lambda doc: doc["sites"].update(geometry={"kind": "custom-adjacency",
                                               "edges": [[0, 1], [0, 7]]}),
     "sites.geometry.edges[1]"),
    (lambda doc: doc["terms"][1].update(matrix=_PAIR_ROWS),
     "terms[1].matrix"),
    (lambda doc: doc["terms"][1].update(support=[0, 2],
                                        matrix=_PAIR_ROWS),
     "terms[1].support"),
    (lambda doc: doc.update(terms=[]), "terms"),
    # d**n beyond 64 bits: exited 2 with a message naming no field
    (lambda doc: doc["sites"].update(n=70), "sites.n"),
], ids=["matrix", "support", "lx", "ly", "edges", "string-n", "float-n", "string-support",
        "int-terms", "edge-single", "edge-float", "non-square-matrix", "overflow-matrix",
        "empty-support", "n-below-one", "d-below-two", "lx-below-two", "ly-below-two",
        "geometry-kind", "support-site", "torus-site-count", "edge-beyond-n",
        "matrix-not-d-pow-k", "support-not-admitted", "no-terms", "dimension-overflow"])
def test_cli_exit_two_on_hamiltonian_missing_field(tmp_path, capsys, pinning6, edit, field):
    doc = hamiltonian_to_document(pinning6.h)
    edit(doc)
    model_path = str(tmp_path / "model.json")
    with open(model_path, "w") as handle:
        json.dump(doc, handle)
    path = _write_config(tmp_path, command="gap", model={"path": model_path})
    assert cli.main(["gap", "--config", path, "--quiet"]) == 2
    assert f"'{field}'" in capsys.readouterr().err


@pytest.mark.parametrize("edit, field", [
    (lambda doc: doc.update(schema_version=7), "schema_version"),
    (lambda doc: doc.update(schema_version=True), "schema_version"),
    (lambda doc: doc.update(kind="report"), "kind"),
    (lambda doc: doc.update(comment="pinning"), "comment"),
    (lambda doc: doc["sites"].update(geometryy={"kind": "chain-periodic"}), "sites.geometryy"),
    (lambda doc: doc["sites"]["geometry"].update(lx=2), "sites.geometry.lx"),
    # the keys a geometry may hold depend on its kind: lx belongs to the torus only
    (lambda doc: doc["sites"].update(geometry={"kind": "custom-adjacency", "edges": [],
                                               "lx": 2}), "sites.geometry.lx"),
    # is_projector is derived from the matrix, never read
    (lambda doc: doc["terms"][0].update(is_projector=False), "terms[0].is_projector"),
], ids=["schema-version", "schema-version-bool", "kind", "top-level", "sites-key",
        "chain-geometry-key", "custom-geometry-key", "term-key"])
def test_cli_exit_two_on_unknown_hamiltonian_field(tmp_path, capsys, edit, field):
    # each used to be ignored: gap ran the pinning(4) model to exit 0
    doc = hamiltonian_to_document(build_model(ModelDescriptor.make("pinning", n=4)))
    edit(doc)
    model_path = str(tmp_path / "model.json")
    with open(model_path, "w") as handle:
        json.dump(doc, handle)
    path = _write_config(tmp_path, command="gap", model={"path": model_path})
    assert cli.main(["gap", "--config", path, "--quiet"]) == 2
    assert f"'{field}'" in capsys.readouterr().err


@pytest.mark.parametrize("document", ["config", "model"])
def test_cli_exit_two_on_a_key_given_twice(tmp_path, capsys, document):
    # each used to keep the last value and exit 0: the count dropped, or a 3-site model built
    model_path = str(tmp_path / "model.json")
    model_text = dumps_document(hamiltonian_to_document(
        build_model(ModelDescriptor.make("pinning", n=3))))
    config_text = ('{"schema_version": 1, "command": "gap", "model": {"path": %s}, '
                   '"parameters": {"count": 3}, "parameters": {}}' % json.dumps(model_path))
    if document == "model":
        model_text = model_text.replace('"sites":{"n":3', '"sites":{"n":2,"n":3')
        config_text = config_text.replace(', "parameters": {}', "")
    (tmp_path / "model.json").write_text(model_text)
    path = str(tmp_path / "config.json")
    (tmp_path / "config.json").write_text(config_text)
    assert cli.main(["gap", "--config", path, "--out", str(tmp_path / "out"), "--quiet"]) == 2
    key = {"config": "'parameters'", "model": "'n'"}[document]
    assert f"document key {key} appears twice" in capsys.readouterr().err
    assert not os.path.exists(str(tmp_path / "out" / "report.json"))


@pytest.mark.parametrize("parameters", [{"count": "x"}, {"l_max": "ten"}, {"seed": "s"}],
                         ids=["count", "l_max", "seed"])
def test_cli_exit_two_on_non_integer_parameter(tmp_path, capsys, parameters):
    key, = parameters
    doc = {"schema_version": 1, "model": {"name": "pinning", "parameters": {"n": 4}},
           "command": "verify", "parameters": parameters,
           "output": {"dir": str(tmp_path / "out"), "format": "structured"}}
    path = str(tmp_path / "config.json")
    with open(path, "w") as handle:
        json.dump(doc, handle)
    assert cli.main(["verify", "--config", path, "--quiet"]) == 2
    err = capsys.readouterr().err
    assert f"'parameters.{key}'" in err and "expected an integer" in err


@pytest.mark.parametrize("count", [-100, -2, 0])
def test_cli_exit_two_on_count_below_one(tmp_path, capsys, count):
    doc = {"schema_version": 1, "model": {"name": "pinning", "parameters": {"n": 4}},
           "command": "gap", "parameters": {"count": count},
           "output": {"dir": str(tmp_path / "out"), "format": "structured"}}
    path = str(tmp_path / "config.json")
    with open(path, "w") as handle:
        json.dump(doc, handle)
    assert cli.main(["gap", "--config", path, "--quiet"]) == 2
    assert "'parameters.count'" in capsys.readouterr().err
    with pytest.raises(ValidationError, match="parameters.count"):
        run(RunConfig.from_document(doc))


def _count_ground_kernel_calls(monkeypatch) -> list:
    calls = []
    original = states.ground_kernel

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(states, "ground_kernel", counting)
    return calls


def _write_gap_config(tmp_path, model, parameters) -> str:
    doc = {"schema_version": 1, "model": model, "command": "gap", "parameters": parameters,
           "output": {"dir": str(tmp_path / "out"), "format": "structured"}}
    path = str(tmp_path / "config.json")
    with open(path, "w") as handle:
        json.dump(doc, handle)
    return path


@pytest.mark.parametrize("model, count, code", [
    (AKLT8, 100000, 2),  # used to reach ARPACK after the ground-space solve: TypeError, exit 1
    ({"name": "pinning", "parameters": {"n": 4}}, 17, 2),  # used to exit 0 with 16 rows
    ({"name": "pinning", "parameters": {"n": 4}}, 16, 0),  # the dimension itself is allowed
], ids=["aklt8", "pinning4", "pinning4-dim"])
def test_cli_count_bounded_by_dimension(tmp_path, monkeypatch, capsys, model, count, code):
    calls = _count_ground_kernel_calls(monkeypatch)
    path = _write_gap_config(tmp_path, model, {"count": count})
    assert cli.main(["gap", "--config", path, "--quiet"]) == code
    if code == 2:
        assert "'parameters.count'" in capsys.readouterr().err
        assert calls == []


def test_dimension_cap_checked_before_any_solve(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("DL_LAB_MAX_DIM", "1000")
    calls = _count_ground_kernel_calls(monkeypatch)
    path = _write_gap_config(tmp_path, AKLT8, {})
    assert cli.main(["gap", "--config", path, "--quiet"]) == 2
    assert "exceeds cap 1000" in capsys.readouterr().err
    assert calls == []


def test_dimension_cap_checked_before_the_parent_state_is_built(tmp_path, monkeypatch, capsys):
    # parent-random(8,2,1,4) has dimension 256: refused before its MPS state is contracted
    monkeypatch.setenv("DL_LAB_MAX_DIM", "100")
    calls = []
    monkeypatch.setattr(models, "random_mps_state", lambda *args: calls.append(args))
    path = _write_gap_config(tmp_path, {"name": "parent-random",
                                        "parameters": {"n": 8, "d": 2, "bond": 1, "seed": 4}}, {})
    assert cli.main(["gap", "--config", path, "--quiet"]) == 2
    assert "exceeds cap 100" in capsys.readouterr().err
    assert calls == []


def test_malformed_dimension_cap_exits_two(tmp_path, monkeypatch, capsys):
    # used to escape from a bare int() as ValueError, exit 1
    monkeypatch.setenv("DL_LAB_MAX_DIM", "abc")
    path = _write_gap_config(tmp_path, {"name": "pinning", "parameters": {"n": 4}}, {})
    assert cli.main(["gap", "--config", path, "--quiet"]) == 2
    assert "DL_LAB_MAX_DIM" in capsys.readouterr().err


@pytest.mark.parametrize("update, field", [
    ({"parameters": {"seed": -1}}, "parameters.seed"),
    ({"parameters": {"l_max_tail": 0}}, "parameters.l_max_tail"),
    ({"parameters": {"cone_site": 9}}, "parameters.cone_site"),
    ({"parameters": {"distances": "ab"}}, "parameters.distances"),
    ({"output": "o"}, "output"),
    ({"parameters": {"norm_energy_samples": 0}}, "parameters.norm_energy_samples"),
    # escaped as numpy's ArrayMemoryError, exit 1
    ({"parameters": {"norm_energy_samples": 10 ** 11}}, "parameters.norm_energy_samples"),
    ({"parameters": {"rank_steps": 0}}, "parameters.rank_steps"),
    # each of these used to pass vacuously, wrap round the open chain, or name no field
    ({"parameters": {"x_site": 99}}, "parameters.x_site"),
    ({"parameters": {"x_site": 3}}, "parameters.x_site"),
    ({"parameters": {"window": -1}}, "parameters.window"),
    ({"parameters": {"cut_shift": -5}}, "parameters.cut_shift"),
    ({"parameters": {"max_distance": -3}}, "parameters.max_distance"),
    ({"parameters": {"distances": []}}, "parameters.distances"),
    ({"parameters": {"distances": [5]}}, "parameters.distances"),
    ({"parameters": {"distances": [2, 5]}}, "parameters.distances"),
    ({"parameters": {"distances": [2, 1]}}, "parameters.distances"),
    ({"parameters": {"cut": 0}}, "parameters.cut"),
    ({"parameters": {"l_max": 0}}, "parameters.l_max"),
    ({"parameters": {"cone_rounds": 0}}, "parameters.cone_rounds"),
    ({"parameters": {"observable": "foo"}}, "parameters.observable"),
    ({"parameters": {"seed": True}}, "parameters.seed"),
    ({"parameters": {"seed": 5.7}}, "parameters.seed"),
    ({"parameters": {"lmax": 5}}, "parameters.lmax"),
    # these two escaped as TypeError and numpy's ValueError
    ({"model": {"name": ["pinning"], "parameters": {"n": 4}}}, "model.name"),
    ({"model": {"name": "parent-random",
                "parameters": {"n": 6, "d": 2, "bond": 2, "seed": -1}}}, "model.parameters.seed"),
    # each of these exited 2 with a message naming no field
    ({"model": {"name": "pinning", "parameters": {"n": 0}}}, "model.parameters.n"),
    ({"model": {"name": "heisenberg-ferro", "parameters": {"n": 1}}}, "model.parameters.n"),
    ({"model": {"name": "aklt", "parameters": {"n": 1}}}, "model.parameters.n"),
    ({"model": {"name": "toric-code", "parameters": {"lx": 1, "ly": 2}}}, "model.parameters.lx"),
    ({"model": {"name": "toric-code", "parameters": {"lx": 2, "ly": 1}}}, "model.parameters.ly"),
    ({"model": {"name": "parent-random",
                "parameters": {"n": 2, "d": 2, "bond": 1, "seed": 0}}}, "model.parameters.n"),
    ({"model": {"name": "parent-random",
                "parameters": {"n": 4, "d": 1, "bond": 1, "seed": 0}}}, "model.parameters.d"),
    ({"model": {"name": "parent-random",
                "parameters": {"n": 4, "d": 2, "bond": 0, "seed": 0}}}, "model.parameters.bond"),
    # against another parameter: exited 2 with a message naming no field
    ({"model": {"name": "parent-random",
                "parameters": {"n": 4, "d": 2, "bond": 3, "seed": 0}}}, "model.parameters.bond"),
    # d**n beyond 64 bits: exited 2 with a message naming no field
    ({"model": {"name": "pinning", "parameters": {"n": 100}}}, "model.parameters.n"),
    ({"model": {"name": "toric-code", "parameters": {"lx": 6, "ly": 6}}}, "model.parameters.lx"),
], ids=["seed", "l_max_tail", "cone_site", "distances", "output", "norm_energy_samples",
        "norm_energy_samples-huge", "rank_steps", "x_site", "x_site-last", "window",
        "cut_shift", "max_distance", "distances-empty", "distances-wrap",
        "distances-tail-wrap", "distances-decreasing",
        "cut", "l_max", "cone_rounds", "observable", "seed-bool", "seed-float", "unknown-key",
        "model-name-list", "model-seed", "pinning-n", "heisenberg-n", "aklt-n", "toric-lx",
        "toric-ly", "parent-n", "parent-d", "parent-bond", "parent-bond-above-d",
        "pinning-n-overflow", "toric-size-overflow"])
def test_cli_exit_two_on_out_of_range_parameter(tmp_path, capsys, update, field):
    # each used to escape as a Python exception (exit 1), name no field, or pass vacuously
    doc = {"schema_version": 1, "model": {"name": "pinning", "parameters": {"n": 4}},
           "command": "verify", "output": {"dir": str(tmp_path / "out"), "format": "structured"}}
    doc.update(update)
    path = str(tmp_path / "config.json")
    with open(path, "w") as handle:
        json.dump(doc, handle)
    assert cli.main(["verify", "--config", path, "--quiet"]) == 2
    assert f"'{field}'" in capsys.readouterr().err


_FUZZ_VALUES = st.one_of(st.none(), st.booleans(), st.integers(-3, 12), st.integers(),
                         st.floats(allow_nan=False), st.text(max_size=3),
                         st.lists(st.one_of(st.integers(-2, 6), st.booleans(), st.floats()),
                                  max_size=3))


@settings(max_examples=150, deadline=None, database=None)
@given(st.dictionaries(st.sampled_from(sorted(RUN_PARAMETERS) + ["lmax", "shrink_tolerance"]),
                       _FUZZ_VALUES, max_size=3))
def test_cli_gap_fuzzed_parameters_exit_zero_or_two(parameters):
    # never an uncaught exception (exit 1 or a traceback); each refusal names its key, and
    # an unknown key or a null, boolean or float value (no parameter takes one) is refused
    with tempfile.TemporaryDirectory() as tmp:
        doc = {"schema_version": 1, "model": {"name": "pinning", "parameters": {"n": 4}},
               "command": "gap", "parameters": parameters,
               "output": {"dir": os.path.join(tmp, "out"), "format": "structured"}}
        path = os.path.join(tmp, "config.json")
        with open(path, "w") as handle:
            json.dump(doc, handle)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(["gap", "--config", path, "--quiet"])
    assert code in (0, 2)
    if set(parameters) - set(RUN_PARAMETERS) or any(
            type(v) in (type(None), bool, float) for v in parameters.values()):
        assert code == 2, parameters
    if code == 2:
        assert any(f"'parameters.{key}'" in err.getvalue() for key in parameters), err.getvalue()


@pytest.mark.parametrize("update, field", [
    ({"paramters": {"count": 3}}, "paramters"),
    ({"outptu": {"format": "csv"}}, "outptu"),
    ({"output": {"format": "structured", "fromat": "csv"}}, "output.fromat"),
    ({"schema_version": 7}, "schema_version"),
    ({"schema_version": True}, "schema_version"),
    ({"schema_version": 1.0}, "schema_version"),
    # the path used to win, and aklt(4) was dropped without a word; a None path is set to a
    # pinning(4) model file
    ({"model": {"name": "aklt", "parameters": {"n": 4}, "path": None}}, "model.name"),
    ({"model": {"path": None, "parameters": {"n": 4}}}, "model.parameters"),
    ({"model": {"name": "pinning", "parameters": {"n": 4}, "expect": {"gap": 1.0}}},
     "model.expect"),
], ids=["top-level", "output-section", "output-key", "schema-version", "schema-version-bool",
        "schema-version-float", "name-and-path", "path-with-parameters", "model-key"])
def test_cli_exit_two_on_unknown_config_key(tmp_path, capsys, update, field):
    # each used to be ignored: the run went on with defaults and exited 0
    model_path = str(tmp_path / "pinning4.json")
    save_hamiltonian(model_path, build_model(ModelDescriptor.make("pinning", n=4)))
    doc = {"schema_version": 1, "model": {"name": "pinning", "parameters": {"n": 4}},
           "command": "gap", **update}
    if "path" in doc["model"]:
        doc["model"] = {**doc["model"], "path": model_path}
    path = str(tmp_path / "config.json")
    with open(path, "w") as handle:
        json.dump(doc, handle)
    assert cli.main(["gap", "--config", path, "--out", str(tmp_path / "out"), "--quiet"]) == 2
    assert f"'{field}'" in capsys.readouterr().err
    assert not os.path.exists(str(tmp_path / "out" / "report.json"))


# Small models for the run-parameter fuzz.  parent-random(3,3,2,0) is a valid chain on which
# correlation-decay fails its slope test, so verify exits 1 there with a failing record
_FUZZ_SMALL_MODELS = (
    {"name": "pinning", "parameters": {"n": 3}},
    {"name": "heisenberg-ferro", "parameters": {"n": 3}},
    {"name": "heisenberg-ferro", "parameters": {"n": 4, "periodic": True}},
    {"name": "aklt", "parameters": {"n": 3}},
    {"name": "aklt", "parameters": {"n": 4, "periodic": True}},
    {"name": "toric-code", "parameters": {"lx": 2, "ly": 2}},
    {"name": "parent-random", "parameters": {"n": 4, "d": 2, "bond": 1, "seed": 0}},
    {"name": "parent-random", "parameters": {"n": 3, "d": 3, "bond": 2, "seed": 0}},
)
_MISSPELT_KEYS = ("paramters", "outptu", "schema", "model.paramters", "model.expect",
                  "output.fromat", "output.directory")


@st.composite
def _fuzzed_run_config(draw):
    """A run config with either a fuzzed model section (every bundled family, each size in
    [-2, 3], through gap or verify) or a fuzzed run-parameter set (a small model, any
    command), and in one case of four a misspelt key, returned as (doc, the key or None)."""
    if draw(st.booleans()):
        name = draw(st.sampled_from(sorted(models.MODELS)))
        schema = models.MODELS[name][1]
        optional = {key: st.booleans() if kind is bool else st.integers(-2, 3)
                    for key, (kind, *_) in schema.items()}
        model = {"name": name, "parameters": draw(st.fixed_dictionaries({}, optional=optional))}
        command, parameters = draw(st.sampled_from(["gap", "verify"])), {}
    else:
        model = draw(st.sampled_from(_FUZZ_SMALL_MODELS))
        command = draw(st.sampled_from(runner.COMMANDS))
        values = st.one_of(st.integers(-1, 6), st.sampled_from(["sz", "sx", "number", "s"]),
                           st.lists(st.integers(0, 4), max_size=3), st.booleans())
        parameters = draw(st.dictionaries(st.sampled_from(sorted(RUN_PARAMETERS)), values,
                                          max_size=3))
    doc = {"schema_version": 1, "model": json.loads(json.dumps(model)), "command": command,
           "parameters": parameters, "output": {"format": draw(st.sampled_from(runner.FORMATS))}}
    misspelt = draw(st.sampled_from(_MISSPELT_KEYS)) if draw(st.integers(0, 3)) == 0 else None
    if misspelt is not None:
        *section, key = misspelt.split(".")
        (doc[section[0]] if section else doc)[key] = 1
    return doc, misspelt


@settings(max_examples=150, deadline=None, database=None)
@given(_fuzzed_run_config())
def test_cli_fuzzed_run_config_exit_status(case):
    # exit 0, 1 or 2 and never an uncaught exception; exit 1 only with a failing record in
    # report.json, and a misspelt key always refused by name
    doc, misspelt = case
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.dict(os.environ, {"DL_LAB_MAX_DIM": "256"}):
        path = os.path.join(tmp, "config.json")
        with open(path, "w") as handle:
            json.dump(doc, handle)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main([doc["command"], "--config", path, "--out",
                             os.path.join(tmp, "out"), "--quiet"])
        assert code in (0, 1, 2)
        if code == 1:
            with open(os.path.join(tmp, "out", "report.json")) as handle:
                statuses = [check["status"] for check in json.load(handle)["checks"]]
            assert "fail" in statuses, doc
    if misspelt is not None:
        assert code == 2 and f"'{misspelt}'" in err.getvalue(), (doc, err.getvalue())


def _schemas_run_parameter_rows() -> dict:
    """key -> (type, default, range) cells of the run-parameter table of docs/schemas.md."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "docs", "schemas.md")
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    rows = {}
    for line in text[text.index("### Run parameters"):].splitlines():
        if line.startswith("| `"):
            key, kind, default, bounds = (c.strip().strip("`") for c in line.split("|")[1:5])
            rows[key] = (kind, default, bounds)
        elif rows:
            break
    return rows


@pytest.mark.parametrize("n", [2, 7])
def test_schemas_doc_matches_run_parameters(n):
    rows = _schemas_run_parameter_rows()
    assert list(rows) == list(RUN_PARAMETERS)
    kinds = {"integer": int, "string": str, "list of integers": list}
    for key, (kind, *rest) in RUN_PARAMETERS.items():
        default, low, high = [*(r(n) if callable(r) else r for r in rest), None][:3]
        doc_kind, doc_default, doc_bounds = rows[key]
        assert kinds[doc_kind] is kind, key
        assert (None if doc_default == "unset" else eval(doc_default, {"n": n})) == default, key
        if doc_bounds.startswith(">= "):
            assert (int(doc_bounds[3:]), None) == (low, high), key
        else:
            expected = low if kind is str else [low, high]
            assert eval(doc_bounds, {"n": n}) == expected, key


@pytest.mark.parametrize("model, field", [
    ({"name": "aklt", "parameters": {}}, "model.parameters.n"),
    ({"name": "toric-code", "parameters": {"lx": 2}}, "model.parameters.ly"),
    ({"name": "parent-random", "parameters": {"n": 6, "d": 3, "bond": 2}},
     "model.parameters.seed"),
    ({"name": "aklt", "parameters": {"n": "x"}}, "model.parameters.n"),
    ({"name": "aklt", "parameters": [1]}, "model.parameters"),
    ({"name": "aklt", "parameters": {"n": 4}, "expected": [1]}, "model.expected"),
    ({"name": "aklt", "parameters": {"n": 4}, "expected": {"degeneracy": 99}}, "model.expected"),
    ({"name": "aklt", "parameters": {"n": 4, "bogus": 1}}, "model.parameters.bogus"),
    ({"name": "aklt", "parameters": {"n": 4, "periodic": "no"}}, "model.parameters.periodic"),
], ids=["missing-n", "missing-ly", "missing-seed", "string-n", "list-parameters",
        "list-expected", "object-expected", "unknown-key", "string-periodic"])
def test_cli_exit_two_on_bad_model_document(tmp_path, capsys, model, field):
    path = _write_config(tmp_path, command="gap", model=model)
    assert cli.main(["gap", "--config", path, "--quiet"]) == 2
    assert f"'{field}'" in capsys.readouterr().err


def test_cli_exit_two_on_command_mismatch(tmp_path, capsys):
    path = _write_config(tmp_path, command="dl")
    assert cli.main(["gap", "--config", path, "--quiet"]) == 2
    assert "'dl'" in capsys.readouterr().err
    assert not os.path.exists(str(tmp_path / "out" / "report.json"))


@pytest.mark.parametrize("command", ["correlate", "verify"])
def test_cli_correlates_by_graph_distance_off_a_chain(tmp_path, command):
    # edges (0,2) and (1,2): site 2 lies one edge from x_site 0 and site 1 two; picked by
    # index offset, the family's distances came out 2, 1, and the run exited 2
    model_path = str(tmp_path / "planted.json")
    save_hamiltonian(model_path, planted_product_model(2, [(0, 2), (1, 2)], seed=0))
    path = _write_config(tmp_path, command=command, model={"path": model_path})
    assert cli.main([command, "--config", path, "--quiet"]) == 0
    with open(tmp_path / "out" / "report.json") as handle:
        checks = {check["name"]: check for check in json.load(handle)["checks"]}
    assert checks["correlation-identity"]["status"] == "pass"
    # the planted product state is the ground state, so every correlation is 0
    assert checks["correlation-decay"]["status"] == "hypothesis-not-met"


def test_cli_model_list(capsys):
    assert cli.main(["model", "list"]) == 0
    output = capsys.readouterr().out
    assert output.splitlines() == [descriptor.label() for descriptor in models.BUNDLED_MODELS]
    assert "expected" not in output


def test_cli_model_emit(tmp_path, capsys):
    out = str(tmp_path / "emitted.json")
    code = cli.main(["model", "emit", "--name", "heisenberg-ferro",
                     "--set", "n=3", "--out", out])
    assert code == 0
    h = load_hamiltonian(out)
    assert h.m == 2
    assert h.sites.n == 3


@pytest.mark.parametrize("key", ["name", "expected"])
def test_cli_model_emit_refuses_a_descriptor_field_as_a_parameter(tmp_path, capsys, key):
    # each used to escape from ModelDescriptor.make as TypeError or AttributeError, exit 1
    argv = ["model", "emit", "--name", "aklt", "--set", "n=4", "--set", f"{key}=3",
            "--out", str(tmp_path / "model.json")]
    assert cli.main(argv) == 2
    assert f"'model.parameters.{key}'" in capsys.readouterr().err
    assert not os.path.exists(str(tmp_path / "model.json"))


def test_cli_model_emit_refuses_a_repeated_set_key(tmp_path, capsys):
    # used to keep the last value: a five-site chain written with exit 0
    argv = ["model", "emit", "--name", "aklt", "--set", "n=4", "--set", "n=5",
            "--out", str(tmp_path / "model.json")]
    assert cli.main(argv) == 2
    assert "'model.parameters.n'" in capsys.readouterr().err
    assert not os.path.exists(str(tmp_path / "model.json"))


@pytest.mark.parametrize("descriptor", models.BUNDLED_MODELS, ids=lambda desc: desc.label())
def test_cli_model_emit_round_trip_of_every_bundled_model(tmp_path, descriptor):
    out = str(tmp_path / "model.json")
    sets = [arg for key, value in descriptor.parameters for arg in ("--set", f"{key}={value}")]
    assert cli.main(["model", "emit", "--name", descriptor.name, *sets, "--out", out]) == 0
    h, back = build_model(descriptor), load_hamiltonian(out)
    assert back.sites == h.sites
    assert [t.support for t in back.terms] == [t.support for t in h.terms]
    for orig, redo in zip(h.terms, back.terms):
        assert np.array_equal(np.asarray(orig.matrix, dtype=complex), redo.matrix)
        assert orig.is_projector == redo.is_projector


def test_cli_format_override(tmp_path):
    path = _write_config(tmp_path, command="converge")
    assert cli.main(["converge", "--config", path, "--quiet", "--format", "csv",
                     "--out", str(tmp_path / "alt")]) == 0
    assert os.path.exists(str(tmp_path / "alt" / "convergence.csv"))