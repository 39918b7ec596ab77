"""Serialization schemas, report round-trips, CLI driver behavior."""
import json
import os

import numpy as np
import pytest

import dl_lab.cli as cli
from dl_lab import runner, states
from dl_lab.errors import ConvergenceError, ValidationError
from dl_lab.hamiltonian import HamiltonianSpec, LocalTerm, SiteSpace, chain_geometry, \
    custom_geometry, torus_geometry
from dl_lab.io import (dumps_document, format_float, hamiltonian_from_document,
                       hamiltonian_to_document, load_hamiltonian, loads_document,
                       save_hamiltonian, state_from_bytes, state_from_document,
                       state_to_bytes, state_to_document, write_csv)
from dl_lab.runner import (CheckRecord, Report, RunConfig, emit_report,
                           report_from_document, report_to_document, run)
from dl_lab.models import ModelDescriptor, build_model
from dl_lab.states import DENSE_CUTOFF, random_state


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
        assert geometry_from_document(geometry_to_document(geom)) == geom


def test_hamiltonian_file_round_trip(tmp_path, pinning6):
    path = str(tmp_path / "model.json")
    save_hamiltonian(path, pinning6.h)
    assert load_hamiltonian(path).m == pinning6.h.m


def test_hamiltonian_document_missing_field():
    with pytest.raises(ValidationError, match="terms"):
        hamiltonian_from_document({"sites": {"n": 2, "d": 2,
                                             "geometry": {"kind": "chain-open"}}})


# ---------------------------------------------------------------------------
# state vectors
# ---------------------------------------------------------------------------

def test_state_binary_round_trip():
    sites = SiteSpace(3, 2, chain_geometry())
    psi = random_state(sites, 42)
    back = state_from_bytes(state_to_bytes(psi), sites=sites)
    assert np.array_equal(back.amplitudes, psi.amplitudes)


def test_state_binary_magic_checked():
    with pytest.raises(ValidationError):
        state_from_bytes(b"XXXX" + b"\0" * 32)


def test_state_document_round_trip():
    sites = SiteSpace(2, 3, chain_geometry())
    psi = random_state(sites, 1)
    back = state_from_document(state_to_document(psi))
    assert np.abs(back.amplitudes - psi.amplitudes).max() == 0.0


def test_state_document_site_space_must_match():
    # n=2, d=4 has the dimension of four qubits but not their factorization
    doc = state_to_document(random_state(SiteSpace(2, 4, chain_geometry()), 1))
    with pytest.raises(ValidationError, match="site space"):
        state_from_document(doc, SiteSpace(4, 2, chain_geometry()))
    sites = SiteSpace(2, 4, chain_geometry())
    assert state_from_document(doc, sites).sites == sites


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
    report = run(_config("gap", tmp_path))
    doc = loads_document(dumps_document(report_to_document(report)))
    back = report_from_document(doc)
    assert back == Report(report.command, report.model_label, report.config_sha256,
                          report.package_version, report.created_utc, report.records,
                          report.artifact_paths)


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


def test_dense_verify_diagonalizes_once(tmp_path, monkeypatch):
    calls = _count_spectrum_calls(monkeypatch)
    model = {"name": "parent-random", "parameters": {"n": 6, "d": 3, "bond": 2, "seed": 2}}
    # a `count` parameter slices the run's spectrum in the dense regime
    for parameters in ({}, {"count": 8}):
        calls.clear()
        report = run(_config("verify", tmp_path, model=model, parameters=parameters))
        assert report.overall_pass
        assert len(calls) == 1, parameters


AKLT8 = {"name": "aklt", "parameters": {"n": 8}}  # dim 6561, ground degeneracy 4


def test_iterative_verify_solves_once(tmp_path, monkeypatch):
    assert 3 ** 8 > DENSE_CUTOFF
    calls = _count_spectrum_calls(monkeypatch)
    # the 4 fixed states of A, then max(1, count - 4) solved pairs; the table shows count rows
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
    # stands in for a fixed-space solve that misses a degenerate ground state
    true_fixed_space = runner.fixed_space

    def dropping(a):
        basis, top = true_fixed_space(a)
        return basis[:, 1:], top

    monkeypatch.setattr(runner, "fixed_space", dropping)
    path = _write_config(tmp_path, command="verify", model=AKLT8)
    assert cli.main(["verify", "--config", path, "--quiet"]) == 2
    assert "not the zero-energy space" in capsys.readouterr().err
    with pytest.raises(ConvergenceError, match="fixed space of A\\^dag A \\(3 states\\)"):
        run(_config("verify", tmp_path, model=AKLT8))


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
    calls = _count_spectrum_calls(monkeypatch)
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
    with pytest.raises(ValidationError, match="tolerance"):
        RunConfig.from_document({
            "command": "gap",
            "model": {"name": "pinning", "parameters": {"n": 3}},
            "parameters": {"shrink_tolerance": -1.0},
        })


def test_config_rejects_any_tolerance_parameter():
    with pytest.raises(ValidationError, match=r"parameters\.shrink_tolerance"):
        RunConfig.from_document({
            "command": "gap",
            "model": {"name": "pinning", "parameters": {"n": 3}},
            "parameters": {"shrink_tolerance": 1e-6},
        })


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


def test_cli_exit_two_on_bad_config(tmp_path):
    path = str(tmp_path / "broken.json")
    with open(path, "w") as handle:
        handle.write("{not json")
    assert cli.main(["gap", "--config", path]) == 2


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


@pytest.mark.parametrize("edit, field", [
    (lambda doc: doc["terms"][0].pop("matrix"), "terms[0].matrix"),
    (lambda doc: doc["terms"][2].pop("support"), "terms[2].support"),
    (lambda doc: doc["sites"].update(geometry={"kind": "torus-2d", "ly": 2}),
     "sites.geometry.lx"),
    (lambda doc: doc["sites"].update(geometry={"kind": "torus-2d", "lx": 2}),
     "sites.geometry.ly"),
    (lambda doc: doc["sites"].update(geometry={"kind": "custom-adjacency"}),
     "sites.geometry.edges"),
], ids=["matrix", "support", "lx", "ly", "edges"])
def test_cli_exit_two_on_hamiltonian_missing_field(tmp_path, capsys, pinning6, edit, field):
    doc = hamiltonian_to_document(pinning6.h)
    edit(doc)
    model_path = str(tmp_path / "model.json")
    with open(model_path, "w") as handle:
        json.dump(doc, handle)
    path = _write_config(tmp_path, command="gap", model={"path": model_path})
    assert cli.main(["gap", "--config", path, "--quiet"]) == 2
    assert f"'{field}'" in capsys.readouterr().err


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


@pytest.mark.parametrize("model, field", [
    ({"name": "aklt", "parameters": {}}, "model.parameters.n"),
    ({"name": "toric-code", "parameters": {"lx": 2}}, "model.parameters.ly"),
    ({"name": "parent-random", "parameters": {"n": 6, "d": 3, "bond": 2}},
     "model.parameters.seed"),
    ({"name": "aklt", "parameters": {"n": "x"}}, "model.parameters.n"),
    ({"name": "aklt", "parameters": [1]}, "model.parameters"),
    ({"name": "aklt", "parameters": {"n": 4}, "expected": [1]}, "model.expected"),
    ({"name": "aklt", "parameters": {"n": 4, "bogus": 1}}, "model.parameters.bogus"),
    ({"name": "aklt", "parameters": {"n": 4, "periodic": "no"}}, "model.parameters.periodic"),
], ids=["missing-n", "missing-ly", "missing-seed", "string-n", "list-parameters",
        "list-expected", "unknown-key", "string-periodic"])
def test_cli_exit_two_on_bad_model_document(tmp_path, capsys, model, field):
    path = _write_config(tmp_path, command="gap", model=model)
    assert cli.main(["gap", "--config", path, "--quiet"]) == 2
    assert f"'{field}'" in capsys.readouterr().err


def test_cli_exit_two_on_command_mismatch(tmp_path, capsys):
    path = _write_config(tmp_path, command="dl")
    assert cli.main(["gap", "--config", path, "--quiet"]) == 2
    assert "'dl'" in capsys.readouterr().err
    assert not os.path.exists(str(tmp_path / "out" / "report.json"))


def test_cli_model_list(capsys):
    assert cli.main(["model", "list"]) == 0
    output = capsys.readouterr().out
    assert "pinning" in output
    assert "toric-code" in output


def test_cli_model_emit(tmp_path, capsys):
    out = str(tmp_path / "emitted.json")
    code = cli.main(["model", "emit", "--name", "heisenberg-ferro",
                     "--set", "n=3", "--out", out])
    assert code == 0
    h = load_hamiltonian(out)
    assert h.m == 2
    assert h.sites.n == 3


def test_cli_format_override(tmp_path):
    path = _write_config(tmp_path, command="converge")
    assert cli.main(["converge", "--config", path, "--quiet", "--format", "csv",
                     "--out", str(tmp_path / "alt")]) == 0
    assert os.path.exists(str(tmp_path / "alt" / "convergence.csv"))