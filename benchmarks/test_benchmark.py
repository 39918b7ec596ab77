"""Tests of the benchmark's own machinery, on tiny models.

    PYTHONPATH=src python3 -m pytest -q benchmarks
"""
from __future__ import annotations

import copy
import json

import numpy as np

import dl_lab.cli
import dl_lab.correlations
import dl_lab.dl
import dl_lab.states
from dl_lab.dl import dl_operator
from dl_lab.models import ModelDescriptor, build_model, site_observable
from layers import METRIC_UNITS, TARGETS, VERIFY, layer_metrics, term_kind
from spans import ATTRS, NAME, Recorder, SpanIndex, Target, install, self_times
from workloads import load_reference, report_mismatches, run_config


def _span(name, start, end, parent):
    return [name, start, end, parent, 0, None]


def test_self_time_subtracts_nested_children():
    spans = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 4.0, 0),
        _span("a", 2.0, 3.0, 1),  # nested in a span of the same name
        _span("b", 5.0, 6.0, 0),
    ]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0]
    index = SpanIndex(spans)
    assert index.self_total("a") == 3.0
    assert index.total_s("a") == 3.0  # the nested call is not counted twice
    assert index.calls("a") == 2
    assert index.count_within("b", "root") == 1


def test_recorder_links_parents():
    recorder = Recorder()
    inner = recorder.wrap("inner", lambda x: x + 1)
    outer = recorder.wrap("outer", lambda x: inner(x) * 2)
    with recorder.span("top"):
        assert outer(1) == 4
    assert [(s[NAME], s[3]) for s in recorder.spans] == [("top", -1), ("outer", 0), ("inner", 1)]
    assert all(s[1] <= s[2] for s in recorder.spans)


def _traced_kinds(h, arr):
    recorder = Recorder()
    with install(recorder, TARGETS) as missing:
        dl_lab.states.hamiltonian_apply(h, arr)
    assert missing == []
    return [s[ATTRS]["kind"] for s in recorder.spans if s[NAME] == "states.apply_term"]


def test_term_classification_on_open_chain_and_ring():
    vector = np.ones(3 ** 4)
    open_chain = build_model(ModelDescriptor.make("aklt", n=4))
    ring = build_model(ModelDescriptor.make("aklt", n=4, periodic=True))
    assert _traced_kinds(open_chain, vector) == ["first", "middle", "last"]
    assert _traced_kinds(ring, vector) == ["first", "middle", "last", "wrap"]
    assert _traced_kinds(ring, np.eye(3 ** 4)) == ["batched"] * 4
    assert term_kind((0,), 1, 1) == "last"


def test_rebinding_reaches_every_module_copy():
    original = dl_lab.states.apply_term_array
    h = build_model(ModelDescriptor.make("aklt", n=4))
    a = dl_operator(h)
    psi = dl_lab.states.random_state(h.sites, 0)
    observable = dl_lab.correlations.ObservableSpec((1,), site_observable("sz", 3))
    recorder = Recorder()
    with install(recorder, TARGETS):
        wrapped = dl_lab.states.apply_term_array
        assert wrapped is not original
        assert dl_lab.dl.apply_term_array is wrapped
        assert dl_lab.correlations.apply_term_array is wrapped
        a.apply(psi)  # DLOperator.apply_array, through the dl module's copy
        observable.apply(psi)  # through the correlations module's copy
    names = [s[NAME] for s in recorder.spans]
    assert names.count("dl.a_apply") == 1
    assert names.count("states.apply_term") == len(h.terms) + 1
    for module in (dl_lab.states, dl_lab.dl, dl_lab.correlations):
        assert module.apply_term_array is original
    assert "apply_array" in vars(dl_lab.dl.DLOperator)
    assert not hasattr(dl_lab.dl.DLOperator.apply_array, "__wrapped__")


def test_missing_target_is_reported_not_raised():
    targets = (Target("x", "dl_lab.states:no_such_function"),
               Target("y", "dl_lab.no_such_module:f"),
               Target("z", "dl_lab.dl:DLOperator.no_such_method"),
               Target("states.spectrum", "dl_lab.states:spectrum"))
    recorder = Recorder()
    with install(recorder, targets) as missing:
        assert dl_lab.states.spectrum is not dl_lab.states.ground_space
    assert missing == [t.path for t in targets[:3]]


def test_traced_verify_reports_every_layer_metric(tmp_path):
    recorder = Recorder()
    config = tmp_path / "config.json"
    config.write_text(json.dumps(run_config("pinning", {"n": 4}, 3, str(tmp_path))))
    with install(recorder, TARGETS) as missing, recorder.span(VERIFY):
        status = dl_lab.cli.main(["verify", "--config", str(config), "--quiet"])
    assert status == 0 and missing == []
    metrics = layer_metrics(recorder.spans)
    assert set(metrics) | {"trace.overhead_s", "trace.missing_targets"} == set(METRIC_UNITS)
    assert metrics["states.spectrum.per_run"] == 3.0
    assert metrics["states.spectrum.h_matvecs"] == 3 * 2 * 2 ** 4
    assert metrics["io.write.bytes"] > 0


def _report_from(entry):
    checks = [{"name": c["name"], "status": c["status"], "measured": c.get("measured", 0.5),
               "bound": None, "tolerance": None} for c in entry["checks"]]
    return {"meta": {"model": entry["model"]}, "checks": checks, "overall_pass": True}


def test_perturbed_record_fails_reference_check():
    entry = load_reference()["corpus"][0]
    report = _report_from(entry)
    assert report_mismatches(report, entry) == []

    position = next(i for i, c in enumerate(entry["checks"])
                    if isinstance(c.get("measured"), float) and abs(c["measured"]) > 0.1)
    swapped = copy.deepcopy(report)
    swapped["checks"][position]["measured"] *= 1 + 1e-9  # a solver swap: still matches
    assert report_mismatches(swapped, entry) == []
    perturbed = copy.deepcopy(report)
    perturbed["checks"][position]["measured"] *= 1 + 1e-5
    assert len(report_mismatches(perturbed, entry)) == 1

    flipped = copy.deepcopy(report)
    flipped["checks"][0]["status"] = "hypothesis-not-met"
    assert len(report_mismatches(flipped, entry)) == 1

    seeded = copy.deepcopy(report)
    seeded_position = next(i for i, c in enumerate(entry["checks"]) if "measured" not in c)
    seeded["checks"][seeded_position]["measured"] = -123.0  # seed-dependent: not compared
    assert report_mismatches(seeded, entry) == []
