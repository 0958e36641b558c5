"""Bench-document schema and the perf-gate compare tool."""

from __future__ import annotations

import copy
import json

import pytest

from repro.obs import BENCH_SCHEMA, SchemaError, validate
from repro.obs.bench import SmokeCase, run_smoke_suite
from repro.obs.compare import compare_docs, main as compare_main
from repro.obs.schema import new_doc, result_key


def _tiny_case():
    from repro.problems import poisson_problem

    return SmokeCase(
        name="poisson-tiny",
        make_spec=lambda: poisson_problem(4, n_parts=2),
        methods=("hymv",),
        n_spmv=2,
    )


@pytest.fixture(scope="module")
def tiny_doc():
    return run_smoke_suite(
        repeats=2, modeled=True, cases=(_tiny_case(),), verbose=False
    )


# ----------------------------------------------------------------------------
# schema
# ----------------------------------------------------------------------------

def test_new_doc_validates_and_round_trips():
    doc = new_doc(BENCH_SCHEMA, {"modeled": True}, suite="smoke", repeats=3,
                  results=[])
    assert doc["schema"] == BENCH_SCHEMA
    round_tripped = json.loads(json.dumps(doc))
    assert validate(round_tripped) == round_tripped


def test_validate_rejects_malformed_docs():
    with pytest.raises(SchemaError):
        validate([])
    with pytest.raises(SchemaError):
        validate({"schema": "repro.bench/999"})
    doc = new_doc(BENCH_SCHEMA, suite="smoke", repeats=1, results=[])
    doc["results"].append({"case": "x"})  # missing required result keys
    with pytest.raises(SchemaError, match="missing key"):
        validate(doc)
    doc["results"][0] = {
        "case": "x", "method": "hymv", "n_parts": 2, "n_dofs": 100,
        "phases": {"spmv.total": {"median": 1.0}},  # missing min/max/repeats
        "counters": {},
    }
    with pytest.raises(SchemaError, match="spmv.total"):
        validate(doc)


def test_smoke_suite_produces_valid_deterministic_doc(tiny_doc):
    assert validate(tiny_doc) is tiny_doc
    (res,) = tiny_doc["results"]
    assert result_key(res) == "poisson-tiny/hymv"
    # modeled mode: every repeat produces identical virtual times
    for stats in res["phases"].values():
        assert stats["min"] == stats["max"] == stats["median"]
        assert stats["repeats"] == 2
    assert res["phases"]["spmv.total"]["median"] > 0
    assert res["counters"]["spmv.elements"] > 0
    # the whole document survives a JSON round trip
    assert validate(json.loads(json.dumps(tiny_doc)))


# ----------------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------------

def test_compare_doc_with_itself_passes(tiny_doc):
    ok, findings = compare_docs(tiny_doc, tiny_doc)
    assert ok
    assert not findings


def test_compare_flags_synthetic_regression(tiny_doc):
    worse = copy.deepcopy(tiny_doc)
    worse["results"][0]["phases"]["spmv.total"]["median"] *= 2.0
    ok, findings = compare_docs(tiny_doc, worse, budget=0.25)
    assert not ok
    fails = [f for f in findings if f.severity == "fail"]
    assert any("spmv.total" in f.where for f in fails)
    # the same diff inside a generous budget passes
    ok, _ = compare_docs(tiny_doc, worse, budget=1.5)
    assert ok


def test_compare_flags_counter_increase(tiny_doc):
    worse = copy.deepcopy(tiny_doc)
    worse["results"][0]["counters"]["spmv.elements"] *= 1.10
    ok, findings = compare_docs(tiny_doc, worse, counter_budget=0.05)
    assert not ok
    assert any(
        f.severity == "fail" and "spmv.elements" in f.where for f in findings
    )


def test_compare_flags_missing_result(tiny_doc):
    empty = copy.deepcopy(tiny_doc)
    empty["results"] = []
    ok, findings = compare_docs(tiny_doc, empty)
    assert not ok
    assert findings[0].severity == "fail"
    # extra candidate results are fine; missing baseline rows are not checked
    ok, _ = compare_docs(empty, tiny_doc)
    assert ok


def test_compare_fails_on_missing_gated_phase(tiny_doc):
    """A gated phase that vanishes from the candidate must FAIL loudly
    (historically it was a warn, so deleting the instrumented hot path —
    e.g. renaming ``spmv.sell.diag`` — read as a pass)."""
    gutted = copy.deepcopy(tiny_doc)
    # simulate the sellcs hazard: the gated phase row loses its phase
    gutted["results"][0]["phases"] = {
        "spmv.sell.diag": {"median": 1.0, "min": 1.0, "max": 1.0,
                           "repeats": 2},
    }
    ok, findings = compare_docs(tiny_doc, gutted)
    assert not ok
    fails = [f for f in findings if f.severity == "fail"]
    assert any(
        "spmv.total" in f.where and "gated phase missing" in f.message
        for f in fails
    )
    # the message says what to do about it, not just that it happened
    assert any("regenerate the baseline" in f.message for f in fails)


def test_compare_fails_on_missing_gated_counter(tiny_doc):
    gutted = copy.deepcopy(tiny_doc)
    del gutted["results"][0]["counters"]["spmv.elements"]
    ok, findings = compare_docs(tiny_doc, gutted)
    assert not ok
    assert any(
        f.severity == "fail"
        and "spmv.elements" in f.where
        and "gated counter missing" in f.message
        for f in findings
    )


def test_compare_tolerates_subfloor_phase_disappearing(tiny_doc):
    """Phases at or under the absolute floor were never gated, so their
    disappearance stays a warning, not a failure."""
    from repro.obs.compare import ABS_FLOOR_S

    base = copy.deepcopy(tiny_doc)
    base["results"][0]["phases"]["spmv.negligible"] = {
        "median": ABS_FLOOR_S / 2, "min": 0.0, "max": ABS_FLOOR_S,
        "repeats": 2,
    }
    ok, findings = compare_docs(base, tiny_doc)
    assert ok
    assert any(
        f.severity == "warn" and "spmv.negligible" in f.where
        for f in findings
    )


def test_markdown_summary_carries_sellcs_occupancy(tiny_doc):
    """Candidate rows carrying the sellcs gauges get a layout digest in
    the CI step summary."""
    from repro.obs.compare import markdown_summary

    cand = copy.deepcopy(tiny_doc)
    cand["results"][0]["counters"]["sellcs.padded_nnz"] = 7284.0
    cand["results"][0]["counters"]["sellcs.occupancy"] = 0.9417
    md = markdown_summary(tiny_doc, cand, [], True, 0.25)
    assert "SELL-C-sigma layout" in md
    assert "| poisson-tiny/hymv | 7284 | 0.942 |" in md
    # and rows without the gauges render no digest at all
    md = markdown_summary(tiny_doc, tiny_doc, [], True, 0.25)
    assert "SELL-C-sigma layout" not in md


def test_compare_cli_exit_codes(tiny_doc, tmp_path):
    base = tmp_path / "base.json"
    base.write_text(json.dumps(tiny_doc))
    worse_doc = copy.deepcopy(tiny_doc)
    worse_doc["results"][0]["phases"]["spmv.total"]["median"] *= 3.0
    worse = tmp_path / "worse.json"
    worse.write_text(json.dumps(worse_doc))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")

    assert compare_main([str(base), str(base)]) == 0
    assert compare_main([str(base), str(worse)]) == 1
    assert compare_main([str(base), str(bad)]) == 2
    assert compare_main([str(base), str(tmp_path / "absent.json")]) == 2


def test_markdown_summary_written_to_step_summary(tiny_doc, tmp_path,
                                                  monkeypatch):
    """Under GitHub Actions the compare CLI appends a markdown digest to
    $GITHUB_STEP_SUMMARY; the table carries every gated phase and the
    verdict heading reflects pass/fail."""
    from repro.obs.compare import markdown_summary

    base = tmp_path / "base.json"
    base.write_text(json.dumps(tiny_doc))
    summary = tmp_path / "step_summary.md"
    monkeypatch.setenv("GITHUB_STEP_SUMMARY", str(summary))
    assert compare_main([str(base), str(base)]) == 0
    text = summary.read_text()
    assert "**PASS**" in text
    assert "| result | phase |" in text
    for res in tiny_doc["results"]:
        assert result_key(res) in text

    worse_doc = copy.deepcopy(tiny_doc)
    worse_doc["results"][0]["phases"]["spmv.total"]["median"] *= 3.0
    worse = tmp_path / "worse.json"
    worse.write_text(json.dumps(worse_doc))
    summary.write_text("")  # fresh file for the failing run
    assert compare_main([str(base), str(worse)]) == 1
    text = summary.read_text()
    assert "**FAIL**" in text
    assert "#### Findings" in text

    # without the env var the writer is a no-op and the CLI still works
    monkeypatch.delenv("GITHUB_STEP_SUMMARY")
    assert compare_main([str(base), str(base)]) == 0

    # the pure function renders a table even for an empty finding list
    md = markdown_summary(tiny_doc, tiny_doc, [], True, 0.25)
    assert md.startswith("### Perf gate")
