"""Consistency of the traced run: which layers each workload touches, exact
count identities, counts that repeat, and missing targets.

    python3 -m pytest perfbench
"""

import json
import os
import sys

import pytest

import tracing
import workloads

# layers each workload calls; every other layer must read zero calls
TOUCHED = {
    "campaign": {
        "states.draw", "fef.fully_entangled_fraction", "concurrence.concurrence",
        "applications.bell_max.angles", "applications.bell_canonical", "optimize.nelder_mead",
        "campaign.sample_record", "campaign.records_csv", "cli.main",
        "linalg.hermitian_eig", "linalg.psd_sqrt",
    },
    "analyze": {
        "states.density_violations", "states.load_density_json", "fef.fully_entangled_fraction",
        "concurrence.concurrence", "applications.bell_max.angles",
        "applications.bell_max.local_unitaries", "applications.bell_canonical",
        "applications.dense_coding_fidelity", "applications.teleportation_fidelity",
        "applications.swapping_fidelity", "applications.analyze_state", "optimize.nelder_mead",
        "cli.main", "linalg.hermitian_eig", "linalg.psd_sqrt",
    },
    "identity_suite": {
        "states.draw", "states.density_violations", "fef.fully_entangled_fraction",
        "fef.fef_oracle_sphere", "fef.fef_oracle_unitary", "concurrence.concurrence",
        "applications.bell_canonical", "applications.dense_coding_fidelity",
        "applications.teleportation_fidelity", "applications.swapping_fidelity",
        "optimize.nelder_mead", "ddim.fef_numeric_d", "ddim.dense_coding_fidelity_d",
        "verify.run_identity_suite", "verify.run_ddim_suite", "cli.main",
        "linalg.hermitian_eig", "linalg.psd_sqrt",
    },
}

# (layer, workload with most of its work, workloads with little), by the
# layer's share of the traced time
SHARES = (
    ("states.draw", "campaign", ("analyze",)),
    ("states.density_violations", "analyze", ("campaign",)),
    ("fef.fully_entangled_fraction", "campaign", ("analyze",)),
    ("fef.fef_oracle_sphere", "identity_suite", ("campaign", "analyze")),
    ("concurrence.concurrence", "campaign", ("analyze",)),
    ("applications.bell_max.angles", "campaign", ("identity_suite",)),
    ("applications.bell_max.local_unitaries", "analyze", ("campaign",)),
    ("applications.bell_canonical", "campaign", ("analyze", "identity_suite")),
    ("applications.teleportation_fidelity", "analyze", ("campaign",)),
    ("campaign.sample_record", "campaign", ("analyze", "identity_suite")),
    ("ddim.fef_numeric_d", "identity_suite", ("campaign", "analyze")),
    ("verify.run_identity_suite", "identity_suite", ("campaign", "analyze")),
    ("cli.main", "analyze", ("identity_suite",)),
)

COUNTS = ("calls", "states_per_call", "fevals")


def traced(name, tmp_path, seed=4):
    """(tracer, workload) after the traced rounds of one workload."""
    kind = workloads.WORKLOADS[name](str(tmp_path / name), seed)
    kind.prepare()
    with tracing.Tracer() as tracer:
        for _ in range(kind.trace_rounds):
            kind.run_round()
    assert not tracer.missing and not kind.errors
    return tracer, kind


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    return {name: traced(name, tmp_path_factory.mktemp(name)) for name in TOUCHED}


def touched(tracer):
    return {layer for layer, st in tracer.stats.items() if st.calls}


@pytest.mark.parametrize("name", sorted(TOUCHED))
def test_each_workload_touches_its_layers_and_no_others(runs, name):
    assert touched(runs[name][0]) == TOUCHED[name]


def test_campaign_count_identities(runs):
    tracer, kind = runs["campaign"]
    metrics = tracer.metrics(kind.attempted)
    assert metrics["campaign.sample_record.calls"]["value"] == kind.rows_per_op
    assert metrics["states.draw.calls"]["value"] == kind.rows_per_op
    assert metrics["applications.bell_max.local_unitaries.calls"]["value"] == 0


def test_every_per_layer_metric_is_reported(runs):
    names = [m["name"] for m in tracing.per_layer_spec()]
    for tracer, kind in runs.values():
        assert list(tracer.metrics(kind.attempted)) == names


@pytest.mark.parametrize("layer, most, little", SHARES)
def test_layer_work_sits_on_its_workload(runs, layer, most, little):
    def share(name):
        tracer, _ = runs[name]
        total = sum(st.self_ns for st in tracer.stats.values())
        return tracer.stats[layer].self_ns / total

    for other in little:
        assert share(most) > share(other)


@pytest.mark.parametrize("name", ["campaign", "analyze"])
def test_counts_repeat_exactly(runs, tmp_path, name):
    first_tracer, first_kind = runs[name]
    again_tracer, again_kind = traced(name, tmp_path)
    first = first_tracer.metrics(first_kind.attempted)
    again = again_tracer.metrics(again_kind.attempted)
    for key, value in first.items():
        if key.rsplit(".", 1)[1] in COUNTS:
            assert again[key]["value"] == value["value"], key


def test_missing_targets_are_reported_not_raised():
    layers = tracing.LAYERS + (
        ("fef.gone", "entfrac.fef", ("no_such_function",), ("calls",)),
        ("nowhere.gone", "entfrac.no_such_module", ("f",), ("calls",)),
    )
    with tracing.Tracer(layers) as tracer:
        pass
    assert tracer.missing == ["entfrac.fef.no_such_function", "entfrac.no_such_module.f"]
    assert tracer.metrics(1)["fef.gone.calls"]["value"] == 0


def test_tracer_restores_every_name():
    fef = sys.modules["entfrac.fef"]
    campaign = sys.modules["entfrac.campaign"]
    original = fef.fully_entangled_fraction
    with tracing.Tracer():
        assert campaign.fully_entangled_fraction is not original
        assert campaign.fully_entangled_fraction.__wrapped__ is original
    assert campaign.fully_entangled_fraction is original
    assert fef.fully_entangled_fraction is original


def test_benchmark_json_names_what_the_benchmark_reports():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert spec["per_layer"] == tracing.per_layer_spec()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
