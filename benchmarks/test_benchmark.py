"""Self-tests of the benchmark: every workload runs at a tiny size and
reports every metric BENCHMARK.json names, and a perturbed reference trips
the gate.

    python3 -m pytest benchmarks
"""

from __future__ import annotations

import copy
import json

import pytest

import gate
import make_reference
import run

#: Overrides that shrink each workload to a fraction of a second.
TINY = {"elements": "16", "trials": "40", "random_phase_draws": "5"}
TINY_GRIDS = {"element-count": "16, 36, 64"}
SEED = 7


def _contract():
    return json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(autouse=True)
def few_setups(monkeypatch):
    """Three set-ups per run keep the tests fast; the count is not tested."""
    monkeypatch.setattr(run, "SETUP_SAMPLES", 3)


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """Tiny copies of every workload with references made from them."""
    made = {}
    for workload in _contract()["workloads"]:
        target = tmp_path_factory.mktemp(workload["name"])
        for spec in sorted((run.WORKLOADS / workload["name"]).glob("*.sweep")):
            pairs = _pairs(spec)
            for key, value in TINY.items():
                if key in pairs:
                    pairs[key] = value
            pairs["grid"] = TINY_GRIDS.get(pairs["axis"], pairs["grid"])
            (target / spec.name).write_text("".join(f"{k} = {v}\n" for k, v in pairs.items()))
        # Referenced at the seed the tests run with: 40 trials are too few
        # for another seed's standard error to stay within 1.1x.
        made[workload["name"]] = (target, make_reference.reference_for(target, seeds=(SEED,)))
    return made


def _pairs(spec):
    """Key-value pairs of a spec file, comments dropped."""
    pairs = {}
    for line in spec.read_text(encoding="utf-8").splitlines():
        if line.strip() and not line.startswith("#"):
            key, _, value = line.partition("=")
            pairs[key.strip()] = value.strip()
    return pairs


@pytest.mark.parametrize("trace", [False, True])
def test_every_workload_reports_every_metric(tiny, trace):
    contract = _contract()
    expected = {m["name"]: m["unit"] for m in contract["per_layer" if trace else "end_to_end"]}
    for name, (workload, reference) in tiny.items():
        result = run.run_workload(workload, reference, SEED, 0.0, trace)
        assert result["correct"], name
        assert result["failed"] == 0 and result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected, name
        for metric in result["metrics"].values():
            assert isinstance(metric["value"], (int, float))
        if trace:
            assert 0.0 < result["metrics"]["trace.overhead_frac"]["value"] < 1.0, name


def test_end_to_end_times_are_best_times():
    passes = [
        {"row_s": [1.0, 5.0], "wall_s": 6.5, "setup_s": 0.3, "peak_rss_mb": 10.0},
        {"row_s": [2.0, 4.0], "wall_s": 6.2, "setup_s": 0.2, "peak_rss_mb": 12.0},
    ]
    metrics = {k: v["value"] for k, v in run._end_to_end(passes, passes).items()}
    assert metrics == pytest.approx(
        {"setup_s": 0.2, "wall_s": 1.0 + 4.0 + 0.2, "row_ms_p50": 2500.0, "peak_rss_mb": 11.0}
    )


def test_bound_grid_expects_its_degenerate_rows(tiny):
    _, reference = tiny["bound-grid"]
    rejected = [r["axis"]["feed_azimuth_deg"] for r in reference["fig8"] if r["status"] == "failed"]
    assert sorted(rejected) == ["280"] * 7 + ["80"] * 7


def _perturb_closed(ref):
    row = next(r for r in ref["fig8"] if r["status"] == "ok")
    row["closed"]["dual_ub_bits"] *= 1.0 + 1e-6


def _perturb_status(ref):
    next(r for r in ref["fig8"] if r["status"] == "failed")["status"] = "ok"


def _perturb_mc_mean(ref):
    mean, se_mean, se_run = ref["fig7"][1]["mc"]["dual_mc"]
    ref["fig7"][1]["mc"]["dual_mc"] = [mean + 10.0 * se_run, se_mean, se_run]


def _perturb_mc_se(ref):
    mean, se_mean, se_run = ref["fig9"][1]["mc"]["single_mc"]
    ref["fig9"][1]["mc"]["single_mc"] = [mean, se_mean, se_run / 2.0]


def _drop_row(ref):
    ref["fig6"].pop()


@pytest.mark.parametrize(
    "workload, perturb",
    [
        ("bound-grid", _perturb_closed),
        ("bound-grid", _perturb_status),
        ("mc-capacity", _perturb_mc_mean),
        ("mc-capacity", _perturb_mc_se),
        ("bound-grid", _drop_row),
    ],
)
def test_perturbed_reference_trips_the_gate(tiny, workload, perturb):
    path, reference = tiny[workload]
    broken = copy.deepcopy(reference)
    perturb(broken)
    result = run.run_workload(path, broken, SEED, 0.0, False)
    assert not result["correct"]
    assert result["failed"] == 1


def test_jensen_violation_trips_the_gate():
    row = {"dual_mc_bits": "1.0", "dual_mc_se": "0.01", "dual_ub_bits": "0.96", "status": "ok"}
    ref = {"axis": {}, "status": "ok", "closed": {}}
    assert gate.check_row(row, ref)
    row["dual_ub_bits"] = "0.98"
    assert not gate.check_row(row, ref)


def test_status_with_commas_parses(tmp_path):
    csv = tmp_path / "s.csv"
    csv.write_text("# dpris sweep\nsnr_db,dual_ub_bits,status,runtime_s\n1,,failed: a, b,0.001\n")
    _, rows = gate.read_csv(str(csv))
    assert rows == [{"snr_db": "1", "dual_ub_bits": "", "status": "failed: a, b", "runtime_s": "0.001"}]
