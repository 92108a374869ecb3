"""Tests of the benchmark itself: every output check marks a task failed when
fed one wrong result, spans measure self time, and the metrics the code
computes are the ones BENCHMARK.json declares."""

import copy
import json
import math
import time
from fnmatch import fnmatch
from pathlib import Path

import pytest

from run import measure
from spans import NULL, Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


class Canned:
    """Tasks return fixed results (or raise), judged by a real workload's check."""

    def __init__(self, real, results):
        self.real = real
        self.results = results
        self.cycle = len(results)

    def task(self, state, i, tr):
        if isinstance(self.results[i], Exception):
            raise self.results[i]
        return self.results[i]

    def check(self, state, result, previous):
        return self.real.check(state, result, previous)


def failed_tasks(name, state, results) -> int:
    (run,) = measure(Canned(WORKLOADS[name], results), state, [NULL], seconds=0.0)
    assert len(run.times) == len(results)
    return run.failed


def _window(label, four_uj, levels):
    return {"window": label, "configs": 258, "j_nn": four_uj / 64.0, "levels": levels,
            "synth_err": 3e-14}


HEFF = [{"units": 276, "windows": [_window("L8", 1.007, {1: 0.0155, 3: 7.5e-5}),
                                   _window("L12", 0.989, {1: 0.0154, 3: 7.4e-5})]}]
DOBRUSHIN = [{"units": 1, "before": 3, "after": 2, "shifted": True}]


def _chain(kind, good_fraction=None, min_abs_m=None):
    return {"units": 600, "kind": kind, "energies": [12.0, 13.5], "acceptance": [0.0, 0.07],
            "measurements": 2, "min_abs_m": min_abs_m, "good_fraction": good_fraction}


MC = [_chain("bc100_h2", min_abs_m=0.98), _chain("bc111_h2", good_fraction=0.93),
      _chain("bc111_h4", good_fraction=1.0)]
CONTOURS = [{"units": 1, "h2": 720.0, "contour_sum": 720.0, "pinned_faces": 360, "overlap": True}]


def _set(path, value):
    def mutate(results):
        target = results
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
    return mutate


# (workload, state, good results, one wrong result)
CASES = {
    "heff_4uj": ("heff", {}, HEFF, _set((0, "windows", 0, "j_nn"), 1.08 / 64.0)),
    "heff_levels": ("heff", {}, HEFF, _set((0, "windows", 1, "levels"), {1: 1e-4, 3: 2e-4})),
    "heff_synthesize": ("heff", {}, HEFF, _set((0, "windows", 0, "synth_err"), 1e-6)),
    "heff_synthesize_nan": ("heff", {}, HEFF, _set((0, "windows", 1, "synth_err"), math.nan)),
    "dobrushin_contour_drop": ("dobrushin", {"side3_count": 980}, DOBRUSHIN, _set((0, "after"), 3)),
    "mc_magnetization": ("mc", {}, MC, _set((0, "min_abs_m"), 0.5)),
    "mc_rigidity": ("mc", {}, MC, _set((2, "good_fraction"), 0.9)),
    "mc_energy": ("mc", {}, MC, _set((1, "energies", 0), math.inf)),
    "mc_acceptance": ("mc", {}, MC, _set((2, "acceptance", 1), 1.5)),
    "contours_additivity": ("contours", {}, CONTOURS, _set((0, "contour_sum"), 720.0 + 1e-9)),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_check_rejects_one_wrong_result(case):
    name, state, good, mutate = CASES[case]
    assert failed_tasks(name, state, good) == 0
    bad = copy.deepcopy(good)
    mutate(bad)
    assert failed_tasks(name, state, bad) == 1


def test_dobrushin_setup_count_is_checked():
    assert failed_tasks("dobrushin", {"side3_count": 979}, DOBRUSHIN) == 1


def test_mc_rigidity_needs_the_cycle_h2_chain():
    assert failed_tasks("mc", {}, [MC[2]]) == 1


def test_raising_task_counts_as_failed():
    assert failed_tasks("contours", {}, [CONTOURS[0], RuntimeError("boom")]) == 1


def test_self_time_excludes_child_spans():
    tr = Tracer()
    with tr.span("bench.task", task=7):
        with tr.span("quantum.call"):
            time.sleep(0.002)
        time.sleep(0.001)
    (_, p0, t0, a0, b0), (_, p1, t1, a1, b1) = tr.spans
    assert (p0, t0, p1, t1) == (None, 7, 0, 7)
    assert tr.self_ns() == [(b0 - a0) - (b1 - a1), b1 - a1]
    assert tr.calls("quantum.call") == [(b1 - a1) / 1e6]
    assert set(tr.layer_self_ms()) == {"bench", "quantum"}


def test_declared_per_layer_metrics_are_computed():
    declared = {m["name"] for m in BENCH["per_layer"]}
    computed = {"trace.overhead_frac"} | {n for n in declared if n.endswith(".ms")}
    for wl in WORKLOADS.values():
        computed |= set(wl.layer_metrics(Tracer(), []))
    assert computed == declared
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)


def test_prediction_table_names_declared_metrics():
    table = json.loads((HERE / "predictions.json").read_text())
    layer = [m["name"] for m in BENCH["per_layer"]]
    end_to_end = {m["name"] for m in BENCH["end_to_end"]}
    assert set(table["workloads"]) == set(WORKLOADS)
    for rows in table["workloads"].values():
        for row in rows:
            for pattern in row["per_layer"]:
                assert any(fnmatch(name, pattern) for name in layer), pattern
            assert set(row["end_to_end"]) <= end_to_end


@pytest.mark.parametrize("name", ["dobrushin", "contours"])
def test_real_task_passes_its_check(name):
    wl = WORKLOADS[name]
    tr = Tracer()
    state = wl.setup(5, tr)
    result = wl.task(state, 1, tr)
    assert wl.check(state, result, []) == []
    assert result["units"] == 1
    assert all(v >= 0 for v in wl.layer_metrics(tr, [result]).values())
