"""Subcommand drivers: schemas, exit codes, determinism, output formats."""

import copy
import inspect
import json
import math
import resource
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fklab.bounds import PolymerInputs, cj_sequence, find_b0
from fklab.cli import main
from fklab.lattice import Volume
from fklab.mc import RunSpec
from fklab.quantum import MAX_ELECTRON_SITES, FKParameters


def _write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def test_heff_writes_couplings_and_decay(tmp_path):
    cfg = _write(tmp_path, "c.json", {"dims": [2, 1, 1], "U": 16.0, "beta": 160.0, "max_g": 3})
    out = tmp_path / "out"
    assert main(["heff", "--config", cfg, "--out", str(out), "--seed", "1"]) == 0
    doc = json.loads((out / "couplings.json").read_text())
    assert doc["provenance"]["seed"] == 1
    pair = [c for c in doc["couplings"] if len(c["cluster"]) == 2]
    assert pair and abs(4 * 16.0 * pair[0]["value"] - 1) < 0.05
    decay = json.loads((out / "decay.json").read_text())
    assert "levels" in decay


def test_heff_missing_key_exits_2(tmp_path):
    cfg = _write(tmp_path, "c.json", {"dims": [2, 1, 1], "beta": 160.0})
    assert main(["heff", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_heff_unknown_key_exits_2(tmp_path):
    cfg = _write(tmp_path, "c.json", {"dims": [2, 1, 1], "U": 4.0, "beta": 1.0, "frobnicate": 1})
    assert main(["heff", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_heff_cap_exits_3(tmp_path):
    cfg = _write(tmp_path, "c.json", {"dims": [4, 4, 1], "U": 4.0, "beta": 1.0})
    assert main(["heff", "--config", cfg, "--out", str(tmp_path / "o")]) == 3


def test_heff_cap_draws_at_most_one_site_past_it(tmp_path, monkeypatch, capsys):
    """A huge box reaches the electron cap without listing its sites."""
    drawn = []
    sites = Volume.sites

    def counted(self):
        for s in sites(self):
            drawn.append(s)
            yield s

    monkeypatch.setattr(Volume, "sites", counted)
    cfg = _write(tmp_path, "c.json", {"dims": [100, 100, 100], "U": 16.0, "beta": 256.0})
    out = tmp_path / "o"
    assert main(["heff", "--config", cfg, "--out", str(out)]) == 3
    assert 0 < len(drawn) <= MAX_ELECTRON_SITES + 1
    assert json.loads(capsys.readouterr().err)["code"] == 3
    assert not out.exists()


def test_heff_twelve_site_window_finishes(tmp_path):
    # every support kept at max_g = 3 has at most 4 sites, far below the walk cap
    cfg = _write(tmp_path, "c.json", {"dims": [3, 2, 2], "U": 16, "beta": 256})
    out = tmp_path / "o"
    assert main(["heff", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads((out / "couplings.json").read_text())
    assert len(doc["window"]) == 12 and max(c["g"] for c in doc["couplings"]) <= 3


@pytest.mark.parametrize("beta", [0.0, math.nan, -5.0])
def test_heff_bad_beta_exits_2(tmp_path, beta):
    cfg = _write(tmp_path, "c.json", {"dims": [2, 1, 1], "U": 16.0, "beta": beta})
    out = tmp_path / "o"
    assert main(["heff", "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()


def test_heff_deterministic_outputs(tmp_path):
    cfg = _write(tmp_path, "c.json", {"dims": [2, 1, 1], "U": 16.0, "beta": 160.0})
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["heff", "--config", cfg, "--out", str(out1), "--seed", "7"]) == 0
    assert main(["heff", "--config", cfg, "--out", str(out2), "--seed", "7"]) == 0
    assert (out1 / "couplings.json").read_bytes() == (out2 / "couplings.json").read_bytes()


def test_tilings_counts_and_render_flag(tmp_path):
    cfg = _write(tmp_path, "t.json", {"side": 1})
    out = tmp_path / "o"
    assert main(["tilings", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads((out / "tilings.json").read_text())
    assert doc["count"] == 2
    assert not list(out.glob("*.svg"))  # render off: no SVG files

    cfg2 = _write(tmp_path, "t2.json", {"side": 1, "render": True})
    out2 = tmp_path / "o2"
    assert main(["tilings", "--config", cfg2, "--out", str(out2)]) == 0
    svgs = sorted(out2.glob("*.svg"))
    assert len(svgs) == 2
    assert svgs[0].read_text().startswith("<svg")


def test_tilings_cap_exits_3(tmp_path):
    cfg = _write(tmp_path, "t.json", {"side": 4})
    assert main(["tilings", "--config", cfg, "--out", str(tmp_path / "o")]) == 3


def test_tilings_huge_side_exits_3_before_building(tmp_path, monkeypatch):
    """A side of 10^6 is refused from its triangle count, 6 side^2, without
    building the hexagon."""
    import fklab.cli

    def unbuilt(side, center=None):
        raise AssertionError(f"built the side-{side} hexagon")

    monkeypatch.setattr(fklab.cli, "hexagon_region", unbuilt)
    cfg = _write(tmp_path, "t.json", {"side": 1000000})
    out = tmp_path / "o"
    assert main(["tilings", "--config", cfg, "--out", str(out)]) == 3
    assert not out.exists()


def test_tilings_sparse_region_exits_3(tmp_path):
    """Two triangles 10^6 steps apart: the triangle index would span their
    bounding box, so it stops at its cap before writing anything."""
    far = [[[0, 0], [1, 0], [1, 1]], [[10**6, 0], [10**6 + 1, 0], [10**6 + 1, 1]]]
    cfg = _write(tmp_path, "t.json", {"triangles": far})
    out = tmp_path / "o"
    assert main(["tilings", "--config", cfg, "--out", str(out)]) == 3
    assert not out.exists()


@pytest.mark.parametrize("bad", [
    {"triangles": [[[0, 0], [2, 0], [0, 5]], [[0, 0], [1, 0], [1, 1]]]},
    {"triangles": [[[0, 0], [1, 0]], [[0, 0], [0, 1], [1, 1]]]},
    {"triangles": [[0, 1]]},
    {"triangles": [[[0, 0], [1, 0], [1.5, 1]], [[0, 0], [0, 1], [1, 1]]]},
    {"side": 0},
    {"side": -1},
    {"side": 1, "render": True, "max_render": -1},
    {"side": 1, "triangles": [[[0, 0], [1, 0], [1, 1]], [[0, 0], [0, 1], [1, 1]]]},
])
def test_tilings_bad_config_exits_2(tmp_path, bad):
    cfg = _write(tmp_path, "t.json", bad)
    out = tmp_path / "o"
    assert main(["tilings", "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()


def test_tilings_enumerates_once(tmp_path, monkeypatch):
    import fklab.cli
    import fklab.tiling

    calls = []

    def counting(region):
        calls.append(region)
        return enumerate_tilings(region)

    enumerate_tilings = fklab.tiling.enumerate_tilings
    monkeypatch.setattr(fklab.tiling, "enumerate_tilings", counting)
    monkeypatch.setattr(fklab.cli, "enumerate_tilings", counting)
    cfg = _write(tmp_path, "t.json", {"side": 2})
    assert main(["tilings", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert len(calls) == 1
    assert json.loads((tmp_path / "o" / "tilings.json").read_text())["count"] == 20


def test_tilings_deterministic_order(tmp_path):
    cfg = _write(tmp_path, "t.json", {"side": 2})
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["tilings", "--config", cfg, "--out", str(out1)])
    main(["tilings", "--config", cfg, "--out", str(out2)])
    assert (out1 / "tilings.json").read_bytes() == (out2 / "tilings.json").read_bytes()


def test_mc_replicas_and_csv(tmp_path):
    cfg = _write(tmp_path, "m.json", {
        "dims": [4, 4, 4], "bc": "bc111", "hamiltonian": "h4", "U": 4.0,
        "beta": 2560.0, "sweeps": 12, "thermalization": 4, "seed": 9,
        "replicas": 2, "measure_stride": 2,
    })
    out = tmp_path / "o"
    assert main(["mc", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads((out / "summary.json").read_text())
    assert len(doc["replicas"]) == 2
    assert "mean_good_fraction" in doc["replicas"][0]
    csv0 = (out / "series_r0.csv").read_text().splitlines()
    assert csv0[0].startswith("# config_sha256=")  # provenance on every output
    assert csv0[1] == "sweep,energy,acceptance,width,good_fraction"
    assert "se_good_fraction" in doc["replicas"][0]
    # same seed, same replica -> byte-identical series on rerun
    out2 = tmp_path / "o2"
    main(["mc", "--config", cfg, "--out", str(out2)])
    assert (out / "series_r0.csv").read_bytes() == (out2 / "series_r0.csv").read_bytes()


def test_mc_snapshot_stride(tmp_path):
    doc = {
        "dims": [5, 5, 5], "bc": "bc111", "hamiltonian": "h2", "U": 4.0,
        "beta": 2560.0, "sweeps": 30, "thermalization": 10, "seed": 5,
        "replicas": 2, "measure_stride": 5, "snapshot_stride": 2,
    }
    cfg = _write(tmp_path, "m.json", doc)
    out = tmp_path / "o"
    assert main(["mc", "--config", cfg, "--out", str(out)]) == 0
    for rep in range(2):
        snaps = sorted(out.glob(f"snapshot_r{rep}_s*.svg"))
        assert len(snaps) == 2  # every 2nd of 4 measurements


_BOOLEAN_CASES = [
    ("tilings", {"side": 1}, "render"),
    ("mc", {"dims": [3, 3, 3], "bc": "bc111", "hamiltonian": "h2", "U": 4.0, "beta": 100.0,
            "sweeps": 2, "thermalization": 1, "measure_stride": 1}, "snapshot"),
]
_BOOLEAN_KEYS = {key for _, _, key in _BOOLEAN_CASES}


@pytest.mark.parametrize("command, base, key", _BOOLEAN_CASES)
@pytest.mark.parametrize("value", [None, 0, 1, 1.7, "x", "true", [], {}, math.nan, math.inf])
def test_boolean_key_rejects_non_boolean(tmp_path, command, base, key, value):
    cfg = _write(tmp_path, "c.json", {**base, key: value})
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()


def test_mc_snapshot_flag_writes_final_snapshot(tmp_path):
    command, base, key = _BOOLEAN_CASES[1]
    for value in (False, True):
        out = tmp_path / str(value)
        cfg = _write(tmp_path, "c.json", {**base, key: value})
        assert main([command, "--config", cfg, "--out", str(out)]) == 0
        assert (out / "snapshot_r0.svg").exists() == value


@pytest.mark.parametrize("bad", [{"measure_stride": 0}, {"cross_check_stride": 0},
                                 {"snapshot_stride": -1}, {"replicas": 0},
                                 {"bc": "bogus"},
                                 # no measurement (NaN in summary.json) or a negative thermalization
                                 {"sweeps": 5, "thermalization": 0, "measure_stride": 10},
                                 {"sweeps": 12, "thermalization": 3, "measure_stride": 10},
                                 {"sweeps": 0, "thermalization": -1, "measure_stride": 1},
                                 {"thermalization": -1},
                                 # a negative Philox key
                                 {"seed": -1}])
def test_mc_bad_stride_exits_2(tmp_path, bad):
    cfg = _write(tmp_path, "m.json", {
        "dims": [4, 4, 4], "bc": "hom_plus", "hamiltonian": "h2", "U": 4.0,
        "beta": 1.0, "sweeps": 10, "thermalization": 2, "measure_stride": 2, **bad,
    })
    out = tmp_path / "o"
    assert main(["mc", "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("command, doc", [
    ("energy", {"volume": {"dims": [1000, 1000, 1000], "shell": 2, "bc": "bc111"}, "U": 8.0}),
    ("mc", {"dims": [1000, 1000, 1000], "bc": "bc111", "hamiltonian": "h2", "U": 4.0,
            "beta": 1.0, "sweeps": 5, "thermalization": 0, "measure_stride": 1}),
])
def test_huge_box_exits_3_before_allocating(tmp_path, command, doc):
    """A box past the padded-site cap exits 3 and writes nothing.  The
    subcommand runs under a 3 GiB address-space limit, so a box that is
    allocated after all fails with a MemoryError instead of taking the
    machine's memory."""
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (3 * 2**30, 3 * 2**30))

    out = tmp_path / "o"
    proc = subprocess.run(
        [sys.executable, "-m", "fklab.cli", command, "--config", _write(tmp_path, "c.json", doc),
         "--out", str(out)],
        capture_output=True, preexec_fn=limit,
    )
    assert proc.returncode == 3, proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("hamiltonian, code", [("h2", 0), ("h4", 2)])
def test_mc_shell_must_cover_the_interaction_reach(tmp_path, hamiltonian, code):
    """Shell 1 covers h2's nearest neighbours but not h4's distance-2 pairs:
    the h4 run exits 2 before any output is written."""
    _, base, _ = _BOOLEAN_CASES[1]
    doc = {**base, "hamiltonian": hamiltonian, "shell": 1, "cross_check_stride": 1}
    out = tmp_path / "o"
    assert main(["mc", "--config", _write(tmp_path, "m.json", doc), "--out", str(out)]) == code
    assert out.exists() == (code == 0)
    if code == 0:
        assert (out / "summary.json").exists()


def test_mc_bc100_emits_layer_profile(tmp_path):
    cfg = _write(tmp_path, "m.json", {
        "dims": [4, 4, 4], "bc": "bc100", "hamiltonian": "h2", "U": 8.0,
        "beta": 320.0, "sweeps": 10, "thermalization": 2, "seed": 3,
        "measure_stride": 2,
    })
    out = tmp_path / "o"
    assert main(["mc", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads((out / "summary.json").read_text())
    assert "layer_magnetization" in doc["replicas"][0]
    assert len(doc["replicas"][0]["layers"]) == 4


def test_bounds_polymer_and_infeasible(tmp_path):
    cfg = _write(tmp_path, "b.json", {
        "op": "polymer", "C1": 1.0, "C2": 1.0, "lambda": 1e-6, "b": 1e14,
    })
    out = tmp_path / "o"
    assert main(["bounds", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads((out / "bounds_polymer.json").read_text())
    assert set(doc["flags"]) == {"cond1", "cond2", "cond4"}
    assert doc["k0"] is not None

    # infeasible lambda must still exit 0 (reporting, not failure)
    cfg2 = _write(tmp_path, "b2.json", {
        "op": "polymer", "C1": 1.0, "C2": 1.0, "lambda": 0.5, "b": 1.0,
    })
    out2 = tmp_path / "o2"
    assert main(["bounds", "--config", cfg2, "--out", str(out2)]) == 0
    doc2 = json.loads((out2 / "bounds_polymer.json").read_text())
    assert doc2["flags"]["cond2"] is False


def test_bounds_polymer_k0_cap_exits_3(tmp_path):
    """Just under the cond2 threshold the k0 search runs past its cap."""
    cfg = _write(tmp_path, "b.json", {
        "op": "polymer", "C1": 1.0, "C2": 1.0, "lambda": 0.0037593096639258177, "b": 1e10,
    })
    out = tmp_path / "o"
    assert main(["bounds", "--config", cfg, "--out", str(out)]) == 3
    assert not out.exists()


def test_bounds_polymer_k0_past_the_float_range_exits_3(tmp_path):
    """A k0 whose C4 = (k0+1) 36^(k0+1) would overflow is past MAX_K0: here
    lambda c_d e^2 = 0.99 and C2 beta ~ 2.7e8 need k0 ~ 1940."""
    cfg = _write(tmp_path, "b.json", {
        "op": "polymer", "C1": 1.0, "C2": 1.0, "lambda": 0.99 / (36.0 * math.e**2), "b": 1e6,
    })
    out = tmp_path / "o"
    assert main(["bounds", "--config", cfg, "--out", str(out)]) == 3
    assert not out.exists()


@pytest.mark.parametrize("bad", [
    {"op": "polymer", "C1": 1.0, "C2": 1.0, "lambda": 1e-6, "b": 1e14, "d": "x"},   # a cj key
])
def test_bounds_bad_config_exits_2(tmp_path, bad):
    out = tmp_path / "o"
    assert main(["bounds", "--config", _write(tmp_path, "b.json", bad), "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("blob", [[], {"couplings": [1], "window": []}])
def test_bounds_audit_wrong_shape_couplings_exits_2(tmp_path, blob):
    path = _write(tmp_path, "couplings.json", blob)
    cfg = _write(tmp_path, "a.json", {"op": "audit", "couplings": path})
    out = tmp_path / "o"
    assert main(["bounds", "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()


def test_bounds_b0_and_cj(tmp_path):
    cfg = _write(tmp_path, "b.json", {"op": "b0", "C1": 1.0, "C2": 1.0, "lambda": 1e-6})
    out = tmp_path / "o"
    assert main(["bounds", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads((out / "bounds_b0.json").read_text())
    assert doc["B"] > 1.0 and doc["b0"] > 0 and doc["lambda0"] > 0

    cfg2 = _write(tmp_path, "c.json", {"op": "cj", "U": 24.0, "beta": 50.0})
    assert main(["bounds", "--config", cfg2, "--out", str(out)]) == 0
    doc2 = json.loads((out / "bounds_cj.json").read_text())
    assert doc2["values"]["2"] == pytest.approx(0.25)


@pytest.mark.parametrize("command, doc, key", [
    # overflows refused when the inputs are read: e^a of b0, whose message names a
    # (math.exp's own "math range error" would not match); U^3 of ModelCoefficients
    ("bounds", {"op": "b0", "C1": 1, "C2": 1, "lambda": 1e-12, "a": 800}, "e^a overflows for a = 800"),
    ("mc", {"dims": [3, 3, 3], "bc": "bc111", "hamiltonian": "h4", "U": 1e308, "beta": 1,
            "sweeps": 20, "thermalization": 0, "measure_stride": 1}, "U"),
    # a beta whose 1/beta overflows, refused when FKParameters is built, before any trace
    ("heff", {"dims": [2, 2, 2], "U": 8, "beta": 1e-320}, "beta"),
    # a result that strict JSON cannot hold: an infinite C3
    ("bounds", {"op": "polymer", "C1": 1e308, "C2": 1e308, "lambda": 1e-300, "b": 1e308}, None),
    # a negative beta, d and t
    ("bounds", {"op": "cj", "U": 24, "beta": -50, "d": -3, "t": -1.0}, None),
    # a negative C1 (no square root of B), an e^a that underflows (no lambda0),
    # and a d whose ratio 2dt/(cU) overflows at its 12th power
    ("bounds", {"op": "b0", "C1": -1, "C2": 1, "lambda": 1e-12}, "C1 and C2 must be positive"),
    ("bounds", {"op": "b0", "C1": 1, "C2": 1, "lambda": 1e-12, "a": -1e308}, "not finite and positive"),
    ("bounds", {"op": "cj", "U": 24, "beta": 50, "d": 10**30}, "2dt/(cU)"),
    # a seed past the 64 bits of the Philox key
    ("mc", {"dims": [3, 3, 3], "bc": "bc111", "hamiltonian": "h2", "U": 4, "beta": 1,
            "sweeps": 20, "thermalization": 0, "measure_stride": 1, "seed": 2**64}, "seed"),
], ids=["b0-overflow", "mc-overflow", "heff-nan", "polymer-inf", "cj-degenerate",
        "b0-negative-c1", "b0-underflow", "cj-overflow", "mc-seed"])
def test_out_of_range_inputs_exit_2_and_write_nothing(tmp_path, capsys, command, doc, key):
    """Inputs whose arithmetic overflows, or whose results are NaN or
    infinite, are config errors: exit 2 with a JSON error line (naming the
    key, where one is given) and no artifact, never a traceback, a file of
    invalid JSON or a numerical warning on the way."""
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, "--config", _write(tmp_path, "c.json", doc), "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["code"] == 2
    if key is not None:
        assert key in err["error"]
    assert not out.exists()


def test_bounds_audit_consumes_coupling_files(tmp_path):
    c16 = _write(tmp_path, "c16.json", {"dims": [2, 2, 1], "U": 16.0, "beta": 256.0, "max_g": 4})
    c32 = _write(tmp_path, "c32.json", {"dims": [2, 2, 1], "U": 32.0, "beta": 512.0, "max_g": 4})
    main(["heff", "--config", c16, "--out", str(tmp_path / "t16")])
    main(["heff", "--config", c32, "--out", str(tmp_path / "t32")])
    acfg = _write(tmp_path, "a.json", {
        "op": "audit",
        "couplings": str(tmp_path / "t16" / "couplings.json"),
        "couplings_2u": str(tmp_path / "t32" / "couplings.json"),
    })
    out = tmp_path / "audit"
    assert main(["bounds", "--config", acfg, "--out", str(out)]) == 0
    doc = json.loads((out / "bounds_audit.json").read_text())
    assert doc["violations"] == 0
    assert doc["fit_c"] / 16.0 < 1.0
    assert doc["pair_exponent_ok"] is True


def test_bounds_audit_of_a_table_at_u_zero(tmp_path, capsys):
    """The decay fit divides by U: a table edited to U = 0 with live couplings
    exits 2 naming U; with every coupling zero the audit stays trivial."""
    cfg = _write(tmp_path, "c.json", {"dims": [2, 2, 1], "U": 16.0, "beta": 256.0, "max_g": 4})
    assert main(["heff", "--config", cfg, "--out", str(tmp_path / "t")]) == 0
    table = json.loads((tmp_path / "t" / "couplings.json").read_text())
    table["U"] = 0.0
    live = _write(tmp_path, "live.json", table)
    dead = _write(tmp_path, "dead.json", {
        **table, "couplings": [{**c, "value": 0.0} for c in table["couplings"]]})
    out = tmp_path / "o"
    capsys.readouterr()
    acfg = _write(tmp_path, "a.json", {"op": "audit", "couplings": live})
    assert main(["bounds", "--config", acfg, "--out", str(out)]) == 2
    assert "U = 0.0" in json.loads(capsys.readouterr().err)["error"]
    assert not out.exists()
    acfg = _write(tmp_path, "a.json", {"op": "audit", "couplings": dead})
    assert main(["bounds", "--config", acfg, "--out", str(out)]) == 0
    assert json.loads((out / "bounds_audit.json").read_text())["trivial"] is True


_ENERGY = {"volume": {"dims": [3, 3, 3], "shell": 2, "bc": "bc111"}, "U": 8.0}
_POLYMER = {"op": "polymer", "C1": 1.0, "C2": 1.0, "lambda": 1e-6, "b": 1e14, "a": 2.0}
_CJ = {"op": "cj", "t": 1.0, "U": 24.0, "beta": 50.0, "c": 0.5}
_B0 = {"op": "b0", "C1": 1.0, "C2": 1.0, "lambda": 1e-6, "a": 2.0}


@pytest.mark.parametrize("command, base, key", [("energy", _ENERGY, "U")]
                         + [("bounds", _POLYMER, k) for k in ("C1", "C2", "lambda", "b", "a")]
                         + [("bounds", _CJ, k) for k in ("t", "U", "beta", "c")]
                         + [("bounds", _B0, k) for k in ("C1", "C2", "lambda", "a")])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_parameter_exits_2(tmp_path, command, base, key, value):
    """Python's json reads NaN and Infinity; the models reject them when built."""
    cfg = _write(tmp_path, "c.json", {**base, key: value})
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()


def test_energy_subcommand(tmp_path):
    cfg = _write(tmp_path, "e.json", {
        "volume": {"dims": [6, 6, 6], "shell": 2, "bc": "bc111"},
        "U": 8.0,
        "flips": [[0, 0, -1]],
    })
    out = tmp_path / "o"
    assert main(["energy", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads((out / "energy.json").read_text())
    total_area = sum(c["area"] for c in doc["contours"])
    assert doc["h2"] == pytest.approx(total_area / (2 * 8.0), abs=1e-12)
    assert any(c["pinned"] for c in doc["contours"])


@pytest.mark.parametrize("lo", [[10, 10, 10], [-20, -20, -20]])
@pytest.mark.parametrize("bc", ["bc100", "bc111"])
def test_energy_volume_off_the_interface_exits_2(tmp_path, bc, lo):
    """A mixed-bc volume whose box and shell hold one spin sign has no
    interface to pin: a config error, before any artifact is written."""
    cfg = _write(tmp_path, "e.json", {
        "volume": {"dims": [3, 3, 3], "shell": 2, "bc": bc, "lo": lo},
        "U": 8.0,
        "flips": [],
    })
    out = tmp_path / "o"
    assert main(["energy", "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()


def test_render_from_tilings_json(tmp_path):
    tcfg = _write(tmp_path, "t.json", {"side": 1})
    tout = tmp_path / "t"
    main(["tilings", "--config", tcfg, "--out", str(tout)])
    rcfg = _write(tmp_path, "r.json", {"kind": "tiling", "path": str(tout / "tilings.json"), "index": 1})
    rout = tmp_path / "r"
    assert main(["render", "--config", rcfg, "--out", str(rout)]) == 0
    assert (rout / "render.svg").read_text().startswith("<svg")


def test_render_rejects_non_elementary_triangle(tmp_path):
    # the rhombus is well formed (two triangles sharing a side), one triangle is not elementary
    doc = {"triangles": [[[0, 0], [1, 0], [3, 4]], [[0, 0], [1, 0], [1, 1]]],
           "rhombi": [{"pair": [0, 1], "type": 0, "orientation": 0}]}
    path = _write(tmp_path, "tiling.json", doc)
    rcfg = _write(tmp_path, "r.json", {"kind": "tiling", "path": path})
    assert main(["render", "--config", rcfg, "--out", str(tmp_path / "r")]) == 2


_RHOMBUS = [{"pair": [0, 1], "type": 0, "orientation": 0}]
_TRIANGLES = [[[0, 0], [1, 0], [1, 1]], [[0, 0], [0, 1], [1, 1]]]


@pytest.mark.parametrize("blob", [
    {"triangles": [[0, 1]], "rhombi": []},
    {"triangles": _TRIANGLES, "rhombi": [{"pair": [0, 2], "type": 0, "orientation": 0}]},
    {"triangles": _TRIANGLES, "rhombi": [{"pair": [-1, 0], "type": 0, "orientation": 0}]},
    {"triangles": _TRIANGLES, "rhombi": [{"pair": [0, 0.5], "type": 0, "orientation": 0}]},
    [{"triangles": _TRIANGLES, "rhombi": _RHOMBUS}],
    {"triangles": _TRIANGLES, "rhombi": _RHOMBUS * 2},
    {"triangles": _TRIANGLES + [[[1, 0], [2, 0], [2, 1]], [[1, 0], [1, 1], [2, 1]]],
     "rhombi": [{"pair": [0, 2], "type": 0, "orientation": 0}, {"pair": [1, 3], "type": 0, "orientation": 0}]},
    {"triangles": _TRIANGLES + [[[1, 0], [2, 0], [2, 1]]], "rhombi": _RHOMBUS},
    {"triangles": _TRIANGLES},
    {"triangles": _TRIANGLES, "rhombi": {"pair": [0, 1]}},
], ids=["vertex_not_a_pair", "pair_out_of_range", "pair_negative", "pair_not_integer",
        "top_level_list", "duplicate_pair", "pair_not_adjacent", "odd_region", "no_rhombi",
        "rhombi_not_a_list"])
def test_render_malformed_stored_tiling_exits_2(tmp_path, blob):
    path = _write(tmp_path, "tiling.json", blob)
    rcfg = _write(tmp_path, "r.json", {"kind": "tiling", "path": path})
    out = tmp_path / "r"
    assert main(["render", "--config", rcfg, "--out", str(out)]) == 2
    assert not out.exists()


def test_render_sparse_stored_tiling_exits_3(tmp_path):
    """A stored tiling is checked on its region's index, so a region whose
    bounding box passes ``MAX_BOX_VERTICES`` exits 3 before its cover is
    checked."""
    blob = {"triangles": [[[0, 0], [1, 0], [1, 1]], [[900, 900], [901, 900], [901, 901]]], "rhombi": []}
    path = _write(tmp_path, "tiling.json", blob)
    rcfg = _write(tmp_path, "r.json", {"kind": "tiling", "path": path})
    out = tmp_path / "r"
    assert main(["render", "--config", rcfg, "--out", str(out)]) == 3
    assert not out.exists()


def test_console_script_entry_point(tmp_path):
    cfg = _write(tmp_path, "t.json", {"side": 1})
    proc = subprocess.run(
        [sys.executable, "-m", "fklab.cli", "tilings", "--config", cfg,
         "--out", str(tmp_path / "o")],
        capture_output=True,
    )
    assert proc.returncode == 0


@pytest.mark.parametrize("bad", [
    {"max_g": None}, {"max_g": 2.7}, {"max_g": -1}, {"max_g": True},
    {"dims": [[2], 1, 1]}, {"dims": [2, 1]}, {"U": [16.0]}, {"beta": None},
    {"window": 5}, {"window": "x"}, {"window": [[0, 0, 0], [0, 0, 0]]},
    {"window": [[0, 0]]},
    {"shell": 1},   # only box sites enter the trace, so heff takes no shell
])
def test_heff_bad_value_exits_2(tmp_path, bad):
    cfg = _write(tmp_path, "c.json", {"dims": [2, 1, 1], "U": 16.0, "beta": 160.0, **bad})
    out = tmp_path / "o"
    assert main(["heff", "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()


def test_integral_float_reads_as_integer(tmp_path):
    cfg = _write(tmp_path, "c.json", {"dims": [2.0, 1, 1], "U": 16, "beta": 160, "max_g": 3.0})
    out = tmp_path / "o"
    assert main(["heff", "--config", cfg, "--out", str(out)]) == 0
    assert json.loads((out / "couplings.json").read_text())["max_g"] == 3


@pytest.mark.parametrize("index", [1.7, None, [1], True, "1"])
def test_render_non_integer_index_exits_2(tmp_path, index):
    tout = tmp_path / "t"
    main(["tilings", "--config", _write(tmp_path, "t.json", {"side": 1}), "--out", str(tout)])
    rcfg = _write(tmp_path, "r.json", {"kind": "tiling", "path": str(tout / "tilings.json"),
                                       "index": index})
    out = tmp_path / "r"
    assert main(["render", "--config", rcfg, "--out", str(out)]) == 2
    assert not out.exists()


def _positions(node, prefix=()):
    """Every key of every object and every index of every list in a JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _positions(child, prefix + (key,))


@pytest.fixture(scope="module")
def fuzz_bases(tmp_path_factory):
    """A tiny valid config per driver (several for bounds and tilings), with the
    stored tiling and coupling tables that render and audit read."""
    d = tmp_path_factory.mktemp("fuzz")
    heff = {"dims": [2, 1, 1], "U": 16.0, "beta": 160.0, "t": 1.0, "max_g": 3,
            "window": [[-1, 0, 0], [0, 0, 0]]}
    assert main(["heff", "--config", _write(d, "h.json", heff), "--out", str(d / "h")]) == 0
    assert main(["tilings", "--config", _write(d, "t.json", {"side": 1}),
                 "--out", str(d / "t")]) == 0
    couplings = str(d / "h" / "couplings.json")
    return d, [
        ("heff", heff),
        ("tilings", {"side": 1, "render": True, "max_render": 1}),
        ("tilings", {"triangles": _TRIANGLES}),
        ("mc", {"dims": [3, 3, 3], "bc": "bc111", "hamiltonian": "h2", "U": 4.0,
                "beta": 100.0, "sweeps": 2, "thermalization": 1, "seed": 1,
                "move_set": "single-flip+hexagon-flip", "measure_stride": 1,
                "cross_check_stride": 1, "shell": 2, "replicas": 1, "snapshot": True,
                "snapshot_stride": 1}),
        ("bounds", {"op": "polymer", "C1": 1.0, "C2": 1.0, "lambda": 1e-6, "b": 1e14,
                    "a": 2.0}),
        ("bounds", {"op": "cj", "d": 3, "t": 1.0, "U": 24.0, "beta": 50.0, "c": 0.5}),
        ("bounds", {"op": "b0", "C1": 1.0, "C2": 1.0, "lambda": 1e-6, "a": 2.0}),
        ("bounds", {"op": "audit", "couplings": couplings, "couplings_2u": couplings}),
        ("energy", {"volume": {"dims": [3, 3, 3], "shell": 2, "bc": "bc111", "lo": [-1, -1, -1]},
                    "U": 8.0, "flips": [[0, 0, 0]]}),
        ("render", {"kind": "tiling", "path": str(d / "t" / "tilings.json"), "index": 1}),
    ]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_config_fuzz_exits_with_contract_code(fuzz_bases, data):
    """One value anywhere in a valid config replaced by a value of the wrong
    kind: the driver exits with a contract code and never raises, and a
    config error or a cap leaves no output directory."""
    d, bases = fuzz_bases
    command, base = data.draw(st.sampled_from(bases))
    position = data.draw(st.sampled_from(list(_positions(base))))
    doc = copy.deepcopy(base)
    node = doc
    for key in position[:-1]:
        node = node[key]
    value = data.draw(st.sampled_from([None, [], {}, "x", True, 1.7,
                                       math.nan, math.inf, -math.inf]))
    node[position[-1]] = value
    out = d / "out"
    shutil.rmtree(out, ignore_errors=True)
    code = main([command, "--config", _write(d, "fuzz.json", doc), "--out", str(out)])
    if position[-1] in _BOOLEAN_KEYS and not isinstance(value, bool):
        assert code == 2
    assert code in {0, 2, 3, 4}
    if code in {2, 3}:
        assert not out.exists()


def _defaults(fn) -> dict:
    return {k: p.default for k, p in inspect.signature(fn).parameters.items()
            if p.default is not p.empty}


def _payloads(out: Path) -> dict:
    """Every artifact of a run without what echoes the config: the provenance
    block, ``mc``'s ``spec`` and the CSV header line."""
    files = {}
    for p in sorted(out.iterdir()):
        if p.suffix == ".json":
            doc = json.loads(p.read_text())
            doc.pop("provenance")
            doc.pop("spec", None)
            files[p.name] = doc
        elif p.suffix == ".csv":
            files[p.name] = p.read_text().split("\n", 1)[1]
        else:
            files[p.name] = p.read_bytes()
    return files


_MC = {"dims": [4, 4, 3], "bc": "bc111", "hamiltonian": "h4", "U": 4.0, "beta": 30.0,
       "sweeps": 20, "thermalization": 0, "snapshot": True}


@pytest.mark.parametrize("command, base, defaults", [
    ("mc", _MC, {k: _defaults(RunSpec)[k] for k in ("move_set", "measure_stride",
                                                    "cross_check_stride", "shell", "snapshot_stride")}),
    ("heff", {"dims": [2, 1, 1], "U": 16.0, "beta": 160.0}, {"t": _defaults(FKParameters)["t"]}),
    ("bounds", {"op": "polymer", "C1": 1.0, "C2": 1.0, "lambda": 1e-6, "b": 1e14},
     {"a": _defaults(PolymerInputs)["a"]}),
    ("bounds", {"op": "cj", "U": 24.0, "beta": 50.0}, {"c": _defaults(cj_sequence)["c"]}),
    ("bounds", {"op": "b0", "C1": 1.0, "C2": 1.0, "lambda": 1e-6}, {"a": _defaults(find_b0)["a"]}),
    ("energy", {"volume": {"dims": [4, 4, 4], "bc": "bc111"}, "U": 8.0, "flips": [[0, 0, -1]]},
     {"volume": {"dims": [4, 4, 4], "bc": "bc111", "shell": _defaults(Volume)["shell"]}}),
], ids=["mc", "heff", "polymer", "cj", "b0", "energy"])
def test_omitted_keys_take_the_library_defaults(tmp_path, command, base, defaults):
    """A config without its optional keys writes what one that sets them to
    the library's defaults writes, apart from the config's own hash."""
    outs = []
    for name, doc in (("bare", base), ("explicit", {**base, **defaults})):
        outs.append(tmp_path / name)
        assert main([command, "--config", _write(tmp_path, f"{name}.json", doc),
                     "--out", str(outs[-1])]) == 0
    assert _payloads(outs[0]) == _payloads(outs[1])
