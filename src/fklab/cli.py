"""Experiment drivers: JSON-configured subcommands writing JSON/CSV/SVG
artifacts with a provenance header (config hash, seed, package version).

Exit codes: 0 success, 2 config error, 3 resource cap exceeded, 4 internal
invariant violation (bookkeeping drift, failed removal invariant).
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .bounds import (
    PolymerInputs,
    cj_sequence,
    decay_audit,
    find_b0,
    polymer_report,
)
from .classical import ModelCoefficients, extract_contours, h2_relative_energy, h4_relative_energy
from .lattice import CapExceeded, SpinConfiguration, Volume
from .mc import RunSpec, _pinned_faces, mc_run
from .quantum import MAX_ELECTRON_SITES, FKParameters, extract_couplings, verify_decay
from .svgout import faces_svg, tiling_svg
from .tiling import (
    Region,
    Tiling,
    degeneracy_bounds_check,
    enumerate_tilings,
    hexagon_region,
    triangles_from_json,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CAP = 3
EXIT_INVARIANT = 4


class ConfigError(ValueError):
    pass


def _read_json(path, what: str):
    """Parse the JSON file at ``path``; an unreadable file is a config error."""
    if not isinstance(path, str):
        raise ConfigError(f"{what} must be a file path, got {path!r}")
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read {what}: {exc}") from exc


def _int(value, key: str) -> int:
    """An integer config value; a float is accepted only when integral (3.0)."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ConfigError(f"{key} must be an integer, got {value!r}")


def _real(value, key: str) -> float:
    """A real config value: any JSON number (the models reject non-finite ones)."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    raise ConfigError(f"{key} must be a number, got {value!r}")


def _bool(value, key: str) -> bool:
    """A boolean config value: JSON true or false, nothing else."""
    if isinstance(value, bool):
        return value
    raise ConfigError(f"{key} must be true or false, got {value!r}")


def _site(value, key: str) -> tuple[int, int, int]:
    """An integer triple: a site, or box dimensions."""
    if not isinstance(value, list) or len(value) != 3:
        raise ConfigError(f"{key} must be a list of three integers, got {value!r}")
    return tuple(_int(x, key) for x in value)


def _sites(value, key: str) -> list[tuple[int, int, int]]:
    """A list of sites, each a list of three integers."""
    if not isinstance(value, list):
        raise ConfigError(f"{key} must be a list of sites, got {value!r}")
    return [_site(s, key) for s in value]


def _load_config(path: str, required: set, optional: set) -> dict:
    doc = _read_json(path, "config")
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    missing = required - set(doc)
    if missing:
        raise ConfigError(f"missing config keys: {sorted(missing)}")
    unknown = set(doc) - required - optional
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return doc


def _provenance(doc: dict, seed) -> dict:
    blob = json.dumps(doc, sort_keys=True).encode()
    return {
        "config_sha256": hashlib.sha256(blob).hexdigest(),
        "seed": seed,
        "artifact_version": __version__,
    }


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def cmd_heff(config_path: str, out: Path, seed) -> int:
    doc = _load_config(
        config_path,
        required={"dims", "U", "beta"},
        optional={"t", "max_g", "window", "shell"},
    )
    vol = Volume(dims=_site(doc["dims"], "dims"), shell=_int(doc.get("shell", 1), "shell"))
    # one site past the electron cap is enough for extract_couplings to raise it
    sites = list(itertools.islice(vol.sites(), MAX_ELECTRON_SITES + 1))
    params = FKParameters(U=_real(doc["U"], "U"), beta=_real(doc["beta"], "beta"),
                          t=_real(doc.get("t", 1.0), "t"))
    window = _sites(doc["window"], "window") if "window" in doc else None
    table = extract_couplings(sites, params, max_g=_int(doc.get("max_g", 3), "max_g"),
                              window=window)
    decay = verify_decay(table)
    audit = decay_audit(table)
    prov = _provenance(doc, seed)
    _write_json(out / "couplings.json", {"provenance": prov, **table.to_json()})
    _write_json(out / "decay.json", {
        "provenance": prov,
        "levels": {str(g): v for g, v in sorted(decay.levels.items())},
        "trivial": decay.trivial,
        "slope": decay.slope,
        "fit_c1": decay.c1,
        "fit_c": decay.c,
        "decreasing": decay.decreasing if not decay.trivial else None,
        "audit": {
            "c1": audit.c1, "c2_tilde": audit.c2t,
            "violations": len(audit.violations), "trivial": audit.trivial,
        },
    })
    return EXIT_OK


def cmd_tilings(config_path: str, out: Path, seed) -> int:
    doc = _load_config(
        config_path,
        required=set(),
        optional={"side", "triangles", "render", "max_render"},
    )
    if "side" in doc:
        region = hexagon_region(_int(doc["side"], "side"))
    elif "triangles" in doc:
        region = Region(frozenset(triangles_from_json(doc["triangles"])))
    else:
        raise ConfigError("config needs 'side' or 'triangles'")
    cap = _int(doc.get("max_render", 32), "max_render")
    if cap < 0:
        raise ConfigError(f"max_render must be >= 0, got {cap}")
    render = _bool(doc.get("render", False), "render")
    tilings = enumerate_tilings(region)
    report = degeneracy_bounds_check(region, tilings)
    prov = _provenance(doc, seed)
    _write_json(out / "tilings.json", {
        "provenance": prov,
        "triangle_count": len(region),
        "count": report.count,
        "area": report.area,
        "bounds": {"lower": report.lower, "upper": report.upper,
                   "in_regime": report.in_regime, "ok": report.ok},
        "r0_closed": region.r0_closed(),
        "tilings": [t.to_json() for t in tilings],
    })
    if render:
        for i, t in enumerate(tilings[:cap]):
            (out / f"tiling_{i:04d}.svg").write_text(tiling_svg(t))
    return EXIT_OK


def cmd_mc(config_path: str, out: Path, seed) -> int:
    doc = _load_config(
        config_path,
        required={"dims", "bc", "hamiltonian", "U", "beta", "sweeps", "thermalization"},
        optional={"seed", "move_set", "measure_stride", "cross_check_stride",
                  "shell", "replicas", "snapshot", "snapshot_stride"},
    )
    run_seed = _int(doc.get("seed", seed if seed is not None else 0), "seed")
    spec = RunSpec(
        dims=_site(doc["dims"], "dims"),
        bc=str(doc["bc"]),
        hamiltonian=str(doc["hamiltonian"]),
        U=_real(doc["U"], "U"),
        beta=_real(doc["beta"], "beta"),
        sweeps=_int(doc["sweeps"], "sweeps"),
        thermalization=_int(doc["thermalization"], "thermalization"),
        seed=run_seed,
        move_set=str(doc.get("move_set", "single-flip+hexagon-flip")),
        measure_stride=_int(doc.get("measure_stride", 10), "measure_stride"),
        cross_check_stride=_int(doc.get("cross_check_stride", 200), "cross_check_stride"),
        shell=_int(doc.get("shell", 2), "shell"),
        snapshot_stride=_int(doc.get("snapshot_stride", 0), "snapshot_stride"),
    )
    replicas = _int(doc.get("replicas", 1), "replicas")
    if replicas < 1:
        raise ConfigError(f"replicas must be >= 1, got {replicas}")
    snapshot = _bool(doc.get("snapshot", False), "snapshot")
    prov = _provenance(doc, run_seed)
    out.mkdir(parents=True, exist_ok=True)
    summary = {"provenance": prov, "spec": doc, "replicas": []}
    all_series = [mc_run(spec, replica=rep) for rep in range(replicas)]

    def _se(values) -> float:
        v = np.asarray(values, dtype=float)
        return float(np.std(v) / math.sqrt(len(v))) if len(v) else float("nan")

    for rep in range(replicas):
        series = all_series[rep]
        header = (f"# config_sha256={prov['config_sha256']} seed={run_seed} "
                  f"replica={rep} version={__version__}")
        (out / f"series_r{rep}.csv").write_text(
            header + "\n" + "\n".join(series.csv_rows()) + "\n"
        )
        entry = {
            "replica": rep,
            "mean_energy": series.mean_energy(),
            "se_energy": _se(series.energies),
            "mean_acceptance": series.mean_acceptance(),
        }
        if spec.bc == "bc111":
            entry["mean_good_fraction"] = series.mean_good_fraction()
            entry["se_good_fraction"] = _se(series.good_fractions)
            entry["mean_width"] = series.mean_width()
            entry["se_width"] = _se(series.widths)
        if spec.bc == "bc100":
            prof = series.mean_profile()
            entry["layers"] = list(map(int, series.layers))
            entry["layer_magnetization"] = [float(x) for x in prof]
        summary["replicas"].append(entry)
        for sweep, faces in series.snapshots:
            (out / f"snapshot_r{rep}_s{sweep:06d}.svg").write_text(faces_svg(faces))
        if snapshot and spec.bc == "bc111":
            faces = _pinned_faces(series.final_config)
            (out / f"snapshot_r{rep}.svg").write_text(faces_svg(faces))
    _write_json(out / "summary.json", summary)
    return EXIT_OK


def cmd_bounds(config_path: str, out: Path, seed) -> int:
    doc = _load_config(
        config_path,
        required={"op"},
        optional={"C1", "C2", "lambda", "b", "a", "d", "t", "U", "beta", "c",
                  "couplings", "couplings_2u"},
    )
    op = doc["op"]
    prov = _provenance(doc, seed)
    if op == "polymer":
        inp = PolymerInputs(C1=_real(doc["C1"], "C1"), C2=_real(doc["C2"], "C2"),
                            lam=_real(doc["lambda"], "lambda"), b=_real(doc["b"], "b"),
                            a=_real(doc.get("a", 2.0), "a"))
        r = polymer_report(inp)
        payload = {
            "provenance": prov, "k0": r.k0, "alpha": r.alpha, "a0": r.a0,
            "C3": r.C3, "C4": r.C4, "a_prime": r.a_prime,
            "a_double_prime": r.a_double_prime, "a1": r.a1, "q": r.q,
            "zpol_bound": r.zpol_bound,
            "flags": {"cond1": r.cond1, "cond2": r.cond2, "cond4": r.cond4},
        }
    elif op == "cj":
        r = cj_sequence(d=_int(doc.get("d", 3), "d"), t=_real(doc.get("t", 1.0), "t"),
                        U=_real(doc["U"], "U"), beta=_real(doc["beta"], "beta"),
                        c=_real(doc.get("c", 0.5), "c"))
        payload = {
            "provenance": prov, "ratio": r.ratio, "C0": r.c0,
            "tail_sum": None if r.tail_sum == float("inf") else r.tail_sum,
            "total": None if r.total == float("inf") else r.total,
            "converges": r.converges,
            "values": {str(j): v for j, v in sorted(r.values.items())},
        }
    elif op == "b0":
        r = find_b0(C1=_real(doc["C1"], "C1"), C2=_real(doc["C2"], "C2"),
                    lam=_real(doc["lambda"], "lambda"), a=_real(doc.get("a", 2.0), "a"))
        payload = {"provenance": prov, "b0": r.b0, "lambda0": r.lambda0, "B": r.B}
    elif op == "audit":
        from .quantum import CouplingTable
        table = CouplingTable.from_json(_read_json(doc["couplings"], "couplings"))
        table2 = None
        if "couplings_2u" in doc:
            table2 = CouplingTable.from_json(_read_json(doc["couplings_2u"], "couplings_2u"))
        r = decay_audit(table, table2)
        payload = {
            "provenance": prov, "c1": r.c1, "c2_tilde": r.c2t,
            "violations": len(r.violations),
            "pair_exponent_ok": r.pair_exponent_ok, "trivial": r.trivial,
        }
    else:
        raise ConfigError(f"unknown bounds op {op!r}")
    _write_json(out / f"bounds_{op}.json", payload)
    return EXIT_OK


def cmd_energy(config_path: str, out: Path, seed) -> int:
    """Evaluate h2/h4 relative energies and the contour inventory of a configuration.

    The configuration is the boundary ground state of ``volume``/``bc`` with an
    optional list of flipped sites.
    """
    doc = _load_config(
        config_path,
        required={"volume", "U"},
        optional={"flips"},
    )
    vdoc = doc["volume"]
    if not isinstance(vdoc, dict):
        raise ConfigError(f"volume must be a JSON object, got {vdoc!r}")
    bc = vdoc.get("bc")
    if bc is None:
        raise ConfigError("volume block needs a 'bc' entry")
    typed = {"dims": _site(vdoc.get("dims"), "volume.dims"),
             "shell": _int(vdoc.get("shell", 2), "volume.shell")}
    if "lo" in vdoc:
        typed["lo"] = _site(vdoc["lo"], "volume.lo")
    vol = Volume.from_json({**vdoc, **typed})
    if vol.shell < 2:
        raise ConfigError("energy evaluation needs shell depth >= 2")
    config = SpinConfiguration.from_boundary(vol, bc)
    if bc in ("bc100", "bc111") and config.spins.min() == config.spins.max():
        raise ConfigError(f"the box and shell of this volume do not reach the {bc} interface")
    for site in _sites(doc.get("flips", []), "flips"):
        config = config.with_flip(site)
    co = ModelCoefficients(U=_real(doc["U"], "U"))
    contours = extract_contours(config)
    payload = {
        "provenance": _provenance(doc, seed),
        "h2": h2_relative_energy(config, co),
        "h4": h4_relative_energy(config, co),
        "contours": [{"area": c.area, "pinned": c.pinned} for c in contours],
    }
    _write_json(out / "energy.json", payload)
    return EXIT_OK


def cmd_render(config_path: str, out: Path, seed) -> int:
    doc = _load_config(
        config_path,
        required={"kind", "path"},
        optional={"index"},
    )
    if doc["kind"] == "tiling":
        blob = _read_json(doc["path"], "path")
        tilings = blob.get("tilings", [blob]) if isinstance(blob, dict) else None
        if not isinstance(tilings, list):
            raise ConfigError('a stored tiling file holds a tiling or {"tilings": [...]}')
        idx = _int(doc.get("index", 0), "index")
        if not (0 <= idx < len(tilings)):
            raise ConfigError("tiling index out of range")
        t = Tiling.from_json(tilings[idx])
        out.mkdir(parents=True, exist_ok=True)
        (out / "render.svg").write_text(tiling_svg(t))
    else:
        raise ConfigError(f"unknown render kind {doc['kind']!r}")
    return EXIT_OK


COMMANDS = {
    "heff": cmd_heff,
    "tilings": cmd_tilings,
    "mc": cmd_mc,
    "bounds": cmd_bounds,
    "render": cmd_render,
    "energy": cmd_energy,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fklab",
        description="Drivers for the strong-coupling interface toolkit.",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="path to the JSON run config")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="seed recorded in outputs")
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command](args.config, Path(args.out), args.seed)
    except CapExceeded as exc:
        print(json.dumps({"error": str(exc), "code": EXIT_CAP}), file=sys.stderr)
        return EXIT_CAP
    except (ValueError, KeyError) as exc:
        print(json.dumps({"error": str(exc), "code": EXIT_CONFIG}), file=sys.stderr)
        return EXIT_CONFIG
    except RuntimeError as exc:
        print(json.dumps({"error": str(exc), "code": EXIT_INVARIANT}), file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
