"""Experiment drivers: JSON-configured subcommands writing JSON/CSV/SVG
artifacts with a provenance header (config hash, seed, package version).

Exit codes: 0 success, 2 config error, 3 resource cap exceeded, 4 internal
invariant violation (bookkeeping drift, failed removal invariant).
"""

from __future__ import annotations

import argparse
import hashlib
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
from .quantum import CouplingTable, FKParameters, extract_couplings
from .svgout import faces_svg, tiling_svg
from .tiling import (
    MAX_TILING_TRIANGLES,
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


def _str(value, key: str) -> str:
    """A string config value; the callee checks it against its names."""
    if isinstance(value, str):
        return value
    raise ConfigError(f"{key} must be a string, got {value!r}")


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


def _read(doc, required: dict, optional: dict, where: str | None = None) -> dict:
    """The values of the JSON object ``doc``, each read by its reader.

    ``required`` and ``optional`` map every key to its reader (``_int``,
    ``_real``, ...).  Only the keys present are read and returned, so an
    absent optional key leaves the callee's default in force.  Any other key,
    or a missing required one, is a config error.  ``where`` names a nested
    block in the messages.
    """
    name = where or "config"
    if not isinstance(doc, dict):
        raise ConfigError(f"{name} must be a JSON object, got {doc!r}")
    missing = required.keys() - doc.keys()
    if missing:
        raise ConfigError(f"missing {name} keys: {sorted(missing)}")
    readers = {**required, **optional}
    unknown = doc.keys() - readers.keys()
    if unknown:
        raise ConfigError(f"unknown {name} keys: {sorted(unknown)}")
    return {k: read(doc[k], f"{where}.{k}" if where else k)
            for k, read in readers.items() if k in doc}


def _load_config(path: str, required: dict, optional: dict) -> tuple[dict, dict]:
    """The config object at ``path`` and its values read by ``_read``."""
    doc = _read_json(path, "config")
    return doc, _read(doc, required, optional)


def _take(cfg: dict, *keys: str) -> dict:
    """Remove ``keys`` from ``cfg`` and return the present ones as keyword arguments."""
    return {k: cfg.pop(k) for k in keys if k in cfg}


def _volume(value, key: str) -> tuple[Volume, str]:
    """A volume block: the box ``dims`` and ``bc``, and optionally ``shell`` and ``lo``."""
    cfg = _read(value, {"dims": _site, "bc": _str}, {"shell": _int, "lo": _site}, where=key)
    bc = cfg.pop("bc")
    return Volume(**cfg), bc


def _provenance(doc: dict, seed) -> dict:
    blob = json.dumps(doc, sort_keys=True).encode()
    return {
        "config_sha256": hashlib.sha256(blob).hexdigest(),
        "seed": seed,
        "artifact_version": __version__,
    }


def _write_json(path: Path, payload: dict) -> None:
    """Write ``payload`` as strict JSON: a NaN or infinity raises ValueError before any write."""
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def cmd_heff(config_path: str, out: Path, seed) -> int:
    doc, cfg = _load_config(
        config_path,
        {"dims": _site, "U": _real, "beta": _real},
        {"t": _real, "max_g": _int, "window": _sites},
    )
    vol = Volume(dims=cfg.pop("dims"))
    params = FKParameters(**_take(cfg, "U", "beta", "t"))
    table = extract_couplings(vol.sites(), params, max_g=cfg.get("max_g", 3),
                              **_take(cfg, "window"))
    audit = decay_audit(table)
    decay = audit.fit
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
        "audit": {"violations": len(audit.violations)},
    })
    return EXIT_OK


def cmd_tilings(config_path: str, out: Path, seed) -> int:
    doc, cfg = _load_config(config_path, {}, {"side": _int, "triangles": lambda v, k: triangles_from_json(v),
                                              "render": _bool, "max_render": _int})
    if ("side" in cfg) == ("triangles" in cfg):
        raise ConfigError("config needs one of 'side' and 'triangles'")
    cap = cfg.get("max_render", 32)
    if cap < 0:
        raise ConfigError(f"max_render must be >= 0, got {cap}")
    if cfg.get("side", 0) > 0 and 6 * cfg["side"] ** 2 > MAX_TILING_TRIANGLES:
        # a hexagon has 6 side^2 triangles: refuse it before building them
        raise CapExceeded(f"enumeration capped at {MAX_TILING_TRIANGLES} triangles, "
                          f"a side-{cfg['side']} hexagon has {6 * cfg['side'] ** 2}")
    region = hexagon_region(cfg["side"]) if "side" in cfg else Region(frozenset(cfg["triangles"]))
    render = cfg.get("render", False)
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
    doc, cfg = _load_config(
        config_path,
        {"dims": _site, "bc": _str, "hamiltonian": _str, "U": _real, "beta": _real,
         "sweeps": _int, "thermalization": _int},
        {"seed": _int, "move_set": _str, "measure_stride": _int, "cross_check_stride": _int,
         "shell": _int, "replicas": _int, "snapshot": _bool, "snapshot_stride": _int},
    )
    replicas = cfg.pop("replicas", 1)
    if replicas < 1:
        raise ConfigError(f"replicas must be >= 1, got {replicas}")
    snapshot = cfg.pop("snapshot", False)
    run_seed = cfg.setdefault("seed", seed if seed is not None else 0)
    spec = RunSpec(**cfg)   # the remaining keys are RunSpec's fields
    prov = _provenance(doc, run_seed)
    summary = {"provenance": prov, "spec": doc, "replicas": []}
    all_series = [mc_run(spec, replica=rep) for rep in range(replicas)]
    out.mkdir(parents=True, exist_ok=True)

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


# each op's required and optional keys besides "op", with their readers
_BOUNDS_OPS = {
    "polymer": ({"C1": _real, "C2": _real, "lambda": _real, "b": _real}, {"a": _real}),
    "cj": ({"U": _real, "beta": _real}, {"d": _int, "t": _real, "c": _real}),
    "b0": ({"C1": _real, "C2": _real, "lambda": _real}, {"a": _real}),
    "audit": ({"couplings": _read_json}, {"couplings_2u": _read_json}),
}


def cmd_bounds(config_path: str, out: Path, seed) -> int:
    doc = _read_json(config_path, "config")
    op = doc.get("op") if isinstance(doc, dict) else None
    if not (isinstance(op, str) and op in _BOUNDS_OPS):
        raise ConfigError(f"config needs an op in {sorted(_BOUNDS_OPS)}, got {op!r}")
    required, optional = _BOUNDS_OPS[op]
    cfg = _read(doc, {"op": _str, **required}, optional)
    del cfg["op"]
    if "lambda" in cfg:
        cfg["lam"] = cfg.pop("lambda")
    prov = _provenance(doc, seed)
    if op == "polymer":
        r = polymer_report(PolymerInputs(**cfg))
        payload = {
            "provenance": prov, "k0": r.k0, "alpha": r.alpha, "a0": r.a0,
            "C3": r.C3, "C4": r.C4, "a_prime": r.a_prime,
            "a_double_prime": r.a_double_prime, "a1": r.a1, "q": r.q,
            "zpol_bound": r.zpol_bound,
            "flags": {"cond1": r.cond1, "cond2": r.cond2, "cond4": r.cond4},
        }
    elif op == "cj":
        r = cj_sequence(**{"d": 3, "t": 1.0, **cfg})
        payload = {
            "provenance": prov, "ratio": r.ratio, "C0": r.c0,
            "tail_sum": None if r.tail_sum == float("inf") else r.tail_sum,
            "total": None if r.total == float("inf") else r.total,
            "converges": r.converges,
            "values": {str(j): v for j, v in sorted(r.values.items())},
        }
    elif op == "b0":
        r = find_b0(**cfg)
        payload = {"provenance": prov, "b0": r.b0, "lambda0": r.lambda0, "B": r.B}
    else:
        # the couplings table, then the one at doubled U if the config names it
        r = decay_audit(*(CouplingTable.from_json(blob) for blob in cfg.values()))
        payload = {
            "provenance": prov, "fit_c1": r.fit.c1, "fit_c": r.fit.c,
            "violations": len(r.violations),
            "pair_exponent_ok": r.pair_exponent_ok, "trivial": r.fit.trivial,
        }
    _write_json(out / f"bounds_{op}.json", payload)
    return EXIT_OK


def cmd_energy(config_path: str, out: Path, seed) -> int:
    """Evaluate h2/h4 relative energies and the contour inventory of a configuration.

    The configuration is the boundary ground state of ``volume``/``bc`` with an
    optional list of flipped sites.
    """
    doc, cfg = _load_config(config_path, {"volume": _volume, "U": _real}, {"flips": _sites})
    vol, bc = cfg["volume"]
    config = SpinConfiguration.from_boundary(vol, bc)
    if bc in ("bc100", "bc111") and config.spins.min() == config.spins.max():
        raise ConfigError(f"the box and shell of this volume do not reach the {bc} interface")
    for site in cfg.get("flips", []):
        config = config.with_flip(site)
    co = ModelCoefficients(U=cfg["U"])
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
    doc, cfg = _load_config(config_path, {"kind": _str, "path": _read_json}, {"index": _int})
    if cfg["kind"] == "tiling":
        blob = cfg["path"]
        tilings = blob.get("tilings", [blob]) if isinstance(blob, dict) else None
        if not isinstance(tilings, list):
            raise ConfigError('a stored tiling file holds a tiling or {"tilings": [...]}')
        idx = cfg.get("index", 0)
        if not (0 <= idx < len(tilings)):
            raise ConfigError("tiling index out of range")
        t = Tiling.from_json(tilings[idx])
        out.mkdir(parents=True, exist_ok=True)
        (out / "render.svg").write_text(tiling_svg(t))
    else:
        raise ConfigError(f"unknown render kind {cfg['kind']!r}")
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
    except (ValueError, KeyError, ArithmeticError) as exc:   # an overflow: inputs out of range
        print(json.dumps({"error": str(exc), "code": EXIT_CONFIG}), file=sys.stderr)
        return EXIT_CONFIG
    except RuntimeError as exc:
        print(json.dumps({"error": str(exc), "code": EXIT_INVARIANT}), file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
