"""The four benchmark workloads: what each task calls, how its output is
checked, and which per-layer metrics its traced run yields.

A workload has ``setup(seed, tracer) -> state``, ``task(state, i, tracer) ->
result``, ``check(state, result, previous) -> problems`` and
``layer_metrics(tracer, results) -> {name: value}`` for the per-layer metrics
that are not a plain mean span time (those named ``<span name>.ms``).  Every input is derived
from the workload seed; fklab receives only the generated inputs.  Spans are
opened here, around each public fklab call, never inside the package.
"""

from __future__ import annotations

import math

import numpy as np

from fklab.bounds import decay_audit
from fklab.classical import (
    ModelCoefficients,
    contour_energy,
    extract_contours,
    h2_relative_energy,
    h4_relative_energy,
)
from fklab.lattice import Volume
from fklab.mc import RunSpec, interface_width, layer_magnetization, mc_run
from fklab.quantum import FKParameters, effective_energy, extract_couplings, neel_ion, verify_decay
from fklab.rcontour import decompose_tiling, dobrushin_remove
from fklab.svgout import faces_svg
from fklab.tiling import (
    config_from_heights,
    enumerate_tilings,
    good_pair_fraction_of_faces,
    hexagon_region,
    r0_closure,
    random_tiling,
    tiling_heights,
)

from spans import NULL


def derived_seed(seed: int, stream: int, i: int) -> int:
    """A 32-bit seed for input ``i`` of a stream; the same triple gives the same seed."""
    return int(np.random.SeedSequence([seed, stream, i]).generate_state(1)[0])


def _pinned(contours):
    return next(c for c in contours if c.pinned)


class Workload:
    #: tasks that together cover every input shape once; runs stop on a cycle boundary
    cycle = 1

    def probe(self, state, results, tr) -> None:
        """Extra traced calls made after the timed tasks (none by default)."""


class Heff(Workload):
    """Coupling extraction: ``fklab heff`` and criteria 2-3.

    One task extracts both windows in turn (Python Fock assembly on 8 sites,
    eigvalsh on 12), so every task does the same work and the median task
    time does not fall between two task sizes.
    """

    name = "heff"
    U, BETA, MAX_G = 16.0, 256.0, 4
    # (label, cluster dims, ion window; None = every cluster site)
    WINDOWS = (
        ("L8", (2, 2, 2), None),
        ("L12", (3, 2, 2), ((-1, -1, -1), (0, -1, -1), (-1, 0, -1), (0, 0, -1))),
    )
    PROBES = 2        # effective_energy probes per window and task
    POOL = 8          # seeded probe configurations per window

    def setup(self, seed, tr):
        params = FKParameters(U=self.U, beta=self.BETA)
        rng = np.random.default_rng(derived_seed(seed, 1, 0))
        windows = []
        for label, dims, win in self.WINDOWS:
            sites = list(Volume(dims=dims, shell=1).sites())
            window = list(win) if win else sites
            probes = []
            for _ in range(self.POOL):
                ion = {s: neel_ion(s) for s in sites}
                ion.update(zip(window, map(int, rng.integers(0, 2, size=len(window)))))
                probes.append(ion)
            windows.append((label, sites, window, probes))
        # warm-up: one small solve loads LAPACK before the first timed task
        _, sites, _, probes = windows[0]
        effective_energy(sites, probes[0], params)
        return {"params": params, "windows": windows}

    def task(self, state, i, tr):
        params = state["params"]
        out = []
        for label, sites, window, probes in state["windows"]:
            with tr.span(f"quantum.extract_couplings.{label}"):
                table = extract_couplings(sites, params, max_g=self.MAX_G, window=window)
            with tr.span("quantum.verify_decay"):
                decay = verify_decay(table)
            with tr.span("bounds.decay_audit"):
                decay_audit(table)
            err = 0.0
            for k in range(self.PROBES):
                ion = probes[(i * self.PROBES + k) % self.POOL]
                with tr.span(f"quantum.effective_energy.{label}"):
                    direct = effective_energy(sites, ion, params)
                with tr.span("quantum.synthesize"):
                    synth = table.synthesize(ion)
                err = max(err, abs(direct - synth))
            nn = next(e for e in table.entries
                      if e.size == 2 and sum(abs(a - b) for a, b in zip(*e.sites)) == 1)
            out.append({"window": label, "configs": (1 << len(window)) + self.PROBES,
                        "j_nn": nn.value, "levels": dict(decay.levels), "synth_err": err})
        return {"units": sum(w["configs"] for w in out), "windows": out}

    def check(self, state, result, previous):
        problems = []
        for w in result["windows"]:
            if not abs(4 * self.U * w["j_nn"] - 1) <= 0.05:
                problems.append(f"{w['window']}: |4UJ-1| = {abs(4 * self.U * w['j_nn'] - 1):.3g} > 0.05")
            lv = w["levels"]
            if not lv.get(3, math.inf) < lv.get(1, -math.inf):
                problems.append(f"{w['window']}: g=3 level not below g=1: {lv}")
            if not w["synth_err"] <= 1e-9:
                problems.append(f"{w['window']}: synthesize vs effective_energy {w['synth_err']:.3g}")
        return problems

    def layer_metrics(self, tr, results):
        out = {"quantum.configs": _mean(r["units"] for r in results if r)}
        for label, dims, win in self.WINDOWS:
            configs = 1 << (len(win) if win else math.prod(dims))
            out[f"quantum.extract_couplings.{label}.ms_per_config"] = (
                tr.mean_ms(f"quantum.extract_couplings.{label}") / configs)
        return out


class Dobrushin(Workload):
    """The costly half of criterion 8: removals on random side-4 tilings."""

    name = "dobrushin"
    SIDE3_COUNT = 980

    def setup(self, seed, tr):
        with tr.span("tiling.enumerate_tilings"):
            count = len(enumerate_tilings(hexagon_region(3)))
        state = {"seed": seed, "side3_count": count, "coeffs": ModelCoefficients(U=8.0),
                 "region": r0_closure(hexagon_region(4).triangles)}
        self.task(state, 0, NULL)   # warm-up on the first task's inputs
        return state

    def task(self, state, i, tr):
        ts = derived_seed(state["seed"], 2, i)
        while True:
            with tr.span("tiling.random_tiling"):
                tiling = random_tiling(state["region"], 20 + ts % 17, seed=ts)
            with tr.span("rcontour.decompose_tiling"):
                deco = decompose_tiling(tiling)
            if deco.contours:
                break
            ts += 1   # nothing to remove: draw the next tiling
        with tr.span("rcontour.dobrushin_remove"):
            _, rep = dobrushin_remove(tiling, ts % len(deco.contours), coeffs=state["coeffs"])
        return {"units": 1, "before": rep.contours_before, "after": rep.contours_after,
                "shifted": any(v != 0 for v in rep.shifts.values())}

    def check(self, state, result, previous):
        problems = []
        if state["side3_count"] != self.SIDE3_COUNT:
            problems.append(f"side-3 hexagon has {state['side3_count']} tilings, not {self.SIDE3_COUNT}")
        if result["after"] != result["before"] - 1:
            problems.append(f"contours {result['before']} -> {result['after']}")
        return problems

    def layer_metrics(self, tr, results):
        done = [r for r in results if r]
        return {
            "rcontour.contours_per_tiling": _mean(r["before"] for r in done),
            "rcontour.shifted_frac": _mean(r["shifted"] for r in done),
        }


class MC(Workload):
    """Criterion 9's chains on 9^3, one chain per task, as ``fklab mc`` with snapshots."""

    name = "mc"
    U111 = 4.0
    KINDS = {
        "bc100_h2": dict(bc="bc100", hamiltonian="h2", U=8.0, beta=8.0 * 40,
                         sweeps=300, thermalization=100, seed=101),
        "bc111_h2": dict(bc="bc111", hamiltonian="h2", U=U111, beta=40.0 * U111**3,
                         sweeps=600, thermalization=200, seed=202),
        "bc111_h4": dict(bc="bc111", hamiltonian="h4", U=U111, beta=40.0 * U111**3,
                         sweeps=600, thermalization=200, seed=202),
    }
    ORDER = tuple(KINDS)   # bc111_h2 directly precedes bc111_h4 in every cycle
    cycle = len(KINDS)

    def setup(self, seed, tr):
        specs = {k: RunSpec(dims=(9, 9, 9), measure_stride=20, **kw) for k, kw in self.KINDS.items()}
        # warm-up: a two-sweep chain with a measurement, then its snapshot
        warm = mc_run(RunSpec(dims=(9, 9, 9), bc="bc111", hamiltonian="h4", U=self.U111,
                              beta=40.0 * self.U111**3, sweeps=2, thermalization=1, seed=0,
                              measure_stride=1))
        faces_svg(_pinned(extract_contours(warm.final_config)).faces)
        return {"seed": seed, "specs": specs}

    def task(self, state, i, tr):
        kind = self.ORDER[i % self.cycle]
        spec = state["specs"][kind]
        with tr.span(f"mc.mc_run.{kind}"):
            series = mc_run(spec, replica=derived_seed(state["seed"], 3, i))
        with tr.span("mc.csv_rows"):
            "\n".join(series.csv_rows())
        if spec.bc == "bc111":
            with tr.span("classical.extract_contours"):
                faces = _pinned(extract_contours(series.final_config)).faces
            with tr.span("svgout.faces_svg"):
                faces_svg(faces)
        return {
            "units": spec.sweeps, "kind": kind, "energies": list(series.energies),
            "acceptance": list(series.acceptance), "measurements": len(series.sweeps),
            "min_abs_m": float(np.min(np.abs(series.mean_profile()))) if spec.bc == "bc100" else None,
            "good_fraction": series.mean_good_fraction() if spec.bc == "bc111" else None,
            "final_config": series.final_config,
        }

    def check(self, state, result, previous):
        problems = []
        kind = result["kind"]
        if not all(math.isfinite(e) for e in result["energies"]):
            problems.append(f"{kind}: non-finite energy")
        if not all(0.0 <= a <= 1.0 for a in result["acceptance"]):
            problems.append(f"{kind}: acceptance outside [0, 1]")
        if kind == "bc100_h2" and not result["min_abs_m"] >= 0.9:
            problems.append(f"bc100_h2: min |m| = {result['min_abs_m']:.3f} < 0.9")
        if kind == "bc111_h4":
            h2 = previous[-1] if previous else None
            if not (h2 and h2["kind"] == "bc111_h2"):
                problems.append("bc111_h4: no bc111_h2 chain in the same cycle")
            elif not result["good_fraction"] >= h2["good_fraction"]:
                problems.append(f"good-pair fraction h4 {result['good_fraction']:.3f} "
                                f"< h2 {h2['good_fraction']:.3f}")
        return problems

    def probe(self, state, results, tr):
        """Replay each chain's measurement calls on its final configuration,
        as many times as it measured, to split chain time into sweeps and
        measurements."""
        for i, r in enumerate(results):
            if not r:
                continue
            cfg = r["final_config"]
            for _ in range(r["measurements"]):
                with tr.span(f"bench.probe.{r['kind']}", task=i):
                    if cfg.bc == "bc111":
                        with tr.span("classical.extract_contours"):
                            faces = _pinned(extract_contours(cfg)).faces
                        with tr.span("tiling.good_pair_fraction_of_faces"):
                            good_pair_fraction_of_faces(faces)
                        with tr.span("mc.interface_width"):
                            interface_width(cfg)
                    else:
                        with tr.span("mc.layer_magnetization"):
                            layer_magnetization(cfg, normal="e3")

    def layer_metrics(self, tr, results):
        chain_ms: dict = {}
        probe_ms: dict = {}
        for name, _, task, start, end in tr.spans:
            if name.startswith("mc.mc_run."):
                chain_ms[task] = (end - start) / 1e6
            elif name.startswith("bench.probe."):
                probe_ms[task] = probe_ms.get(task, 0.0) + (end - start) / 1e6
        out = {"mc.measurements": _mean(r["measurements"] for r in results if r)}
        for kind, kw in self.KINDS.items():
            tasks = [i for i, r in enumerate(results) if r and r["kind"] == kind]
            out[f"mc.mc_run.{kind}.s"] = tr.mean_ms(f"mc.mc_run.{kind}") / 1e3
            out[f"mc.sweep_ms.{kind}"] = _mean(
                (chain_ms[i] - probe_ms.get(i, 0.0)) / kw["sweeps"] for i in tasks)
            out[f"mc.acceptance.{kind}"] = _mean(
                a for i in tasks for a in results[i]["acceptance"])
        return out


class Contours(Workload):
    """``fklab energy`` and criterion 7 at interface scale on seeded 9^3 bc111 configurations."""

    name = "contours"
    POOL = 12        # configurations built in setup; tasks cycle through them
    SPRINKLE = 8     # bulk spin flips per configuration (bubbles, overhangs)

    def setup(self, seed, tr):
        vol = Volume(dims=(9, 9, 9), shell=2)
        region = r0_closure(hexagon_region(4).triangles)
        sites = list(vol.sites())
        pool = []
        for j in range(self.POOL):
            s = derived_seed(seed, 4, j)
            with tr.span("tiling.random_tiling"):
                tiling = random_tiling(region, 40 + s % 40, seed=s)
            with tr.span("tiling.tiling_heights"):
                heights = tiling_heights(tiling)
            with tr.span("tiling.config_from_heights"):
                cfg = config_from_heights(vol, heights)
            spins = cfg.spins.copy()
            rng = np.random.default_rng(s)
            for k in rng.choice(len(sites), size=self.SPRINKLE, replace=False):
                spins[vol.index(sites[k])] *= -1
            pool.append(cfg.with_spins(spins))
        state = {"pool": pool, "coeffs": ModelCoefficients(U=8.0)}
        self.task(state, 0, NULL)   # warm-up on the first task's input
        return state

    def task(self, state, i, tr):
        cfg = state["pool"][i % self.POOL]
        co = state["coeffs"]
        with tr.span("classical.extract_contours"):
            contours = extract_contours(cfg)
        pinned = _pinned(contours)
        with tr.span("tiling.good_pair_fraction_of_faces"):
            _, overlap = good_pair_fraction_of_faces(pinned.faces)
        with tr.span("mc.interface_width"):
            interface_width(cfg)
        with tr.span("classical.h2_relative_energy"):
            h2 = h2_relative_energy(cfg, co)
        with tr.span("classical.h4_relative_energy"):
            h4_relative_energy(cfg, co)
        return {"units": 1, "h2": h2, "contour_sum": sum(contour_energy(c, co) for c in contours),
                "pinned_faces": len(pinned.faces), "overlap": overlap}

    def check(self, state, result, previous):
        diff = abs(result["h2"] - result["contour_sum"])
        return [] if diff <= 1e-12 else [f"h2 - sum of contour energies = {diff:.3g}"]

    def layer_metrics(self, tr, results):
        done = [r for r in results if r]
        return {"classical.pinned_faces": _mean(r["pinned_faces"] for r in done),
                "tiling.overlap_frac": _mean(r["overlap"] for r in done)}


def _mean(values) -> float:
    values = [float(v) for v in values]
    return sum(values) / len(values) if values else 0.0


WORKLOADS = {w.name: w for w in (Heff(), Dobrushin(), MC(), Contours())}
