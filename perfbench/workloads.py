"""The four workloads: seeded inputs, the timed operation and its output check.

Each workload offers
  round(seed, index) -> inputs   one round; every round runs the same operations
  op(input)          -> output   the timed call into gptlab
  check(input, out)              raises oracle.CheckError on a wrong output
Inputs are made and outputs checked outside the timed region.
"""
from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import gptlab
import numpy as np

import gen
import oracle
from oracle import CheckError, require

HERE = Path(__file__).resolve().parent


class InProcess:
    """A workload whose operations are library calls in this process."""

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ======================================================================
# cli-commands
# ======================================================================


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str
    spans: list | None


class CliCommands:
    """Each operation is one `python -m gptlab.cli ...` process."""

    tail_pct = 75

    def __init__(self, root: Path, seed: int, traced: bool, fixed: dict):
        self.root = root
        self.traced = traced
        self.out_dir = root / ".perfbench"
        self.out_dir.mkdir(exist_ok=True)
        src = str(root / "src")
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        self.presets = gen.preset_docs(root)
        g = gen.rng(seed, 4)
        self.effects = gen.family(gen.observables(g, 5))
        self.effects_file = self.out_dir / f"effects-{seed}.json"
        self.effects_file.write_text(json.dumps(gen.effects_json(self.effects)), encoding="utf-8")
        self.ry = float(g.uniform(-0.9, 0.9))
        self.tables = {name: oracle.switch_table(doc) for name, doc in self.presets.items()}
        self.grid_vals = {(name, iid): oracle.grid_values(self.presets[name], iid)
                          for name, iid in (("hexsquare-V.A", 1), ("hexsquare-V.B", 2))}
        self.hex_states = [oracle.embed_state(v) for v in _lex_sorted(oracle.hex_vertices())]
        self.hex_effects = ([oracle.embed_effect(e) for e in gen.named_family("hex")]
                            + [oracle.embed_effect(np.eye(2)), np.zeros(4)])
        self.max_rss_mb = 0.0

    def round(self, seed: int, index: int) -> list[list[str]]:
        # hexsquare-V.C is left out of optimize: the fixed grid leaves its theory
        mix = [["eval", "--preset", p, "--inequality", str(i)]
               for p in gen.PRESET_NAMES for i in range(1, 6)]
        mix += [["optimize", "--preset", "hexsquare-V.A", "--inequality", "1"],
                ["optimize", "--preset", "hexsquare-V.B", "--inequality", "2"],
                ["enumerate", "--space", "hex"],
                ["enumerate", "--space", "square"],
                ["enumerate", "--space", "generated", "--effects", str(self.effects_file)],
                ["superposition", "--space", "hex"],
                ["slice", "--space", "hex", "--ry", repr(self.ry)]]
        return [argv + ["--json"] for argv in mix]

    def op(self, argv: list[str]) -> CliResult:
        if self.traced:
            cmd = [sys.executable, str(HERE / "spans.py"), *argv]
        else:
            cmd = [sys.executable, "-m", "gptlab.cli", *argv]
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env=self.env, cwd=self.root)
        with proc.stdout, proc.stderr:
            out, err = proc.stdout.read(), proc.stderr.read()
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.max_rss_mb = max(self.max_rss_mb, usage.ru_maxrss / 1024.0)
        err, spans = err.decode(), None
        if self.traced and proc.returncode == 0:
            err, _, last = err.rstrip("\n").rpartition("\n")
            spans = json.loads(last)
        return CliResult(proc.returncode, out.decode(), err, spans)

    def peak_rss_mb(self) -> float:
        return self.max_rss_mb

    def check(self, argv: list[str], res: CliResult) -> None:
        require(res.code == 0, f"exit code {res.code}: {res.stderr.strip()}")
        payload = json.loads(res.stdout)
        cmd, what = argv[0], " ".join(argv)
        if cmd == "eval":
            name, iid = argv[2], int(argv[4])
            require(payload["scenario"] == name, f"{what}: scenario {payload['scenario']}")
            oracle.check_report(payload, self.tables[name], iid, what)
            oracle.check_headline(name, iid, payload["total"], what)
        elif cmd == "optimize":
            name, iid = argv[2], int(argv[4])
            require(payload["mixture_dominated"] is None, f"{what}: mixtures ran")
            oracle.check_optimum(payload, self.presets[name], iid, what, self.grid_vals[name, iid])
        elif cmd == "enumerate":
            space = argv[2]
            effects = self.effects if space == "generated" else gen.named_family(space)
            closed = {"hex": oracle.hex_vertices(), "square": oracle.cube_vertices()}.get(space)
            oracle.check_facets(payload["inequalities"], effects, what)
            oracle.check_vertices(payload["vertices"], payload["saturated_counts"], effects,
                                  what, closed)
            want_diff = None if closed is None else {"missing": [], "extra": []}
            require(payload["diff"] == want_diff, f"{what}: diff {payload['diff']}")
        elif cmd == "superposition":
            require(payload["found"], f"{what}: no witness")
            w = payload["witness"]
            oracle.check_witness(self.hex_states, self.hex_effects,
                                 {**w["states"], **w["effects"]}, what, w["values"])
        elif cmd == "slice":
            oracle.check_slice(payload["vertices"], gen.named_family("hex"), self.ry, what)


def _lex_sorted(points: np.ndarray) -> np.ndarray:
    keys = np.round(points, 10)
    return points[np.lexsort(keys.T[::-1])]


# ======================================================================
# scenario-stream
# ======================================================================


class ScenarioStream(InProcess):
    """Each operation reads one scenario document, builds its table, scores
    the five inequalities and serialises the reports."""

    tail_pct = 90

    def __init__(self, root: Path, seed: int, traced: bool, fixed: dict):
        self.presets = gen.preset_docs(root)

    def round(self, seed: int, index: int) -> list[dict]:
        return gen.scenario_round(seed, index, self.presets)

    def op(self, doc: dict):
        scn = gptlab.presets.scenario_from_json(doc)
        dist = gptlab.switch.switch_distribution(scn)
        reports = [gptlab.drf.eval_inequality(dist, i).as_json() for i in range(1, 6)]
        text = gptlab.serialize.dump_text({"scenario": scn.label, "clamped_entries": dist.clamped,
                                           "reports": reports})
        return dist.table, reports, text

    def check(self, doc: dict, out) -> None:
        table, reports, text = out
        want = oracle.switch_table(doc)
        oracle.check_table(table, want, doc["label"])
        for iid, rep in enumerate(reports, start=1):
            oracle.check_report(rep, want, iid, doc["label"])
            oracle.check_headline(doc["label"], iid, rep["total"], doc["label"])
        parsed = json.loads(text)
        require(parsed["scenario"] == doc["label"], f"{doc['label']}: serialised label")
        require(parsed["reports"] == reports, f"{doc['label']}: serialised reports differ")


# ======================================================================
# strategy-sweep
# ======================================================================

class StrategySweep(InProcess):
    """Each operation sweeps the 60-point standard grid for one fixed scenario
    and inequality, then samples mixtures of the grid measurements at the
    program's default count (200)."""

    tail_pct = 75

    def __init__(self, root: Path, seed: int, traced: bool, fixed: dict):
        self.grid = fixed["grid"]
        self.preset_scn = fixed["presets"]
        self.preset_docs = gen.preset_docs(root)
        self.expected = {}

    def round(self, seed: int, index: int) -> list[tuple]:
        g = gen.rng(seed, 2, index)
        jobs = [(self.preset_docs[name], self.preset_scn[name], iid)
                for name, iid in (("hexsquare-V.A", 1), ("hexsquare-V.B", 2), ("quantum-II.B", 1))]
        # 6 of the 10 jobs are unwired and cost less than the wired ones, so the
        # median and the p75 tail each fall inside one group, not on the edge
        for i, wired in enumerate((False,) * 4 + (True,) * 3):
            doc = gen.quantum_doc(g, f"sweep-{index}-{i}", wired)
            jobs.append((doc, gptlab.presets.scenario_from_json(doc), int(g.integers(1, 6))))
        return [(doc, scn, iid, int(g.integers(2**31))) for doc, scn, iid in jobs]

    def op(self, job):
        _, scn, iid, mix_seed = job
        drf = gptlab.drf
        result = drf.optimize_strategy(iid, self.grid, scn)
        dominated = drf.mixture_dominance_check(iid, self.grid, scn, seed=mix_seed)
        return result, dominated

    def check(self, job, out) -> None:
        doc, _, iid, _ = job
        result, dominated = out
        what = f"{doc['label']} inequality {iid}"
        key = (doc["label"], iid)
        vals = self.expected.get(key) or oracle.grid_values(doc, iid)
        if doc["label"] in self.preset_docs:
            self.expected[key] = vals
        oracle.check_optimum(result.as_json(), doc, iid, what, vals)
        # totals are bilinear in the two labs' effects, so no mixture beats the grid
        require(dominated is True, f"{what}: a mixture beat the grid optimum")


# ======================================================================
# space-build
# ======================================================================

RANDOM_FAMILY_SIZES = (3, 4, 5)


class SpaceBuild(InProcess):
    """Each operation enumerates one effect family's state space, slices it,
    builds the space, composes it with the cube and certifies superpositions."""

    tail_pct = 75

    def __init__(self, root: Path, seed: int, traced: bool, fixed: dict):
        self.fixed = fixed
        cube = fixed["cube"]
        g = cube.effects @ cube.states.T
        self.anchor_state = 0
        self.anchor_effect = next(i for i in range(len(g))
                                  if abs(g[i, 0] - 1) <= 1e-9 and g[i].min() < 1 - 1e-9)

    def round(self, seed: int, index: int) -> list[tuple]:
        g = gen.rng(seed, 3, index)
        fams = [("hex", gen.named_family("hex")), ("square", gen.named_family("square"))]
        fams += [(f"random-{m}", gen.family(gen.observables(g, m))) for m in RANDOM_FAMILY_SIZES]
        return [(label, ops, [float(r) for r in g.uniform(-0.9, 0.9, size=3)])
                for label, ops in fams]

    def op(self, fam):
        label, ops, rys = fam
        gpt, polytope, linalg = gptlab.gpt, gptlab.polytope, gptlab.linalg
        ineqs = polytope.facets_from_effects(ops)
        vs = polytope.enumerate_vertices(ineqs)
        slices = [polytope.slice_polygon(ineqs, ry) for ry in rys]
        unit = gpt.operator_to_gpt(linalg.pauli("I"))
        space = gpt.GptSpace(
            label, 4,
            np.array([gpt.operator_to_gpt(linalg.bloch_to_operator(v)) for v in vs.vertices]),
            np.array([gpt.operator_to_gpt(e) for e in ops] + [unit, np.zeros(4)]), unit)
        cube = self.fixed["cube"]
        prod = gpt.min_tensor(space, cube)
        witness = gpt.find_superposition(space)
        lifted = None
        if witness is not None:
            lifted = gpt.product_superposition_witness(space, cube, witness,
                                                       self.anchor_state, self.anchor_effect)
        others = {name: gpt.find_superposition(self.fixed[name])
                  for name in ("gbit", "glt", "boxworld-III")}
        return ineqs, vs, slices, space, prod, witness, lifted, others

    def check(self, fam, out) -> None:
        label, ops, rys = fam
        ineqs, vs, slices, space, prod, witness, lifted, others = out
        closed = {"hex": oracle.hex_vertices(), "square": oracle.cube_vertices()}.get(label)
        oracle.check_facets([q.as_json() for q in ineqs], ops, label)
        oracle.check_vertices(vs.vertices, vs.saturated_counts, ops, label, closed)
        for ry, poly in zip(rys, slices):
            oracle.check_slice(poly, ops, ry, label)
        oracle.close(space.states, [oracle.embed_state(v) for v in vs.vertices], 1e-12,
                     f"{label}: space states")
        cube = self.fixed["cube"]
        oracle.check_product_states(prod.states, space.states, cube.states, f"{label} x cube")
        _check_search(space, witness, label)
        if witness is not None:
            w, lw = _indices(witness), _indices(lifted)
            anchor_s = cube.states[self.anchor_state]
            anchor_e = cube.effects[self.anchor_effect]
            for k in ("s", "r1", "r2"):
                oracle.close(prod.states[lw[k]], np.kron(space.states[w[k]], anchor_s), 1e-12,
                             f"{label}: lifted state {k}")
            for k in ("e_s", "f_r1", "f_r2"):
                oracle.close(prod.effects[lw[k]], np.kron(space.effects[w[k]], anchor_e), 1e-12,
                             f"{label}: lifted effect {k}")
            oracle.check_witness(prod.states, prod.effects, lw, f"{label} x cube", lifted.values)
        for name, found in others.items():
            _check_search(self.fixed[name], found, name)


def _indices(w) -> dict:
    return {k: getattr(w, k) for k in ("s", "r1", "r2", "e_s", "f_r1", "f_r2")}


def _check_search(space, witness, what: str) -> None:
    if witness is None:
        require(not oracle.has_witness(space.states, space.effects),
                f"{what}: a witness exists but none was found")
    else:
        oracle.check_witness(space.states, space.effects, _indices(witness), what,
                             witness.values)


WORKLOADS = {"cli-commands": CliCommands, "scenario-stream": ScenarioStream,
             "strategy-sweep": StrategySweep, "space-build": SpaceBuild}

__all__ = ["CheckError", "WORKLOADS"]
