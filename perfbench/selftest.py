"""Self-test of the benchmark's output checks: every check accepts the
program's real output and rejects a deliberately corrupted copy of it.

    python3 perfbench/selftest.py

Exits 1 if a check accepts a corrupted output or rejects a good one.
"""
from __future__ import annotations

import copy
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import oracle  # noqa: E402
import setup_calls  # noqa: E402
import workloads  # noqa: E402
from oracle import CheckError  # noqa: E402

RESULTS: list[bool] = []


def expect_reject(name: str, check, *args) -> None:
    try:
        check(*args)
    except CheckError as exc:
        RESULTS.append(True)
        print(f"ok    {name}: rejected ({exc})")
        return
    RESULTS.append(False)
    print(f"FAIL  {name}: corrupted output accepted")


def cases(wl, inp, out, corruptions: dict) -> None:
    wl.check(inp, out)  # the program's own output passes
    for name, corrupt in corruptions.items():
        expect_reject(name, wl.check, inp, corrupt(copy.deepcopy(out)))


def _set(obj, key, value):
    obj[key] = value
    return obj


def _bump(arr, delta, index=0):
    arr = np.array(arr, dtype=float)
    arr.flat[index] += delta
    return arr


def scenario_stream(fixed: dict) -> None:
    wl = workloads.ScenarioStream(ROOT, 0, False, fixed)
    docs = wl.round(7, 0)
    gen_presets = wl.presets
    generated = docs[len(gen_presets):]
    picks = [docs[2]]  # hexsquare-V.B
    picks += [next(d for d in generated if d["post_process"] and d["local_spaces"][0] == space)
              for space in ("qubit", "hex", "square")]
    for doc in picks:
        tag = f"scenario-stream {doc['label']}"

        def shift_mass(o):  # moves 1e-6 between two outcomes: still normalized
            o[0][0, 0, 0, 0, 0, 0, 0, 0] += 1e-6
            o[0][0, 0, 0, 0, 0, 0, 0, 1] -= 1e-6
            return o

        def total(o):
            o[1][0]["total"] += 1e-6
            return o

        def term(o):
            o[1][4]["terms"][3]["probability"] += 1e-3
            return o

        def flag(o):
            o[1][1]["violated"] = not o[1][1]["violated"]
            return o

        def text(o):
            parsed = json.loads(o[2])
            parsed["reports"][2]["total"] += 1e-12
            return o[0], o[1], json.dumps(parsed)

        cases(wl, doc, wl.op(doc), {
            f"{tag}: table entry": shift_mass,
            f"{tag}: inequality total": total,
            f"{tag}: term probability": term,
            f"{tag}: violated flag": flag,
            f"{tag}: serialised text": text,
        })
    expect_reject("closed form hexsquare-V.B inequality 2", oracle.check_headline,
                  "hexsquare-V.B", 2, oracle.HEADLINE_TOTALS["hexsquare-V.B", 2] + 1e-7, "preset")


def strategy_sweep(fixed: dict) -> None:
    wl = workloads.StrategySweep(ROOT, 0, False, fixed)
    jobs = wl.round(7, 0)
    for job in (jobs[1], jobs[-1]):  # hexsquare-V.B and a wired random scenario
        tag = f"strategy-sweep {job[0]['label']}"
        out = wl.op(job)
        labels = oracle.GRID[0]
        other = next(lbl for lbl in labels if lbl != out[0].best_c)
        cases(wl, job, out, {
            f"{tag}: grid optimum": lambda o: (dataclasses.replace(o[0], total_max=o[0].total_max + 1e-6), o[1]),
            f"{tag}: game-term maximum": lambda o: (dataclasses.replace(o[0], game_term_max=o[0].game_term_max - 1e-6), o[1]),
            f"{tag}: best point": lambda o: (dataclasses.replace(o[0], best_c=other), o[1]),
            f"{tag}: optima list": lambda o: (dataclasses.replace(o[0], optima=()), o[1]),
            f"{tag}: mixture dominance": lambda o: (o[0], False),
        })


def space_build(fixed: dict) -> None:
    wl = workloads.SpaceBuild(ROOT, 0, False, fixed)
    fams = wl.round(7, 0)
    for fam in (fams[0], fams[-1]):  # hex and the largest random family
        tag = f"space-build {fam[0]}"
        out = wl.op(fam)
        ineqs, vs, slices, space, prod, witness, lifted, others = out
        n = len(vs.vertices)

        def vertices(o, verts, counts=None):
            new_vs = dataclasses.replace(o[1], vertices=verts,
                                         saturated_counts=counts or o[1].saturated_counts[:len(verts)])
            return (o[0], new_vs) + o[2:]

        def replace_at(o, i, value):
            return o[:i] + (value,) + o[i + 1:]

        cases(wl, fam, out, {
            f"{tag}: constraint offset": lambda o: replace_at(o, 0, [dataclasses.replace(o[0][0], offset=o[0][0].offset + 1e-6)] + o[0][1:]),
            f"{tag}: vertex moved": lambda o: vertices(o, _bump(o[1].vertices, 1e-5, 4)),
            f"{tag}: vertex dropped": lambda o: vertices(o, o[1].vertices[1:]),
            f"{tag}: vertex order": lambda o: vertices(o, o[1].vertices[::-1], o[1].saturated_counts[::-1]),
            f"{tag}: saturation count": lambda o: vertices(o, o[1].vertices, [o[1].saturated_counts[0] + 1] + o[1].saturated_counts[1:]),
            f"{tag}: slice clockwise": lambda o: replace_at(o, 2, [o[2][0][::-1]] + o[2][1:]),
            f"{tag}: slice start": lambda o: replace_at(o, 2, [np.roll(o[2][0], 1, axis=0)] + o[2][1:]),
            f"{tag}: slice vertex moved": lambda o: replace_at(o, 2, [_bump(o[2][0], 1e-5, 1).reshape(-1, 2)] + o[2][1:]),
            f"{tag}: space state": lambda o: replace_at(o, 3, dataclasses.replace(o[3], states=_bump(o[3].states, 1e-9, 5).reshape(n, 4))),
            f"{tag}: min_tensor state count": lambda o: replace_at(o, 4, dataclasses.replace(o[4], states=o[4].states[1:])),
            f"{tag}: witness state": lambda o: replace_at(o, 5, dataclasses.replace(o[5], r1=o[5].s)),
            f"{tag}: witness effect": lambda o: replace_at(o, 5, dataclasses.replace(o[5], e_s=o[5].f_r1)),
            f"{tag}: witness missed": lambda o: replace_at(replace_at(o, 5, None), 6, None),
            f"{tag}: lifted witness index": lambda o: replace_at(o, 6, dataclasses.replace(o[6], s=(o[6].s + 1) % len(o[4].states))),
            f"{tag}: box-world witness missed": lambda o: replace_at(o, 7, {**o[7], "boxworld-III": None}),
        })
    hex_fam = fams[0]
    out = wl.op(hex_fam)
    expect_reject("space-build hex: closed-form vertex list", oracle.check_vertices,
                  out[1].vertices, out[1].saturated_counts, hex_fam[1], "hex", oracle.cube_vertices())


def cli_commands(fixed: dict) -> None:
    wl = workloads.CliCommands(ROOT, 7, False, fixed)
    picks = {}
    for argv in wl.round(7, 0):
        picks.setdefault(argv[0], argv)
    picks["eval"] = ["eval", "--preset", "hexsquare-V.C", "--inequality", "5", "--json"]

    def edit(fn):
        def corrupt(res):
            payload = json.loads(res.stdout)
            fn(payload)
            return dataclasses.replace(res, stdout=json.dumps(payload))
        return corrupt

    corruptions = {
        "eval": {"total": edit(lambda p: _set(p, "total", 1.999999)),
                 "exit code": lambda r: dataclasses.replace(r, code=2)},
        "optimize": {"game-term maximum": edit(lambda p: _set(p, "game_term_max", p["game_term_max"] + 1e-6))},
        "enumerate": {"vertex dropped": edit(lambda p: (_set(p, "vertices", p["vertices"][1:]),
                                                        _set(p, "saturated_counts", p["saturated_counts"][1:]))),
                      "reference diff": edit(lambda p: _set(p, "diff", {"missing": [[0, 0, 0]], "extra": []}))},
        "superposition": {"witness index": edit(lambda p: _set(p["witness"]["states"], "r2", p["witness"]["states"]["s"]))},
        "slice": {"clockwise": edit(lambda p: _set(p, "vertices", p["vertices"][::-1]))},
    }
    for cmd, argv in picks.items():
        cases(wl, argv, wl.op(argv), {f"cli {' '.join(argv)}: {k}": v
                                      for k, v in corruptions[cmd].items()})


def main() -> int:
    scenario_stream(setup_calls.scenario_stream())
    strategy_sweep(setup_calls.strategy_sweep())
    space_build(setup_calls.space_build())
    cli_commands(setup_calls.cli_commands())
    bad = RESULTS.count(False)
    print(f"{len(RESULTS) - bad}/{len(RESULTS)} corrupted outputs rejected")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
