"""Command-line front end.

Exit codes: 0 success, 2 invariant violation, 3 malformed input.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import drf, presets, serialize, spaces, switch
from .errors import InputError, InvariantError
from .gpt import find_superposition, validate_witness
from .polytope import (enumerate_vertices, facets_from_effects, family_counts,
                       slice_polygon, vertex_diff)
from .tolerances import Tolerances, default_tolerances, tolerances_from


@dataclass(frozen=True)
class RunConfig:
    command: str
    json_output: bool
    out: str | None
    tolerance: float | None
    seed: int


def _tolerances(cfg: RunConfig) -> Tolerances:
    # flag wins over the GPTLAB_TOLERANCE environment variable
    if cfg.tolerance is None:
        return default_tolerances()
    return tolerances_from(cfg.tolerance, "--tolerance")


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _effect_operators_for(label: str, effects_file: str | None):
    if effects_file:
        try:
            data = json.loads(Path(effects_file).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise InputError(f"cannot read effects file: {exc}") from None
        ops = []
        for entry in data:
            ops.append(np.array([[complex(cell[0], cell[1]) for cell in row]
                                 for row in entry]))
        return ops, [f"effect {i}" for i in range(len(ops))]
    if label == "hex":
        return spaces.hex_effect_operators()
    if label == "square":
        return spaces.square_effect_operators()
    raise InputError(f"no effect operators for space {label!r}; use hex, square, "
                     "or pass --effects FILE")


def cmd_enumerate(args, cfg: RunConfig) -> int:
    tol = _tolerances(cfg)
    ops, labels = _effect_operators_for(args.space, args.effects)
    ineqs = facets_from_effects(ops, labels, tol)
    vs = enumerate_vertices(ineqs, tol)
    families = family_counts(vs.vertices)
    expected = None if args.effects else spaces.reference_vertices(args.space)
    diff = None if expected is None else vertex_diff(vs.vertices, expected)
    if cfg.json_output:
        payload = {
            "space": args.space,
            "inequalities": [q.as_json() for q in ineqs],
            "vertices": vs.vertices,
            "saturated_counts": vs.saturated_counts,
            "families": families,
            "diff": diff,
        }
        _emit(serialize.dump_text(payload), cfg.out)
    else:
        lines = [f"space: {args.space}",
                 f"inequalities: {len(ineqs)}",
                 f"vertices: {len(vs.vertices)}"]
        if diff is not None:
            if diff["missing"] or diff["extra"]:
                lines.append(f"diff vs reference list: {len(diff['missing'])} missing, "
                             f"{len(diff['extra'])} extra")
            else:
                lines.append("diff vs reference list: empty")
        for fam in families:
            lines.append(f"  {fam['count']} x |coords| ~ {fam['pattern']}")
        for v, n in zip(vs.vertices, vs.saturated_counts):
            coords = ", ".join(format(c, ".12f") for c in v)
            lines.append(f"  ({coords})  saturates {n}")
        _emit("\n".join(lines) + "\n", cfg.out)
    return 0


def cmd_superposition(args, cfg: RunConfig) -> int:
    tol = _tolerances(cfg)
    space = spaces.space(args.space)
    space.validate(tol)
    witness = find_superposition(space, require_basis=args.require_basis, tol=tol)
    if witness is not None:
        validate_witness(space, witness, tol)
    if cfg.json_output:
        payload = {
            "space": args.space,
            "require_basis": bool(args.require_basis),
            "found": witness is not None,
            "witness": witness.as_json() if witness else None,
        }
        _emit(serialize.dump_text(payload), cfg.out)
    else:
        if witness is None:
            _emit(f"space {args.space}: no operational superposition\n", cfg.out)
        else:
            vals = ", ".join(f"{k}={format(v, '.12f')}" for k, v in witness.values.items())
            _emit(
                f"space {args.space}: witness states (s={witness.s}, r1={witness.r1}, "
                f"r2={witness.r2}), effects (e_s={witness.e_s}, f_r1={witness.f_r1}, "
                f"f_r2={witness.f_r2})\n  {vals}\n", cfg.out)
    return 0


def _load_scenario(args) -> switch.SwitchScenario:
    if getattr(args, "preset", None) and getattr(args, "scenario", None):
        raise InputError("pass either --preset or --scenario, not both")
    if getattr(args, "preset", None):
        return presets.load_preset(args.preset)
    if getattr(args, "scenario", None):
        return presets.load_scenario(args.scenario)
    raise InputError("one of --preset or --scenario is required")


def cmd_eval(args, cfg: RunConfig) -> int:
    tol = _tolerances(cfg)
    scn = _load_scenario(args)
    dist = switch.switch_distribution(scn, tol)
    report = drf.eval_inequality(dist, args.inequality, tol)
    if args.dump_table:
        Path(args.dump_table).write_text(switch.distribution_csv(dist), encoding="utf-8")
    if cfg.json_output:
        payload = {"scenario": scn.label, "clamped_entries": dist.clamped}
        payload.update(report.as_json())
        _emit(serialize.dump_text(payload), cfg.out)
    else:
        lines = [f"scenario: {scn.label}", f"inequality: {report.inequality_id}"]
        for t in report.terms:
            lines.append(f"  {t['coefficient']:+.2f} * {format(t['probability'], '.12f')}"
                         f"  {t['label']}")
        lines.append(f"total: {format(report.total, '.12f')}")
        lines.append(f"bound: {format(report.bound, '.12f')}"
                     f"  algebraic: {format(report.algebraic_bound, '.12f')}")
        lines.append(f"violated: {report.violated}")
        _emit("\n".join(lines) + "\n", cfg.out)
    return 0


def cmd_optimize(args, cfg: RunConfig) -> int:
    tol = _tolerances(cfg)
    if args.mixtures < 0:
        raise InputError(f"--mixtures must be 0 or more, got {args.mixtures}")
    if not args.preset and not args.scenario:
        args.preset = "hexsquare-V.B"
    fixed = _load_scenario(args)
    grid = drf.standard_grid()
    result = drf.optimize_strategy(args.inequality, grid, fixed, tol)
    dominated = None
    if args.mixtures > 0:
        dominated = drf.mixture_dominance_check(
            args.inequality, grid, fixed, mixtures=args.mixtures, seed=cfg.seed, tol=tol)
    if cfg.json_output:
        payload = {"scenario": fixed.label, "mixture_dominated": dominated}
        payload.update(result.as_json())
        _emit(serialize.dump_text(payload), cfg.out)
    else:
        lines = [f"scenario: {fixed.label}",
                 f"inequality: {result.inequality_id}",
                 f"best: lab C {result.best_c}, lab B {result.best_b}",
                 f"game term max: {format(result.game_term_max, '.12f')}",
                 f"total max: {format(result.total_max, '.12f')}",
                 "optima:"]
        for o in result.optima:
            lines.append(f"  C {o['lab_c']:7s} B {o['lab_b']:5s} "
                         f"total {format(o['total'], '.12f')}")
        if dominated is not None:
            lines.append(f"mixtures dominated: {dominated}")
        _emit("\n".join(lines) + "\n", cfg.out)
    return 0


def cmd_slice(args, cfg: RunConfig) -> int:
    tol = _tolerances(cfg)
    ops, labels = _effect_operators_for(args.space, args.effects)
    ineqs = facets_from_effects(ops, labels, tol)
    poly = slice_polygon(ineqs, args.ry, tol)
    if cfg.json_output:
        payload = {"space": args.space, "ry": args.ry, "vertices": poly}
        _emit(serialize.dump_text(payload), cfg.out)
    else:
        rows = [[float(p[0]), float(p[1])] for p in poly]
        _emit(serialize.csv_text(["rx", "rz"], rows), cfg.out)
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with code 2
        raise InputError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="gptlab", description=__doc__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit canonical JSON")
    common.add_argument("--out", help="write output to a file instead of stdout")
    common.add_argument("--tolerance", type=float,
                        help="override the 1e-9 tolerance family")
    common.add_argument("--seed", type=int, default=0, help="seed for sampled checks")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", parents=[common],
                       help="vertex-enumerate a state space")
    p.add_argument("--space", default="hex")
    p.add_argument("--effects", help="JSON file with 2x2 effect matrices as [re,im]")
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("superposition", parents=[common], help="search for a superposition witness")
    p.add_argument("--space", required=True)
    p.add_argument("--require-basis", action="store_true",
                   help="demand f_r1 + f_r2 act as the unit effect")
    p.set_defaults(fn=cmd_superposition)

    p = sub.add_parser("eval", parents=[common], help="evaluate an inequality on a scenario")
    p.add_argument("--preset", help=f"one of: {', '.join(switch.PRESET_NAMES)}")
    p.add_argument("--scenario", help="scenario JSON file")
    p.add_argument("--inequality", type=int, default=1)
    p.add_argument("--dump-table", help="also write the full outcome table as CSV")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("optimize", parents=[common], help="sweep measurement grids for an inequality")
    p.add_argument("--preset", help="preset scenario providing the fixed wiring "
                   "(default hexsquare-V.B)")
    p.add_argument("--scenario", help="scenario JSON file providing the fixed wiring")
    p.add_argument("--inequality", type=int, default=2)
    p.add_argument("--mixtures", type=int, default=0,
                   help="also sample this many measurement mixtures")
    p.set_defaults(fn=cmd_optimize)

    p = sub.add_parser("slice", parents=[common], help="cross-section of a state space at fixed ry")
    p.add_argument("--space", default="hex")
    p.add_argument("--effects", help="JSON file with 2x2 effect matrices as [re,im]")
    p.add_argument("--ry", type=float, default=0.0)
    p.set_defaults(fn=cmd_slice)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = RunConfig(command=args.command, json_output=args.json, out=args.out,
                        tolerance=args.tolerance, seed=args.seed)
        return args.fn(args, cfg)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InvariantError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
