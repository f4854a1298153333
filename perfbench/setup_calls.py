"""The program's own set-up for each workload: importing gptlab and the calls
that build the fixed objects the timed operations reuse.

This module imports gptlab before anything else, so that a fresh interpreter
timing `import setup_calls` plus one warm-up measures what a user pays.
"""
import gptlab  # noqa: F401  (first: the import is part of the set-up time)
from gptlab import drf, presets, spaces, switch
from gptlab.serialize import dump_text

PRESET_NAMES = ("quantum-II.B", "hexsquare-V.A", "hexsquare-V.B", "hexsquare-V.C")
SWEEP_PRESETS = ("hexsquare-V.A", "hexsquare-V.B", "quantum-II.B")


def cli_commands() -> dict:
    # every command is its own process, so its set-up is the import alone
    import gptlab.cli  # noqa: F401
    return {}


def scenario_stream() -> dict:
    scn = presets.load_preset(PRESET_NAMES[0])
    dist = switch.switch_distribution(scn)
    dump_text([drf.eval_inequality(dist, i).as_json() for i in range(1, 6)])
    return {}


def strategy_sweep() -> dict:
    grid = drf.standard_grid()
    fixed = {name: presets.load_preset(name) for name in SWEEP_PRESETS}
    drf.optimize_strategy(2, grid, fixed["hexsquare-V.B"])
    return {"grid": grid, "presets": fixed}


def space_build() -> dict:
    return {"cube": spaces.square_space(), "gbit": spaces.gbit_space(),
            "glt": spaces.glt_space(), "boxworld-III": spaces.boxworld_space()}


WARMUP = {"cli-commands": cli_commands, "scenario-stream": scenario_stream,
          "strategy-sweep": strategy_sweep, "space-build": space_build}
