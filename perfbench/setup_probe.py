"""Set-up probe: what one CLI command does before its first row, in a fresh interpreter.

Imports ``phasebound.cli``, resolves the command's flags into a config and
builds the model, grid and (for the commands that use one) prior through the
public API, then exits without computing any row.  ``run.py`` times this
process from spawn to exit as the command's set-up time.

    python3 perfbench/setup_probe.py fig3 --prior.alpha 10 --m.max 100 ...
"""

import sys

from phasebound.cli import RunConfig

command, flags = sys.argv[1], sys.argv[2:]
cfg = RunConfig()
for key, value in zip(flags[::2], flags[1::2]):
    cfg.set_key(key[2:], value)
cfg.sample_sizes()
model, domain, grid = cfg.build()
if command in ("fig3", "fig4", "bounds"):
    cfg.make_prior(grid, cfg.prior_alpha)
