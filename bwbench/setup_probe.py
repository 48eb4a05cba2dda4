"""Set-up of a fresh interpreter: import ``bwfields.verify_cli``, load the
default config and fill the lazily built tables, then print ``ready``.
``run.py`` times it from process start to that line."""

import sys

from bwfields import spinor_core, verify_cli

verify_cli.load_config(None)
spinor_core.build_ivdw()
spinor_core.sigma_generators()
spinor_core.levi_civita4()
sys.stdout.write("ready\n")
sys.stdout.flush()
