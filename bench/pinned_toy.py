"""Run the `luq` CLI with the toy study's MLP training budgets pinned.

    python bench/pinned_toy.py 200 40 toy regression --ensemble --seed 3 --out run/

`luq toy regression` trains its regressor until the loss stops improving,
so the epoch count, and with it the run time, changes from seed to seed by
up to a factor of three.  Here early stopping is switched off for every MLP
the toy trains and the budgets are set from the command line: the
regressor's (built with the default budget) to the first number and the
ensemble's (built with an explicit one) to the second.  Each seed then does
the same work, as the benchmark's GMM workload does through
``--max-iter``/``--tol``.  Everything
else is the unchanged CLI, including interpreter start and ``import luq``.
"""

import sys

from luq import toy
from luq.cli import main


def pin(mlp_epochs: int, ensemble_epochs: int):
    """Make every MlpTrainConfig the toy builds run exactly the pinned
    number of epochs; returns the original class."""
    original = toy.MlpTrainConfig

    def pinned(**kwargs):
        kwargs["max_epochs"] = ensemble_epochs if "max_epochs" in kwargs else mlp_epochs
        kwargs["improvement_window"] = kwargs["max_epochs"]
        return original(**kwargs)

    toy.MlpTrainConfig = pinned
    return original


if __name__ == "__main__":
    pin(int(sys.argv[1]), int(sys.argv[2]))
    sys.exit(main(sys.argv[3:]))
